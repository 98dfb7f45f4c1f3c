from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pcpgames import automata as au
from pcpgames import pcp
from pcpgames.automata import AutomatonError, Transition

from conftest import FIXTURES, accepting, load_instance, paths_over
from oracles import is_complete, parse_dot_edges, parse_flat


@pytest.fixture(scope="module")
def aut_i1(i1):
    return au.build_solution_checker(i1)


@pytest.fixture(scope="module")
def aut_eq(eq):
    return au.build_solution_checker(eq)


@pytest.fixture(scope="module")
def aut_mm(mm):
    return au.build_solution_checker(mm)


def test_construction_shape(fixture_instances):
    for inst in fixture_instances.values():
        aut = au.build_solution_checker(inst)
        assert len(aut.states) == 5
        assert aut.finals == frozenset({"q4"})
        assert aut.initial == "q0"
        assert is_complete(aut)


def test_i1_base_family_weight(aut_i1):
    assert Transition("q0", "a", "q1", -2) in aut_i1.transitions


def test_i1_error_guessing_weight(aut_i1):
    # position k=1 of h(a)="a" with code 1: s(k-|g(a)|)+j_k = 2(1-2)+1
    assert Transition("q1", "a", "q2", -1) in aut_i1.transitions


def test_reverse_negates_and_swaps(aut_i1):
    rev = au.reverse(aut_i1)
    assert rev.initial == "q4" and rev.finals == frozenset({"q0"})
    assert Transition("q1", "a", "q0", 2) in rev.transitions


def test_reverse_is_involution(aut_i1):
    back = au.reverse(au.reverse(aut_i1))
    assert back.transitions == aut_i1.transitions
    assert back.initial == aut_i1.initial and back.finals == aut_i1.finals


def test_reverse_needs_single_final(aut_i1):
    unfolded = au.unfold_self_loops(aut_i1)
    with pytest.raises(AutomatonError, match="single final"):
        au.reverse(unfolded)


def test_reverse_path_duality(aut_i1):
    rev = au.reverse(aut_i1)
    for path in paths_over(aut_i1, "a" * 6):
        mirrored = [Transition(t.target, t.letter, t.source, -t.weight) for t in reversed(path)]
        assert sum(t.weight for t in mirrored) == -sum(t.weight for t in path)
        assert set(mirrored) <= rev.transitions


def test_unfold_shape(aut_i1):
    unfolded = au.unfold_self_loops(aut_i1)
    assert unfolded.states == au.STATE_NAMES_9
    assert unfolded.finals == frozenset({"q4", "q8"})
    assert unfolded.initial == "q0"
    assert all(t.source != t.target for t in unfolded.transitions)
    assert is_complete(unfolded)


def test_unfold_cross_edges(aut_i1):
    unfolded = au.unfold_self_loops(aut_i1)
    # the q1 self-loop of weight -2 becomes a bounce pair
    assert Transition("q1", "a", "q5", -2) in unfolded.transitions
    assert Transition("q5", "a", "q1", -2) in unfolded.transitions
    # q0-outgoing edges are duplicated onto the primed copies
    assert Transition("q0", "a", "q5", -2) in unfolded.transitions
    # accepting sink loops unfold like the others
    assert Transition("q4", "a", "q8", 0) in unfolded.transitions
    assert Transition("q8", "a", "q4", 0) in unfolded.transitions


def test_unfold_rejects_other_shapes(aut_i1):
    unfolded = au.unfold_self_loops(aut_i1)
    with pytest.raises(AutomatonError):
        au.unfold_self_loops(unfolded)


def test_unfold_of_reverse_keeps_q0_final(aut_i1):
    unfolded = au.unfold_self_loops(au.reverse(aut_i1))
    assert unfolded.initial == "q4"
    assert unfolded.finals == frozenset({"q0"})
    # reversed q1 -> q0 edge is duplicated from the primed copy
    assert Transition("q5", "a", "q0", 2) in unfolded.transitions


def test_unfold_preserves_bounded_language(fixture_instances):
    for inst in fixture_instances.values():
        aut = au.build_solution_checker(inst)
        unfolded = au.unfold_self_loops(aut)
        for n in range(1, 5):
            for letters in itertools.product(inst.domain_alphabet, repeat=n):
                w = "".join(letters)
                assert au.accepts_within(aut, w) == au.accepts_within(unfolded, w)


def test_bounded_universality_examples(aut_i1, aut_mm, aut_eq):
    assert au.bounded_universality(aut_i1, 6).counterexample == "aaaaaa"
    assert au.bounded_universality(aut_mm, 4).all_accepted
    assert au.bounded_universality(aut_eq, 1).all_accepted


def test_bounded_universality_cap(aut_i1):
    with pytest.raises(AutomatonError, match="safety cap"):
        au.bounded_universality(aut_i1, 3, max_configs=0)


def test_accepts_within_rejects_letters_outside_the_alphabet():
    aut = au.build_solution_checker(load_instance("c4"))
    assert au.accepts_within(aut, "a")
    for w in ("az", "zzz", "z"):
        with pytest.raises(AutomatonError, match="'z' is not in the alphabet"):
            au.accepts_within(aut, w)


def test_outgoing_is_sorted_and_complete(fixture_instances):
    for inst in fixture_instances.values():
        aut = au.unfold_self_loops(au.build_solution_checker(inst))
        for q in aut.states:
            for a in aut.alphabet + ("z",):
                expected = sorted(t for t in aut.transitions if t.source == q and t.letter == a)
                assert list(aut._index.get((q, a), ())) == expected


def test_bounded_universality_deep_horizon_is_not_recursive():
    # one state, initial and final, whose loop adds 1: only the empty prefix
    # has weight 0, and the empty prefix is never accepted
    loop = au.WeightedAutomaton(
        states=("p",),
        alphabet=("a",),
        transitions=frozenset({Transition("p", "a", "p", 1)}),
        initial="p",
        finals=frozenset({"p"}),
    )
    verdict = au.bounded_universality(loop, 3000)
    assert str(verdict) == f"Counterexample({'a' * 3000})"


# --- reference: the path-enumerating checks the frontier search replaced ---


def reference_accepts_within(aut, w):
    """Enumerate every transition path over every nonempty prefix of w."""
    return any(accepting(aut, path) for path in paths_over(aut, w))


def reference_bounded_universality(aut, horizon):
    """Try every length-``horizon`` word in lexicographic order."""
    for letters in itertools.product(sorted(aut.alphabet), repeat=horizon):
        w = "".join(letters)
        if not reference_accepts_within(aut, w):
            return au.UniversalityVerdict(horizon, w)
    return au.UniversalityVerdict(horizon, None)


VARIANTS = {
    "forward": lambda aut: aut,
    "reverse": au.reverse,
    "unfolded": au.unfold_self_loops,
    "unfolded-reverse": lambda aut: au.unfold_self_loops(au.reverse(aut)),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.pcp")))
def test_frontier_search_matches_path_enumeration(name, variant):
    inst = load_instance(name)
    aut = VARIANTS[variant](au.build_solution_checker(inst))
    for n in range(1, 5):
        for letters in itertools.product(inst.domain_alphabet, repeat=n):
            w = "".join(letters)
            assert au.accepts_within(aut, w) == reference_accepts_within(aut, w), w
    for horizon in range(1, 10):
        assert au.bounded_universality(aut, horizon) == reference_bounded_universality(aut, horizon)


@st.composite
def small_automata(draw):
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    states = ("p", "q", "r", "s")[: draw(st.integers(2, 4))]
    edges = st.builds(
        Transition,
        st.sampled_from(states),
        st.sampled_from(alphabet),
        st.sampled_from(states),
        st.integers(-3, 3),
    )
    return au.WeightedAutomaton(
        states=states,
        alphabet=alphabet,
        transitions=frozenset(draw(st.lists(edges, max_size=12))),
        initial=draw(st.sampled_from(states)),
        finals=frozenset(draw(st.lists(st.sampled_from(states), min_size=1, max_size=2))),
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(aut=small_automata(), data=st.data())
def test_frontier_search_matches_path_enumeration_on_random_automata(aut, data):
    w = data.draw(st.text(alphabet=aut.alphabet, max_size=6))
    assert au.accepts_within(aut, w) == reference_accepts_within(aut, w)
    horizon = data.draw(st.integers(1, 5))
    assert au.bounded_universality(aut, horizon) == reference_bounded_universality(aut, horizon)


def test_desk_scale_solution_language(i1, eq, mm):
    """Bad-prefix existence coincides with zero-weight acceptance, words <= 4."""
    for inst in (i1, eq, mm):
        aut = au.build_solution_checker(inst)
        for n in range(1, 5):
            for letters in itertools.product(inst.domain_alphabet, repeat=n):
                w = "".join(letters)
                bad = any(pcp.bad_prefix_case(inst, w[:k]) is not None for k in range(1, n + 1))
                assert bad == au.accepts_within(aut, w), w


def test_acceptance_never_false_positive(fixture_instances):
    """Soundness corpus-wide: accepted words always carry a bad prefix.

    The converse can lag at finite horizons (a first-letter error beyond the
    other image's first letter is only verifiable at a later equivalent
    position), so completeness is pinned by targeted witnesses instead.
    """
    for inst in fixture_instances.values():
        aut = au.build_solution_checker(inst)
        for n in range(1, 5):
            for letters in itertools.product(inst.domain_alphabet, repeat=n):
                w = "".join(letters)
                if au.accepts_within(aut, w):
                    assert any(
                        pcp.bad_prefix_case(inst, w[:k]) is not None for k in range(1, n + 1)
                    ), w


def test_acceptance_lag_witness(fin):
    """fin's word aa is bad at position 2 but only verified on the longer aaaa."""
    aut = au.build_solution_checker(fin)
    assert pcp.bad_prefix_case(fin, "aa") is not None
    assert not au.accepts_within(aut, "aa")
    assert au.accepts_within(aut, "aaaa")


CASE_WITNESSES = [
    ("eq", "a", "q4"),
    ("eq", "aa", "q1"),
    ("mm", "a", "q4"),
    ("c4", "ab", "q1"),
    ("c5", "aba", "q2"),
    ("c6", "aba", "q3"),
]


@pytest.mark.parametrize("name,word,state", CASE_WITNESSES)
def test_case_to_path_completeness(name, word, state):
    """Each witness case is certified by a zero-weight path through its family states."""
    inst = load_instance(name)
    aut = au.build_solution_checker(inst)
    assert any(
        accepting(aut, path) and any(state in (t.source, t.target) for t in path)
        for path in paths_over(aut, word)
    )


def test_dot_round_trip(aut_i1):
    dot = au.export_dot(aut_i1)
    assert 'label="a,-2"' in dot
    assert parse_dot_edges(dot) == aut_i1.sorted_transitions()


def test_flat_round_trip(aut_i1):
    flat = au.export_flat(aut_i1)
    assert parse_flat(flat) == aut_i1

