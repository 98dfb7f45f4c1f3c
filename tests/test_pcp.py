from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pcpgames import pcp
from pcpgames.pcp import BadPrefixCase, PcpError

from conftest import load_instance
from oracles import PrefixKind, find_finite_solutions, is_omega_solution_up_to, prefix_status


def test_parse_i1_fixture():
    inst = pcp.parse_instance("alphabet: a\nimages: a b\nmap a a aa")
    assert inst.h_images == {"a": "a"}
    assert inst.g_images == {"a": "aa"}
    assert inst.s == 3
    assert inst.code("b") == 2


def test_parse_empty_image_sentinel():
    inst = pcp.parse_instance("alphabet: a\nimages: a\nmap a _ a")
    assert inst.h_images["a"] == ""
    assert inst.g_images["a"] == "a"


def test_parse_missing_alphabet_header():
    with pytest.raises(PcpError, match="missing alphabet header"):
        pcp.parse_instance("map a a")


@pytest.mark.parametrize(
    "text,message",
    [
        ("alphabet: a\nimages: a\nmap a a a\nmap a a a", "line 4: duplicate definition"),
        ("alphabet: a\nimages: a\nmap a b a", "line 3: unknown letter 'b'"),
        ("alphabet: a\nimages: a\nmap a a", "line 3: malformed map line"),
        ("alphabet: a\nimages: a\nwhat is this", "line 3: unrecognized line"),
        ("alphabet: ab\nimages: a\nmap a a a", "line 1: letters must be single characters"),
        ("alphabet: a", "missing images header"),
        ("alphabet: a ~\nimages: a\nmap a a a\nmap ~ a a", "line 1: domain letter '~' is reserved"),
        ("\nalphabet: # a\nimages: a\nmap a a a\nmap # a a", "line 2: domain letter '#' is reserved"),
        ("alphabet: ε\nimages: ε\nmap ε ε ε", "line 1: domain letter 'ε' is reserved"),
    ],
)
def test_parse_errors_carry_line_numbers(text, message):
    with pytest.raises(PcpError, match=message):
        pcp.parse_instance(text)


def test_prefix_status_examples(i1, eq, mm):
    assert prefix_status(i1, "a").kind is PrefixKind.H_PROPER_PREFIX_OF_G
    assert prefix_status(eq, "a").kind is PrefixKind.EQUAL_IMAGES
    status = prefix_status(mm, "a")
    assert status.kind is PrefixKind.MISMATCH and status.position == 1


def test_prefix_status_rejects_unknown_letter(i1):
    with pytest.raises(PcpError, match="unknown domain letter"):
        prefix_status(i1, "z")


def test_is_omega_solution_examples(i1, eq, mm):
    assert is_omega_solution_up_to(i1, "a" * 8, 8)
    assert not is_omega_solution_up_to(eq, "aaaa", 1)
    assert not is_omega_solution_up_to(mm, "aa", 1)
    with pytest.raises(PcpError):
        is_omega_solution_up_to(i1, "a", 2)


def test_bad_prefix_cases_all_six(i1, eq, mm):
    assert pcp.bad_prefix_case(eq, "a") is BadPrefixCase.I
    assert pcp.bad_prefix_case(eq, "aa") is BadPrefixCase.II
    assert pcp.bad_prefix_case(mm, "a") is BadPrefixCase.III
    assert pcp.bad_prefix_case(load_instance("c4"), "ab") is BadPrefixCase.IV
    assert pcp.bad_prefix_case(load_instance("c5"), "ab") is BadPrefixCase.V
    assert pcp.bad_prefix_case(load_instance("c6"), "ab") is BadPrefixCase.VI
    assert pcp.bad_prefix_case(i1, "aaa") is None


def test_desynchronize_example():
    inst = pcp.parse_instance("alphabet: a\nimages: b\nmap a b b")
    desynced = pcp.desynchronize(inst)
    assert desynced.h_images["a"] == "αb"
    assert desynced.g_images["a"] == "bα"
    assert desynced.h_images["α"] == ""
    assert desynced.g_images["α"] == "α"
    assert desynced.domain_alphabet == ("a", "α")
    assert desynced.image_alphabet == ("b", "α")


def test_desynchronize_empty_image_stays_empty():
    inst = pcp.parse_instance("alphabet: a\nimages: a\nmap a _ a")
    assert pcp.desynchronize(inst).h_images["a"] == ""


def test_desynchronize_twice_remains_well_formed(i1):
    twice = pcp.desynchronize(pcp.desynchronize(i1), marker="β")
    reparsed = pcp.parse_instance(pcp.serialize_instance(twice))
    assert reparsed == twice


def test_desynchronize_marker_collision(i1):
    with pytest.raises(PcpError, match="collides"):
        pcp.desynchronize(i1, marker="a")


def test_desynchronized_images_never_equal_length(mm, fin):
    """Marker-led words: h-image length is even, g-image length is odd."""
    for inst in (mm, fin):
        desynced = pcp.desynchronize(inst)
        marker = desynced.domain_alphabet[-1]
        for n in range(0, 4):
            for body in itertools.product(inst.domain_alphabet, repeat=n):
                w = marker + "".join(body)
                for k in range(1, len(w) + 1):
                    hp, gp = desynced.h(w[:k]), desynced.g(w[:k])
                    assert len(hp) % 2 == 0 and len(gp) % 2 == 1
                    assert len(hp) != len(gp)


def test_desynchronized_images_never_equal_strings(mm, fin):
    """Even off the canonical shape, image equality is dead: only g-images end in the marker."""
    for inst in (mm, fin):
        desynced = pcp.desynchronize(inst)
        for n in range(1, 5):
            for letters in itertools.product(desynced.domain_alphabet, repeat=n):
                w = "".join(letters)
                assert prefix_status(desynced, w).kind is not PrefixKind.EQUAL_IMAGES


def test_find_finite_solutions_examples(i1, fin):
    assert find_finite_solutions(fin, 2) == ["ab"]
    assert find_finite_solutions(i1, 5) == []
    with pytest.raises(PcpError):
        find_finite_solutions(i1, 0)


def test_find_finite_solutions_cap(fin):
    with pytest.raises(PcpError, match="safety cap"):
        find_finite_solutions(fin, 3, max_candidates=2)


def test_parse_serialize_parse_identity(fixture_instances):
    for inst in fixture_instances.values():
        assert pcp.parse_instance(pcp.serialize_instance(inst)) == inst


def test_instances_hash_by_value():
    first, second = load_instance("eq"), load_instance("eq")
    assert first is not second
    assert hash(first) == hash(second)
    assert {first: "eq"}[second] == "eq"
    assert len({first, second, load_instance("i1")}) == 2


def _tiny_instances():
    """All instances over domain {a,b}, images {a,b}, image lengths <= 2."""
    images = ["", "a", "b", "aa", "ab", "ba", "bb"]
    return st.tuples(
        st.sampled_from(images), st.sampled_from(images),
        st.sampled_from(images), st.sampled_from(images),
    ).map(
        lambda t: pcp.PcpInstance(
            ("a", "b"), ("a", "b"),
            {"a": t[0], "b": t[1]}, {"a": t[2], "b": t[3]},
        )
    )


@settings(max_examples=200, derandomize=True)
@given(inst=_tiny_instances(), letters=st.lists(st.sampled_from("ab"), min_size=1, max_size=8))
def test_cross_oracle_agreement(inst, letters):
    w = "".join(letters)
    by_status = is_omega_solution_up_to(inst, w, len(w))
    by_cases = all(pcp.bad_prefix_case(inst, w[: k + 1]) is None for k in range(len(w)))
    assert by_status == by_cases


@settings(max_examples=200, derandomize=True)
@given(inst=_tiny_instances())
def test_serialize_round_trip_random(inst):
    assert pcp.parse_instance(pcp.serialize_instance(inst)) == inst
