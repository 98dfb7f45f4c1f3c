from __future__ import annotations

import functools
import random
from collections import deque
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from pcpgames import braids as br
from pcpgames import freegroup as fg
from pcpgames.braids import BraidError

from oracles import (
    all_reduced_words,
    burau3_is_scalar,
    factor_word,
    is_identity,
    nf_to_braid,
    parse_braid,
)


def test_braid_word_free_cancellation():
    assert br.braid(3, [1, -1]).letters == ()
    assert br.braid(3, [1, 2, -2, -1]).letters == ()
    assert br.braid(3, [1, 2, 1]).letters == (1, 2, 1)
    with pytest.raises(BraidError):
        br.BraidWord(3, (1, -1))
    with pytest.raises(BraidError):
        br.braid(3, [3])


def test_parse_render_round_trip():
    w = parse_braid(3, "1 1 1 1 -2")
    assert w.letters == (1, 1, 1, 1, -2)
    assert parse_braid(3, w.render()) == w


def test_fundamental_braid():
    assert br.fundamental_braid(2).letters == (1,)
    d3 = br.fundamental_braid(3)
    assert d3.letters == (2, 1, 2)
    assert br.braids_equal(d3, br.braid(3, [1, 2, 1]))
    assert len(br.fundamental_braid(5)) == 10
    with pytest.raises(BraidError):
        br.fundamental_braid(1)


def test_braids_equal_examples():
    assert br.is_trivial(br.braid(3, [1, -1]))
    assert br.braids_equal(br.braid(3, [1, 2, 1]), br.braid(3, [2, 1, 2]))
    assert br.braids_equal(br.braid(5, [1, 3]), br.braid(5, [3, 1]))
    assert not br.braids_equal(br.braid(3, [1]), br.braid(3, [2]))
    with pytest.raises(BraidError):
        br.braids_equal(br.braid(3, [1]), br.braid(5, [1]))


def test_delta_squared_is_central():
    for gen in (1, 2):
        g = br.braid(3, [gen])
        assert br.braids_equal(br.concat(br.DELTA3_SQUARED, g), br.concat(g, br.DELTA3_SQUARED))


def test_garside_nf_canonical_values():
    nf = br.garside_nf(br.braid(3, []))
    assert nf.power == 0 and nf.factors == ()
    nf_delta = br.garside_nf(br.fundamental_braid(3))
    assert nf_delta.power == 1 and nf_delta.factors == ()
    nf_inv = br.garside_nf(br.braid(3, [-1]))
    assert nf_inv.power == -1 and len(nf_inv.factors) == 1


def test_garside_nf_structural_invariants():
    """Factors are never trivial or the half twist, and adjacent pairs are left-weighted."""
    rng = random.Random(77)
    for strands in (3, 5):
        identity = tuple(range(strands))
        half_twist = tuple(reversed(range(strands)))
        gens = [s * g for g in range(1, strands) for s in (1, -1)]
        for _ in range(150):
            w = br.braid(strands, [rng.choice(gens) for _ in range(rng.randrange(0, 16))])
            nf = br.garside_nf(w)
            for factor in nf.factors:
                assert factor != identity and factor != half_twist
            for left, right in zip(nf.factors, nf.factors[1:]):
                assert br._starting_set(right) <= br._finishing_set(left)


def test_garside_nf_reconstruction_round_trip():
    rng = random.Random(78)
    for strands in (3, 5):
        gens = [s * g for g in range(1, strands) for s in (1, -1)]
        for _ in range(100):
            w = br.braid(strands, [rng.choice(gens) for _ in range(rng.randrange(0, 14))])
            nf = br.garside_nf(w)
            rebuilt = nf_to_braid(nf)
            assert br.garside_nf(rebuilt) == nf
            if strands == 3:
                assert br.burau3(rebuilt) == br.burau3(w)


def test_factor_word_lifts_permutation():
    perm = br.perm_of_braid(br.braid(5, [1, 3, 2]))
    lifted = factor_word(perm)
    assert br.perm_of_braid(br.BraidWord(5, lifted)) == perm


def test_burau_identity_and_artin():
    assert br.burau3(br.braid(3, [])) == br._BURAU_IDENTITY
    assert br.burau3(br.braid(3, [1, -1])) == br._BURAU_IDENTITY
    assert br.burau3(br.braid(3, [1, 2, 1])) == br.burau3(br.braid(3, [2, 1, 2]))
    with pytest.raises(BraidError):
        br.burau3(br.braid(5, [1]))


def test_burau_delta_squared_is_scalar():
    image = br.burau3(br.DELTA3_SQUARED)
    assert burau3_is_scalar(image)
    # the scalar is t^3, computed by the multiplication oracle itself
    assert image[0][0] == ((3, 1),)


# Reference reduced Burau: generic Laurent products and the left-to-right
# 2x2 matrix product over the four generator images.


def _ref_laurent(acc: dict[int, int]) -> br.Laurent:
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def _ref_lp_add(a: br.Laurent, b: br.Laurent) -> br.Laurent:
    acc: dict[int, int] = {}
    for e, c in a + b:
        acc[e] = acc.get(e, 0) + c
    return _ref_laurent(acc)


def _ref_lp_mul(a: br.Laurent, b: br.Laurent) -> br.Laurent:
    acc: dict[int, int] = {}
    for e1, c1 in a:
        for e2, c2 in b:
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return _ref_laurent(acc)


def _ref_burau_mul(a: br.LaurentMatrix, b: br.LaurentMatrix) -> br.LaurentMatrix:
    return tuple(
        tuple(_ref_lp_add(_ref_lp_mul(a[i][0], b[0][j]), _ref_lp_mul(a[i][1], b[1][j])) for j in range(2))
        for i in range(2)
    )


_ONE, _ZERO = ((0, 1),), ()
_REF_GENERATORS = {
    1: ((((1, -1),), _ONE), (_ZERO, _ONE)),
    -1: ((((-1, -1),), ((-1, 1),)), (_ZERO, _ONE)),
    2: ((_ONE, _ZERO), (((1, 1),), ((1, -1),))),
    -2: ((_ONE, _ZERO), (_ONE, ((-1, -1),))),
}


def _ref_burau3(w: br.BraidWord) -> br.LaurentMatrix:
    out = ((_ONE, _ZERO), (_ZERO, _ONE))
    for x in w.letters:
        out = _ref_burau_mul(out, _REF_GENERATORS[x])
    return out


b3_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=60).map(lambda xs: br.braid(3, xs))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(w=b3_words)
def test_burau3_matches_matrix_product_reference(w):
    assert br.burau3(w) == _ref_burau3(w)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(u=b3_words, v=b3_words)
def test_burau3_is_a_homomorphism(u, v):
    assert br.burau3(br.concat(u, v)) == _ref_burau_mul(br.burau3(u), br.burau3(v))


# Reference Garside normalisation: the fixpoint sweep that re-scans the whole
# factor list until no adjacent pair changes.  It builds its own tuple factor
# list from the letters, so it shares no code with the int-coded push loop of
# ``garside_nf`` beyond the pair step ``_renorm``.

_sweep_renorm = functools.lru_cache(maxsize=None)(br._renorm)


def _sweep_normalise_factors(n: int, factors: list[tuple[int, ...]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    ident = br._identity_perm(n)
    w0 = br._longest_perm(n)
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = _sweep_renorm(factors[i], factors[i + 1])
            if (a, b) != (factors[i], factors[i + 1]):
                factors[i], factors[i + 1] = a, b
                changed = True
    lo = 0
    hi = len(factors)
    power = 0
    while lo < hi and factors[lo] == w0:
        power += 1
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    body = tuple(factors[lo:hi])
    assert all(f != ident and f != w0 for f in body), "normalisation left a trivial factor"
    return power, body


def _sweep_garside_nf(w: br.BraidWord) -> br.GarsideNormalForm:
    """Each letter as a permutation factor, half-twist powers commuted to the front, then the sweep."""
    n = w.strands
    letters = br._letter_factors(n)
    factors: list[tuple[int, ...]] = []
    power = 0
    for x in reversed(w.letters):
        factor, flipped, dpow = letters[x]
        factors.append(flipped if power % 2 else factor)
        power += dpow
    factors.reverse()
    extra, body = _sweep_normalise_factors(n, factors)
    return br.GarsideNormalForm(n, power + extra, body)


def _reduced_lists(letters: list, max_size: int) -> st.SearchStrategy[list]:
    """Freely reduced lists up to max_size long, half of them longer than max_size / 2.

    ``letters`` lists each letter next to its inverse.  Each letter is drawn
    among those that do not cancel its predecessor, so the length drawn is
    the length kept.
    """

    def build(picks: list[int]) -> list:
        chosen: list[int] = []
        for k in picks:
            if chosen and k >= chosen[-1] ^ 1:  # skip the predecessor's inverse
                k += 1
            chosen.append(k)
        return [letters[k] for k in chosen]

    sizes = st.one_of(st.integers(0, max_size), st.integers(max_size // 2, max_size))
    picks = st.integers(0, len(letters) - 2)
    return sizes.flatmap(lambda k: st.lists(picks, min_size=k, max_size=k)).map(build)


def _letters(strands: int, max_size: int) -> st.SearchStrategy[list[int]]:
    return _reduced_lists([s * g for g in range(1, strands) for s in (1, -1)], max_size)


@st.composite
def long_braids(draw, strands: st.SearchStrategy[int] = st.sampled_from([3, 4, 5])) -> br.BraidWord:
    """Random words of up to 300 letters, w.v.w^-1 with a short v, and D^k.w."""
    n = draw(strands)
    shape = draw(st.sampled_from(["plain", "conjugate", "delta"]))
    if shape == "conjugate":
        w = br.braid(n, draw(_letters(n, 148)))
        v = br.braid(n, draw(_letters(n, 4)))
        return br.concat(br.concat(w, v), br.invert(w))
    w = br.braid(n, draw(_letters(n, 300)))
    if shape == "delta":
        k = draw(st.integers(-4, 4))
        return br.concat(br.braid_power(br.fundamental_braid(n), k), w)
    return w


_group_words = _reduced_lists([("c", 1), ("c", -1), ("d", 1), ("d", -1)], 40).map(fg.reduce)
_counter_words = _reduced_lists([("r", 1), ("r", -1), ("t", 1), ("t", -1)], 16).map(fg.reduce)


@st.composite
def encoded_braids(draw, strands: st.SearchStrategy[int] = st.sampled_from([3, 5])) -> br.BraidWord:
    """b3_encode or b5_encode outputs, optionally times the inverse of another."""
    n = draw(strands)

    def encode() -> br.BraidWord:
        if n == 3:
            return br.b3_encode(draw(_group_words), draw(st.integers(-3, 3)))
        return br.b5_encode(draw(_group_words), draw(_counter_words))

    w = encode()
    return br.concat(w, br.invert(encode())) if draw(st.booleans()) else w


@settings(max_examples=150, derandomize=True, deadline=None)
@given(w=st.one_of(long_braids(), encoded_braids()))
def test_garside_nf_matches_sweep_on_long_words(w):
    assert br.garside_nf(w) == _sweep_garside_nf(w)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(w=st.one_of(long_braids(st.just(3)), encoded_braids(st.just(3))))
def test_burau3_matches_reference_on_long_words(w):
    assert br.burau3(w) == _ref_burau3(w)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(w=long_braids(st.sampled_from([2, 6, 7])))
def test_garside_nf_matches_sweep_beyond_three_and_five_strands(w):
    assert br.garside_nf(w) == _sweep_garside_nf(w)
    # factors are coded on first use and pairs memoised on first use, so
    # neither table spans the 5040 permutations of S7, let alone their pairs
    codes = br._factor_codes(w.strands)
    if w.strands == 7:
        assert len(codes.perms) < 5040
        assert len(codes.pairs) < 5040 * 5040 // 100


@pytest.mark.parametrize(
    "letters",
    [
        [1, -2] * 150,  # the norm bound is nearly tight: coefficients reach 203 bits
        [-1] * 40,  # lowest exponent -L
        [-1, -2] * 60,
        [-2, -1, -1, -2, -2, -2] * 20,
        [],
        [1],
        [-1],
        [2],
        [-2],
    ],
)
def test_burau3_matches_reference_at_the_packing_edges(letters):
    w = br.braid(3, letters)
    assert br.burau3(w) == _ref_burau3(w)


def test_burau3_wide_coefficients():
    """The edge words above do reach the edges: 203-bit coefficients and exponent -L."""
    image = br.burau3(br.braid(3, [1, -2] * 150))
    assert max(abs(c) for row in image for entry in row for _, c in entry).bit_length() == 203
    low = br.burau3(br.braid(3, [-1] * 40))
    assert min(e for row in low for entry in row for e, _ in entry) == -40


@settings(max_examples=100, derandomize=True, deadline=None)
@given(w=long_braids(st.sampled_from([2, 3, 4, 5, 6, 7])))
def test_perm_of_braid_matches_composed_transpositions(w):
    p = br._identity_perm(w.strands)
    for x in w.letters:
        p = br._compose(p, br._gen_perm(w.strands, abs(x)))
    assert br.perm_of_braid(w) == p


@st.composite
def concat_pairs(draw) -> tuple[br.BraidWord, br.BraidWord]:
    """u and v, where v often starts by cancelling a tail of u."""
    n = draw(st.sampled_from([2, 3, 4, 5]))
    u = br.braid(n, draw(_letters(n, 40)))
    cancel = draw(st.integers(0, len(u)))
    v = br.braid(n, [-x for x in reversed(u.letters)][:cancel] + draw(_letters(n, 40)))
    return u, v


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pair=concat_pairs())
def test_concat_matches_full_cancellation(pair):
    u, v = pair
    product = br.concat(u, v)
    assert product == br.braid(u.strands, u.letters + v.letters)
    assert br.BraidWord(product.strands, product.letters) == product


# Brute-force rewriting search: a third, independent triviality opinion on
# short words.


def _relation_images(a: int, b: int, c: int) -> Iterable[tuple[int, int, int]]:
    """Signed forms of the braid relation applicable to the triple (a, b, c).

    All six are consequences of the positive relation aba = bab for adjacent
    generator indices; together with their mirror instances they form a
    bidirectional, length-preserving rewrite family.
    """
    if abs(abs(a) - abs(b)) != 1:
        return
    x, y = abs(a), abs(b)
    if (a, b, c) == (x, y, x):
        yield (y, x, y)
    elif (a, b, c) == (-x, -y, -x):
        yield (-y, -x, -y)
    elif (a, b, c) == (x, y, -x):
        yield (-y, x, y)
    elif (a, b, c) == (-x, y, x):
        yield (y, x, -y)
    elif (a, b, c) == (x, -y, -x):
        yield (-y, -x, y)
    elif (a, b, c) == (-x, -y, x):
        yield (y, -x, -y)


def _rewriting_neighbours(word: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    n = len(word)
    for i in range(n - 1):
        a, b = word[i], word[i + 1]
        if a == -b:
            yield word[:i] + word[i + 2:]
        if abs(abs(a) - abs(b)) >= 2:
            yield word[:i] + (b, a) + word[i + 2:]
    for i in range(n - 2):
        for image in _relation_images(word[i], word[i + 1], word[i + 2]):
            yield word[:i] + image + word[i + 3:]


def trivial_by_search(w: br.BraidWord, max_states: int = 500_000) -> bool:
    """Bounded breadth-first rewriting search for the empty word.

    Moves are free cancellation, far commutation, and the six signed forms
    of the braid relation; all are length-non-increasing, so the search
    terminates.  A test oracle for short words, not a decision procedure.
    """
    start = w.letters
    seen = {start}
    queue = deque([start])
    while queue:
        if len(seen) > max_states:
            raise BraidError(f"rewriting search exceeded {max_states} states")
        current = queue.popleft()
        if not current:
            return True
        for nxt in _rewriting_neighbours(current):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def test_triple_oracle_agreement_fuzz():
    rng = random.Random(11)
    for _ in range(300):
        length = rng.randrange(0, 21)
        w = br.braid(3, [rng.choice([1, -1, 2, -2]) for _ in range(length)])
        garside = br.is_trivial(w)
        burau = br.burau3(w) == br._BURAU_IDENTITY
        assert garside == burau
        if length <= 8:
            assert trivial_by_search(w) == garside


def test_canonicity_against_rewriting_search():
    rng = random.Random(23)
    for _ in range(150):
        u = br.braid(3, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 5))])
        v = br.braid(3, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 5))])
        assert br.braids_equal(u, v) == trivial_by_search(br.concat(u, br.invert(v)))


def test_search_handles_known_trivials():
    assert trivial_by_search(br.braid(3, [1, 2, 1, -2, -1, -2]))
    assert trivial_by_search(br.braid(3, [2, 1, 2, 2, 1, 2, -1, -2, -1, -1, -2, -1]))
    assert not trivial_by_search(br.braid(3, [1, 2]))


def test_exponent_sum_and_permutation_filters():
    w = br.braid(3, [1, 2, -1, -2])  # exponent sum 0, nontrivial
    assert br.exponent_sum(w) == 0
    assert br.perm_of_braid(w) != (0, 1, 2)
    assert not br.is_trivial_fast(w)
    assert br.is_trivial_fast(br.braid(3, []))
    assert not br.is_trivial_fast(br.braid(3, [1]))


def test_is_trivial_fast_matches_garside_fuzz():
    rng = random.Random(41)
    for strands in (3, 5):
        gens = [s * g for g in range(1, strands) for s in (1, -1)]
        for _ in range(200):
            w = br.braid(strands, [rng.choice(gens) for _ in range(rng.randrange(0, 14))])
            assert br.is_trivial_fast(w) == br.is_trivial(w)


def test_b3_encode_lengths():
    for j in range(1, 11):
        alphabet = fg.RankedAlphabet(tuple(f"z{i}" for i in range(1, j + 1)))
        encoded = br.b3_encode(fg.alpha_encode(fg.word(f"z{j}"), alphabet))
        assert len(encoded) == 8 * j + 4


def test_b3_encode_trivial_iff_trivial_pair():
    assert br.is_trivial_fast(br.b3_encode(fg.EPSILON, 0))
    for w in all_reduced_words(("c", "d"), 4):
        for x in (-2, -1, 0, 1, 2):
            encoded = br.b3_encode(w, x)
            assert br.is_trivial_fast(encoded) == (is_identity(w) and x == 0)


def test_b3_encode_rejects_non_binary_letters():
    with pytest.raises(BraidError):
        br.b3_encode(fg.word("z1"), 0)


def test_b3_encode_homomorphic_in_word():
    rng = random.Random(314)
    letters = [("c", 1), ("c", -1), ("d", 1), ("d", -1)]
    for _ in range(150):
        u = fg.reduce(rng.choice(letters) for _ in range(rng.randrange(0, 7)))
        v = fg.reduce(rng.choice(letters) for _ in range(rng.randrange(0, 7)))
        combined = br.b3_encode(fg.concat(u, v), 0)
        stepwise = br.concat(br.b3_encode(u, 0), br.b3_encode(v, 0))
        assert combined == stepwise


def test_b5_subgroup_generators_commute():
    gens = {
        "first1": br.braid(5, [1] * 4),
        "first2": br.braid(5, [2] * 4),
        "second1": br.braid(5, [4] * 2),
        "second2": br.braid(5, br.B5_D_WORD),
    }
    for x in ("first1", "first2"):
        for y in ("second1", "second2"):
            commutator = br.concat(
                br.concat(gens[x], gens[y]),
                br.concat(br.invert(gens[x]), br.invert(gens[y])),
            )
            assert br.is_trivial(commutator)


def test_b5_second_component_rank_two():
    assert br.b5_encode(fg.EPSILON, fg.word("r")) == br.braid(5, [4, 4])
    assert br.b5_encode(fg.EPSILON, fg.word("t")) == br.braid(5, br.B5_D_WORD)
    assert br.b5_encode(fg.EPSILON, fg.word("~t")) == br.invert(br.braid(5, br.B5_D_WORD))


def test_b5_encode_trivial_iff_both_empty():
    assert br.is_trivial_fast(br.b5_encode(fg.EPSILON, fg.EPSILON))
    counter_words = [fg.power(fg.word("r"), k) for k in range(-3, 4)]
    for w in all_reduced_words(("c", "d"), 3):
        for cw in counter_words:
            encoded = br.b5_encode(w, cw)
            expected = is_identity(w) and is_identity(cw)
            assert br.is_trivial_fast(encoded) == expected


def test_braid3_game_shapes(pipelines):
    pipe = pipelines["i1"]
    game = pipe.braid3_game
    source = pipe.binary_weighted_game
    assert game.strands == 3
    # defender letter move: alpha-then-sigma encoding, no central twist factor
    expected = br.b3_encode(source.defender_moves[0].word, 0)
    assert game.defender_braids[0] == expected
    # initial braid encodes the initial-state letter: nontrivial
    assert not br.is_trivial_fast(game.initial_braid)


def test_braid5_game_shapes(pipelines):
    pipe = pipelines["i1"]
    game = pipe.braid5_game
    assert game.strands == 5
    assert not br.is_trivial_fast(game.initial_braid)
    assert game.defender_braids[0] == br.b5_encode(
        pipe.binary_pair_game.defender_moves[0].word, fg.EPSILON
    )


def test_braid_game_dispatch(pipelines):
    # Each binarized game kind goes to its own braid encoding; the others are refused.
    pipe = pipelines["eq"]
    assert br.build_braid3_game(pipe.binary_weighted_game).strands == 3
    assert br.build_braid5_game(pipe.binary_pair_game).strands == 5
    with pytest.raises(BraidError):
        br.build_braid3_game("nonsense")
    with pytest.raises(BraidError):
        br.build_braid5_game("nonsense")
    with pytest.raises(BraidError, match="binarize"):
        br.build_braid3_game(pipe.weighted_game)
    with pytest.raises(BraidError, match="binarize"):
        br.build_braid5_game(pipe.pair_game)
    with pytest.raises(BraidError, match="pair word game"):
        br.build_braid5_game(pipe.binary_weighted_game)


def test_word_game_target_reaches_trivial_braid(pipelines):
    """A play reaching (eps, 0) in the word game unbraids the braid configuration."""
    pipe = pipelines["eq"]
    from pcpgames import engine
    from pcpgames.domains import word_domain

    word_dom = word_domain(pipe.weighted_game)
    result = engine.attacker_wins_within(word_dom, 2)
    assert result.attacker_wins
    braid_dom = pipe.domain("braid3")
    cfg = braid_dom.initial_config()
    wcfg = word_dom.initial_config()
    for rnd in (1, 2):
        remaining = 2 - rnd + 1
        wcfg = word_dom.apply(wcfg, "D", 0)
        cfg = braid_dom.apply(cfg, "D", 0)
        a = result.strategy[(word_dom.canonical_key(wcfg), remaining)]
        wcfg = word_dom.apply(wcfg, "A", a)
        cfg = braid_dom.apply(cfg, "A", a)
        if word_dom.is_target(wcfg):
            break
    assert word_dom.is_target(wcfg)
    assert braid_dom.is_target(cfg)
    assert br.is_trivial_fast(cfg.braid)


def test_dump_braid_game(pipelines):
    text = br.dump_braid_game(pipelines["i1"].braid3_game)
    assert text.startswith("strands 3\n")
    assert "player=A braid=" in text
