from __future__ import annotations

import functools
import random
from collections import deque
from typing import Iterable
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pcpgames import braids as br
from pcpgames import freegroup as fg
from pcpgames.braids import BraidError
from pcpgames.domains import build_pipeline

from oracles import (
    BURAU_IDENTITY,
    all_reduced_words,
    braid_by_checked_word,
    braid_power_by_concat,
    braids_equal_by_forms,
    burau3_by_letters,
    burau3_is_scalar,
    burau_moves_by_letters,
    exponent_sum_by_letters,
    factor_word,
    is_identity,
    linking_numbers_by_letters,
    nf_to_braid,
    parse_braid,
    perm_of_braid_by_letters,
)


def test_braid_word_free_cancellation():
    assert br.braid(3, [1, -1]).letters == ()
    assert br.braid(3, [1, 2, -2, -1]).letters == ()
    assert br.braid(3, [1, 2, 1]).letters == (1, 2, 1)
    with pytest.raises(BraidError):
        br.BraidWord(3, (1, -1))
    with pytest.raises(BraidError):
        br.braid(3, [3])
    for strands, letters, message in [
        (3, [1, 0, 2], "generator index 0 out of range for 3 strands"),
        (3, [-3, 1], "generator index -3 out of range for 3 strands"),
        (1, [], "braid groups need at least two strands"),
    ]:
        for build in (br.braid, br.BraidWord):
            with pytest.raises(BraidError, match=message):
                build(strands, tuple(letters))
    assert br.braid(3, [3, -3]) == br.BraidWord(3, ())  # only the letters kept are checked


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
    perm = perm_of_braid_by_letters(br.braid(5, [1, 3, 2]))
    lifted = factor_word(perm)
    assert perm_of_braid_by_letters(br.BraidWord(5, lifted)) == perm


def test_burau_identity_and_artin():
    assert br.burau3(br.braid(3, [])) == BURAU_IDENTITY
    assert br.burau3(br.braid(3, [1, -1])) == BURAU_IDENTITY
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


def _reduced_lists(letters: list, max_size: int, min_size: int = 0) -> st.SearchStrategy[list]:
    """Freely reduced lists min_size to max_size long, half of them longer than max_size / 2.

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

    sizes = st.one_of(st.integers(min_size, max_size), st.integers(max(min_size, max_size // 2), max_size))
    picks = st.integers(0, len(letters) - 2)
    return sizes.flatmap(lambda k: st.lists(picks, min_size=k, max_size=k)).map(build)


def _letters(strands: int, max_size: int, min_size: int = 0) -> st.SearchStrategy[list[int]]:
    return _reduced_lists([s * g for g in range(1, strands) for s in (1, -1)], max_size, min_size)


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


def _norm_bound_bits(letters: list[int]) -> int:
    """Bit length of the L1 norm bound that sizes ``burau3``'s digits: (a, a+b) for s1, (a+b, b) for s2."""
    a0, b0, a1, b1 = 1, 0, 0, 1
    for x in letters:
        if abs(x) == 1:
            b0, b1 = b0 + a0, b1 + a1
        else:
            a0, a1 = a0 + b0, a1 + b1
    return max(a0, b0, a1, b1).bit_length()


def _word_with_bound_bits(cycle: list[int], bits: int) -> list[int]:
    """The shortest prefix of ``cycle`` repeated whose norm bound has ``bits`` bits.

    A letter at most doubles the bound, so the bit length grows by at most
    one per letter and every length is reached exactly.
    """
    letters: list[int] = []
    while _norm_bound_bits(letters) < bits:
        letters.append(cycle[len(letters) % len(cycle)])
    assert _norm_bound_bits(letters) == bits
    return letters


# The digit width is bits // 8 + 1 bytes, rounded up to 1, 2, 4 or 8 up to
# 8 and kept above; each bit length sits just under or over a class edge.
_WIDTH_CLASSES = [(1, 1), (7, 1), (8, 2), (15, 2), (16, 4), (31, 4), (32, 8), (63, 8), (64, 9)]


@pytest.mark.parametrize("cycle", [[1, -2], [1, 2], [-1, -2], [2, 2, -1]], ids=str)
@pytest.mark.parametrize(("bits", "width"), _WIDTH_CLASSES, ids=[f"{b}bits-{w}bytes" for b, w in _WIDTH_CLASSES])
def test_burau3_matches_reference_in_every_digit_width_class(monkeypatch, cycle, bits, width):
    widths = []
    unpack = br._unpack

    def recording(value, low, digits, digit_width):
        widths.append(digit_width)
        return unpack(value, low, digits, digit_width)

    monkeypatch.setattr(br, "_unpack", recording)
    w = br.braid(3, _word_with_bound_bits(cycle, bits))
    assert br.burau3(w) == _ref_burau3(w)
    assert widths == [width] * 4


# The kernels walk maximal runs of one signed generator; the oracles walk
# the same words one letter at a time.


@st.composite
def run_heavy_braids(draw, strands: st.SearchStrategy[int] = st.integers(2, 7)) -> br.BraidWord:
    """Up to 12 runs of 1 to 64 letters of one signed generator, no run cancelling the one before."""
    n = draw(strands)
    gens = [s * g for g in range(1, n) for s in (1, -1)]
    letters: list[int] = []
    for _ in range(draw(st.integers(0, 12))):
        x = draw(st.sampled_from([g for g in gens if not letters or g != -letters[-1]]))
        letters += [x] * draw(st.integers(1, 64))
    return br.BraidWord(n, tuple(letters))


def _assert_kernels_match_letter_oracles(w: br.BraidWord) -> None:
    assert br.exponent_sum(w) == exponent_sum_by_letters(w)
    assert br._burau_moves(w) == burau_moves_by_letters(w)
    if w.strands == 3:
        assert br.burau3(w) == burau3_by_letters(w)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(w=run_heavy_braids())
def test_run_kernels_match_letter_oracles_on_run_heavy_words(w):
    _assert_kernels_match_letter_oracles(w)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(w=run_heavy_braids(st.just(3)))
def test_burau3_matches_letter_oracle_on_run_heavy_words(w):
    assert br.burau3(w) == burau3_by_letters(w)
    assert br.is_trivial_fast(w) == (burau3_by_letters(w) == BURAU_IDENTITY)


def _digit_width(letters: list[int]) -> int:
    """The width ``burau3`` packs a word's digits in, from the norm bound taken one letter at a time."""
    width = _norm_bound_bits(letters) // 8 + 1
    return next((size for size in (1, 2, 4, 8) if size >= width), width)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(w=run_heavy_braids(st.just(3)))
def test_burau3_digit_width_on_run_heavy_words(w):
    """The norm bound taken a run at a time is the bound taken a letter at a time, so the width is too."""
    widths = []
    unpack = br._unpack

    def recording(value, low, digits, digit_width):
        widths.append(digit_width)
        return unpack(value, low, digits, digit_width)

    with mock.patch.object(br, "_unpack", recording):
        br.burau3(w)
    assert widths == [_digit_width(list(w.letters))] * 4


@settings(max_examples=100, derandomize=True, deadline=None)
@given(w=st.one_of(long_braids(st.sampled_from([2, 3, 4, 5, 6, 7])), encoded_braids()))
def test_run_kernels_match_letter_oracles_on_long_and_encoded_words(w):
    _assert_kernels_match_letter_oracles(w)


@pytest.mark.parametrize("x", [1, -1, 2, -2])
def test_run_kernels_match_letter_oracles_on_every_run_length(x):
    """x^m for every m up to 100 reaches every bit pattern of the doubling in ``_times_s``."""
    for m in range(101):
        _assert_kernels_match_letter_oracles(br.braid(3, [x] * m))
        _assert_kernels_match_letter_oracles(br.braid(5, [x, 4] + [x] * m))


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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(strands=st.integers(1, 6), letters=st.lists(st.integers(-5, 5), max_size=30))
def test_braid_matches_the_checked_construction(strands, letters):
    """The same word or the same error message, on letters in and out of range; the word passes the full check."""

    def outcome(build):
        try:
            return build(strands, letters)
        except BraidError as exc:
            return str(exc)

    built = outcome(br.braid)
    assert built == outcome(braid_by_checked_word)
    if isinstance(built, br.BraidWord):
        assert br.BraidWord(built.strands, built.letters) == built


@st.composite
def power_bases(draw) -> br.BraidWord:
    """Short words, conjugates u.v.u^-1 (whose last letter cancels the first), and half twists."""
    n = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(["plain", "conjugate", "twist"]))
    if shape == "twist":
        return br.braid_power(br.fundamental_braid(n), draw(st.integers(1, 2)))
    w = br.braid(n, draw(_letters(n, 12)))
    if shape == "conjugate":
        v = br.braid(n, draw(_letters(n, 3)))
        return br.concat(br.concat(w, v), br.invert(w))
    return w


@settings(max_examples=300, derandomize=True, deadline=None)
@given(w=power_bases(), n=st.integers(-6, 6))
def test_braid_power_matches_repeated_concat(w, n):
    power = br.braid_power(w, n)
    assert power == braid_power_by_concat(w, n)
    assert br.BraidWord(power.strands, power.letters) == power


def test_delta_squared_power_repeats_its_letters():
    assert br.DELTA3_SQUARED.letters == (2, 1, 2) * 2
    assert br.braid_power(br.DELTA3_SQUARED, -3).letters == (-2, -1, -2) * 6


@settings(max_examples=200, derandomize=True, deadline=None)
@given(w=st.sampled_from([2, 3, 4, 5, 6]).flatmap(lambda n: _letters(n, 60).map(lambda xs: br.braid(n, xs))))
def test_invert_reverses_and_negates(w):
    inverse = br.invert(w)
    assert inverse == br.BraidWord(w.strands, tuple(-x for x in reversed(w.letters)))
    assert br.invert(inverse) == w


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
        burau = br.burau3(w) == BURAU_IDENTITY
        assert garside == burau
        if length <= 8:
            assert trivial_by_search(w) == garside


def test_canonicity_against_rewriting_search():
    rng = random.Random(23)
    for _ in range(150):
        u = br.braid(3, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 5))])
        v = br.braid(3, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 5))])
        assert br.braids_equal(u, v) == trivial_by_search(br.concat(u, br.invert(v)))


# braids_equal decides through one normal form, of u.v^-1; the oracle
# compares the normal forms of u and of v.


def _rewritten(w: br.BraidWord, rng: random.Random, steps: int) -> br.BraidWord:
    """w after ``steps`` random moves of the rewriting search, each keeping the braid."""
    word = w.letters
    for _ in range(steps):
        neighbours = list(_rewriting_neighbours(word))
        if neighbours:
            word = rng.choice(neighbours)
    return br.braid(w.strands, word)


def _with_inserted(w: br.BraidWord, rng: random.Random, *pieces: br.BraidWord) -> br.BraidWord:
    """w with each piece inserted at its own random position."""
    letters = list(w.letters)
    for piece in pieces:
        i = rng.randrange(len(letters) + 1)
        letters[i:i] = piece.letters
    return br.braid(w.strands, letters)


def _long_word(draw, strands: int) -> br.BraidWord:
    return br.braid(strands, draw(_letters(strands, 250, 150)))


def _seeded_words(draw) -> tuple[br.BraidWord, random.Random]:
    """A 150- to 250-letter word in B3, B4 or B5, and a seeded generator for its rewrites."""
    return _long_word(draw, draw(st.sampled_from([3, 4, 5]))), random.Random(draw(st.integers(0, 2**32)))


@st.composite
def equal_pairs(draw) -> tuple[br.BraidWord, br.BraidWord]:
    """u and u rewritten by braid relations, or u with D^2 and D^-2 inserted apart."""
    u, rng = _seeded_words(draw)
    if draw(st.booleans()):
        return u, _rewritten(u, rng, 40)
    twist = br.braid_power(br.fundamental_braid(u.strands), 2)
    return u, _with_inserted(u, rng, twist, br.invert(twist))


@st.composite
def unequal_pairs_sharing_invariants(draw) -> tuple[br.BraidWord, br.BraidWord]:
    """u and u with a commutator of two adjacent pure generators inserted.

    s_i^2 and s_(i+1)^2 generate a free group, so the commutator is not the
    trivial braid, yet it adds nothing to the exponent sum or the permutation.
    """
    u, rng = _seeded_words(draw)
    i = draw(st.integers(1, u.strands - 2))
    commutator = br.braid(u.strands, [i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1])
    return u, _rewritten(_with_inserted(u, rng, commutator), rng, 10)


@st.composite
def random_pairs(draw) -> tuple[br.BraidWord, br.BraidWord]:
    u, _ = _seeded_words(draw)
    return u, _long_word(draw, u.strands)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pair=equal_pairs())
def test_braids_equal_matches_two_forms_on_equal_pairs(pair):
    u, v = pair
    assert br.braids_equal(u, v) and braids_equal_by_forms(u, v)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pair=unequal_pairs_sharing_invariants())
def test_braids_equal_matches_two_forms_past_the_invariant_filter(pair):
    u, v = pair
    assert br.exponent_sum(u) == br.exponent_sum(v)
    assert perm_of_braid_by_letters(u) == perm_of_braid_by_letters(v)
    assert not br.braids_equal(u, v) and not braids_equal_by_forms(u, v)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pair=random_pairs())
def test_braids_equal_matches_two_forms_on_random_pairs(pair):
    u, v = pair
    assert br.braids_equal(u, v) == braids_equal_by_forms(u, v)
    assert br.braids_equal(u, u) and br.braids_equal(v, v)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pair=equal_pairs())
def test_garside_nf_matches_sweep_on_equal_pair_quotients(pair):
    """u.v^-1 of an equal pair forms half twists all along the push; the sweep walks each to the front."""
    w = br.concat(pair[0], br.invert(pair[1]))
    assert br.garside_nf(w) == _sweep_garside_nf(w)


@pytest.mark.parametrize("name", ["eq", "i1"])
def test_play_braids_equal_their_encodings(fixture_instances, name):
    """Every braid a seeded play reaches equals the encoding of its word preimage.

    The pipeline is built here: the session's pipelines keep the domains
    they build, which a test of how they are built must see unbuilt.
    """
    pipe = build_pipeline(fixture_instances[name])
    encodings = {
        "braid3": lambda cfg: br.b3_encode(cfg.word, cfg.counter),
        "braid5": lambda cfg: br.b5_encode(cfg.word, cfg.counter_word),
    }
    rng = random.Random(7)
    for representation, encode in encodings.items():
        domain = pipe.domain(representation)
        for _ in range(3):
            cfg = domain.initial_config()
            for player in "DADA":
                cfg = domain.apply(cfg, player, rng.randrange(domain.move_count(player)))
                encoded = encode(cfg)
                assert br.braids_equal(cfg.braid, encoded) and braids_equal_by_forms(cfg.braid, encoded)


def test_braids_equal_normalises_one_word_past_the_invariants(monkeypatch):
    """u.v^-1 reaches the normal form only past the exponent sum and the Burau certificate."""
    normalised = []
    normalise = br._normalise_factors

    def counting(codes, factors):
        normalised.append(len(factors))
        return normalise(codes, factors)

    monkeypatch.setattr(br, "_normalise_factors", counting)
    cases = [
        (br.braid(3, [1, 2, 1]), br.braid(3, [2, 1, 2]), True, 1),
        (br.braid(3, [1, 1, 2, 2, -1, -1, -2, -2]), br.braid(3, []), False, 0),  # the certificate refutes
        (br.braid(5, [1, 3, 2]), br.braid(5, [1, 3, 2]), True, 0),  # the quotient cancels to the empty word
        (br.braid(3, [1]), br.braid(3, [1, 1, 1]), False, 0),  # exponent sums differ
        (br.braid(3, [1]), br.braid(3, [2]), False, 0),  # exponent sum 0, the certificate refutes
        (br.braid(4, [1, -2]), br.braid(4, [2, -1]), False, 0),  # exponent sum 0, the certificate refutes
    ]
    for u, v, equal, forms in cases:
        normalised.clear()
        assert br.braids_equal(u, v) == equal
        assert len(normalised) == forms, (u, v)


# The prime-field Burau certificate refutes; it must never fire on a trivial
# word, and whenever it fires the sweep oracle must find the word nontrivial.


@st.composite
def twisted_conjugate_quotients(draw) -> br.BraidWord:
    """D.w.D^-1.tau(w)^-1 in B3 to B7: trivial, since conjugating by D flips each s_i to s_(n-i)."""
    n = draw(st.integers(3, 7))
    w = br.braid(n, draw(_letters(n, 60)))
    delta = br.fundamental_braid(n)
    flipped = br.braid(n, [(n - abs(x)) * (1 if x > 0 else -1) for x in w.letters])
    return br.concat(br.concat(br.concat(delta, w), br.invert(delta)), br.invert(flipped))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(w=st.one_of(equal_pairs().map(lambda pair: br.concat(pair[0], br.invert(pair[1]))),
                   twisted_conjugate_quotients()))
def test_burau_certificate_never_fires_on_a_trivial_word(w):
    assert not br._burau_moves(w)
    assert br.is_trivial_fast(w)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(w=st.one_of(long_braids(), encoded_braids()))
def test_burau_certificate_fires_only_on_nontrivial_words(w):
    if br._burau_moves(w):
        assert not _sweep_garside_nf(w).is_trivial()


def _count_exact_oracles(monkeypatch) -> list[str]:
    """Record each ``burau3`` call and each Garside normalisation, in order."""
    exact: list[str] = []
    burau3, normalise = br.burau3, br._normalise_factors

    def counting_burau3(w):
        exact.append("burau3")
        return burau3(w)

    def counting_normalise(codes, factors):
        exact.append("garside")
        return normalise(codes, factors)

    monkeypatch.setattr(br, "burau3", counting_burau3)
    monkeypatch.setattr(br, "_normalise_factors", counting_normalise)
    return exact


@pytest.mark.parametrize("strands", [3, 5])
def test_is_trivial_fast_refutes_a_commutator_without_an_exact_oracle(monkeypatch, strands):
    """s1^2 and s2^2 generate a free group, so their commutator is nontrivial,
    yet its exponent sum, permutation and linking numbers all vanish."""
    exact = _count_exact_oracles(monkeypatch)
    w = br.braid(strands, [1, 1, 2, 2, -1, -1, -2, -2])
    assert not linking_numbers_by_letters(w)
    assert not br.is_trivial_fast(w)
    assert exact == []
    assert not br.is_trivial(w) and exact == ["garside"]


def test_b3_has_one_exact_oracle(monkeypatch):
    """A trivial B3 word that the certificate passes is decided by one normal form, not by ``burau3``."""
    exact = _count_exact_oracles(monkeypatch)
    w = br.braid(3, [1, 2, 1, -2, -1, -2])
    assert not br._burau_moves(w)
    assert br.is_trivial_fast(w)
    assert exact == ["garside"]


# Far commutation: the pass ahead of Garside cancels x^-1 against x across
# letters that commute with both, so it must keep the normal form.


@settings(max_examples=60, derandomize=True, deadline=None)
@given(w=st.one_of(long_braids(), encoded_braids(),
                   equal_pairs().map(lambda pair: br.concat(pair[0], br.invert(pair[1])))))
def test_far_cancellation_keeps_the_normal_form(w):
    cancelled = br.BraidWord(w.strands, br._far_cancelled(w.letters))  # validates: in range, freely cancelled
    assert _sweep_garside_nf(cancelled) == _sweep_garside_nf(w)
    assert br._far_cancelled(cancelled.letters) == cancelled.letters
    assert len(cancelled) <= len(w)
    if w.strands == 3:
        assert cancelled == w


@settings(max_examples=40, derandomize=True, deadline=None)
@given(word=_group_words, count=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_b5_pair_with_moved_counter_letters_cancels_to_the_empty_word(word, count, seed):
    """The counter's s4 s4 commutes with the word's s1 and s2 letters, so moving it gives the same braid."""
    u = br.b5_encode(word, fg.GroupWord(((fg.COUNTER_SYMBOL, 1),) * count))
    rng = random.Random(seed)
    letters = [x for x in u.letters if x != 4]
    for _ in range(count):
        i = rng.randrange(len(letters) + 1)
        letters[i:i] = [4, 4]
    v = br.braid(5, letters)
    assert br._far_cancelled(br.concat(u, br.invert(v)).letters) == ()
    assert br.braids_equal(u, v)


def test_search_handles_known_trivials():
    assert trivial_by_search(br.braid(3, [1, 2, 1, -2, -1, -2]))
    assert trivial_by_search(br.braid(3, [2, 1, 2, 2, 1, 2, -1, -2, -1, -1, -2, -1]))
    assert not trivial_by_search(br.braid(3, [1, 2]))


def test_exponent_sum_and_permutation_filters():
    w = br.braid(3, [1, 2, -1, -2])  # exponent sum 0, nontrivial
    assert br.exponent_sum(w) == 0
    assert perm_of_braid_by_letters(w) != (0, 1, 2)
    assert not br.is_trivial_fast(w)
    assert br.is_trivial_fast(br.braid(3, []))
    assert not br.is_trivial_fast(br.braid(3, [1]))


def test_is_trivial_fast_matches_garside_fuzz():
    rng = random.Random(41)
    for strands in (3, 5):
        gens = [s * g for g in range(1, strands) for s in (1, -1)]
        for _ in range(200):
            w = br.braid(strands, [rng.choice(gens) for _ in range(rng.randrange(0, 14))])
            assert br.is_trivial_fast(w) == _sweep_garside_nf(w).is_trivial()


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
