"""Braid words, Garside normal form, the Burau oracles, and braid games.

Braid words are sequences of signed Artin generator indices with free
cancellation applied eagerly; the public constructors validate a word, and
``concat`` cancels only at the seam of two valid words.

Triviality has one decision, ``is_trivial_fast``, and ``braids_equal(u, v)``
is that decision on u.v^-1.  The empty word is trivial; a nonzero exponent
sum refutes; so does the unreduced Burau image evaluated over the prime
field GF(2^61 - 1), a homomorphism for every strand count, when it moves a
fixed row.  A row it fixes proves nothing, and the left Garside normal form
decides.  The form is a power of the half twist followed by a left-weighted
sequence of permutation factors, built by incremental left-weighting in one
pass over the word; the factors are coded as ints, so the pass compares ints
and looks left-weighted pairs up in one memo, and a half twist that forms is
counted rather than walked to the front.  From four strands on, a stack pass
first cancels each inverse pair that far commutation (s_i s_j = s_j s_i for
|i - j| >= 2) brings together.

The reduced Burau representation of the three-strand group, faithful there,
is kept as a second exact B3 oracle for proofs and tests, not for the
decision; each Laurent entry is packed into one Python int by the Kronecker
substitution t -> 2^k, so a run of m equal letters costs O(log m) shifts and
adds, and the packed digits are read back as two's-complement signed digits
by one ``memoryview`` cast.  Both Burau kernels walk a word as maximal
runs of one signed generator: the encodings write each letter of a word as
a fourth power of a generator, so the words they build are mostly long
runs.

The game encodings map binary-alphabet words into fourth powers of the
first two generators (three-strand case, with the squared half twist as a
central counter) and pairs of words into the two commuting free rank-2
subgroups of the five-strand group.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import compress, count, groupby
from typing import Iterable, Sequence

from . import freegroup as fg
from .freegroup import GroupWord
from .wordgames import PairWordGame, WeightedWordGame


class BraidError(ValueError):
    pass


@dataclass(frozen=True)
class BraidWord:
    """Signed generator indices (i or -i, 1-based), freely cancelled."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_generators(self.strands, self.letters)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise BraidError("braid word is not freely cancelled")

    def __len__(self) -> int:
        return len(self.letters)

    def render(self) -> str:
        return " ".join(str(x) for x in self.letters)


def braid(strands: int, letters: Iterable[int]) -> BraidWord:
    """Build a braid word, cancelling adjacent inverse generator pairs.

    The stack leaves no adjacent inverse pair, so only the strand count and
    the generator range of the letters kept are checked.
    """
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    _check_generators(strands, stack)
    return _cancelled(strands, tuple(stack))


def _check_generators(strands: int, letters: Sequence[int]) -> None:
    if strands < 2:
        raise BraidError("braid groups need at least two strands")
    top = strands - 1
    if letters and (min(letters) < -top or max(letters) > top or 0 in letters):
        x = next(x for x in letters if x == 0 or abs(x) > top)
        raise BraidError(f"generator index {x} out of range for {strands} strands")


def _cancelled(strands: int, letters: tuple[int, ...]) -> BraidWord:
    """Wrap letters already known to be valid and freely cancelled, skipping the re-scan."""
    w = object.__new__(BraidWord)
    object.__setattr__(w, "strands", strands)
    object.__setattr__(w, "letters", letters)
    return w


def concat(u: BraidWord, v: BraidWord) -> BraidWord:
    """Product u.v: both words are freely cancelled, so only the seam can cancel."""
    if u.strands != v.strands:
        raise BraidError("strand counts differ")
    ul, vl = u.letters, v.letters
    n, i = len(ul), 0
    while n and i < len(vl) and ul[n - 1] == -vl[i]:
        n -= 1
        i += 1
    return _cancelled(u.strands, ul[:n] + vl[i:])


def invert(w: BraidWord) -> BraidWord:
    """The inverse word; reversing and negating a valid, freely cancelled word keeps it so."""
    return _cancelled(w.strands, tuple(-x for x in reversed(w.letters)))


def braid_power(w: BraidWord, n: int) -> BraidWord:
    """w^n as u.c^n.u^-1, where w = u.c.u^-1 and c's last letter does not cancel its first.

    u is the longest prefix whose inverse w ends with, so no seam of the
    result cancels.
    """
    if n == 0:
        return _cancelled(w.strands, ())
    letters = (w if n > 0 else invert(w)).letters
    k, end = 0, len(letters)
    while k < end - 1 and letters[end - 1] == -letters[k]:
        k += 1
        end -= 1
    return _cancelled(w.strands, letters[:k] + letters[k:end] * abs(n) + letters[end:])


def fundamental_braid(n: int) -> BraidWord:
    """The positive half twist: (s_{n-1}..s_1)(s_{n-1}..s_2)...(s_{n-1})."""
    if n < 2:
        raise BraidError("fundamental braid needs at least two strands")
    letters = [j for i in range(1, n) for j in range(n - 1, i - 1, -1)]
    return BraidWord(n, tuple(letters))


def exponent_sum(w: BraidWord) -> int:
    """Signed letter count; a braid group homomorphism onto the integers."""
    letters = w.letters
    return len(letters) - 2 * len([x for x in letters if x < 0])


def _runs(letters: tuple[int, ...]) -> list[tuple[int, int]]:
    """The maximal runs (x, m) of one signed generator: the word is the product of the x^m."""
    return [(x, len(list(g))) for x, g in groupby(letters)]


# --- permutation helpers (tuples map strand start position to end position) ---


def _identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _gen_perm(n: int, i: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right composition: apply p, then q (braid concatenation order)."""
    return tuple(q[x] for x in p)


def _inverse_perm(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _longest_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def _starting_set(p: tuple[int, ...]) -> set[int]:
    """Generators that can begin the permutation braid: descents of p."""
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def _finishing_set(p: tuple[int, ...]) -> set[int]:
    return _starting_set(_inverse_perm(p))


def _tau(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by the half twist: flip positions on both sides."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def _left_complement(p: tuple[int, ...]) -> tuple[int, ...]:
    """The braid x* with x* . x = half twist."""
    inv = _inverse_perm(p)
    w0 = _longest_perm(len(p))
    return _compose(w0, inv)


def _renorm(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Make the factor pair left-weighted by sliding head letters of y into x."""
    n = len(x)
    while True:
        movable = _starting_set(y) - _finishing_set(x)
        if not movable:
            return x, y
        s = min(movable)
        t = _gen_perm(n, s + 1)
        x = _compose(x, t)
        y = _compose(t, y)


@dataclass(frozen=True)
class GarsideNormalForm:
    """Half-twist power and left-weighted permutation factors; canonical."""

    strands: int
    power: int
    factors: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return self.power == 0 and not self.factors


_IDENTITY_CODE = 0
_HALF_TWIST_CODE = 1


class _FactorCodes:
    """The permutation factors of one strand count, coded as ints in order of first use.

    Codes are interned on demand, so only the factors a word reaches get one,
    and they stay below n!: ``x * n! + y`` keys a factor pair in ``pairs``,
    the memo of left-weighted pairs that ``renorm`` fills on a miss.
    ``flips`` maps each code to the code of its flip, interned with it.  The
    identity is code 0 and the half twist code 1.
    """

    def __init__(self, n: int) -> None:
        self.size = math.factorial(n)
        self.perms: list[tuple[int, ...]] = []  # code -> permutation
        self.codes: dict[tuple[int, ...], int] = {}  # permutation -> code
        self.pairs: dict[int, tuple[int, int]] = {}
        self.flips: list[int] = []  # code -> code of the flipped permutation
        self.intern(_identity_perm(n))
        self.intern(_longest_perm(n))
        # per signed generator: the codes of its factor and of the factor's flip, its power
        self.letters = {
            x: (self.intern(factor), self.intern(flipped), dpow)
            for x, (factor, flipped, dpow) in _letter_factors(n).items()
        }

    def intern(self, perm: tuple[int, ...]) -> int:
        code = self.codes.get(perm)
        if code is None:
            code = self.codes[perm] = len(self.perms)
            self.perms.append(perm)
            self.flips.append(code)  # held until the flip has a code
            self.flips[code] = self.intern(_tau(perm))
        return code

    def renorm(self, x: int, y: int) -> tuple[int, int]:
        left, right = _renorm(self.perms[x], self.perms[y])
        pair = self.pairs[x * self.size + y] = (self.intern(left), self.intern(right))
        return pair


@functools.lru_cache(maxsize=None)
def _factor_codes(n: int) -> _FactorCodes:
    return _FactorCodes(n)


def _normalise_factors(codes: _FactorCodes, factors: list[int]) -> tuple[int, list[int]]:
    """Incremental left-weighting: returns the count of half twists and the factors after them.

    Each factor is appended to a left-weighted prefix and pushed left until a
    pair is already left-weighted; the pairs further left are untouched, so
    they stay left-weighted (the domino rule).  A pair that becomes (D, r)
    sends its half twist to the front, flipping each factor it passes
    (x.D = D.flip(x)).  Rather than walk it there, the pass counts it: a
    factor stored as c stands for flip^power(c), so the prefix flips as the
    count grows, and only the factors this push wrote, from r on, are
    stored again.  Flipping is an automorphism, so pairs stay left-weighted
    and the pair memo holds in either frame.  The identity can form only at
    the tail, where it is dropped.  Factors are codes (see ``_FactorCodes``),
    so each step is one int comparison and one dict subscript; a miss raises
    ``KeyError`` and fills the memo through ``renorm``.
    """
    pairs, size, renorm, flips = codes.pairs, codes.size, codes.renorm, codes.flips
    out: list[int] = []
    power = 0
    for y in factors:
        if power & 1:
            y = flips[y]
        if y == _HALF_TWIST_CODE:
            power += 1
            continue
        # y is the factor being pushed, held at out[i] until its pair holds
        i = len(out)
        out.append(y)
        while i:
            x = out[i - 1]
            try:
                left, right = pairs[x * size + y]
            except KeyError:
                left, right = renorm(x, y)
            # the pair's product is fixed, so an unchanged left factor means an unchanged pair
            if left == x:
                break
            if left == _HALF_TWIST_CODE:
                del out[i - 1]
                out[i - 1] = right
                power += 1
                out[i - 1:] = [flips[c] for c in out[i - 1:]]
                break
            out[i] = right
            out[i - 1] = y = left
            i -= 1
        if out[-1] == _IDENTITY_CODE:
            out.pop()
    if power & 1:
        out = [flips[c] for c in out]
    assert _IDENTITY_CODE not in out and _HALF_TWIST_CODE not in out, "normalisation left a trivial factor"
    return power, out


def garside_nf(w: BraidWord) -> GarsideNormalForm:
    """Left Garside normal form of a braid word.

    From four strands on, the word first goes through ``_far_cancelled``,
    which uses only braid relations, so the form is the same; it empties
    u.v^-1 when u and v differ only by far commutations, such as a
    five-strand encoding and a word with its counter letters s4 s4 moved
    among the s1 and s2 letters.  Negative letters are rewritten as a
    negative half-twist power times the left complement of the generator;
    the powers are commuted to the front through the flip automorphism, and
    the remaining positive factor sequence is made left-weighted one factor
    at a time, each pushed left only as far as the pairs it changes.  The
    factors travel as int codes and become permutation tuples only in the
    returned normal form.
    """
    n = w.strands
    codes = _factor_codes(n)
    letters = codes.letters
    factors: list[int] = []
    power = 0
    for x in reversed(_far_cancelled(w.letters) if n > 3 else w.letters):
        factor, flipped, dpow = letters[x]
        factors.append(flipped if power % 2 else factor)
        power += dpow
    factors.reverse()
    extra, body = _normalise_factors(codes, factors)
    perms = codes.perms
    return GarsideNormalForm(n, power + extra, tuple(perms[c] for c in body))


def _far_cancelled(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The word with each x^-1 cancelled against an x that commutes past the letters between them.

    One stack pass: a letter looks back through the stack while the letters
    there commute with it (index distance two or more, s_i s_j = s_j s_i);
    if it finds its inverse it deletes it, otherwise it is pushed.  Only
    braid relations are used, so the braid is unchanged.  A letter that stops
    a later letter's look back does not commute with it, so nothing deletes
    it afterwards: no cancellable pair is left behind, and a second pass
    changes nothing.  Three strands have no far pairs, so the word comes back
    as it was.
    """
    stack: list[int] = []
    for x in letters:
        g, inverse = abs(x), -x
        for j in range(len(stack) - 1, -1, -1):
            y = stack[j]
            if y == inverse:
                del stack[j]
                break
            if -2 < abs(y) - g < 2:
                stack.append(x)
                break
        else:
            stack.append(x)
    return tuple(stack)


def _letter_factors(n: int) -> dict[int, tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Per signed generator: its permutation factor, the factor's flip, its half-twist power.

    A positive generator is its own factor with power 0; a negative one is
    the left complement of the generator with power -1.
    """
    table = {}
    for i in range(1, n):
        for x, factor, dpow in ((i, _gen_perm(n, i), 0), (-i, _left_complement(_gen_perm(n, i)), -1)):
            table[x] = (factor, _tau(factor), dpow)
    return table


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """Equality modulo the braid relations: u = v exactly when u.v^-1 is trivial (``is_trivial_fast``).

    The quotient cancels at its seam first, so a pair of the same word
    needs no oracle at all, and from four strands on a pair that differs
    only by far commutations cancels before Garside (``garside_nf``).
    """
    if u.strands != v.strands:
        raise BraidError("strand counts differ")
    return is_trivial_fast(concat(u, invert(v)))


def is_trivial_fast(w: BraidWord) -> bool:
    """Triviality, refuted cheaply where it can be and decided by the normal form otherwise.

    The empty word is trivial.  A nonzero exponent sum refutes, and so does
    a Burau image over a prime field that moves a fixed row
    (``_burau_moves``), exact for every strand count.  A word that passes
    both goes to the Garside normal form (``garside_nf``), for every strand
    count: Burau only refutes, since it is not faithful from five strands on
    and not known to be on four.
    """
    if not w.letters:
        return True
    if exponent_sum(w) != 0 or _burau_moves(w):
        return False
    return garside_nf(w).is_trivial()


# --- the unreduced Burau image over a prime field: a certificate of nontriviality ---

_PRIME = (1 << 61) - 1
_T = 37  # a primitive root mod _PRIME
_T_INV = pow(_T, -1, _PRIME)
_ONE_MINUS_T = (1 - _T) % _PRIME
_ONE_MINUS_T_INV = (1 - _T_INV) % _PRIME


# s_i and s_i^-1 on the entries (a, b) of a row at positions i - 1 and i, as
# the block (m00, m01, m10, m11) that maps them to (a m00 + b m10, a m01 + b m11)
_BLOCKS = {1: (_ONE_MINUS_T, _T, 1, 0), -1: (0, 1, _T_INV, _ONE_MINUS_T_INV)}


def _block_mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (
        (x00 * y00 + x01 * y10) % _PRIME,
        (x00 * y01 + x01 * y11) % _PRIME,
        (x10 * y00 + x11 * y10) % _PRIME,
        (x10 * y01 + x11 * y11) % _PRIME,
    )


@functools.lru_cache(maxsize=256)
def _block_power(sign: int, m: int) -> tuple[int, int, int, int]:
    """The block of s_i^(sign m) modulo the prime, m >= 1, by repeated squaring.

    Kept for the 256 signed run lengths used last: the play words repeat a
    few dozen lengths, the multiples of 4 of the rank embedding.
    """
    power = block = _BLOCKS[sign]
    for bit in bin(m)[3:]:
        power = _block_mul(power, power)
        if bit == "1":
            power = _block_mul(power, block)
    return power


def _burau_moves(w: BraidWord) -> bool:
    """Whether the unreduced Burau image of w, at t = 37 over GF(2^61 - 1), moves the row (1, 2, .., n).

    s_i maps entries (v_i, v_(i+1)) of a row v to ((1-t) v_i + v_(i+1), t v_i)
    and s_i^-1 maps them to (t^-1 v_(i+1), v_i + (1-t^-1) v_(i+1)).  A run
    s_i^+-m acts on the same two entries through the m-th power of that 2x2
    block, computed by squaring and kept for the signed run lengths used
    last, so a run costs one block product on the row.  Evaluating t
    is a ring homomorphism from the Laurent polynomials, so the image of the
    trivial braid is the identity: a row that moves certifies that w is not
    trivial, exactly.  A row that stays proves nothing: the representation is
    not faithful from five strands on, and an image other than the identity
    may still fix this row, or agree with the identity at t modulo p.  Every
    generator fixes the line (1, t, .., t^(n-1)), so the row must lie off it
    in every span of consecutive positions, which a word on fewer strands
    acts on; (1, 2, .., n) does, as 37 is no ratio (j+1)/j.  And t has
    order p - 1, far from the roots of unity of small order, where the image
    factors through a much smaller group.
    """
    start = list(range(1, w.strands + 1))
    v = start[:]
    for x, m in _runs(w.letters):
        if x > 0:
            m00, m01, m10, m11 = _block_power(1, m)
        else:
            m00, m01, m10, m11 = _block_power(-1, m)
            x = -x
        a, b = v[x - 1], v[x]  # positions x-1 and x, counted from 0
        v[x - 1] = (a * m00 + b * m10) % _PRIME
        v[x] = (a * m01 + b * m11) % _PRIME
    return v != start


# --- reduced Burau representation of the three-strand group ---

Laurent = tuple[tuple[int, int], ...]  # sorted ((exponent, coefficient), ...)
LaurentMatrix = tuple[tuple[Laurent, Laurent], tuple[Laurent, Laurent]]



# digit width in bytes -> the signed native format of that itemsize, read once
_SIGNED_FORMATS = {memoryview(bytes(8)).cast(code).itemsize: code for code in "qlihb"}
_DIGIT_WIDTHS = sorted(_SIGNED_FORMATS)


def _unpack(value: int, low: int, digits: int, width: int) -> Laurent:
    """The Laurent polynomial P for which t^low * P(t) takes the value ``value`` at t = 2^(8 * width).

    t^low * P(t) is a polynomial with ``digits`` coefficients, each a
    balanced digit of ``width`` bytes.  Adding half a digit base to every
    digit makes them all nonnegative; flipping each digit's top bit then
    leaves each one's two's-complement form, so one ``to_bytes`` and one
    signed ``memoryview`` cast read all of them.  A width no native format
    holds (over 8 bytes) is read a byte slice at a time instead.
    """
    bias = int.from_bytes((b"\x80" + bytes(width - 1)) * digits, "big")
    code = _SIGNED_FORMATS.get(width)
    if code is None:
        half = 1 << (8 * width - 1)
        raw = (value + bias).to_bytes(width * digits, "little")
        coeffs = [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, len(raw), width)]
    else:
        coeffs = memoryview(((value + bias) ^ bias).to_bytes(width * digits, sys.byteorder)).cast(code)
        if sys.byteorder == "big":  # the most significant digit came first
            coeffs = coeffs[::-1]
    return tuple(compress(zip(count(-low), coeffs), coeffs))


def _times_s(v: int, m: int, k: int) -> int:
    """v * S_m at t = 2^k, where S_m = 1 - t + t^2 - .. + (-t)^(m-1), in O(log m) shifts and adds.

    m's bits are read from the top, from S_1 = 1: S_2c = S_c (1 + (-t)^c)
    doubles c and S_(c+1) = 1 - t S_c adds one.
    """
    r, c = v, 1
    for bit in bin(m)[3:]:
        r = r - (r << c * k) if c & 1 else r + (r << c * k)
        c <<= 1
        if bit == "1":
            r = v - (r << k)
            c += 1
    return r


def burau3(w: BraidWord) -> LaurentMatrix:
    """Reduced Burau image of a three-strand braid word.

    Each generator image has a single non-trivial column, so right
    multiplication by it is one column operation on each row (p, q), and a
    run of m equal letters has a closed form in S_m = sum over j < m of
    (-t)^j: s1^m maps (p, q) to ((-t)^m p, q + p S_m) and s2^m maps it to
    (p + t q S_m, (-t)^m q).  Each entry is packed into one int by the
    Kronecker substitution t -> 2^k, where (-t)^m is a shift and a sign and
    a product by S_m takes O(log m) shifts and adds (``_times_s``).
    A negative letter's image carries t^-1, so its column operation is
    multiplied through by t instead: s1^-m maps (p, q) to ((-1)^m p,
    t^m q + (-1)^(m-1) p S_m), s2^-m to (t^m p + (-1)^(m-1) t q S_m,
    (-1)^m q).  The rows start at the identity and end at t^low times the
    image, where low counts the negative letters, which keeps every entry a
    polynomial and every step shifts and adds on ints no longer than the
    letters read so far allow.  A first pass bounds the L1 norm of every
    entry (a run of m updates the norms (a, b) of a row to (a, b + m a) for
    s1^+-1 and to (a + m b, b) for s2^+-1), so k = bits(bound) + 1, rounded
    up to a byte, holds each coefficient as a balanced digit; up to 8 bytes,
    k is rounded further, to 1, 2, 4 or 8 bytes, the widths ``_unpack``
    reads in one cast.  The entries become sorted ``(exponent,
    coefficient)`` tuples once, at the end.
    """
    if w.strands != 3:
        raise BraidError("the reduced Burau oracle is wired for three strands only")
    runs = _runs(w.letters)
    low = 0
    a0, b0, a1, b1 = 1, 0, 0, 1
    for x, m in runs:
        if x < 0:
            low += m
        if x == 1 or x == -1:
            b0 += m * a0
            b1 += m * a1
        else:
            a0 += m * b0
            a1 += m * b1
    width = (max(a0, b0, a1, b1).bit_length() + 8) // 8
    width = next((size for size in _DIGIT_WIDTHS if size >= width), width)
    k = 8 * width
    p0, q0, p1, q1 = 1, 0, 0, 1
    for x, m in runs:
        shift = m * k
        if x == 1:  # ((-t)^m p, q + p S_m)
            q0 += _times_s(p0, m, k)
            q1 += _times_s(p1, m, k)
            p0 <<= shift
            p1 <<= shift
            if m & 1:
                p0, p1 = -p0, -p1
        elif x == -1:  # ((-1)^m p, t^m q + (-1)^(m-1) p S_m)
            s0, s1 = _times_s(p0, m, k), _times_s(p1, m, k)
            if m & 1:
                p0, q0, p1, q1 = -p0, (q0 << shift) + s0, -p1, (q1 << shift) + s1
            else:
                q0, q1 = (q0 << shift) - s0, (q1 << shift) - s1
        elif x == 2:  # (p + t q S_m, (-t)^m q)
            p0 += _times_s(q0, m, k) << k
            p1 += _times_s(q1, m, k) << k
            q0 <<= shift
            q1 <<= shift
            if m & 1:
                q0, q1 = -q0, -q1
        else:  # (t^m p + (-1)^(m-1) t q S_m, (-1)^m q)
            s0, s1 = _times_s(q0, m, k) << k, _times_s(q1, m, k) << k
            if m & 1:
                p0, q0, p1, q1 = (p0 << shift) + s0, -q0, (p1 << shift) + s1, -q1
            else:
                p0, p1 = (p0 << shift) - s0, (p1 << shift) - s1
    digits = len(w.letters) + 1
    return (
        (_unpack(p0, low, digits, width), _unpack(q0, low, digits, width)),
        (_unpack(p1, low, digits, width), _unpack(q1, low, digits, width)),
    )


# --- encodings into the three- and five-strand groups ---

_BINARY_LETTER = {("c", 1): (1,) * 4, ("c", -1): (-1,) * 4,
                  ("d", 1): (2,) * 4, ("d", -1): (-2,) * 4}

DELTA3 = fundamental_braid(3)
DELTA3_SQUARED = braid_power(DELTA3, 2)


def _binary_letters(w: GroupWord) -> list[int]:
    """Binary-alphabet word into fourth powers of the first two generators."""
    letters: list[int] = []
    for letter in w.letters:
        try:
            letters.extend(_BINARY_LETTER[letter])
        except KeyError:
            raise BraidError(f"letter {letter} is not in the binary alphabet") from None
    return letters


def b3_encode(w: GroupWord, counter: int = 0) -> BraidWord:
    """Binary-alphabet word into fourth generator powers, counter into central twists."""
    return concat(braid(3, _binary_letters(w)), braid_power(DELTA3_SQUARED, counter))


B5_D_WORD = (4, 3, 2, 1, 1, 2, 3, 4)


def _b5_second_letter(rank: int, sign: int) -> tuple[int, ...]:
    if rank == 1:
        base: tuple[int, ...] = (4, 4)
    elif rank == 2:
        base = B5_D_WORD
    else:
        raise BraidError("the second component alphabet has rank two")
    return base if sign > 0 else tuple(-x for x in reversed(base))


def b5_encode(word: GroupWord, counter_word: GroupWord) -> BraidWord:
    """Pair of words into the direct product of two free rank-2 subgroups."""
    letters = _binary_letters(word)
    for sym, sign in counter_word.letters:
        letters.extend(_b5_second_letter(fg.COUNTER_ALPHABET.rank(sym), sign))
    return braid(5, letters)


# --- braid games ---


@dataclass(frozen=True)
class BraidGame:
    """Move braids plus the initial braid; the target is the trivial braid."""

    strands: int
    defender_braids: tuple[BraidWord, ...]
    attacker_braids: tuple[BraidWord, ...]
    initial_braid: BraidWord


def build_braid3_game(g: WeightedWordGame) -> BraidGame:
    """Three-strand game from a binarized weighted word game."""
    if not isinstance(g, WeightedWordGame):
        raise BraidError("the three-strand game is built from a weighted word game")
    if g.alphabet.symbols != fg.BINARY_SYMBOLS:
        raise BraidError("binarize the word game before encoding into braids")
    return BraidGame(
        strands=3,
        defender_braids=tuple(b3_encode(m.word, m.counter) for m in g.defender_moves),
        attacker_braids=tuple(b3_encode(m.word, m.counter) for m in g.attacker_moves),
        initial_braid=b3_encode(g.initial.word, g.initial.counter),
    )


def build_braid5_game(g: PairWordGame) -> BraidGame:
    """Five-strand game from a binarized pair word game."""
    if not isinstance(g, PairWordGame):
        raise BraidError("the five-strand game is built from a pair word game")
    if g.alphabet.symbols != fg.BINARY_SYMBOLS:
        raise BraidError("binarize the word game before encoding into braids")
    return BraidGame(
        strands=5,
        defender_braids=tuple(b5_encode(m.word, m.counter_word) for m in g.defender_moves),
        attacker_braids=tuple(b5_encode(m.word, m.counter_word) for m in g.attacker_moves),
        initial_braid=b5_encode(g.initial.word, g.initial.counter_word),
    )


def dump_braid_game(g: BraidGame) -> str:
    lines = [
        f"strands {g.strands}",
        f"initial {g.initial_braid.render()}".rstrip(),
    ]
    for m in g.defender_braids:
        lines.append(f"player=D braid={m.render()}")
    for m in g.attacker_braids:
        lines.append(f"player=A braid={m.render()}")
    return "\n".join(lines) + "\n"
