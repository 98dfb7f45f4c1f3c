"""Reference definitions that only the tests use.

Lemma checks, slow oracles, certificate replays and round-trip parsers
that the code in ``pcpgames`` is tested against, grouped by the module
they check, and the robot game that acceptance criterion 9 simulates
beside its matrix embedding.  The fixtures, the transition-path enumeration and the
brute-force minimax live in ``conftest.py``.  ``test_layout.py`` keeps
definitions that only the tests reach out of the package.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from pcpgames import freegroup as fg
from pcpgames.automata import Transition, WeightedAutomaton
from pcpgames.braids import (
    _DIGIT_WIDTHS,
    _ONE_MINUS_T,
    _ONE_MINUS_T_INV,
    _PRIME,
    _T,
    _T_INV,
    BraidError,
    BraidWord,
    GarsideNormalForm,
    Laurent,
    LaurentMatrix,
    _cancelled,
    _compose,
    _gen_perm,
    _identity_perm,
    _inverse_perm,
    _starting_set,
    _unpack,
    braid,
    braid_power,
    concat,
    fundamental_braid,
    garside_nf,
    invert,
)
from pcpgames.domains import Domain, _matrix_text, _vector_text
from pcpgames.engine import ATTACKER, DEFENDER, GameDomain
from pcpgames.freegroup import (
    BINARY_SYMBOLS,
    EPSILON,
    GroupWord,
    Letter,
    RankedAlphabet,
    alpha_encode,
    reduce,
)
from pcpgames.matrices import (
    IntMatrix,
    IntVector,
    block_diag,
    f_encode,
    fixes_anchor,
    identity,
    row_times_blocks,
)
from pcpgames.pcp import PcpError, PcpInstance


# --- automata ---


def is_complete(aut: WeightedAutomaton) -> bool:
    pairs = {(t.source, t.letter) for t in aut.transitions}
    return all(
        (q, a) in pairs for q in aut.states for a in aut.alphabet
    )


_DOT_EDGE = re.compile(r"^\s*(\w+) -> (\w+) \[label=\"(.+),(-?\d+)\"\];$")


def parse_dot_edges(text: str) -> list[Transition]:
    """Recover the edge multiset from DOT text produced by :func:`export_dot`."""
    edges = []
    for line in text.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            edges.append(Transition(m.group(1), m.group(3), m.group(2), int(m.group(4))))
    return sorted(edges)


def parse_flat(text: str) -> WeightedAutomaton:
    states: tuple[str, ...] = ()
    alphabet: tuple[str, ...] = ()
    initial = ""
    finals: frozenset[str] = frozenset()
    trans = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] == "states":
            states = tuple(fields[1:])
        elif fields[0] == "alphabet":
            alphabet = tuple(fields[1:])
        elif fields[0] == "initial":
            initial = fields[1]
        elif fields[0] == "finals":
            finals = frozenset(fields[1:])
        else:
            src, letter, dst, weight = fields
            trans.add(Transition(src, letter, dst, int(weight)))
    return WeightedAutomaton(states, alphabet, frozenset(trans), initial, finals)


# --- braids ---


def parse_braid(strands: int, text: str) -> BraidWord:
    return braid(strands, (int(tok) for tok in text.split()))


def factor_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """A positive braid word (1-based indices) lifting a permutation factor."""
    word: list[int] = []
    current = perm
    while current != _identity_perm(len(perm)):
        s = min(_starting_set(current))
        word.append(s + 1)
        current = _compose(_gen_perm(len(perm), s + 1), current)
    return tuple(word)


def nf_to_braid(nf: GarsideNormalForm) -> BraidWord:
    """Rebuild a braid word from a normal form (half-twist power, then factors)."""
    out = braid_power(fundamental_braid(nf.strands), nf.power)
    for factor in nf.factors:
        out = concat(out, BraidWord(nf.strands, factor_word(factor)))
    return out


def braids_equal_by_forms(u: BraidWord, v: BraidWord) -> bool:
    """Equality as two normal forms compared; the form is canonical, so equal braids have one form."""
    if u.strands != v.strands:
        raise BraidError("strand counts differ")
    return garside_nf(u) == garside_nf(v)


LP_ZERO: Laurent = ()
LP_ONE: Laurent = ((0, 1),)

BURAU_IDENTITY: LaurentMatrix = ((LP_ONE, LP_ZERO), (LP_ZERO, LP_ONE))


def burau3_is_scalar(m: LaurentMatrix) -> bool:
    return m[0][1] == LP_ZERO and m[1][0] == LP_ZERO and m[0][0] == m[1][1]


# The braid kernels one letter at a time: the kernels in ``braids``, which
# walk maximal runs of one generator, must agree with them on every word.


def exponent_sum_by_letters(w: BraidWord) -> int:
    return sum(1 if x > 0 else -1 for x in w.letters)


def perm_of_braid_by_letters(w: BraidWord) -> tuple[int, ...]:
    strand_at = list(range(w.strands))  # position -> strand that started there
    for x in w.letters:
        i = abs(x)
        strand_at[i - 1], strand_at[i] = strand_at[i], strand_at[i - 1]
    return _inverse_perm(strand_at)


def linking_numbers_by_letters(w: BraidWord) -> dict[tuple[int, int], int]:
    positions = list(range(w.strands))  # position -> strand id
    counts: dict[tuple[int, int], int] = {}
    for x in w.letters:
        i = abs(x) - 1
        s, t = positions[i], positions[i + 1]
        pair = (min(s, t), max(s, t))
        counts[pair] = counts.get(pair, 0) + (1 if x > 0 else -1)
        positions[i], positions[i + 1] = positions[i + 1], positions[i]
    return {pair: value for pair, value in counts.items() if value}


def burau_moves_by_letters(w: BraidWord) -> bool:
    """The row (1, 2, .., n) through the prime-field Burau image, one 2x2 step per letter."""
    start = list(range(1, w.strands + 1))
    v = start[:]
    for x in w.letters:
        if x > 0:  # positions x-1 and x, counted from 0
            a = v[x - 1]
            v[x - 1] = (_ONE_MINUS_T * a + v[x]) % _PRIME
            v[x] = _T * a % _PRIME
        else:
            b = v[-x]
            v[-x] = (v[-x - 1] + _ONE_MINUS_T_INV * b) % _PRIME
            v[-x - 1] = _T_INV * b % _PRIME
    return v != start


def burau3_by_letters(w: BraidWord) -> LaurentMatrix:
    """Reduced Burau image of a B3 word: one column operation per letter on the packed rows.

    The digit width comes from the same L1 norm bound, updated one letter at
    a time, and the entries are read back by the same ``_unpack``.
    """
    if w.strands != 3:
        raise BraidError("the reduced Burau oracle is wired for three strands only")
    letters = w.letters
    low = 0
    a0, b0, a1, b1 = 1, 0, 0, 1
    for x in letters:
        if x < 0:
            low += 1
        if x == 1 or x == -1:
            b0 += a0
            b1 += a1
        else:
            a0 += b0
            a1 += b1
    width = (max(a0, b0, a1, b1).bit_length() + 8) // 8
    width = next((size for size in _DIGIT_WIDTHS if size >= width), width)
    k = 8 * width
    p0, q0, p1, q1 = 1, 0, 0, 1
    for x in letters:
        if x == 1:  # (-t p, p + q)
            p0, q0, p1, q1 = -(p0 << k), q0 + p0, -(p1 << k), q1 + p1
        elif x == -1:  # t (-t^-1 p, q + t^-1 p)
            p0, q0, p1, q1 = -p0, (q0 << k) + p0, -p1, (q1 << k) + p1
        elif x == 2:  # (p + t q, -t q)
            q0 <<= k
            q1 <<= k
            p0, q0, p1, q1 = p0 + q0, -q0, p1 + q1, -q1
        else:  # t (p + q, -t^-1 q)
            p0, q0, p1, q1 = (p0 + q0) << k, -q0, (p1 + q1) << k, -q1
    digits = len(letters) + 1
    return (
        (_unpack(p0, low, digits, width), _unpack(q0, low, digits, width)),
        (_unpack(p1, low, digits, width), _unpack(q1, low, digits, width)),
    )


def braid_by_checked_word(strands: int, letters: Iterable[int]) -> BraidWord:
    """``braid`` checked letter by letter: the stack, then the strand count and each letter kept in turn."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    if strands < 2:
        raise BraidError("braid groups need at least two strands")
    for x in stack:
        if x == 0 or abs(x) > strands - 1:
            raise BraidError(f"generator index {x} out of range for {strands} strands")
    return _cancelled(strands, tuple(stack))


def braid_power_by_concat(w: BraidWord, n: int) -> BraidWord:
    """w^n as |n| products, each cancelling at its seam."""
    base = w if n >= 0 else invert(w)
    out = BraidWord(w.strands, ())
    for _ in range(abs(n)):
        out = concat(out, base)
    return out


# --- domains ---


def _word_text(w: GroupWord) -> str:
    tokens = []
    for sym, sign in w.letters:
        tokens.append(sym if sign == 1 else "~" + sym)
    return " ".join(tokens) if tokens else "ε"


def word_config_text(config) -> str:
    """A word configuration as trace and strategy files write it: ``letters;counter``."""
    return _word_text(config.word) + ";" + str(config.counter)


def pair_config_text(config) -> str:
    """A pair configuration as trace and strategy files write it: ``letters;counter letters``."""
    return _word_text(config.word) + ";" + _word_text(config.counter_word)


def key_text_separates(domain: Domain, positions: Sequence) -> None:
    """Any two positions have equal keys exactly when their key texts are equal."""
    keys = [domain.canonical_key(x) for x in positions]
    texts = [domain.key_text(key) for key in keys]
    for i, (key, text) in enumerate(zip(keys, texts)):
        for other_key, other_text in zip(keys[i:], texts[i:]):
            assert (key == other_key) == (text == other_text), (domain.name, text, other_text)


def key_decides_target_along(
    domain: Domain, moves: Iterable[tuple[str, int]], anchor: IntVector | None = None
) -> None:
    """Replay ``(player, index)`` moves from the start of a ``domains.Domain``
    and require at every position that ``is_target`` holds exactly when the
    key is the target's, and that ``inverse`` undoes every move played.

    With ``anchor`` (a matrix domain) the key after each move must also be
    the anchor row before it times the move's blocks.
    """
    target_key = domain.canonical_key(domain.target)
    cfg = domain.initial_config()
    positions = [cfg]
    for player, index in moves:
        move = (domain.defender_moves if player == DEFENDER else domain.attacker_moves)[index]
        after = domain.step(cfg, move)
        assert domain.step(after, domain.inverse(move)) == cfg, (domain.name, move)
        if anchor is not None:
            row = row_times_blocks(row_times_blocks(anchor, cfg), move)
            assert domain.canonical_key(after) == row, (cfg, move)
        positions.append(after)
        cfg = after
    for x in positions:
        key = domain.canonical_key(x)
        assert domain.is_target(x) == (key == target_key), (domain.name, key)


# --- engine ---


def replay_reaches_target(
    domain: GameDomain,
    attacker_table: dict[tuple[str, int], int],
    defender_script: tuple[int, ...],
) -> bool:
    """Drive the attacker strategy against a fixed defender script."""
    cfg = domain.initial_config()
    horizon = len(defender_script)
    for rnd, d in enumerate(defender_script, start=1):
        remaining = horizon - rnd + 1
        cfg = domain.apply(cfg, DEFENDER, d)
        key = (domain.canonical_key(cfg), remaining)
        if key not in attacker_table:
            return False
        cfg = domain.apply(cfg, ATTACKER, attacker_table[key])
        if domain.is_target(cfg):
            return True
    return False


def survives_every_attacker_move(domain, table, cfg, remaining) -> bool:
    """Follow the defender table against every attacker move at every step."""
    if remaining == 0:
        return True
    key = (domain.canonical_key(cfg), remaining)
    if key not in table:
        return False
    after_d = domain.apply(cfg, DEFENDER, table[key])
    for a in range(domain.move_count(ATTACKER)):
        after_a = domain.apply(after_d, ATTACKER, a)
        if domain.is_target(after_a) or not survives_every_attacker_move(
            domain, table, after_a, remaining - 1
        ):
            return False
    return True


# --- freegroup ---


def is_identity(w: GroupWord) -> bool:
    return not w.letters


def alpha_decode(w: GroupWord, alphabet: RankedAlphabet) -> GroupWord | None:
    """Partial inverse of :func:`alpha_encode`.

    Greedily scans the reduced word, tracking the net c-depth; every d-letter
    read at depth ``i`` contributes the rank-``i`` source letter.  In a reduced
    image the closing ``c^-i`` of one block merges with the opening ``c^j`` of
    the next, so the depth walk recovers the block structure directly.  The
    candidate is re-encoded as a final check; anything that stalls the scan or
    fails the check yields ``None`` (decode is only used on encoder outputs).
    """
    c, d = BINARY_SYMBOLS
    out: list[Letter] = []
    depth = 0
    for sym, sign in w.letters:
        if sym == c:
            depth += sign
        elif sym == d:
            if depth < 1 or depth > len(alphabet):
                return None
            out.append((alphabet.symbol(depth), sign))
        else:
            return None
    if depth != 0:
        return None
    decoded = reduce(out)
    if alpha_encode(decoded, alphabet) != w:
        return None
    return decoded


def all_reduced_words(alphabet: Sequence[str], max_len: int) -> Iterable[GroupWord]:
    """Every freely reduced word of length <= max_len, shorter words first."""
    frontier: list[GroupWord] = [EPSILON]
    yield EPSILON
    for _ in range(max_len):
        nxt: list[GroupWord] = []
        for w in frontier:
            for sym in alphabet:
                for sign in (1, -1):
                    if w.letters and w.letters[-1] == (sym, -sign):
                        continue
                    grown = GroupWord(w.letters + ((sym, sign),))
                    nxt.append(grown)
                    yield grown
        frontier = nxt


# --- matrices ---


COLUMN_ANCHOR: IntVector = (0, 1, 0, 1)


def row_vec_mul(v: IntVector, m: IntMatrix) -> IntVector:
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def mat_vec_mul(m: IntMatrix, v: IntVector) -> IntVector:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def det(m: IntMatrix) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def closed_form_alpha_image(j: int) -> IntMatrix:
    """f of the rank-j letter image: ((1+4j, -8j^2), (2, 1-4j))."""
    return ((1 + 4 * j, -8 * j * j), (2, 1 - 4 * j))


def _reduced_word_count(rank: int, max_len: int) -> int:
    total, layer = 1, 1
    for n in range(1, max_len + 1):
        layer = layer * (2 * rank if n == 1 else 2 * rank - 1)
        total += layer
    return total


def _encoded_words(
    max_len: int, rank: int, max_words: int
) -> Iterator[tuple[GroupWord, IntMatrix]]:
    """Every reduced word of length <= max_len with its 4x4 block encoding."""
    if _reduced_word_count(rank, max_len) > max_words:
        raise ValueError(f"enumeration would exceed the cap of {max_words} words")
    alphabet = RankedAlphabet(tuple(f"z{i}" for i in range(1, rank + 1)))
    for w in all_reduced_words(alphabet.symbols, max_len):
        yield w, block_diag(f_encode(fg.alpha_encode(w, alphabet)), identity(2))


def anchor_lemma_holds(max_len: int, rank: int = 3, max_words: int = 200_000) -> bool:
    """Exhaustively check fixes-anchor implies identity on encoded words.

    Enumerates every reduced word of length <= max_len over a rank-``rank``
    alphabet, encodes it through the binary embedding and f, embeds it as the
    upper block of a 4x4 matrix, and requires that fixing the anchor row
    forces the identity matrix.
    """
    for _, m in _encoded_words(max_len, rank, max_words):
        if fixes_anchor(m) and m != identity(4):
            return False
    return True


def column_anchor_lemma_report(
    max_len: int, rank: int = 3, max_words: int = 200_000
) -> tuple[bool, str | None]:
    """The main-text column-vector variant: M x0 = x0 with x0 = (0,1,0,1)^T.

    Reported, not asserted: returns (holds, first counterexample word or None).
    """
    for w, m in _encoded_words(max_len, rank, max_words):
        if mat_vec_mul(m, COLUMN_ANCHOR) == COLUMN_ANCHOR and m != identity(4):
            return False, fg.render(w)
    return True, None


# --- pcp ---


class PrefixKind(enum.Enum):
    H_PROPER_PREFIX_OF_G = "h<g"
    G_PROPER_PREFIX_OF_H = "g<h"
    EQUAL_IMAGES = "equal"
    MISMATCH = "mismatch"


@dataclass(frozen=True)
class PrefixStatus:
    kind: PrefixKind
    position: int | None = None  # 1-based mismatch position, MISMATCH only

    @property
    def is_proper_prefix(self) -> bool:
        """True when one image is a proper prefix of the other (the good case)."""
        return self.kind in (PrefixKind.H_PROPER_PREFIX_OF_G, PrefixKind.G_PROPER_PREFIX_OF_H)


H_PROPER_PREFIX_OF_G = PrefixStatus(PrefixKind.H_PROPER_PREFIX_OF_G)
G_PROPER_PREFIX_OF_H = PrefixStatus(PrefixKind.G_PROPER_PREFIX_OF_H)
EQUAL_IMAGES = PrefixStatus(PrefixKind.EQUAL_IMAGES)


def mismatch_at(position: int) -> PrefixStatus:
    return PrefixStatus(PrefixKind.MISMATCH, position)


def prefix_status(inst: PcpInstance, p: str) -> PrefixStatus:
    """Classify h(p) against g(p) by direct string comparison."""
    if not p:
        raise PcpError("prefix must be nonempty")
    hp, gp = inst.h(p), inst.g(p)
    for i, (x, y) in enumerate(zip(hp, gp), start=1):
        if x != y:
            return mismatch_at(i)
    if len(hp) == len(gp):
        return EQUAL_IMAGES
    return H_PROPER_PREFIX_OF_G if len(hp) < len(gp) else G_PROPER_PREFIX_OF_H


def is_omega_solution_up_to(inst: PcpInstance, w: str, bound: int) -> bool:
    """True iff every prefix of w up to the bound keeps one image a proper prefix of the other."""
    if bound < 1:
        raise PcpError("bound must be positive")
    if len(w) < bound:
        raise PcpError(f"word of length {len(w)} is shorter than bound {bound}")
    return all(prefix_status(inst, w[:k]).is_proper_prefix for k in range(1, bound + 1))


def default_candidate_cap(inst: PcpInstance) -> int:
    # alphabet_size ** 10, floored so that unary alphabets still allow short sweeps
    return max(len(inst.domain_alphabet), 2) ** 10


def find_finite_solutions(
    inst: PcpInstance, max_len: int, max_candidates: int | None = None
) -> list[str]:
    """All nonempty w with |w| <= max_len and g(w) = h(w), in length-lex order."""
    if max_len < 1:
        raise PcpError("max_len must be positive")
    cap = max_candidates if max_candidates is not None else default_candidate_cap(inst)
    m = len(inst.domain_alphabet)
    candidates = sum(m**k for k in range(1, max_len + 1))
    if candidates > cap:
        raise PcpError(f"{candidates} candidate words exceed the safety cap {cap}")
    solutions = []
    for k in range(1, max_len + 1):
        for letters in itertools.product(inst.domain_alphabet, repeat=k):
            w = "".join(letters)
            if inst.h(w) == inst.g(w):
                solutions.append(w)
    return solutions


# --- robot games ---

# Robot games (Doyen and Rabinovich, 2011) add integer vectors; their matrix
# embedding doubles the dimension: a move vector v becomes the shift matrix
# with identity diagonal blocks and diag(v) in the top right, acting on
# column vectors extended by ones.  No command plays them: the paper's vector
# reachability game is the matrix game read through its anchor row.


@dataclass(frozen=True)
class RobotGame:
    """Moves translate an integer vector; the target is reaching ``target``."""

    attacker: tuple[IntVector, ...]
    defender: tuple[IntVector, ...]
    initial: IntVector
    target: IntVector

    def __post_init__(self) -> None:
        if len({len(v) for v in self.attacker + self.defender + (self.initial, self.target)}) != 1:
            raise ValueError("robot game vectors must all have the same dimension")


def shift_matrix(v: IntVector) -> IntMatrix:
    """Identity diagonal blocks and diag(v) top right: adds v to (x, 1...1)."""
    n = len(v)
    rows = []
    for i in range(n):
        rows.append(tuple(1 if j == i else (v[i] if j == i + n else 0) for j in range(2 * n)))
    for i in range(n):
        rows.append(tuple(1 if j == i + n else 0 for j in range(2 * n)))
    return tuple(rows)


def _vector_key(v: IntVector) -> IntVector:
    """A robot point is a vector, so it is its own key."""
    return v


def _act_on_vector(config: IntVector, m: IntMatrix) -> IntVector:
    return mat_vec_mul(m, config)


def _shift_inverse(m: IntMatrix) -> IntMatrix:
    """``shift_matrix(v)`` -> ``shift_matrix(-v)``: negate every off-diagonal entry."""
    return tuple(tuple(x if i == j else -x for j, x in enumerate(row)) for i, row in enumerate(m))


def robot_matrix_domain(game: RobotGame) -> Domain:
    """The robot game's 2n-dimensional embedding: ``shift_matrix(v)`` acts on (x, 1...1)."""
    ones = (1,) * len(game.target)
    target = game.target + ones
    return Domain(
        "robot-matrix", game.initial + ones,
        tuple(shift_matrix(v) for v in game.defender),
        tuple(shift_matrix(v) for v in game.attacker),
        _act_on_vector, _shift_inverse, target, target.__eq__, _vector_key, _vector_text, _matrix_text,
    )


def _translate(config: IntVector, v: IntVector) -> IntVector:
    return tuple(c + dv for c, dv in zip(config, v))


def _negate(v: IntVector) -> IntVector:
    return tuple(-x for x in v)


def robot_domain(game: RobotGame) -> Domain:
    return Domain(
        "robot", game.initial, game.defender, game.attacker,
        _translate, _negate, game.target, game.target.__eq__, _vector_key, _vector_text, _vector_text,
    )


# --- wordgames ---


def counter_value(w: GroupWord) -> int:
    return sum(sign for _, sign in w.letters)
