"""Integer matrix encodings of the word games.

Words over the binary alphabet map into 2x2 integer matrices generated by
the two elementary congruence-subgroup generators (entries ±2 off the
diagonal); pairs of words map block-diagonally into 4x4 matrices of
determinant one.  A matrix game configuration is the accumulated product of
the played matrices acting on the anchor row vector from the right, so the
word-to-matrix correspondence is a literal homomorphism statement.  Every
such product stays 2+2 block-diagonal, so a move multiplies the two 2x2
blocks (8 multiplications, not the 64 of a generic 4x4 product).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import freegroup as fg
from .freegroup import GroupWord
from .wordgames import PairWordGame

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]

ANCHOR_ROW: IntVector = (1, 0, 1, 0)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a), "dimension mismatch"
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def row_times_blocks(v: IntVector, m: IntMatrix) -> IntVector:
    """The row vector ``v`` times a 2+2 block-diagonal ``m``: 8 multiplications."""
    v0, v1, v2, v3 = v
    (p, q, _, _), (r, s, _, _), (_, _, t, u), (_, _, w, x) = m
    return (v0 * p + v1 * r, v0 * q + v1 * s, v2 * t + v3 * w, v2 * u + v3 * x)


_F_GENERATORS: dict[tuple[str, int], IntMatrix] = {
    ("c", 1): ((1, 2), (0, 1)),
    ("c", -1): ((1, -2), (0, 1)),
    ("d", 1): ((1, 0), (2, 1)),
    ("d", -1): ((1, 0), (-2, 1)),
}


def f_encode(w: GroupWord) -> IntMatrix:
    """Product of the generator images of a binary-alphabet word; f(ε) = I."""
    out = identity(2)
    for letter in w.letters:
        out = mat_mul(out, _F_GENERATORS[letter])
    return out


def block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, m = len(a), len(b)
    top = tuple(row + (0,) * m for row in a)
    bottom = tuple((0,) * n + row for row in b)
    return top + bottom


def pair_encode(word: GroupWord, counter_word: GroupWord) -> IntMatrix:
    """4x4 block-diagonal image: f(word) upper left, f(alpha(counter)) lower right."""
    upper = f_encode(word)
    lower = f_encode(fg.alpha_encode(counter_word, fg.COUNTER_ALPHABET))
    return block_diag(upper, lower)


def fixes_anchor(m: IntMatrix, anchor: IntVector = ANCHOR_ROW) -> bool:
    """Whether the 2+2 block-diagonal ``m`` fixes the row ``anchor``."""
    return row_times_blocks(anchor, m) == anchor


def is_block_diagonal(m: IntMatrix) -> bool:
    """Whether ``m`` is a 4x4 matrix with two 2x2 diagonal blocks and zeros elsewhere."""
    return (
        len(m) == 4
        and all(len(row) == 4 for row in m)
        and not any(m[i][j] for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)))
    )


def block_inverse(m: IntMatrix) -> IntMatrix:
    """The inverse of a 2+2 block-diagonal matrix whose blocks have determinant one.

    Each block's inverse is its adjugate; for any other determinant the
    result is not the inverse, which the caller must check.
    """
    (a, b, _, _), (c, d, _, _), (_, _, e, f), (_, _, g, h) = m
    return ((d, -b, 0, 0), (-c, a, 0, 0), (0, 0, h, -f), (0, 0, -g, e))


@dataclass(frozen=True)
class MatrixGame:
    """The SL(4,Z) game: 2+2 block-diagonal move matrices and the anchor row.

    The configuration is the accumulated product, starting from ``initial``
    (the encoded initial pair of the source game; the identity by default),
    and the target is a product that fixes the anchor row.
    """

    defender: tuple[IntMatrix, ...]
    attacker: tuple[IntMatrix, ...]
    anchor: IntVector = ANCHOR_ROW
    initial: IntMatrix = identity(4)


def build_matrix_game(g: PairWordGame) -> MatrixGame:
    """Encode a binarized pair word game move-for-move into SL(4,Z).

    The accumulated product starts at the encoding of the initial pair, so
    reaching a product that fixes the anchor coincides with the word game
    reaching the empty pair (the word game starts on a nonempty word).
    """
    if g.alphabet.symbols != fg.BINARY_SYMBOLS:
        raise ValueError("matrix game needs the binarized pair game")
    return MatrixGame(
        defender=tuple(pair_encode(m.word, m.counter_word) for m in g.defender_moves),
        attacker=tuple(pair_encode(m.word, m.counter_word) for m in g.attacker_moves),
        initial=pair_encode(g.initial.word, g.initial.counter_word),
    )


def apply_matrix_move(accumulated: IntMatrix, m: IntMatrix) -> IntMatrix:
    """Right multiplication, matching word concatenation order.

    Both matrices must be 2+2 block-diagonal (every matrix game's are;
    ``domains.matrix_domain`` checks it), so only the two 2x2 blocks are
    multiplied.  Equal to ``mat_mul(accumulated, m)``.
    """
    (a, b, _, _), (c, d, _, _), (_, _, e, f), (_, _, g, h) = accumulated
    (p, q, _, _), (r, s, _, _), (_, _, t, u), (_, _, v, w) = m
    return (
        (a * p + b * r, a * q + b * s, 0, 0),
        (c * p + d * r, c * q + d * s, 0, 0),
        (0, 0, e * t + f * v, e * u + f * w),
        (0, 0, g * t + h * v, g * u + h * w),
    )


def render_matrix(m: IntMatrix) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in m)


def dump_matrix_game(g: MatrixGame) -> str:
    lines = [
        "# dimension=4 convention=product",
        "# anchor " + " ".join(str(x) for x in g.anchor),
        "# initial",
        render_matrix(g.initial),
        "",
    ]
    for label, matrices in (("D", g.defender), ("A", g.attacker)):
        for i, m in enumerate(matrices):
            lines.append(f"# player={label} move={i}")
            lines.append(render_matrix(m))
            lines.append("")
    return "\n".join(lines)
