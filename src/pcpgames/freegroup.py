"""Freely reduced words over symmetric (group) alphabets.

A letter is a pair ``(symbol, sign)`` with ``sign`` in ``{+1, -1}``; the
negative sign denotes the formal inverse of the symbol.  Words are kept
freely reduced at all times, so equality of group elements is plain
sequence equality.

The module also provides the rank-indexed embedding of an arbitrary
symmetric alphabet into the binary group alphabet ``{c, d}``: the letter
of rank ``i`` maps to ``c^i d c^-i`` (inverse letters to ``c^i d^-1 c^-i``).
This embedding is injective, which downstream encodings rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Letter = tuple[str, int]

BINARY_SYMBOLS = ("c", "d")


@dataclass(frozen=True)
class RankedAlphabet:
    """A symmetric alphabet whose symbols carry 1-based ranks in declaration order."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet: {self.symbols}")

    def rank(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol) + 1
        except ValueError:
            raise KeyError(f"symbol {symbol!r} has no rank in {self.symbols}") from None

    def symbol(self, rank: int) -> str:
        if not 1 <= rank <= len(self.symbols):
            raise KeyError(f"rank {rank} out of range 1..{len(self.symbols)}")
        return self.symbols[rank - 1]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)


BINARY_ALPHABET = RankedAlphabet(BINARY_SYMBOLS)

# Unary counter words use the rank-1 letter of this alphabet; the second
# letter only exists because the five-strand encoding offers a rank-2 target.
COUNTER_SYMBOL = "r"
COUNTER_ALPHABET = RankedAlphabet((COUNTER_SYMBOL, "t"))


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word; ``letters`` never contains an adjacent inverse pair."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        for (s1, g1), (s2, g2) in zip(self.letters, self.letters[1:]):
            if s1 == s2 and g1 == -g2:
                raise ValueError(f"word is not freely reduced at {s1!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return concat(self, other)

    def __invert__(self) -> "GroupWord":
        return invert(self)

    def __str__(self) -> str:
        return render(self)


EPSILON = GroupWord()


def reduce(raw: Iterable[Letter]) -> GroupWord:
    """Freely reduce a letter sequence by cancelling adjacent inverse pairs."""
    stack: list[Letter] = []
    for sym, sign in raw:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        if stack and stack[-1][0] == sym and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((sym, sign))
    return GroupWord(tuple(stack))


def word(*syms: str) -> GroupWord:
    """Build a word from rendered tokens, ``~`` marking inverse letters."""
    return reduce(
        (s[1:], -1) if s.startswith("~") else (s, 1) for s in syms
    )


def _reduced(letters: tuple[Letter, ...]) -> GroupWord:
    """Wrap letters already known to be freely reduced, skipping the re-scan."""
    w = object.__new__(GroupWord)
    object.__setattr__(w, "letters", letters)
    return w


def concat(u: GroupWord, v: GroupWord) -> GroupWord:
    """Product u.v in the free group (append from the right, then cancel).

    Both factors are reduced, so once the seam has cancelled the result is
    reduced too and is built without re-validation.
    """
    ul, vl = u.letters, v.letters
    n, i = len(ul), 0
    while n and i < len(vl) and ul[n - 1][0] == vl[i][0] and ul[n - 1][1] == -vl[i][1]:
        n -= 1
        i += 1
    return _reduced(ul[:n] + vl[i:])


# Each inverse letter is one shared tuple, so tables of inverted words hold
# references, not a fresh pair per letter.
_INVERSE_LETTERS: dict[Letter, Letter] = {}


def invert(w: GroupWord) -> GroupWord:
    shared = _INVERSE_LETTERS
    return _reduced(tuple(shared.setdefault((sym, -sign), (sym, -sign)) for sym, sign in reversed(w.letters)))


def power(w: GroupWord, n: int) -> GroupWord:
    base = w if n >= 0 else invert(w)
    out = EPSILON
    for _ in range(abs(n)):
        out = concat(out, base)
    return out


def render(w: GroupWord | tuple[Letter, ...]) -> str:
    """Text form of a word or of its letters: tokens whitespace-separated,
    inverses prefixed with ``~``."""
    letters = w.letters if isinstance(w, GroupWord) else w
    return " ".join(("~" + sym) if sign < 0 else sym for sym, sign in letters)


def parse(text: str) -> GroupWord:
    """Inverse of :func:`render`; whitespace-only text parses to the empty word."""
    return word(*text.split())


def alpha_encode(w: GroupWord, alphabet: RankedAlphabet) -> GroupWord:
    """Embed a word over ``alphabet`` into the binary alphabet, letterwise.

    The rank-``i`` letter maps to ``c^i d c^-i`` and its inverse to
    ``c^i d^-1 c^-i``; the images are concatenated and reduced.
    """
    c, d = BINARY_SYMBOLS
    out: list[Letter] = []
    for sym, sign in w.letters:
        i = alphabet.rank(sym)
        block = [(c, 1)] * i + [(d, sign)] + [(c, -1)] * i
        out.extend(block)
    return reduce(out)
