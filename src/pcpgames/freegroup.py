"""Freely reduced words over symmetric (group) alphabets.

A letter is a pair ``(symbol, sign)`` with ``sign`` in ``{+1, -1}``; the
negative sign denotes the formal inverse of the symbol.  Words are kept
freely reduced at all times, so equality of group elements is plain
sequence equality.  For hashing, a letter also has an int code, its
symbol's id signed like the letter (:func:`letter_codes`).

The module also provides the rank-indexed embedding of an arbitrary
symmetric alphabet into the binary group alphabet ``{c, d}``: the letter
of rank ``i`` maps to ``c^i d c^-i`` (inverse letters to ``c^i d^-1 c^-i``).
This embedding is injective, which downstream encodings rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Letter = tuple[str, int]

# Products are built without ``GroupWord.__init__``, whose check they do not need.
_new, _set = object.__new__, object.__setattr__

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


def _no_symbol(token: str) -> str:
    raise ValueError(f"word token {token!r} has no symbol")


def word(*syms: str) -> GroupWord:
    """Build a word from rendered tokens, ``~`` marking inverse letters.

    Raises ValueError for a token with no symbol (empty, or ``~`` alone).
    The check is one truth test on the symbol each token yields, since
    every game move is built here.
    """
    return reduce(
        (s[1:] or _no_symbol(s), -1) if s.startswith("~") else (s or _no_symbol(s), 1) for s in syms
    )


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
    w = _new(GroupWord)
    _set(w, "letters", ul[:n] + vl[i:])
    return w


# Each inverse letter is one shared tuple, so tables of inverted words hold
# references, not a fresh pair per letter.
_INVERSE_LETTERS: dict[Letter, Letter] = {}


def invert(w: GroupWord) -> GroupWord:
    shared = _INVERSE_LETTERS
    out = _new(GroupWord)
    _set(out, "letters", tuple(shared.setdefault((sym, -sign), (sym, -sign)) for sym, sign in reversed(w.letters)))
    return out


# A symbol gets the next positive id when it is first coded, and a letter's
# code is that id signed like the letter, so inverse letters have opposite
# codes and a key of codes hashes as ints.  The ids depend on the order in
# which symbols are first coded, so codes are compared only within a process.
_LETTER_CODES: dict[Letter, int] = {}
_CODE_LETTERS: dict[int, Letter] = {}


def letter_codes(letters: tuple[Letter, ...]) -> tuple[int, ...]:
    """The signed code of each letter; a symbol not seen before gets the next id."""
    codes = _LETTER_CODES
    try:
        return tuple(map(codes.__getitem__, letters))
    except KeyError:
        pass
    for sym, _ in letters:
        if (sym, 1) not in codes:
            code = len(codes) // 2 + 1
            for sign in (1, -1):
                codes[(sym, sign)] = sign * code
                _CODE_LETTERS[sign * code] = (sym, sign)
    return tuple(map(codes.__getitem__, letters))


def code_letters(codes: Iterable[int]) -> tuple[Letter, ...]:
    """Inverse of :func:`letter_codes`."""
    return tuple(map(_CODE_LETTERS.__getitem__, codes))


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
