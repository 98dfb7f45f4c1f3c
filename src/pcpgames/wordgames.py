"""Attacker-Defender games on free-group words built from the unfolded automaton.

The weighted game keeps an integer counter alongside the word; the pair game
re-encodes the counter as a word over the unary symmetric alphabet ``{r}``.
Defender moves are the single domain letters with weight zero.  Attacker
moves encode automaton transitions:

* ``#``                       — the waiting move, weight 0;
* ``ā · q̄_j``                 — a transition out of the initial state reading
                                ``a``, carrying the transition weight;
* ``b̄ · q_i · #̄ · ā · q̄_j``   — a mid-path transition ``q_i --a--> q_j``
                                (one copy per defender letter ``b``, whose
                                inverse cancels the defender's last move);
* ``ā · f · q̄_init``          — the unbraiding moves that turn the pre-final
                                configuration ``q_init·f̄`` into the empty word.

Played against a defender who replays a word, the attacker can cancel the
stored letters newest-first, so reaching the target is following a path of
the given automaton on the reversed stored prefix.

A move and a configuration are elements of one group, F×Z for the weighted
game and F×F for the pair game, so each game has one type for both,
:class:`WordConfig` and :class:`PairConfig`, and a step is their product.
The game and element types are plain data: ``domains.word_domain`` and
``domains.pair_domain`` step them and find the target replies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter

from . import freegroup as fg
from .automata import AutomatonError, WeightedAutomaton
from .freegroup import GroupWord, RankedAlphabet

HASH = "#"
EMPTY_WORD_TEXT = "ε"


@dataclass(frozen=True, slots=True)
class WordConfig:
    """An element of F×Z: a configuration or a move of the weighted game.

    ``key`` is the word's letter codes followed by the counter, the
    element's hashable key.  Either side is derived from the other when
    first read: an element built from a word and a counter computes its key,
    and one made by a step (``domains._word_step``) is its key alone, whose
    ``word`` and ``counter`` are decoded from it, so the solver, which reads
    only keys, never builds a word.  ``weight`` is the counter under the
    name the dump format gives a move's integer.
    """

    word: GroupWord
    counter: int
    key: tuple[int, ...] = field(init=False, compare=False, repr=False)
    weight = property(attrgetter("counter"))

    def __getattr__(self, name: str) -> GroupWord | int | tuple[int, ...]:
        # Reached only for an unset slot: the key of an element built from a
        # word, or the word or counter of a stepped one.
        if name == "key":
            value = fg.letter_codes(self.word.letters) + (self.counter,)
        elif name == "word":
            value = GroupWord(fg.code_letters(self.key[:-1]))
        elif name == "counter":
            value = self.key[-1]
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def render(self) -> str:
        return f"word={fg.render(self.word)} weight={self.counter}"


@dataclass(frozen=True, slots=True)
class PairConfig:
    """An element of F×F: a configuration or a move of the pair game."""

    word: GroupWord
    counter_word: GroupWord

    def render(self) -> str:
        return f"word={fg.render(self.word)} counter={fg.render(self.counter_word)}"


@dataclass(frozen=True)
class WeightedWordGame:
    alphabet: RankedAlphabet
    defender_moves: tuple[WordConfig, ...]
    attacker_moves: tuple[WordConfig, ...]
    initial: WordConfig


@dataclass(frozen=True)
class PairWordGame:
    alphabet: RankedAlphabet
    defender_moves: tuple[PairConfig, ...]
    attacker_moves: tuple[PairConfig, ...]
    initial: PairConfig


def game_alphabet(aut: WeightedAutomaton) -> RankedAlphabet:
    """Ranks over the move alphabet: domain letters, then states q0..q8, then #."""
    return RankedAlphabet(tuple(aut.alphabet) + tuple(aut.states) + (HASH,))


def build_weighted_word_game(aut: WeightedAutomaton) -> WeightedWordGame:
    """Compile the unfolded 9-state automaton into the weighted word game."""
    if len(aut.states) != 9:
        raise AutomatonError("the word game is built from the unfolded 9-state automaton")
    alphabet = game_alphabet(aut)
    init = aut.initial
    defender = tuple(WordConfig(fg.word(a), 0) for a in sorted(aut.alphabet))
    attacker: list[WordConfig] = [WordConfig(fg.word(HASH), 0)]
    transitions = aut.sorted_transitions()
    for t in transitions:
        if t.source == init:
            attacker.append(
                WordConfig(fg.word("~" + t.letter, "~" + t.target), t.weight)
            )
    for b in sorted(aut.alphabet):
        for t in transitions:
            if t.source != init:
                attacker.append(
                    WordConfig(
                        fg.word("~" + b, t.source, "~" + HASH, "~" + t.letter, "~" + t.target),
                        t.weight,
                    )
                )
    for f in sorted(aut.finals):
        for a in sorted(aut.alphabet):
            attacker.append(WordConfig(fg.word("~" + a, f, "~" + init), 0))
    return WeightedWordGame(
        alphabet=alphabet,
        defender_moves=defender,
        attacker_moves=tuple(attacker),
        initial=WordConfig(fg.word(init), 0),
    )


def counter_word(x: int) -> GroupWord:
    """The counter value x as the unary group word r^x."""
    return GroupWord(((fg.COUNTER_SYMBOL, 1 if x >= 0 else -1),) * abs(x))


def to_pair_game(g: WeightedWordGame) -> PairWordGame:
    """Re-encode every weight x as the unary word r^x; targets correspond."""
    return PairWordGame(
        alphabet=g.alphabet,
        defender_moves=tuple(
            PairConfig(m.word, counter_word(m.counter)) for m in g.defender_moves
        ),
        attacker_moves=tuple(
            PairConfig(m.word, counter_word(m.counter)) for m in g.attacker_moves
        ),
        initial=PairConfig(g.initial.word, counter_word(g.initial.counter)),
    )


def binarize(g: WeightedWordGame) -> WeightedWordGame:
    """Map every word through the binary-alphabet embedding; weights untouched.

    Binarizing touches only words and :func:`to_pair_game` only weights, so
    the two commute: the binary pair game is ``to_pair_game(binarize(g))``,
    and the words are encoded once for both binary games.
    """
    enc = lambda w: fg.alpha_encode(w, g.alphabet)
    return WeightedWordGame(
        alphabet=fg.BINARY_ALPHABET,
        defender_moves=tuple(WordConfig(enc(m.word), m.counter) for m in g.defender_moves),
        attacker_moves=tuple(WordConfig(enc(m.word), m.counter) for m in g.attacker_moves),
        initial=WordConfig(enc(g.initial.word), g.initial.counter),
    )


def _dump_game(g: WeightedWordGame | PairWordGame, target: WordConfig | PairConfig) -> str:
    """Alphabet, initial and target configurations, then every move, in one format."""
    lines = [
        "alphabet " + " ".join(g.alphabet.symbols),
        f"initial {g.initial.render()}",
        f"target {target.render()}",
    ]
    lines += [f"player=D {m.render()}" for m in g.defender_moves]
    lines += [f"player=A {m.render()}" for m in g.attacker_moves]
    return "\n".join(lines) + "\n"


def dump_weighted_game(g: WeightedWordGame) -> str:
    return _dump_game(g, WordConfig(fg.EPSILON, 0))


def dump_pair_game(g: PairWordGame) -> str:
    return _dump_game(g, PairConfig(fg.EPSILON, fg.EPSILON))


def parse_weighted_game(text: str) -> WeightedWordGame:
    """Inverse of :func:`dump_weighted_game`; the target must be the empty word with weight 0.

    The ``alphabet``, ``initial`` and ``target`` lines may each appear once.
    With an ``alphabet`` line every letter of the moves and of the initial
    word must be in it; without one the alphabet is the letters used, in
    order of first use.  No symbol may be ``ε``, the text of the empty word
    in traces and strategy files.
    """
    alphabet: RankedAlphabet | None = None
    initial = WordConfig(fg.EPSILON, 0)
    headers: set[str] = set()
    defender: list[WordConfig] = []
    attacker: list[WordConfig] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(("alphabet ", "initial ", "target ")):
            keyword, rest = line.split(" ", 1)
            if keyword in headers:
                raise ValueError(f"the game dump has a second {keyword} line {line!r}")
            headers.add(keyword)
            if keyword == "alphabet":
                alphabet = RankedAlphabet(tuple(rest.split()))
                if EMPTY_WORD_TEXT in alphabet:
                    raise ValueError(f"symbol 'ε' in line {line!r} is reserved for the empty word")
            elif keyword == "initial":
                initial = WordConfig(*_split_move(rest))
            else:
                word, weight = _split_move(rest)
                if word.letters or weight:
                    raise ValueError(f"game dump target {rest!r} is not the empty word with weight 0")
        elif line.startswith("player="):
            player, rest = line.split(None, 1)
            word, weight = _split_move(rest)
            move = WordConfig(word, weight)
            if player == "player=D":
                defender.append(move)
            elif player == "player=A":
                attacker.append(move)
            else:
                raise ValueError(f"unknown player in line {line!r}")
        else:
            raise ValueError(f"unrecognized game dump line {line!r}")
    if not defender or not attacker:
        raise ValueError(f"the game dump has no player={'A' if defender else 'D'} move")
    lines = [("player=D", m) for m in defender] + [("player=A", m) for m in attacker]
    lines.append(("initial", initial))
    if alphabet is None:
        alphabet = RankedAlphabet(tuple(dict.fromkeys(sym for _, m in lines for sym, _ in m.word.letters)))
    for head, m in lines:
        for sym, _ in m.word.letters:
            if sym == EMPTY_WORD_TEXT:
                raise ValueError(f"symbol {sym!r} in line '{head} {m.render()}' is reserved for the empty word")
            if sym not in alphabet:
                raise ValueError(f"symbol {sym!r} in line '{head} {m.render()}' is not in the alphabet line")
    return WeightedWordGame(alphabet, tuple(defender), tuple(attacker), initial)


_MOVE_FIELD = re.compile(r"word=(.*) weight=(-?\d+)")


def _split_move(rest: str) -> tuple[GroupWord, int]:
    field = _MOVE_FIELD.fullmatch(rest)
    if field is None:
        raise ValueError(f"malformed move field {rest!r}")
    return fg.parse(field.group(1)), int(field.group(2))
