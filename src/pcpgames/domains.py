"""Game domains for the solver plus the per-instance pipeline.

Every representation is one :class:`Domain`, the same word game seen
through another image: moves acting invertibly on points, one target point,
and a canonical key that is an invariant of the action.  A key is a
hashable point, never text: the flat tuple of a word's letter codes
(``freegroup.letter_codes``) and its counter, the pair of letter tuples of a
pair configuration, the anchor row of a matrix product.  ``key_text``
renders a key only where it is written or compared as
text (traces, strategy files, the human prompt, crosschecks).  After
defender move d the reply a takes x to the target t exactly when x is t
acted on by a^-1 and then d^-1, so ``threat_replies`` keeps one dict from
the keys of those points to a row that holds, for each d, the least such a,
built on the first reply (plays, dumps and crosschecks ask for none), and
answers from the key the solver already holds for its memo; no domain
applies a move to find a target.  The word and pair points are their
configurations.  A stepped word point is
its coded key alone: the step finds the seam on the codes of its two
factors' keys and slices one tuple, the word's ``is_target`` compares keys,
and the word and counter are decoded from the key only where they are read
(perfbench's play certificate, the tests), never on the solve, replay or
target path.  The matrix point
is the block product P, keyed by its anchor row x0*P, which is all the
target x0*P = x0 reads.  A braid point is ``BraidConfig(braid, source)``,
the braid word beside the configuration of the domain it encodes
(``braid3`` the binary word game, named ``binary-word``, ``braid5`` the
binary pair game); the source domain gives the key, its text and the target
predicate (the encodings are injective on everything a play can reach),
and the braid word stays available for the braid oracles that the test
suite replays against.  Every representation
derived from one word game keeps its move lists in the same order, so a
move index means the same thing in each domain and traces replay across
representations unchanged.

The pipeline builds the automaton, its unfolding and the word game
eagerly, since every representation reads them and a bad instance should
fail at once; each downstream game and each domain is built on first use
and kept, so a word-only solve never pays for the matrix or braid
encodings and no reply table is built twice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Hashable, Iterable

from . import automata as au
from . import braids as br
from . import freegroup as fg
from . import matrices as mx
from . import wordgames as wg
from .engine import DEFENDER
from .pcp import PcpInstance


@dataclass(frozen=True)
class Domain:
    """One representation of a game: moves acting invertibly on points.

    ``step(point, move)`` applies one entry of a move tuple and
    ``inverse(move)`` is the move that undoes it.  ``canonical_key`` returns
    a hashable key that must be an invariant of the action: equal keys stay
    equal under every move, and ``is_target(x)`` holds exactly when
    ``canonical_key(x) == canonical_key(target)``.  ``key_text`` renders a
    key as text, injectively, and is called only at the edges.
    ``is_target``, ``canonical_key`` and ``threat_replies`` are stored
    callables rather than methods, so the solver calls them without an
    extra frame.
    """

    name: str
    initial: Any
    defender_moves: tuple
    attacker_moves: tuple
    step: Callable[[Any, Any], Any]
    inverse: Callable[[Any], Any]
    target: Any
    is_target: Callable[[Any], bool]
    canonical_key: Callable[[Any], Hashable]
    key_text: Callable[[Hashable], str]
    label: Callable[[Any], str]

    @au.BuiltOnFirstAccess
    def threat_replies(self) -> Callable[[Hashable], tuple]:
        """key -> for each defender move, the least attacker move index whose
        reply then takes a point with that key to the target, or None.

        After defender move d the reply a reaches the target from x exactly
        when x is ``step(step(target, inverse(a)), inverse(d))``, so the keys
        of those points index one row per key, built on first access; a key
        with no row gets one shared row of None.
        """
        step, inverse, key = self.step, self.inverse, self.canonical_key
        points = [step(self.target, inverse(a)) for a in self.attacker_moves]
        none = (None,) * len(self.defender_moves)
        rows: dict[Hashable, list] = {}
        for d, move in enumerate(self.defender_moves):
            undo = inverse(move)
            for k, a in _least_index(key(step(x, undo)) for x in points).items():
                rows.setdefault(k, list(none))[d] = a
        get = {k: tuple(row) for k, row in rows.items()}.get
        return lambda key: get(key, none)

    def initial_config(self) -> Any:
        return self.initial

    def move_count(self, player: str) -> int:
        return len(self.defender_moves if player == DEFENDER else self.attacker_moves)

    def move_label(self, player: str, index: int) -> str:
        moves = self.defender_moves if player == DEFENDER else self.attacker_moves
        return self.label(moves[index])

    def apply(self, config: Any, player: str, index: int) -> Any:
        moves = self.defender_moves if player == DEFENDER else self.attacker_moves
        return self.step(config, moves[index])


def _letters_text(letters: tuple[fg.Letter, ...]) -> str:
    return fg.render(letters) or "ε"


_weighted_key = operator.attrgetter("key")


def _weighted_key_text(key: tuple) -> str:
    return f"{_letters_text(fg.code_letters(key[:-1]))};{key[-1]}"


def _pair_key(config: wg.PairConfig) -> tuple:
    return config.word.letters, config.counter_word.letters


def _pair_key_text(key: tuple) -> str:
    return f"{_letters_text(key[0])};{_letters_text(key[1])}"


def _matrix_text(m: mx.IntMatrix) -> str:
    return " ".join(str(x) for row in m for x in row)


def _vector_text(v: mx.IntVector) -> str:
    return " ".join(str(x) for x in v)


def _least_index(keys: Iterable[Hashable]) -> dict[Hashable, int]:
    """Each distinct key -> the index of its first occurrence."""
    index: dict[Hashable, int] = {}
    for i, key in enumerate(keys):
        index.setdefault(key, i)
    return index


# A step builds its configuration without ``__init__``: the product is reduced
# by construction and its key is sliced from the factors' keys.  The key slot's
# own setter is a little cheaper than ``object.__setattr__``.
_new, _set_key = object.__new__, wg.WordConfig.key.__set__


def _word_step(config: wg.WordConfig, move: wg.WeightedMove) -> wg.WordConfig:
    """The seam is found on the codes and the product is its key alone:
    ``word`` and ``counter`` are decoded from it only where they are read."""
    uk, vk = config.key, move.codes
    n, i = len(uk) - 1, 0
    while n and i < len(vk) and uk[n - 1] == -vk[i]:
        n -= 1
        i += 1
    out = _new(wg.WordConfig)
    _set_key(out, uk[:n] + vk[i:] + (uk[-1] + move.weight,))
    return out


def _word_is_target(config: wg.WordConfig) -> bool:
    """The target is the empty word with counter 0, whose key is ``(0,)``."""
    return config.key == (0,)


def _word_inverse(move: wg.WeightedMove) -> wg.WeightedMove:
    return wg.WeightedMove(fg.invert(move.word), -move.weight)


def word_domain(game: wg.WeightedWordGame, name: str = "word") -> Domain:
    """``name`` tells apart the word games of one pipeline: ``braid3`` encodes ``"binary-word"``."""
    target = wg.WordConfig(fg.EPSILON, 0)
    return Domain(
        name, game.initial, game.defender_moves, game.attacker_moves,
        _word_step, _word_inverse, target, _word_is_target, _weighted_key, _weighted_key_text,
        wg.WeightedMove.render,
    )


def _pair_step(config: wg.PairConfig, move: wg.PairMove) -> wg.PairConfig:
    return wg.PairConfig(fg.concat(config.word, move.word), fg.concat(config.counter_word, move.counter_word))


def _pair_inverse(move: wg.PairMove) -> wg.PairMove:
    return wg.PairMove(fg.invert(move.word), fg.invert(move.counter_word))


def pair_domain(game: wg.PairWordGame) -> Domain:
    target = wg.PairConfig(fg.EPSILON, fg.EPSILON)
    return Domain(
        "pair", game.initial, game.defender_moves, game.attacker_moves,
        _pair_step, _pair_inverse, target, target.__eq__, _pair_key, _pair_key_text, wg.PairMove.render,
    )


def matrix_domain(game: mx.MatrixGame) -> Domain:
    """The point is the accumulated move product P, keyed by its anchor row x0*P.

    Raises ValueError unless the initial matrix and every move are 2+2
    block-diagonal (what :func:`matrices.apply_matrix_move` multiplies) and
    each move's block inverse, which the reply tables apply, is exact.
    """
    if not all(mx.is_block_diagonal(m) for m in (game.initial,) + game.defender + game.attacker):
        raise ValueError("the initial matrix and every move must be 2+2 block-diagonal")
    anchor, identity = game.anchor, mx.identity(4)
    for player, moves in (("defender", game.defender), ("attacker", game.attacker)):
        for i, m in enumerate(moves):
            if mx.apply_matrix_move(m, mx.block_inverse(m)) != identity:
                raise ValueError(f"{player} move {i} has a block of determinant other than one")

    return Domain(
        "matrix", game.initial, game.defender, game.attacker,
        mx.apply_matrix_move, mx.block_inverse, identity,
        partial(mx.fixes_anchor, anchor=anchor), partial(mx.row_times_blocks, anchor),
        _vector_text, _matrix_text,
    )


@dataclass(frozen=True, slots=True)
class BraidConfig:
    """A braid word and the source configuration it encodes.

    ``word``, ``counter`` (braid3) and ``counter_word`` (braid5) forward to
    ``source``; perfbench's play certificate reads them.  Slots make the
    construction on every braid step cheaper.
    """

    braid: br.BraidWord
    source: Any
    word = property(operator.attrgetter("source.word"))
    counter = property(operator.attrgetter("source.counter"))
    counter_word = property(operator.attrgetter("source.counter_word"))


def _braid_label(move: tuple[br.BraidWord, Any]) -> str:
    return move[0].render()


def braid_domain(name: str, braid_game: br.BraidGame, source: Domain) -> Domain:
    """Each move is a braid zipped with the source move it encodes."""
    source_step, source_inverse = source.step, source.inverse
    is_target, canonical_key = source.is_target, source.canonical_key

    def step(config: BraidConfig, move: tuple[br.BraidWord, Any]) -> BraidConfig:
        braid, source_move = move
        return BraidConfig(br.concat(config.braid, braid), source_step(config.source, source_move))

    def inverse(move: tuple[br.BraidWord, Any]) -> tuple[br.BraidWord, Any]:
        braid, source_move = move
        return br.invert(braid), source_inverse(source_move)

    return Domain(
        name, BraidConfig(braid_game.initial_braid, source.initial),
        tuple(zip(braid_game.defender_braids, source.defender_moves)),
        tuple(zip(braid_game.attacker_braids, source.attacker_moves)),
        step, inverse, BraidConfig(br.BraidWord(braid_game.strands, ()), source.target),
        lambda config: is_target(config.source),
        lambda config: canonical_key(config.source),
        source.key_text,
        _braid_label,
    )


_REPRESENTATION_DOMAINS: dict[str, Callable[["Pipeline"], Domain]] = {
    "word": lambda p: word_domain(p.weighted_game),
    "pair": lambda p: pair_domain(p.binary_pair_game),
    "matrix": lambda p: matrix_domain(p.matrix_game),
    "braid3": lambda p: braid_domain(
        "braid3", p.braid3_game, word_domain(p.binary_weighted_game, "binary-word")
    ),
    "braid5": lambda p: braid_domain("braid5", p.braid5_game, p.domain("pair")),
}
REPRESENTATIONS = tuple(_REPRESENTATION_DOMAINS)


@dataclass(frozen=True)
class Pipeline:
    """Every representation of one instance, move lists index-aligned throughout.

    The fields are built by :func:`build_pipeline`.  Each downstream game is
    built from its predecessor on first access, then reused.  Each domain is
    kept too, so repeated ``domain()`` calls never rebuild a game or a reply
    table.
    """

    instance: PcpInstance
    automaton: au.WeightedAutomaton
    game_automaton: au.WeightedAutomaton  # the unfolded forward automaton
    weighted_game: wg.WeightedWordGame

    @au.BuiltOnFirstAccess
    def pair_game(self) -> wg.PairWordGame:
        return wg.to_pair_game(self.weighted_game)

    @au.BuiltOnFirstAccess
    def binary_weighted_game(self) -> wg.WeightedWordGame:
        return wg.binarize(self.weighted_game)

    @au.BuiltOnFirstAccess
    def binary_pair_game(self) -> wg.PairWordGame:
        return wg.to_pair_game(self.binary_weighted_game)

    @au.BuiltOnFirstAccess
    def matrix_game(self) -> mx.MatrixGame:
        return mx.build_matrix_game(self.binary_pair_game)

    @au.BuiltOnFirstAccess
    def braid3_game(self) -> br.BraidGame:
        return br.build_braid3_game(self.binary_weighted_game)

    @au.BuiltOnFirstAccess
    def braid5_game(self) -> br.BraidGame:
        return br.build_braid5_game(self.binary_pair_game)

    @au.BuiltOnFirstAccess
    def _domains(self) -> dict[str, Domain]:
        return {}

    def domain(self, representation: str) -> Domain:
        """The domain of ``representation``, built on first use and kept."""
        domains = self._domains
        if representation not in domains:
            if representation not in _REPRESENTATION_DOMAINS:
                raise ValueError(f"unknown representation {representation!r}")
            domains[representation] = _REPRESENTATION_DOMAINS[representation](self)
        return domains[representation]

    def crosscheck_domains(self) -> list[Domain]:
        return [self.domain(r) for r in REPRESENTATIONS]


def build_pipeline(inst: PcpInstance) -> Pipeline:
    """Instance -> automaton -> word game; the other games follow on first use.

    The games read the unfolded forward automaton (initial word q0, winning
    states q4/q8): its start state is a source, so a play cannot come back
    to it, which is what makes the empty-word target honest.  Everything up
    to the word game is built here, so a bad instance fails here.
    """
    automaton = au.build_solution_checker(inst)
    unfolded = au.unfold_self_loops(automaton)
    return Pipeline(
        instance=inst,
        automaton=automaton,
        game_automaton=unfolded,
        weighted_game=wg.build_weighted_word_game(unfolded),
    )
