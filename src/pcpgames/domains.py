"""Game domains for the solver plus the per-instance pipeline.

Every representation is one :class:`Domain`: the same word game seen
through another image.  Every representation derived from one word game
keeps its move lists in the same order, so a move index means the same
thing in each domain and traces replay across representations unchanged.

Each domain also answers ``target_reply``: the least attacker move whose
reply reaches the target.  The moves are invertible, so every domain lists
once the configuration each reply takes to the target and answers with one
lookup: the word and pair games key it by the inverted move words, the
matrix game by the anchor row x0*M^-1, the robot game by ``target - v`` and
its matrix embedding by ``shift_matrix(-v) * target``.  No domain applies
the replies to find a target.

A braid domain is built on the domain it encodes (``braid3`` on the binary
word game, named ``binary-word``, ``braid5`` on the binary pair game): its configuration is
``BraidConfig(braid, source)``, the braid word beside the source
configuration it encodes.  The source domain steps ``source`` and supplies
the canonical key, the target predicate and ``target_reply`` (the encodings
are injective on everything a play can reach), while the braid word stays
available for the independent braid oracles that the test suite replays
against.

The pipeline builds the automaton, its unfolding and the word game
eagerly, since every representation reads them and a bad instance should
fail at once; each downstream game is built on first use and kept, so a
word-only solve never pays for the matrix or braid encodings.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable

from . import automata as au
from . import braids as br
from . import freegroup as fg
from . import matrices as mx
from . import wordgames as wg
from .engine import DEFENDER
from .pcp import PcpInstance


@dataclass(frozen=True)
class Domain:
    """One representation of a game, as the solver and the replays see it.

    ``step(config, move)`` applies one entry of a move tuple.
    ``target_reply(config)`` is the least attacker move index whose reply
    takes ``config`` to the target, or None.  ``is_target``,
    ``target_reply`` and ``canonical_key`` are stored callables rather than
    methods, so the solver calls them without an extra frame.
    """

    name: str
    initial: Any
    defender_moves: tuple
    attacker_moves: tuple
    step: Callable[[Any, Any], Any]
    is_target: Callable[[Any], bool]
    target_reply: Callable[[Any], int | None]
    canonical_key: Callable[[Any], str]
    label: Callable[[Any], str]

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


def _weighted_key(config) -> str:
    return f"{fg.render(config.word) or 'ε'};{config.counter}"


def _pair_key(config) -> str:
    return f"{fg.render(config.word) or 'ε'};{fg.render(config.counter_word) or 'ε'}"


def _matrix_text(m: mx.IntMatrix) -> str:
    return " ".join(str(x) for row in m for x in row)


def _vector_text(v: mx.IntVector) -> str:
    return " ".join(str(x) for x in v)


def word_domain(game: wg.WeightedWordGame, name: str = "word") -> Domain:
    """``name`` tells apart the word games of one pipeline: ``braid3`` encodes ``"binary-word"``."""
    return Domain(
        name, game.initial, game.defender_moves, game.attacker_moves,
        game.apply, game.is_target, game.target_reply, _weighted_key, wg.WeightedMove.render,
    )


def pair_domain(game: wg.PairWordGame) -> Domain:
    return Domain(
        "pair", game.initial, game.defender_moves, game.attacker_moves,
        game.apply, game.is_target, game.target_reply, _pair_key, wg.PairMove.render,
    )


def matrix_domain(game: mx.MatrixGame) -> Domain:
    """The configuration is the accumulated move product.

    Raises ValueError unless the game is 2+2 block-diagonal; the check and
    the reply table are made once per game (``MatrixGame.target_reply``).
    """
    return Domain(
        "matrix", game.initial, game.defender, game.attacker,
        mx.apply_matrix_move, partial(mx.fixes_anchor, anchor=game.anchor), game.target_reply,
        _matrix_text, _matrix_text,
    )


def _act_on_vector(config: mx.IntVector, m: mx.IntMatrix) -> mx.IntVector:
    return mx.mat_vec_mul(m, config)


def robot_matrix_domain(game: mx.RobotGame) -> Domain:
    """The robot game's 2n-dimensional embedding: ``shift_matrix(v)`` acts on (x, 1...1).

    ``shift_matrix(-v)`` inverts a move, so it keys the reply table.
    """
    ones = (1,) * len(game.target)
    target = game.target + ones
    return Domain(
        "robot-matrix", game.initial + ones,
        tuple(mx.shift_matrix(v) for v in game.defender),
        tuple(mx.shift_matrix(v) for v in game.attacker),
        _act_on_vector, partial(operator.eq, target),
        wg.least_index(
            mx.mat_vec_mul(mx.shift_matrix(tuple(-x for x in v)), target) for v in game.attacker
        ).get,
        _vector_text, _matrix_text,
    )


def _translate(config: mx.IntVector, v: mx.IntVector) -> mx.IntVector:
    return tuple(c + dv for c, dv in zip(config, v))


def robot_domain(game: mx.RobotGame) -> Domain:
    return Domain(
        "robot", game.initial, game.defender, game.attacker,
        _translate, partial(operator.eq, game.target),
        wg.least_index(tuple(t - dv for t, dv in zip(game.target, v)) for v in game.attacker).get,
        _vector_text, _vector_text,
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
    source_step, is_target = source.step, source.is_target
    target_reply, canonical_key = source.target_reply, source.canonical_key

    def step(config: BraidConfig, move: tuple[br.BraidWord, Any]) -> BraidConfig:
        braid, source_move = move
        return BraidConfig(br.concat(config.braid, braid), source_step(config.source, source_move))

    return Domain(
        name, BraidConfig(braid_game.initial_braid, source.initial),
        tuple(zip(braid_game.defender_braids, source.defender_moves)),
        tuple(zip(braid_game.attacker_braids, source.attacker_moves)),
        step,
        lambda config: is_target(config.source),
        lambda config: target_reply(config.source),
        lambda config: canonical_key(config.source),
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
    a cached property: built from its predecessor on first access, then
    reused, so repeated ``domain()`` calls never rebuild a game.
    """

    instance: PcpInstance
    automaton: au.WeightedAutomaton
    game_automaton: au.WeightedAutomaton  # the unfolded forward automaton
    weighted_game: wg.WeightedWordGame

    @cached_property
    def pair_game(self) -> wg.PairWordGame:
        return wg.to_pair_game(self.weighted_game)

    @cached_property
    def binary_weighted_game(self) -> wg.WeightedWordGame:
        return wg.binarize(self.weighted_game)

    @cached_property
    def binary_pair_game(self) -> wg.PairWordGame:
        return wg.to_pair_game(self.binary_weighted_game)

    @cached_property
    def matrix_game(self) -> mx.MatrixGame:
        return mx.build_matrix_game(self.binary_pair_game)

    @cached_property
    def braid3_game(self) -> br.BraidGame:
        return br.build_braid3_game(self.binary_weighted_game)

    @cached_property
    def braid5_game(self) -> br.BraidGame:
        return br.build_braid5_game(self.binary_pair_game)

    def domain(self, representation: str) -> Domain:
        if representation not in _REPRESENTATION_DOMAINS:
            raise ValueError(f"unknown representation {representation!r}")
        return _REPRESENTATION_DOMAINS[representation](self)

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
