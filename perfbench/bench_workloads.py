"""The four workloads: their set-up, their operations and the checks on each output.

An operation is one solve (instance, representation, horizon), one
certified play, or one universality call (instance, length).  A round runs
every operation of the workload once, always in the order listed here (the
peak RSS of a solve round depends on the order of its big solves); a run
repeats whole rounds.  Only certify-plays draws its inputs from the seed.
``run`` callables make only program calls (they are what is timed and
traced); ``check`` callables run untimed and untraced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from pcpgames import automata, braids, domains, engine, pcp

import bench_checks as checks

INSTANCE_DIR = Path(__file__).resolve().parent / "instances"
FIXTURES = ("eq", "i1", "mm", "fin", "c4", "c5", "c6")
REPRESENTATIONS = ("word", "pair", "matrix", "braid3", "braid5")

# solve-word: (instance, horizon), word representation only.
SOLVE_WORD = (
    ("eq", 4), ("mm", 3), ("c4", 2),                 # attacker wins
    ("i1", 4), ("fin", 2), ("c5", 2), ("c6", 2),     # defender survives
)
# solve-encoded: (instance, horizon, representations); the word solve of each
# group is the reference the encoded verdicts must agree with.
SOLVE_ENCODED = (
    ("c4", 2, ("word", "matrix")),                   # attacker wins, two defender letters
    ("fin", 2, ("word", "pair")),                    # defender survives, two defender letters
    ("eq", 3, REPRESENTATIONS),                      # attacker wins
    ("i1", 2, REPRESENTATIONS),                      # defender survives
)
# Brute-force minimax (no memo) runs on word-domain solves whose game tree
# has at most this many leaves.
BRUTE_FORCE_MAX_LEAVES = 300_000

# certify-plays: PLAYS_PER_FIXTURE plays per fixture per round, PLAY_ROUNDS
# rounds each.  The scripts are drawn from the seed until two lengths lie
# inside PLAY_BRAID_LENGTH: the final three-strand braid (free reduction of
# the concatenated move braids) and the three-strand encoding of its word
# preimage, both computed here.  The Garside/Burau cost of a play grows with
# these lengths, so bounding both, and summing many plays in a round, keeps
# the cost of a round about the same whatever the seed.
PLAY_ROUNDS = 2
PLAYS_PER_FIXTURE = 3
PLAY_BRAID_LENGTH = (200, 220)
PLAY_MAX_DRAWS = 20_000

# universality: every fixture at each of these lengths.
UNIVERSALITY_LENGTHS = (11, 12)


class Ctx:
    """How operations call into the program: directly, or through a tracer."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer

    def call(self, name: str, fn: Callable, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def domain(self, pipe, representation: str):
        d = pipe.domain(representation)
        return d if self.tracer is None else self.tracer.domain(d)


@dataclass
class Op:
    label: str
    run: Callable[[Ctx], Any]
    check: Callable[[Any], list[str]]
    group: tuple | None = None  # solves whose verdicts must agree share a group


@dataclass
class Workload:
    name: str
    instances: tuple[str, ...]
    build: str  # "pipeline" or "automaton"
    make_ops: Callable[[dict, random.Random], list[Op]]

    def setup(self, ctx: Ctx, texts: dict[str, str]) -> dict:
        """Parse every instance and build what the operations need."""
        state = {}
        for name in self.instances:
            inst = pcp.parse_instance(texts[name])
            if self.build == "pipeline":
                built = ctx.call("domains.build_pipeline", domains.build_pipeline, inst)
            else:
                built = automata.build_solution_checker(inst)
            state[name] = (inst, built)
        return state


def instance_texts(names) -> dict[str, str]:
    return {n: (INSTANCE_DIR / f"{n}.pcp").read_text(encoding="utf-8") for n in names}


# --- solve workloads ---


def _solve_op(pipe, name: str, representation: str, horizon: int, brute: bool) -> Op:
    plain = pipe.domain(representation)
    verified: list = []
    brute_value: list = []

    def run(ctx: Ctx):
        domain = ctx.domain(pipe, representation)
        return ctx.call("engine.attacker_wins_within", engine.attacker_wins_within, domain, horizon)

    def check(result) -> list[str]:
        # The strategy table enters as a hash, so that no copy of it stays
        # alive from one round to the next (it would show in peak_rss_mb).
        snapshot = (
            result.attacker_wins, result.rounds, result.horizon,
            hash(frozenset(result.strategy.items())),
        )
        if verified and verified[0] == snapshot:
            return []
        problems = checks.check_solve(plain, result, horizon)
        if brute:
            if not brute_value:
                brute_value.append(checks.brute_force_value(plain, horizon))
            problems += checks.check_against_brute_force(result, brute_value[0])
        if not problems:
            verified[:] = [snapshot]
        return problems

    return Op(f"solve {name} {representation} h={horizon}", run, check, group=(name, horizon))


def _wants_brute_force(pipe, representation: str, horizon: int) -> bool:
    return (
        representation == "word"
        and checks.brute_force_cost(pipe.domain("word"), horizon) <= BRUTE_FORCE_MAX_LEAVES
    )


def solve_word_ops(state: dict, _rng: random.Random) -> list[Op]:
    ops = []
    for name, horizon in SOLVE_WORD:
        pipe = state[name][1]
        ops.append(_solve_op(pipe, name, "word", horizon, _wants_brute_force(pipe, "word", horizon)))
    return ops


def solve_encoded_ops(state: dict, _rng: random.Random) -> list[Op]:
    ops = []
    for name, horizon, representations in SOLVE_ENCODED:
        pipe = state[name][1]
        for rep in representations:
            ops.append(_solve_op(pipe, name, rep, horizon, _wants_brute_force(pipe, rep, horizon)))
    return ops


# --- certify-plays ---


@dataclass
class PlayOutcome:
    trace: Any
    crosscheck_agree: bool
    oracle_flags: list = field(default_factory=list)  # per move: {domain: (is_target, oracle)}
    word_config: Any = None
    pair_config: Any = None
    matrix_config: Any = None
    proofs: dict = field(default_factory=dict)


def certify_play(ctx: Ctx, pipe, defender_script, attacker_script) -> PlayOutcome:
    """Play the scripts in the word game, crosscheck the trace through all five
    representations, ask the braid oracle at every move, and prove each final
    braid equal to the encoding of its word preimage."""
    rounds = len(defender_script)
    word = ctx.domain(pipe, "word")
    trace = ctx.call(
        "engine.play", engine.play, word,
        engine.scripted_policy(defender_script), engine.scripted_policy(attacker_script),
        rounds, False,
    )
    doms = [ctx.domain(pipe, rep) for rep in REPRESENTATIONS]
    report = ctx.call("engine.crosscheck", engine.crosscheck, trace, doms)
    outcome = PlayOutcome(trace, report.agree)
    configs = {d.name: d.initial_config() for d in doms}
    braid_domains = [d for d in doms if d.name in ("braid3", "braid5")]
    for record in trace.records:
        for d in doms:
            configs[d.name] = d.apply(configs[d.name], record.player, record.move)
        outcome.oracle_flags.append({
            d.name: (d.is_target(configs[d.name]), braids.is_trivial_fast(configs[d.name].braid))
            for d in braid_domains
        })
    outcome.word_config = configs["word"]
    outcome.pair_config = configs["pair"]
    outcome.matrix_config = configs["matrix"]
    b3, b5 = configs["braid3"], configs["braid5"]
    e3 = braids.b3_encode(b3.word, b3.counter)
    e5 = braids.b5_encode(b5.word, b5.counter_word)
    outcome.proofs = {
        "braid3 garside": braids.braids_equal(b3.braid, e3),
        "braid3 burau": braids.burau3(b3.braid) == braids.burau3(e3),
        "braid5 garside": braids.braids_equal(b5.braid, e5),
    }
    return outcome


def _reduced_length(sequences) -> int:
    stack: list[int] = []
    for seq in sequences:
        for x in seq:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
    return len(stack)


def _encoded_length(game, ds, ats) -> int:
    """Length of the three-strand encoding of the play's final word and counter:
    four letters per letter of the reduced word, six per unit of counter."""
    letters = list(game.initial.word.letters)
    counter = game.initial.counter
    for d, a in zip(ds, ats):
        for move in (game.defender_moves[d], game.attacker_moves[a]):
            letters += move.word.letters
            counter += move.weight
    return 4 * len(checks.free_reduce(letters)) + 6 * abs(counter)


def draw_scripts(pipe, rng: random.Random) -> tuple[list[int], list[int]]:
    """Random scripts whose final three-strand braid, and the encoding of its
    word preimage, both have a length in PLAY_BRAID_LENGTH."""
    game = pipe.braid3_game
    lo, hi = PLAY_BRAID_LENGTH
    for _ in range(PLAY_MAX_DRAWS):
        ds = [rng.randrange(len(game.defender_braids)) for _ in range(PLAY_ROUNDS)]
        ats = [rng.randrange(len(game.attacker_braids)) for _ in range(PLAY_ROUNDS)]
        pieces = [game.initial_braid.letters]
        for d, a in zip(ds, ats):
            pieces += [game.defender_braids[d].letters, game.attacker_braids[a].letters]
        if (lo <= _reduced_length(pieces) <= hi
                and lo <= _encoded_length(pipe.binary_weighted_game, ds, ats) <= hi):
            return ds, ats
    raise RuntimeError(f"no play with braid lengths in {PLAY_BRAID_LENGTH} after {PLAY_MAX_DRAWS} draws")


def certify_ops(state: dict, rng: random.Random) -> list[Op]:
    ops = []
    for name in FIXTURES:
        pipe = state[name][1]
        for _ in range(PLAYS_PER_FIXTURE):
            ds, ats = draw_scripts(pipe, rng)

            def run(ctx: Ctx, pipe=pipe, ds=ds, ats=ats):
                return certify_play(ctx, pipe, ds, ats)

            def check(outcome, pipe=pipe, ds=ds, ats=ats):
                return checks.check_play(outcome, pipe.weighted_game, pipe.matrix_game, (ds, ats))

            ops.append(Op(f"play {name} D={ds} A={ats}", run, check))
    return ops


# --- universality ---


def universality_ops(state: dict, _rng: random.Random) -> list[Op]:
    ops = []
    for name in FIXTURES:
        inst, aut = state[name]
        for length in UNIVERSALITY_LENGTHS:
            def run(ctx: Ctx, aut=aut, length=length):
                return automata.bounded_universality(aut, length)

            def check(verdict, inst=inst, length=length):
                return checks.check_universality(inst.h_images, inst.g_images, length, verdict)

            ops.append(Op(f"universality {name} L={length}", run, check))
    return ops


WORKLOADS = {
    "solve-word": Workload(
        "solve-word", tuple(sorted({n for n, _ in SOLVE_WORD})), "pipeline", solve_word_ops,
    ),
    "solve-encoded": Workload(
        "solve-encoded", tuple(sorted({n for n, _, _ in SOLVE_ENCODED})), "pipeline",
        solve_encoded_ops,
    ),
    "certify-plays": Workload("certify-plays", FIXTURES, "pipeline", certify_ops),
    "universality": Workload("universality", FIXTURES, "automaton", universality_ops),
}
