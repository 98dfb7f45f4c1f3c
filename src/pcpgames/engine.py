"""Bounded-horizon solver for alternating Attacker-Defender reachability games.

A game domain is anything with an initial configuration, indexed move lists
for the two players, a pure ``apply``, a target predicate, a hashable
canonical key for configurations, ``threat_replies(key)``: from a key
alone, the least attacker reply that reaches the target after each
defender move, and ``key_text(key)``, the key as text.  The solver keys
its memo and its strategy tables by the keys themselves; text is rendered
only at the edges, where traces, strategy files, prompts and crosschecks
write or compare it.  Rounds alternate Defender then Attacker and the
target is only ever evaluated after an attacker move, so round zero can
never be trivially winning.

This module alone knows the two text formats a solve or a play leaves:
trace lines (:meth:`Trace.render`, :func:`parse_trace`) and strategy files
(:func:`render_strategy`, :func:`parse_strategy`).

The solver computes, for each configuration and remaining-round budget, the
least number of rounds within which the attacker can force a target, and
stops as soon as that value is decided:

* the memo is probed once per position, and the domain's
  ``threat_replies(key)`` is one row that names, for every defender move,
  the least attacker reply that reaches the target at once, read from the
  position's key alone, already computed for the memo, so no move is
  applied to find it;
  a defender move is applied only to search its replies, when it has no
  such reply and more than one round remains, or to key its attacker-table
  entry; the replies are searched in order, and the search stops at the
  first reply worth two rounds, which no reply other than an immediate
  target could beat;
* at the first defender move the attacker cannot answer within the budget the
  position is a survival, and the remaining defender moves are not searched.

Every memo value is still the exact value of its ``(key, remaining)`` pair,
so verdicts, round counts and the move at every table key do not depend on
the stops; the strategy tables hold only entries for positions the search
visited.  The search is sequential: pure-Python moves gain nothing from
threads under the interpreter lock.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Protocol, Sequence

DEFENDER = "D"
ATTACKER = "A"


class GameDomain(Protocol):
    """What the solver, the policies and the crosscheck need of a game.

    ``canonical_key`` returns a hashable key, and the solver keys its memo,
    its strategy tables and ``threat_replies`` by it; ``key_text`` turns a
    key into the text that traces and strategy files hold.
    """

    name: str

    def initial_config(self) -> Any: ...

    def move_count(self, player: str) -> int: ...

    def move_label(self, player: str, index: int) -> str: ...

    def apply(self, config: Any, player: str, index: int) -> Any: ...

    def is_target(self, config: Any) -> bool: ...

    def threat_replies(self, key: Hashable) -> Sequence[int | None]:
        """For every defender move d, the least attacker move index a with
        ``is_target(apply(apply(config, DEFENDER, d), ATTACKER, a))``, else None.

        ``key`` is ``canonical_key(config)``, which decides the answer; the
        solver uses this in place of applying and testing every defender move
        and reply.
        """
        ...

    def canonical_key(self, config: Any) -> Hashable: ...

    def key_text(self, key: Hashable) -> str:
        """The key as text, distinct for distinct keys; only traces, strategy
        files, prompts and crosschecks render keys."""
        ...


class ResourceCapExceeded(RuntimeError):
    def __init__(self, explored: int, cap: int):
        super().__init__(f"solver explored {explored} nodes, exceeding the cap {cap}")
        self.explored = explored
        self.cap = cap


@dataclass(frozen=True)
class SolveResult:
    attacker_wins: bool
    rounds: int  # least winning horizon, or the survived horizon
    horizon: int
    strategy: dict[tuple[Hashable, int], int]  # attacker table if wins, else defender table
    explored: int

    @property
    def verdict(self) -> str:
        if self.attacker_wins:
            return f"AttackerWinsWithin({self.rounds})"
        return f"DefenderSurvives({self.rounds})"


# The memo's marker for a position it has not seen; None is a survival.
_UNSEEN = object()


class _Solver:
    def __init__(self, domain: GameDomain, max_nodes: int):
        self.domain = domain
        self.max_nodes = max_nodes
        self.replies = range(domain.move_count(ATTACKER))
        self.memo: dict[tuple[Hashable, int], int | None] = {}
        self.attacker_table: dict[tuple[Hashable, int], int] = {}
        self.defender_table: dict[tuple[Hashable, int], int] = {}

    def value(self, cfg: Any, remaining: int) -> int | None:
        """Least j <= remaining within which Attacker forces a target, else None."""
        domain, memo = self.domain, self.memo
        canonical = domain.canonical_key(cfg)
        key = (canonical, remaining)
        known = memo.get(key, _UNSEEN)
        if known is not _UNSEEN:
            return known
        if len(memo) >= self.max_nodes:
            raise ResourceCapExceeded(len(memo), self.max_nodes)
        worst = 0
        for d, threat in enumerate(domain.threat_replies(canonical)):
            chosen = threat
            best = None if threat is None else 1
            if best is None and remaining > 1:
                after_d = domain.apply(cfg, DEFENDER, d)
                for a in self.replies:
                    sub = self.value(domain.apply(after_d, ATTACKER, a), remaining - 1)
                    if sub is not None and (best is None or sub + 1 < best):
                        best, chosen = sub + 1, a
                        if best == 2:
                            break
            if best is None:
                self.defender_table[key] = d
                memo[key] = None
                return None
            if threat is not None:
                after_d = domain.apply(cfg, DEFENDER, d)
            self.attacker_table[(domain.canonical_key(after_d), remaining)] = chosen
            if best > worst:
                worst = best
        memo[key] = worst
        return worst

    def solve(self, horizon: int) -> SolveResult:
        result = self.value(self.domain.initial_config(), horizon)
        if result is None:
            return SolveResult(False, horizon, horizon, self.defender_table, len(self.memo))
        return SolveResult(True, result, horizon, self.attacker_table, len(self.memo))


def attacker_wins_within(domain: GameDomain, horizon: int, max_nodes: int = 500_000) -> SolveResult:
    """Solve the game to the given horizon; ValueError if it is deeper than the recursion limit."""
    if horizon < 1:
        raise ValueError("horizon must be at least one round")
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    try:
        return _Solver(domain, max_nodes).solve(horizon)
    except RecursionError as exc:
        raise ValueError(f"horizon {horizon} is too deep for the recursive solver") from exc


# --- traces and policies ---


@dataclass(frozen=True)
class TraceRecord:
    round: int
    player: str
    move: int
    config: str


@dataclass(frozen=True)
class Trace:
    records: tuple[TraceRecord, ...]

    def render(self) -> str:
        return "".join(
            f"round={r.round} player={r.player} move={r.move} config={r.config}\n"
            for r in self.records
        )


_TRACE_LINE = re.compile(r"^round=(\d+) player=([DA]) move=(\d+) config=(.*)$")


def parse_trace(text: str) -> Trace:
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _TRACE_LINE.match(line)
        if m is None:
            raise ValueError(f"malformed trace line {line!r}")
        records.append(TraceRecord(int(m.group(1)), m.group(2), int(m.group(3)), m.group(4)))
    return Trace(tuple(records))


def render_strategy(domain: GameDomain, table: dict[tuple[Hashable, int], int]) -> str:
    """A solve's strategy table as a strategy file: one ``key=K rounds=R move=M``
    line per entry, with K the key text, in (key text, rounds) order."""
    key_text = domain.key_text
    entries = sorted(((key_text(key), rounds), move) for (key, rounds), move in table.items())
    return "".join(f"key={key} rounds={rounds} move={move}\n" for (key, rounds), move in entries)


_STRATEGY_LINE = re.compile(r"^key=(.*) rounds=(\d+) move=(\d+)$")


def parse_strategy(text: str) -> dict[tuple[str, int], int]:
    """Inverse of :func:`render_strategy`: the table keyed by (key text, rounds).

    Blank lines are skipped.  A repeated (key, rounds) is refused: no line
    may silently override another.
    """
    table = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        m = _STRATEGY_LINE.match(line)
        if m is None:
            raise ValueError(f"malformed strategy line {line!r}")
        entry = (m.group(1), int(m.group(2)))
        if entry in table:
            raise ValueError(f"strategy line {number} repeats key {entry[0]!r} rounds={entry[1]}: {line!r}")
        table[entry] = int(m.group(3))
    return table


Policy = Callable[[GameDomain, Any, str, int, int], int]
"""(domain, config, player, round, remaining) -> move index."""


def scripted_policy(indices: Iterable[int]) -> Policy:
    script = list(indices)

    def policy(domain: GameDomain, cfg: Any, player: str, rnd: int, remaining: int) -> int:
        if rnd > len(script):
            raise ValueError(f"script for player {player} exhausted at round {rnd}")
        return script[rnd - 1]

    return policy


def random_policy(seed: int) -> Policy:
    rng = random.Random(seed)

    def policy(domain: GameDomain, cfg: Any, player: str, rnd: int, remaining: int) -> int:
        return rng.randrange(domain.move_count(player))

    return policy


def strategy_policy(table: dict[tuple[str, int], int]) -> Policy:
    """Play a table keyed by (key text, rounds), as :func:`parse_strategy` returns it."""

    def policy(domain: GameDomain, cfg: Any, player: str, rnd: int, remaining: int) -> int:
        key = (domain.key_text(domain.canonical_key(cfg)), remaining)
        if key not in table:
            raise ValueError(
                f"strategy has no move for key {key!r}: "
                "the strategy does not fit this game and horizon"
            )
        move, count = table[key], domain.move_count(player)
        if not 0 <= move < count:
            raise ValueError(
                f"strategy move {move} for key {key!r} is out of range: "
                f"player {player} has moves 0..{count - 1}"
            )
        return move

    return policy


def human_policy(
    input_fn: Callable[[str], str] | None = None, echo: Callable[[str], None] = print
) -> Policy:
    def policy(domain: GameDomain, cfg: Any, player: str, rnd: int, remaining: int) -> int:
        ask = input_fn if input_fn is not None else input
        echo(f"round {rnd}, player {player}, config {domain.key_text(domain.canonical_key(cfg))}")
        for i in range(domain.move_count(player)):
            echo(f"  [{i}] {domain.move_label(player, i)}")
        while True:
            answer = ask(f"{player}> ").strip()
            if answer.isdecimal() and int(answer) < domain.move_count(player):
                return int(answer)
            echo(f"enter a move index between 0 and {domain.move_count(player) - 1}")

    return policy


def play(
    domain: GameDomain,
    defender: Policy,
    attacker: Policy,
    rounds: int,
    stop_at_target: bool = True,
) -> Trace:
    """Alternate the two policies for the given number of rounds, recording configs."""
    if rounds < 1:
        raise ValueError("a play needs at least one round")
    cfg = domain.initial_config()
    records: list[TraceRecord] = []
    for rnd in range(1, rounds + 1):
        remaining = rounds - rnd + 1
        d = defender(domain, cfg, DEFENDER, rnd, remaining)
        cfg = domain.apply(cfg, DEFENDER, d)
        records.append(TraceRecord(rnd, DEFENDER, d, domain.key_text(domain.canonical_key(cfg))))
        a = attacker(domain, cfg, ATTACKER, rnd, remaining)
        cfg = domain.apply(cfg, ATTACKER, a)
        records.append(TraceRecord(rnd, ATTACKER, a, domain.key_text(domain.canonical_key(cfg))))
        if stop_at_target and domain.is_target(cfg):
            break
    return Trace(tuple(records))


@dataclass(frozen=True)
class CrosscheckReport:
    agree: bool
    first_divergence: tuple[int, str] | None
    lines: tuple[str, ...]

    def render(self) -> str:
        body = "".join(line + "\n" for line in self.lines)
        if self.agree:
            return body + "AGREE at all rounds\n"
        rnd, player = self.first_divergence  # type: ignore[misc]
        return body + f"DISAGREE at round {rnd} (player {player})\n"


def crosscheck(trace: Trace, domains: list[GameDomain]) -> CrosscheckReport:
    """Replay the move indices of a trace in every domain and compare targets.

    All domains must be derived from the same source game so that the move
    lists are index-aligned; the report asserts target-predicate agreement
    after every recorded move.  A trace belongs to these games only if, after
    every move, some domain's key text equals the recorded ``config``;
    otherwise a ``ValueError`` names the first round and player that differ.
    A trace is a play, so its records must come in play order (round 1 D,
    round 1 A, round 2 D, ...); the first record out of turn is a
    ``ValueError``.  An empty trace certifies nothing and is a ``ValueError``
    too.
    """
    if not trace.records:
        raise ValueError("the trace has no records")
    configs = {d.name: d.initial_config() for d in domains}
    lines = []
    for i, record in enumerate(trace.records):
        turn = (i // 2 + 1, ATTACKER if i & 1 else DEFENDER)
        if (record.round, record.player) != turn:
            raise ValueError(
                f"trace record {i + 1} (round {record.round}, player {record.player}) is out of turn: "
                f"a play has round {turn[0]}, player {turn[1]} there"
            )
        verdicts = {}
        for d in domains:
            if record.move >= d.move_count(record.player):
                raise ValueError(
                    f"move {record.move} out of range for player {record.player} in domain {d.name}"
                )
            configs[d.name] = d.apply(configs[d.name], record.player, record.move)
            verdicts[d.name] = d.is_target(configs[d.name])
        if not any(d.key_text(d.canonical_key(configs[d.name])) == record.config for d in domains):
            raise ValueError(
                f"trace config {record.config!r} at round {record.round} (player {record.player}) "
                "matches no representation of this game"
            )
        tags = " ".join(f"{name}={'T' if v else 'f'}" for name, v in verdicts.items())
        lines.append(f"round={record.round} player={record.player} {tags}")
        if len(set(verdicts.values())) > 1:
            return CrosscheckReport(False, (record.round, record.player), tuple(lines))
    return CrosscheckReport(True, None, tuple(lines))
