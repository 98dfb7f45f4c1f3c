from __future__ import annotations

import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pcpgames import braids as br
from pcpgames import domains
from pcpgames import engine
from pcpgames import freegroup as fg
from pcpgames import matrices as mx
from pcpgames import wordgames as wg
from pcpgames.domains import braid_domain, matrix_domain, pair_domain, word_domain
from pcpgames.domains import REPRESENTATIONS, build_pipeline
from pcpgames.engine import ATTACKER, DEFENDER

from conftest import GOLDEN, brute_attacker_wins, load_instance, scripts
from oracles import (
    RobotGame,
    key_decides_target_along,
    key_text_separates,
    pair_config_text,
    replay_reaches_target,
    robot_domain,
    robot_matrix_domain,
    survives_every_attacker_move,
    word_config_text,
)


@pytest.fixture(scope="module")
def toy_cancel():
    return wg.WeightedWordGame(
        alphabet=fg.RankedAlphabet(("a",)),
        defender_moves=(wg.WeightedMove(fg.word("a"), 0),),
        attacker_moves=(wg.WeightedMove(fg.word("~a"), 0),),
        initial=wg.WordConfig(fg.EPSILON, 0),
    )


@pytest.fixture(scope="module")
def toy_survive():
    return wg.WeightedWordGame(
        alphabet=fg.RankedAlphabet(("a", "b")),
        defender_moves=(wg.WeightedMove(fg.word("a"), 0), wg.WeightedMove(fg.word("b"), 0)),
        attacker_moves=(wg.WeightedMove(fg.word("~a"), 0),),
        initial=wg.WordConfig(fg.EPSILON, 0),
    )


def test_toy_cancel_attacker_wins(toy_cancel):
    result = engine.attacker_wins_within(word_domain(toy_cancel), 1)
    assert result.verdict == "AttackerWinsWithin(1)"
    assert result.attacker_wins and result.rounds == 1


def test_toy_survive_defender_survives(toy_survive):
    result = engine.attacker_wins_within(word_domain(toy_survive), 3)
    assert result.verdict == "DefenderSurvives(3)"
    assert not brute_attacker_wins(word_domain(toy_survive), word_domain(toy_survive).initial_config(), 3)


def test_toy_matrix_form_same_strategy_indices(toy_cancel):
    word_result = engine.attacker_wins_within(word_domain(toy_cancel), 1)
    matrix_game = mx.build_matrix_game(wg.to_pair_game(wg.binarize(toy_cancel)))
    matrix_result = engine.attacker_wins_within(matrix_domain(matrix_game), 1)
    assert matrix_result.verdict == "AttackerWinsWithin(1)"
    assert list(word_result.strategy.values()) == list(matrix_result.strategy.values())


def test_verdicts_match_brute_force(pipelines, toy_cancel, toy_survive):
    domains = [
        word_domain(toy_cancel),
        word_domain(toy_survive),
        word_domain(pipelines["eq"].weighted_game),
    ]
    for domain in domains:
        for k in (1, 2):
            solved = engine.attacker_wins_within(domain, k)
            brute = brute_attacker_wins(domain, domain.initial_config(), k)
            assert (solved.attacker_wins and solved.rounds <= k) == brute


def test_monotone_in_horizon(pipelines):
    for name in ("eq", "mm"):
        domain = word_domain(pipelines[name].weighted_game)
        results = [engine.attacker_wins_within(domain, k) for k in (2, 3, 4)]
        assert results[0].attacker_wins
        assert all(r.attacker_wins for r in results)
        assert all(r.rounds == results[0].rounds for r in results)


def test_defender_survival_strategy_on_i1(pipelines):
    domain = word_domain(pipelines["i1"].weighted_game)
    result = engine.attacker_wins_within(domain, 3)
    assert not result.attacker_wins
    table = result.strategy
    # the survival strategy emits the letter a each round (the only defender move)
    assert set(table.values()) == {0}
    # replayed against every attacker script it never hits a target
    assert survives_every_attacker_move(domain, table, domain.initial_config(), 3)


def test_word_solve_and_replay_decode_no_word():
    # The solver, its reply tables and a replay read keys only.  A decoded word at
    # every configuration tested would hold a letter tuple beside each key.
    with mock.patch.object(fg, "code_letters", wraps=fg.code_letters) as decode:
        domain = word_domain(build_pipeline(load_instance("i1")).weighted_game)
        result = engine.attacker_wins_within(domain, 3)
        assert survives_every_attacker_move(domain, result.strategy, domain.initial_config(), 3)
    assert decode.call_count == 0


def test_defender_survival_none_when_attacker_wins(toy_cancel):
    # No defender survival table: the strategy is the attacker's, keyed by the
    # position after the defender's move.
    domain = word_domain(toy_cancel)
    result = engine.attacker_wins_within(domain, 1)
    assert result.attacker_wins
    # The key is the word's letter codes followed by the counter.
    assert result.strategy == {(fg.letter_codes((("a", 1),)) + (0,), 1): 0}
    assert engine.strategy_text(domain, result.strategy) == {("a;0", 1): 0}


def test_winning_certificate_replays_against_all_scripts(pipelines):
    domain = word_domain(pipelines["eq"].weighted_game)
    result = engine.attacker_wins_within(domain, 2)
    assert result.attacker_wins
    for script in scripts(domain, DEFENDER, 2):
        assert replay_reaches_target(domain, result.strategy, script)


def test_resource_cap(pipelines):
    domain = word_domain(pipelines["i1"].weighted_game)
    with pytest.raises(engine.ResourceCapExceeded) as info:
        engine.attacker_wins_within(domain, 3, max_nodes=5)
    assert info.value.explored == 5


def test_horizon_validation(toy_cancel):
    with pytest.raises(ValueError):
        engine.attacker_wins_within(word_domain(toy_cancel), 0)


def test_play_alternates_and_stops_at_target(toy_cancel):
    domain = word_domain(toy_cancel)
    trace = engine.play(domain, engine.scripted_policy([0, 0]), engine.scripted_policy([0, 0]), 2)
    assert [r.player for r in trace.records] == [DEFENDER, ATTACKER]
    assert trace.records[0].round == 1


def test_play_random_seed_deterministic(pipelines):
    domain = word_domain(pipelines["i1"].weighted_game)
    first = engine.play(domain, engine.random_policy(7), engine.random_policy(7), 4, stop_at_target=False)
    second = engine.play(domain, engine.random_policy(7), engine.random_policy(7), 4, stop_at_target=False)
    assert first.render() == second.render()


def test_scripted_play_reproduces_fixture(toy_survive):
    domain = word_domain(toy_survive)
    trace = engine.play(domain, engine.scripted_policy([1, 1]), engine.scripted_policy([0, 0]), 2)
    expected = (
        "round=1 player=D move=1 config=b;0\n"
        "round=1 player=A move=0 config=b ~a;0\n"
        "round=2 player=D move=1 config=b ~a b;0\n"
        "round=2 player=A move=0 config=b ~a b ~a;0\n"
    )
    assert trace.render() == expected


def test_script_exhaustion_raises(toy_cancel):
    domain = word_domain(toy_cancel)
    with pytest.raises(ValueError, match="exhausted"):
        engine.play(domain, engine.scripted_policy([0]), engine.scripted_policy([0]), 2, stop_at_target=False)


def test_human_policy_round_trip(toy_survive):
    domain = word_domain(toy_survive)
    answers = iter(["7", "1", "0", "1", "0"])  # first answer is out of range and re-asked
    outputs: list[str] = []
    policy = engine.human_policy(input_fn=lambda prompt: next(answers), echo=outputs.append)
    trace = engine.play(domain, policy, policy, 2)
    assert [r.move for r in trace.records] == [1, 0, 1, 0]
    assert any("enter a move index" in line for line in outputs)
    assert any(line.startswith("round 1, player D") for line in outputs)


def test_human_policy_asks_again_on_a_digit_that_is_not_decimal(toy_cancel):
    # '²' is a digit to str.isdigit, but int() refuses it: it names no move
    domain = word_domain(toy_cancel)
    answers = iter(["²", "0"])
    outputs: list[str] = []
    policy = engine.human_policy(input_fn=lambda prompt: next(answers), echo=outputs.append)
    assert policy(domain, domain.initial_config(), DEFENDER, 1, 1) == 0
    assert [line for line in outputs if "enter a move index" in line] == ["enter a move index between 0 and 0"]


def test_trace_render_parse_round_trip(pipelines):
    domain = word_domain(pipelines["mm"].weighted_game)
    trace = engine.play(domain, engine.random_policy(3), engine.random_policy(4), 3, stop_at_target=False)
    assert engine.parse_trace(trace.render()) == trace
    with pytest.raises(ValueError):
        engine.parse_trace("this is not a trace")


def test_strategy_policy_missing_key(toy_cancel):
    domain = word_domain(toy_cancel)
    with pytest.raises(ValueError, match="strategy has no move for key .*does not fit this game"):
        engine.play(domain, engine.scripted_policy([0]), engine.strategy_policy({}), 1)


def test_strategy_policy_move_out_of_range(toy_cancel):
    domain = word_domain(toy_cancel)
    attacker = engine.strategy_policy({("a;0", 1): 9})
    with pytest.raises(ValueError, match="strategy move 9 .* is out of range"):
        engine.play(domain, engine.scripted_policy([0]), attacker, 1)


def test_crosscheck_agreement(pipelines):
    pipe = pipelines["eq"]
    domain = pipe.domain("word")
    for seed in range(6):
        trace = engine.play(
            domain, engine.random_policy(seed), engine.random_policy(seed + 100), 3,
            stop_at_target=False,
        )
        report = engine.crosscheck(trace, pipe.crosscheck_domains())
        assert report.agree
        assert report.render().endswith("AGREE at all rounds\n")


def test_domain_names_reachable_from_a_pipeline_are_distinct(i1):
    """Domains that share a name are one game; braid3's source is not the "word" domain.

    The pipeline is built here: the session's pipelines keep the domains
    they build, so an earlier test may have built the braid domains already.
    """
    pipe = build_pipeline(i1)
    sources = []
    real_braid_domain = domains.braid_domain

    def recording_braid_domain(name, braid_game, source):
        sources.append(source)
        return real_braid_domain(name, braid_game, source)

    with mock.patch.object(domains, "braid_domain", recording_braid_domain):
        reachable = pipe.crosscheck_domains() + sources
    games = {}
    for d in reachable:
        game = (d.initial, d.defender_moves, d.attacker_moves)
        assert games.setdefault(d.name, game) == game, d.name
    assert [s.name for s in sources] == ["binary-word", "pair"]


def test_crosscheck_empty_trace(pipelines):
    with pytest.raises(ValueError, match="no records"):
        engine.crosscheck(engine.Trace(()), pipelines["eq"].crosscheck_domains())


def test_crosscheck_requires_play_order(pipelines):
    """The records of a play, reordered, repeated or renumbered, are refused at the first one out of turn."""
    pipe = pipelines["eq"]
    reps = pipe.crosscheck_domains()
    trace = engine.play(
        pipe.domain("word"), engine.random_policy(3), engine.random_policy(4), 3, stop_at_target=False
    )
    records = trace.records
    assert engine.crosscheck(engine.Trace(records[:3]), reps).agree  # a play cut after a defender move
    swapped = (records[1], records[0]) + records[2:]
    renumbered = records[:2] + (dataclasses.replace(records[2], round=3),) + records[3:]
    for bad, first in [(swapped, 1), (records[:2] + records[1:], 3), (renumbered, 3), (records[1:], 1)]:
        with pytest.raises(ValueError, match=f"trace record {first} .* is out of turn"):
            engine.crosscheck(engine.Trace(bad), reps)


def test_crosscheck_detects_fault_injection(pipelines):
    pipe = pipelines["eq"]
    domain = pipe.domain("word")
    result = engine.attacker_wins_within(domain, 2)
    attacker = engine.strategy_policy(engine.strategy_text(domain, result.strategy))
    trace = engine.play(domain, engine.scripted_policy([0, 0]), attacker, 2)
    good = pipe.matrix_game
    corrupted_game = mx.MatrixGame(
        defender=(mx.identity(4),) * len(good.defender),
        attacker=(mx.identity(4),) * len(good.attacker),
        anchor=good.anchor,
    )
    report = engine.crosscheck(trace, [domain, matrix_domain(corrupted_game)])
    assert not report.agree
    assert report.first_divergence == (1, DEFENDER)
    assert "DISAGREE at round 1" in report.render()


@pytest.mark.parametrize(
    "name,horizon,verdict,explored",
    [
        ("eq", 4, "AttackerWinsWithin(2)", 890),
        ("c4", 2, "AttackerWinsWithin(2)", 15),
        ("i1", 4, "DefenderSurvives(4)", 12_290),
    ],
)
def test_explored_counts_pinned(name, horizon, verdict, explored):
    # i1 has one defender move, so a survival must cover its whole tree.
    # Each node reads one threat row.
    domain = CountingDomain(word_domain(build_pipeline(load_instance(name)).weighted_game))
    result = engine.attacker_wins_within(domain, horizon)
    assert result.verdict == verdict
    assert result.explored == explored
    assert domain.calls["threat_replies"] == explored


class CountingDomain:
    """Forwards to a domain, counting its ``apply``, ``is_target`` and ``threat_replies`` calls."""

    def __init__(self, domain):
        self.domain = domain
        self.calls = {"apply": 0, "is_target": 0, "threat_replies": 0}

    def __getattr__(self, name):
        return getattr(self.domain, name)

    def apply(self, cfg, player, index):
        self.calls["apply"] += 1
        return self.domain.apply(cfg, player, index)

    def is_target(self, cfg):
        self.calls["is_target"] += 1
        return self.domain.is_target(cfg)

    def threat_replies(self, key):
        self.calls["threat_replies"] += 1
        return self.domain.threat_replies(key)


def test_i1_word_solve_work_pinned():
    # Replies are applied only to recurse into them; target hits come from threat_replies,
    # and a defender move is applied only to search its replies or to key its entry.
    domain = CountingDomain(word_domain(build_pipeline(load_instance("i1")).weighted_game))
    result = engine.attacker_wins_within(domain, 4)
    assert (result.verdict, result.explored) == ("DefenderSurvives(4)", 12_290)
    assert domain.calls == {"apply": 13_104, "is_target": 0, "threat_replies": 12_290}


def test_c4_matrix_solve_work_pinned():
    # The anchor-row lookup finds target hits: no reply is applied to test it,
    # and a defender move with a hit is applied only to key its entry.
    domain = CountingDomain(matrix_domain(build_pipeline(load_instance("c4")).matrix_game))
    result = engine.attacker_wins_within(domain, 2)
    assert (result.verdict, result.explored) == ("AttackerWinsWithin(2)", 15)
    assert domain.calls == {"apply": 19, "is_target": 0, "threat_replies": 15}


def test_node_cap_validation(toy_cancel):
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_nodes must be at least 1"):
            engine.attacker_wins_within(word_domain(toy_cancel), 1, max_nodes=cap)


class ReferenceSolver(engine._Solver):
    """The exhaustive search: every defender move and every attacker reply."""

    def value(self, cfg, remaining):
        key = (self.domain.canonical_key(cfg), remaining)
        if key in self.memo:
            return self.memo[key]
        worst = 0
        survival_move = None
        for d in range(self.domain.move_count(DEFENDER)):
            after_d = self.domain.apply(cfg, DEFENDER, d)
            best = chosen = None
            for a in range(self.domain.move_count(ATTACKER)):
                after_a = self.domain.apply(after_d, ATTACKER, a)
                if self.domain.is_target(after_a):
                    best, chosen = 1, a
                    break
                if remaining > 1:
                    sub = self.value(after_a, remaining - 1)
                    if sub is not None and (best is None or sub + 1 < best):
                        best, chosen = sub + 1, a
            if best is None:
                if survival_move is None:
                    survival_move = d
            else:
                self.attacker_table[(self.domain.canonical_key(after_d), remaining)] = chosen
                if survival_move is None:
                    worst = max(worst, best)
        if survival_move is not None:
            self.defender_table[key] = survival_move
            self.memo[key] = None
            return None
        self.memo[key] = worst
        return worst


@st.composite
def small_word_games(draw):
    """Games with 1-2 defender and 1-4 attacker moves over 1-2 symbols.

    The start is the inverse of a line of up to three rounds, so wins of every
    length occur; in half the games an attacker move may also undo a defender
    move, which makes a reply worth two rounds precede an immediate target.
    """
    symbols = ("a", "b")[: draw(st.integers(1, 2))]
    letters = st.tuples(st.sampled_from(symbols), st.sampled_from([1, -1]))
    words = st.lists(letters, max_size=3).map(fg.reduce)
    moves = st.builds(wg.WeightedMove, words, st.integers(-2, 2))
    defender = draw(st.lists(moves, min_size=1, max_size=2))
    undo = st.sampled_from(defender).map(lambda m: wg.WeightedMove(fg.invert(m.word), -m.weight))
    replies = st.one_of(moves, undo) if draw(st.booleans()) else moves
    attacker = draw(st.lists(replies, min_size=1, max_size=4))
    line = draw(st.lists(st.tuples(st.sampled_from(defender), st.sampled_from(attacker)), max_size=3))
    played = [move for pair in line for move in pair]
    return wg.WeightedWordGame(
        alphabet=fg.RankedAlphabet(symbols),
        defender_moves=tuple(defender),
        attacker_moves=tuple(attacker),
        initial=wg.WordConfig(
            fg.invert(functools.reduce(fg.concat, [m.word for m in played], fg.EPSILON)),
            -sum(m.weight for m in played),
        ),
    )


@settings(max_examples=600, derandomize=True, deadline=None)
@given(game=small_word_games(), horizon=st.sampled_from([1, 2, 3]))
def test_solver_matches_exhaustive_reference(game, horizon):
    domain = word_domain(game)
    solver = engine._Solver(domain, 500_000)
    result = solver.solve(horizon)
    assert engine.attacker_wins_within(domain, horizon) == result
    reference = ReferenceSolver(domain, 500_000)
    expected = reference.solve(horizon)
    assert (result.verdict, result.rounds) == (expected.verdict, expected.rounds)
    assert result.explored <= expected.explored
    start = domain.initial_config()
    wins = [brute_attacker_wins(domain, start, k) for k in range(1, horizon + 1)]
    assert result.attacker_wins == wins[-1]
    if result.attacker_wins:
        assert result.rounds == wins.index(True) + 1
    for mine, theirs in (
        (solver.memo, reference.memo),
        (solver.attacker_table, reference.attacker_table),
        (solver.defender_table, reference.defender_table),
    ):
        assert all(theirs.get(key, "missing") == value for key, value in mine.items())
    if result.attacker_wins:
        for script in scripts(domain, DEFENDER, horizon):
            assert replay_reaches_target(domain, result.strategy, script)
    else:
        assert survives_every_attacker_move(domain, result.strategy, start, horizon)


# --- threat_replies against the scan it replaces ---


def first_target_reply(domain, cfg):
    """The first attacker reply whose result is a target, or None."""
    for a in range(domain.move_count(ATTACKER)):
        if domain.is_target(domain.apply(cfg, ATTACKER, a)):
            return a
    return None


def check_target_replies_at(domain, cfg) -> int:
    """``threat_replies`` must name the scan's target reply after each defender
    move; returns how many defender moves have one."""
    expected = [
        first_target_reply(domain, domain.apply(cfg, DEFENDER, d)) for d in range(domain.move_count(DEFENDER))
    ]
    assert list(domain.threat_replies(domain.canonical_key(cfg))) == expected, (
        domain.name, domain.canonical_key(cfg))
    return sum(reply is not None for reply in expected)


def check_target_reply_along(domains, moves) -> int:
    """Replay ``(player, index)`` moves in every domain, checking the target
    replies at the start and after every move; returns how many were found."""
    hits = 0
    for domain in domains:
        cfg = domain.initial_config()
        hits += check_target_replies_at(domain, cfg)
        for player, index in moves:
            cfg = domain.apply(cfg, player, index)
            hits += check_target_replies_at(domain, cfg)
    return hits


def table_or_random(table, seed: int) -> engine.Policy:
    """Follow an attacker table where it has an entry, else move at random."""
    fallback = engine.random_policy(seed)

    def policy(domain, cfg, player, rnd, remaining):
        key = (domain.canonical_key(cfg), remaining)
        return table[key] if key in table else fallback(domain, cfg, player, rnd, remaining)

    return policy


@pytest.mark.parametrize("name", ["eq", "mm", "c4", "i1", "fin", "c5", "c6"])
def test_target_reply_matches_scan_on_fixture_plays(name):
    # Two-round plays against the word solve's winning table reach the target
    # where the attacker wins; four-round random plays grow the configurations.
    pipe = build_pipeline(load_instance(name))
    word = pipe.domain("word")
    solved = engine.attacker_wins_within(word, 2)
    table = solved.strategy if solved.attacker_wins else {}
    hits = 0
    for seed in range(3):
        for trace in (
            engine.play(word, engine.random_policy(seed), table_or_random(table, seed + 10), 2,
                        stop_at_target=False),
            engine.play(word, engine.random_policy(seed + 20), engine.random_policy(seed + 30), 4,
                        stop_at_target=False),
        ):
            moves = [(r.player, r.move) for r in trace.records]
            hits += check_target_reply_along(pipe.crosscheck_domains(), moves)
    if solved.attacker_wins:
        assert hits > 0


def small_game_domains(game: wg.WeightedWordGame) -> list:
    """word, pair, binary-word, matrix, braid3 and braid5, built as the pipeline builds them."""
    binary = wg.binarize(game)
    binary_pair = wg.to_pair_game(binary)
    word, pair, binary_word = word_domain(game), pair_domain(binary_pair), word_domain(binary, "binary-word")
    return [
        word, pair, binary_word, matrix_domain(mx.build_matrix_game(binary_pair)),
        braid_domain("braid3", br.build_braid3_game(binary), binary_word),
        braid_domain("braid5", br.build_braid5_game(binary_pair), pair),
    ]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(game=small_word_games(), data=st.data())
def test_target_reply_matches_scan_on_small_games(game, data):
    domains = small_game_domains(game)
    word, pair, matrix = domains[0], domains[1], domains[3]
    rounds = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(game.defender_moves) - 1),
            st.integers(0, len(game.attacker_moves) - 1),
        ),
        max_size=3,
    ))
    check_target_reply_along(domains, [(p, i) for d, a in rounds for p, i in ((DEFENDER, d), (ATTACKER, a))])
    # The positions one defender move and one reply from the target, where a
    # table must hit; replies with one word and weight (the "undo" replies)
    # tie there, and the least index must win.
    positions = [
        (word, wg.WordConfig(fg.invert(fg.concat(d.word, a.word)), -d.weight - a.weight))
        for d in game.defender_moves for a in game.attacker_moves
    ] + [
        (pair, wg.PairConfig(
            fg.invert(fg.concat(d.word, a.word)), fg.invert(fg.concat(d.counter_word, a.counter_word))))
        for d in pair.defender_moves for a in pair.attacker_moves
    ] + [
        (matrix, mx.apply_matrix_move(mx.block_inverse(a), mx.block_inverse(d)))
        for d in matrix.defender_moves for a in matrix.attacker_moves
    ]
    for domain, cfg in positions:
        assert check_target_replies_at(domain, cfg) > 0


def test_robot_target_reply_matches_scan_on_robot_plays():
    # The robot game and its 2n-dimensional matrix embedding of acceptance criterion 9.
    robot = RobotGame(
        attacker=((1, 0), (0, 1), (-1, -1), (2, -1)),
        defender=((1, 1), (-1, 0), (0, -2)),
        initial=(0, 0),
        target=(3, 1),
    )
    native = robot_domain(robot)
    embedded = robot_matrix_domain(robot)
    hits = 0
    for seed in range(200):
        rng = random.Random(4000 + seed)
        moves = [
            (player, rng.randrange(native.move_count(player)))
            for _ in range(5) for player in (DEFENDER, ATTACKER)
        ]
        hits += check_target_reply_along([native, embedded], moves)
    assert hits > 0
    # One defender move and one reply from the target, a table must hit.
    for d in robot.defender:
        for a in robot.attacker:
            point = tuple(t - x - y for t, x, y in zip(robot.target, d, a))
            assert check_target_replies_at(native, point) > 0
            assert check_target_replies_at(embedded, point + (1, 1)) > 0
    # A reply whose preimage is also another's: the least index must win.
    tied = RobotGame(attacker=((1,), (2,), (1,)), defender=((0,),), initial=(0,), target=(3,))
    for domain in (robot_domain(tied), robot_matrix_domain(tied)):
        for start in range(-1, 5):
            check_target_replies_at(domain, (start,) if domain.name == "robot" else (start, 1))


@st.composite
def robot_games(draw):
    """Two-dimensional robot games with 1-3 defender and 1-4 attacker vectors."""
    vectors = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return RobotGame(
        attacker=tuple(draw(st.lists(vectors, min_size=1, max_size=4))),
        defender=tuple(draw(st.lists(vectors, min_size=1, max_size=3))),
        initial=draw(vectors),
        target=draw(vectors),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(game=robot_games(), data=st.data())
def test_target_reply_matches_scan_on_robot_games(game, data):
    moves = data.draw(st.lists(
        st.tuples(st.integers(0, len(game.defender) - 1), st.integers(0, len(game.attacker) - 1)),
        max_size=4,
    ))
    native = robot_domain(game)
    check_target_reply_along(
        [native, robot_matrix_domain(game)],
        [(p, i) for d, a in moves for p, i in ((DEFENDER, d), (ATTACKER, a))],
    )
    for d in game.defender:
        for a in game.attacker:
            point = tuple(t - x - y for t, x, y in zip(game.target, d, a))
            assert check_target_replies_at(native, point) > 0


# --- the key decides the target ---


def random_rounds(data, domain, max_rounds: int) -> list[tuple[str, int]]:
    """Up to ``max_rounds`` rounds of drawn move indices, as ``(player, index)`` moves."""
    rounds = data.draw(st.lists(
        st.tuples(
            st.integers(0, domain.move_count(DEFENDER) - 1), st.integers(0, domain.move_count(ATTACKER) - 1)
        ),
        max_size=max_rounds,
    ))
    return [(p, i) for d, a in rounds for p, i in ((DEFENDER, d), (ATTACKER, a))]


@functools.cache
def fixture_domains(name: str) -> tuple:
    """The five pipeline domains of a fixture and braid3's source, binary-word."""
    pipe = build_pipeline(load_instance(name))
    return (*pipe.crosscheck_domains(), word_domain(pipe.binary_weighted_game, "binary-word"))


@functools.cache
def two_round_attacker_table(name: str) -> dict:
    """The word solve's winning table at horizon 2, or {} where the defender survives."""
    solved = engine.attacker_wins_within(fixture_domains(name)[0], 2)
    return solved.strategy if solved.attacker_wins else {}


def anchor_of(domain):
    return mx.ANCHOR_ROW if domain.name == "matrix" else None


@pytest.mark.parametrize("name", ["eq", "mm", "c4", "i1", "fin", "c5", "c6"])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_key_decides_target_on_fixture_plays(name, data):
    # Drawn plays of up to four rounds, in which the attacker follows the two-round
    # winning table where it has a move, so plays of two rounds can reach the target.
    domains, table = fixture_domains(name), two_round_attacker_table(name)
    word, moves = domains[0], []
    cfg, rounds = word.initial_config(), data.draw(st.integers(1, 4))
    for remaining in range(rounds, 0, -1):
        d = data.draw(st.integers(0, word.move_count(DEFENDER) - 1))
        cfg = word.apply(cfg, DEFENDER, d)
        a = table.get((word.canonical_key(cfg), remaining))
        if a is None:
            a = data.draw(st.integers(0, word.move_count(ATTACKER) - 1))
        cfg = word.apply(cfg, ATTACKER, a)
        moves += [(DEFENDER, d), (ATTACKER, a)]
    for domain in domains:
        key_decides_target_along(domain, moves, anchor_of(domain))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(game=small_word_games(), data=st.data())
def test_key_decides_target_on_small_games(game, data):
    domains = small_game_domains(game)
    moves = random_rounds(data, domains[0], 3)
    for domain in domains:
        key_decides_target_along(domain, moves, anchor_of(domain))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(game=robot_games(), data=st.data())
def test_key_decides_target_on_robot_games(game, data):
    native = robot_domain(game)
    moves = random_rounds(data, native, 4)
    for domain in (native, robot_matrix_domain(game)):
        key_decides_target_along(domain, moves)


def positions_along(domain, moves) -> list:
    cfg = domain.initial_config()
    positions = [cfg]
    for player, index in moves:
        cfg = domain.apply(cfg, player, index)
        positions.append(cfg)
    return positions


# The key text of a word or pair point, or of the one a braid point encodes.
ORACLE_TEXTS = {
    "word": word_config_text,
    "binary-word": word_config_text,
    "pair": pair_config_text,
    "braid3": lambda cfg: word_config_text(cfg.source),
    "braid5": lambda cfg: pair_config_text(cfg.source),
}


@pytest.mark.parametrize("name", ["eq", "mm", "c4", "i1", "fin", "c5", "c6"])
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_key_text_separates_keys_on_fixture_plays(name, data):
    # Several plays from one start share their first positions, so equal keys occur.
    domains = fixture_domains(name)
    plays = [random_rounds(data, domains[0], 3) for _ in range(data.draw(st.integers(2, 3)))]
    for domain in domains:
        positions = [x for moves in plays for x in positions_along(domain, moves)]
        key_text_separates(domain, positions)
        if domain.name in ORACLE_TEXTS:
            for x in positions:
                assert domain.key_text(domain.canonical_key(x)) == ORACLE_TEXTS[domain.name](x)


@pytest.mark.parametrize("name", ["eq", "mm", "c4", "i1", "fin", "c5", "c6"])
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_coded_word_step_matches_concat_on_fixture_plays(name, data):
    # The word step cuts the seam on the codes of its key; its letters must still
    # be the free product's, and its key the codes of those letters and the counter.
    built = fixture_domains(name)
    word, binary_word = built[0], built[-1]
    moves = random_rounds(data, word, 4)
    for domain in (word, binary_word):
        cfg = domain.initial_config()
        for player, index in moves:
            move = (domain.defender_moves if player == DEFENDER else domain.attacker_moves)[index]
            after = domain.apply(cfg, player, index)
            assert after.word.letters == fg.concat(cfg.word, move.word).letters
            assert after.counter == cfg.counter + move.weight
            assert after.key == fg.letter_codes(after.word.letters) + (after.counter,)
            eager = wg.WordConfig(after.word, after.counter)
            assert after.key == eager.key
            assert domain.key_text(domain.canonical_key(after)) == word_config_text(after)
            # A stepped configuration is its key alone and decodes its word and
            # counter on first read; each check below reads a fresh one.
            stepped = functools.partial(domain.apply, cfg, player, index)
            assert stepped() == eager and eager == stepped()
            assert hash(stepped()) == hash(eager)
            assert repr(stepped()) == repr(eager)
            for changes in ({"word": move.word}, {"counter": after.counter - 1}):
                replaced = dataclasses.replace(stepped(), **changes)
                expected = dataclasses.replace(eager, **changes)
                assert replaced == expected and replaced.key == expected.key
            cfg = after


@settings(max_examples=100, derandomize=True, deadline=None)
@given(game=robot_games(), data=st.data())
def test_key_text_separates_keys_on_robot_games(game, data):
    native = robot_domain(game)
    plays = [random_rounds(data, native, 4) for _ in range(data.draw(st.integers(2, 3)))]
    for domain in (native, robot_matrix_domain(game)):
        key_text_separates(domain, [x for moves in plays for x in positions_along(domain, moves)])


def test_reply_tables_built_on_the_first_reply_only():
    pipe = build_pipeline(load_instance("i1"))
    trace = engine.parse_trace((GOLDEN / "i1_play.trace").read_text(encoding="utf-8"))
    with mock.patch.object(domains, "_least_index", wraps=domains._least_index) as least_index:
        assert engine.crosscheck(trace, pipe.crosscheck_domains()).agree
        assert least_index.call_count == 0
        for representation in REPRESENTATIONS * 2:
            engine.attacker_wins_within(pipe.domain(representation), 2)
    # One threat table for the one defender move of each representation; braid3 and
    # braid5 build their own, and braid3's source domain binary-word is never solved.
    assert least_index.call_count == 5
