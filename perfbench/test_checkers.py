"""Each benchmark checker accepts a correct output and rejects a deliberately wrong one.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checkers.py -q
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from pcpgames import automata, engine, pcp  # noqa: E402
from pcpgames import freegroup as fg  # noqa: E402
from pcpgames.domains import build_pipeline  # noqa: E402

import bench_checks as checks  # noqa: E402
import bench_workloads as bw  # noqa: E402


def _instance(name: str) -> pcp.PcpInstance:
    return pcp.parse_instance(bw.instance_texts([name])[name])


@pytest.fixture(scope="module")
def pipes():
    return {name: build_pipeline(_instance(name)) for name in ("eq", "i1", "mm")}


@pytest.mark.parametrize("name, horizon", [("eq", 2), ("mm", 2), ("i1", 2)])
def test_solve_checks_accept_the_solver_output(pipes, name, horizon):
    domain = pipes[name].domain("word")
    result = engine.attacker_wins_within(domain, horizon)
    assert checks.check_solve(domain, result, horizon) == []
    brute = checks.brute_force_value(domain, horizon)
    assert checks.check_against_brute_force(result, brute) == []


@pytest.mark.parametrize("name, horizon", [("eq", 2), ("i1", 2)])
def test_flipped_verdict_is_rejected(pipes, name, horizon):
    domain = pipes[name].domain("word")
    result = engine.attacker_wins_within(domain, horizon)
    flipped = dataclasses.replace(
        result,
        attacker_wins=not result.attacker_wins,
        rounds=horizon if result.attacker_wins else 1,
    )
    assert checks.check_solve(domain, flipped, horizon)
    brute = checks.brute_force_value(domain, horizon)
    assert checks.check_against_brute_force(flipped, brute)


def test_wrong_round_count_is_rejected_by_brute_force(pipes):
    domain = pipes["eq"].domain("word")
    result = engine.attacker_wins_within(domain, 3)
    assert result.attacker_wins and result.rounds == 2
    late = dataclasses.replace(result, rounds=3)
    assert checks.check_against_brute_force(late, checks.brute_force_value(domain, 3))


def test_corrupted_strategy_entry_is_rejected(pipes):
    domain = pipes["i1"].domain("word")
    result = engine.attacker_wins_within(domain, 2)
    key = next(iter(result.strategy))
    broken = dataclasses.replace(result, strategy={k: v for k, v in result.strategy.items() if k != key})
    assert checks.check_solve(domain, broken, 2)


def test_disagreeing_representations_are_rejected():
    assert checks.check_agreement({"word": (True, 2), "braid3": (True, 2)}) == []
    assert checks.check_agreement({"word": (True, 2), "braid3": (True, 1)})
    assert checks.check_agreement({"word": (True, 2), "matrix": (False, 2)})


def _play(pipe, seed: int):
    rng = random.Random(seed)
    ds, ats = bw.draw_scripts(pipe, rng)
    return bw.certify_play(bw.Ctx(), pipe, ds, ats), (ds, ats)


def test_certified_play_passes_and_perturbed_matrix_is_rejected(pipes):
    pipe = pipes["eq"]
    outcome, scripts = _play(pipe, 3)
    assert checks.check_play(outcome, pipe.weighted_game, pipe.matrix_game, scripts) == []
    m = [list(row) for row in outcome.matrix_config]
    m[1][2] += 1
    bad = dataclasses.replace(outcome, matrix_config=tuple(tuple(row) for row in m))
    problems = checks.check_play(bad, pipe.weighted_game, pipe.matrix_game, scripts)
    assert any("matrix" in p for p in problems)


def test_perturbed_word_oracle_and_proof_are_rejected(pipes):
    pipe = pipes["mm"]
    outcome, scripts = _play(pipe, 4)
    word = outcome.word_config
    wrong_word = dataclasses.replace(word, word=fg.GroupWord(word.word.letters + (("x", 1),)))
    for bad in (
        dataclasses.replace(outcome, word_config=wrong_word),
        dataclasses.replace(outcome, word_config=dataclasses.replace(word, counter=word.counter + 1)),
        dataclasses.replace(outcome, oracle_flags=[{"braid3": (True, False)}] + outcome.oracle_flags[1:]),
        dataclasses.replace(outcome, proofs={**outcome.proofs, "braid3 burau": False}),
        dataclasses.replace(outcome, crosscheck_agree=False),
    ):
        assert checks.check_play(bad, pipe.weighted_game, pipe.matrix_game, scripts)
    other = (scripts[0], [(scripts[1][0] + 1) % 5] + scripts[1][1:])
    assert checks.check_play(outcome, pipe.weighted_game, pipe.matrix_game, other)


def test_least_good_word_by_hand():
    # h(a) = a, g(a) = aa: every a^n keeps h a proper prefix of g.
    assert checks.least_good_word({"a": "a"}, {"a": "aa"}, 5) == "aaaaa"
    # equal images are never good
    assert checks.least_good_word({"a": "a"}, {"a": "a"}, 3) is None
    # fin: 'a' is good, but 'aa' mismatches and 'ab' has equal images; b^n stays good
    assert checks.least_good_word({"a": "ab", "b": "b"}, {"a": "a", "b": "bb"}, 4) == "bbbb"


@pytest.mark.parametrize("name, length", [("fin", 6), ("c4", 6), ("i1", 6)])
def test_universality_checker_accepts_and_rejects_shifted_counterexample(name, length):
    inst = _instance(name)
    verdict = automata.bounded_universality(automata.build_solution_checker(inst), length)
    assert checks.check_universality(inst.h_images, inst.g_images, length, verdict) == []
    if verdict.counterexample is None:
        shifted = automata.UniversalityVerdict(length, "a" * length)
    else:
        letters = sorted(inst.domain_alphabet)
        last = verdict.counterexample[-1]
        nxt = letters[(letters.index(last) + 1) % len(letters)]
        shifted = automata.UniversalityVerdict(length, verdict.counterexample[:-1] + nxt)
        if shifted.counterexample == verdict.counterexample:  # unary alphabet
            shifted = automata.UniversalityVerdict(length, None)
    assert checks.check_universality(inst.h_images, inst.g_images, length, shifted)


def test_free_reduce_and_mat_product():
    assert checks.free_reduce([("a", 1), ("b", 1), ("b", -1), ("a", -1), ("c", 1)]) == (("c", 1),)
    m = ((1, 2), (0, 1))
    assert checks.mat_product([m, m, m]) == ((1, 6), (0, 1))
