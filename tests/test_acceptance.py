"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact (integer / boolean agreement); the
headline undecidability results are not reproducible by construction, so
acceptance is bounded oracle equivalence at desk scale.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from pcpgames import automata as au
from pcpgames import braids as br
from pcpgames import engine
from pcpgames import freegroup as fg
from pcpgames import matrices as mx
from pcpgames import pcp
from pcpgames import wordgames as wg
from pcpgames.automata import Transition
from pcpgames.domains import build_pipeline, word_domain
from pcpgames.engine import ATTACKER, DEFENDER

from conftest import brute_attacker_wins, load_instance, paths_over, scripts
from oracles import (
    BURAU_IDENTITY,
    RobotGame,
    all_reduced_words,
    anchor_lemma_holds,
    column_anchor_lemma_report,
    det,
    is_complete,
    replay_reaches_target,
    robot_domain,
    robot_matrix_domain,
    survives_every_attacker_move,
)

FIXTURE_NAMES = ("i1", "eq", "mm", "fin", "c4", "c5", "c6")
LEMMA1_FIXTURES = ("i1", "eq", "mm")


def _report(number: int, label: str, started: float) -> None:
    print(f"criterion {number:2d} PASS ({time.time() - started:5.1f}s): {label}")


def test_criterion_01_construction_shape():
    started = time.time()
    for name in FIXTURE_NAMES:
        aut = au.build_solution_checker(load_instance(name))
        assert len(aut.states) == 5, name
        assert aut.finals == frozenset({"q4"}), name
        assert is_complete(aut), name
    _report(1, "compiled automata have 5 states, finals {q4}, and are complete", started)


def test_criterion_02_desk_scale_solution_language():
    started = time.time()
    words_checked = 0
    for name in LEMMA1_FIXTURES:
        inst = load_instance(name)
        aut = au.build_solution_checker(inst)
        for n in range(1, 7):
            for letters in itertools.product(inst.domain_alphabet, repeat=n):
                w = "".join(letters)
                bad = any(
                    pcp.bad_prefix_case(inst, w[:k]) is not None for k in range(1, n + 1)
                )
                accepted = au.accepts_within(aut, w)
                assert bad == accepted, (name, w)
                words_checked += 1
    _report(2, f"bad-prefix existence == zero-weight acceptance on {words_checked} words", started)


def test_criterion_03_reverse_duality():
    started = time.time()
    aut = au.build_solution_checker(load_instance("i1"))
    rev_transitions = au.reverse(aut).transitions
    (letter,) = aut.alphabet  # one letter, so these are all paths of length <= 10
    paths = 0
    for start in aut.states:
        for path in paths_over(aut, letter * 10, start=start):
            mirrored = [Transition(t.target, t.letter, t.source, -t.weight) for t in reversed(path)]
            assert sum(t.weight for t in mirrored) == -sum(t.weight for t in path)
            assert set(mirrored) <= rev_transitions
            for t1, t2 in zip(mirrored, mirrored[1:]):
                assert t1.target == t2.source
            paths += 1
    _report(3, f"reversal duality exact on {paths} paths of length <= 10", started)


def test_criterion_04_unfolding_preserves_bounded_language():
    started = time.time()
    words_checked = 0
    for name in FIXTURE_NAMES:
        inst = load_instance(name)
        aut = au.build_solution_checker(inst)
        unfolded = au.unfold_self_loops(aut)
        for n in range(1, 7):
            for letters in itertools.product(inst.domain_alphabet, repeat=n):
                w = "".join(letters)
                assert au.accepts_within(aut, w) == au.accepts_within(unfolded, w), (name, w)
                words_checked += 1
    _report(4, f"unfolding preserves acceptance on {words_checked} words", started)


def test_criterion_05_alpha_monomorphism():
    started = time.time()
    alphabet = fg.RankedAlphabet(("z1", "z2", "z3"))
    seen: dict = {}
    count = 0
    for w in all_reduced_words(alphabet.symbols, 4):
        image = fg.alpha_encode(w, alphabet)
        assert image not in seen, (fg.render(w), fg.render(seen[image]))
        seen[image] = w
        count += 1
    rng = random.Random(20240817)
    sym_signs = [(s, g) for s in alphabet.symbols for g in (1, -1)]
    for _ in range(10_000):
        u = fg.reduce(rng.choice(sym_signs) for _ in range(rng.randrange(0, 9)))
        v = fg.reduce(rng.choice(sym_signs) for _ in range(rng.randrange(0, 9)))
        lhs = fg.alpha_encode(fg.concat(u, v), alphabet)
        rhs = fg.concat(fg.alpha_encode(u, alphabet), fg.alpha_encode(v, alphabet))
        assert lhs == rhs
    _report(5, f"injective on {count} reduced words, homomorphism on 10^4 fuzz cases", started)


def test_criterion_06_matrix_encodings():
    started = time.time()
    for j in range(1, 11):
        alphabet = fg.RankedAlphabet(tuple(f"z{i}" for i in range(1, j + 1)))
        image = mx.f_encode(fg.alpha_encode(fg.word(f"z{j}"), alphabet))
        assert image == ((1 + 4 * j, -8 * j * j), (2, 1 - 4 * j)), j
    move_count = 0
    for name in LEMMA1_FIXTURES:
        game = build_pipeline(load_instance(name)).matrix_game
        for m in game.defender + game.attacker:
            assert det(m) == 1
            move_count += 1
    alphabet = fg.RankedAlphabet(("z1", "z2", "z3"))
    rng = random.Random(7031)
    sym_signs = [(s, g) for s in alphabet.symbols for g in (1, -1)]
    for _ in range(1000):
        w = fg.reduce(rng.choice(sym_signs) for _ in range(rng.randrange(0, 7)))
        m = mx.f_encode(fg.alpha_encode(w, alphabet))
        assert m[1][1] % 4 == 1
    assert anchor_lemma_holds(5)
    column_holds, column_cex = column_anchor_lemma_report(5)
    _report(
        6,
        f"closed forms, det 1 on {move_count} moves, mod-4 on 10^3 products, "
        f"anchor lemma to length 5 (column variant reported: holds={column_holds}"
        f"{'' if column_cex is None else ', cex=' + column_cex})",
        started,
    )


def test_criterion_07_braid_encodings():
    started = time.time()
    for j in range(1, 11):
        alphabet = fg.RankedAlphabet(tuple(f"z{i}" for i in range(1, j + 1)))
        encoded = br.b3_encode(fg.alpha_encode(fg.word(f"z{j}"), alphabet))
        assert len(encoded) == 8 * j + 4, j
    for gen in (1, 2):
        g = br.braid(3, [gen])
        assert br.braids_equal(br.concat(br.DELTA3_SQUARED, g), br.concat(g, br.DELTA3_SQUARED))
    assert br.burau3(br.braid(3, [1, 2, 1])) == br.burau3(br.braid(3, [2, 1, 2]))
    rng = random.Random(808)
    fuzzed = 0
    for _ in range(400):
        length = rng.randrange(0, 21)
        w = br.braid(3, [rng.choice([1, -1, 2, -2]) for _ in range(length)])
        assert (br.burau3(w) == BURAU_IDENTITY) == br.garside_nf(w).is_trivial()
        fuzzed += 1
    first = (br.braid(5, [1] * 4), br.braid(5, [2] * 4))
    second = (br.braid(5, [4] * 2), br.braid(5, br.B5_D_WORD))
    for x in first:
        for y in second:
            commutator = br.concat(br.concat(x, y), br.concat(br.invert(x), br.invert(y)))
            assert br.garside_nf(commutator).is_trivial()
    _report(7, f"braid lengths, central twist, Burau/Garside on {fuzzed} words, B5 commutation", started)


def test_criterion_08_cross_representation_integration():
    started = time.time()
    plays_total = 0
    rounds_checked = 0
    for offset, name in enumerate(LEMMA1_FIXTURES):
        pipe = build_pipeline(load_instance(name))
        word = pipe.domain("word")
        pair = pipe.domain("pair")
        matrix = pipe.domain("matrix")
        braid3 = pipe.domain("braid3")
        braid5 = pipe.domain("braid5")
        # Each braid domain encodes a source domain: braid3 the binary word
        # game, braid5 the binary pair game.
        binary = word_domain(pipe.binary_weighted_game, "binary-word")
        encodings = (
            (braid3, pipe.braid3_game, binary, ("word", "counter")),
            (braid5, pipe.braid5_game, pair, ("word", "counter_word")),
        )
        n_plays = 67 if name != "i1" else 66
        for seed in range(n_plays):
            rng = random.Random(100_000 * (offset + 1) + seed)
            configs = {
                d.name: d.initial_config() for d in (word, pair, matrix, braid3, braid5)
            }
            binary_cfg = binary.initial_config()
            played = {dom.name: list(game.initial_braid.letters) for dom, game, _, _ in encodings}
            for _ in range(4):
                for player in (DEFENDER, ATTACKER):
                    move = rng.randrange(word.move_count(player))
                    for dom in (word, pair, matrix, braid3, braid5):
                        configs[dom.name] = dom.apply(configs[dom.name], player, move)
                    binary_cfg = binary.apply(binary_cfg, player, move)
                    sources = {"braid3": binary_cfg, "braid5": configs["pair"]}
                    for dom, game, source, names in encodings:
                        cfg, source_cfg = configs[dom.name], sources[dom.name]
                        braids = game.defender_braids if player == DEFENDER else game.attacker_braids
                        played[dom.name] += braids[move].letters
                        assert cfg.braid == br.braid(game.strands, played[dom.name])
                        assert cfg.source == source_cfg
                        assert dom.canonical_key(cfg) == source.canonical_key(source_cfg)
                        assert dom.is_target(cfg) == source.is_target(source_cfg)
                        assert dom.threat_replies(dom.canonical_key(cfg)) == source.threat_replies(
                            source.canonical_key(source_cfg))
                        # Beside ``braid``, the names the benchmark's play certificate reads.
                        for attr in names:
                            assert getattr(cfg, attr) == getattr(source_cfg, attr)
                    word_target = word.is_target(configs["word"])
                    pair_target = pair.is_target(configs["pair"])
                    product = configs["matrix"]
                    matrix_identity = product == mx.identity(4)
                    matrix_anchor = matrix.is_target(product)
                    b3_cfg = configs["braid3"]
                    b5_cfg = configs["braid5"]
                    braid3_trivial = br.is_trivial_fast(b3_cfg.braid)
                    braid5_trivial = br.is_trivial_fast(b5_cfg.braid)
                    assert word_target == pair_target == matrix_identity
                    assert matrix_identity == matrix_anchor
                    assert word_target == braid3_trivial == braid5_trivial
                    assert braid3.is_target(b3_cfg) == braid3_trivial
                    assert braid5.is_target(b5_cfg) == braid5_trivial
                    rounds_checked += 1
            plays_total += 1
    assert plays_total == 200
    _report(
        8,
        f"word/matrix/braid target agreement on {plays_total} plays ({rounds_checked} moves)",
        started,
    )


def test_criterion_09_robot_game_embedding():
    started = time.time()
    robot = RobotGame(
        attacker=((1, 0), (0, 1), (-1, -1), (2, -1)),
        defender=((1, 1), (-1, 0), (0, -2)),
        initial=(0, 0),
        target=(3, 1),
    )
    native = robot_domain(robot)
    embedded = robot_matrix_domain(robot)
    for seed in range(200):
        rng = random.Random(4000 + seed)
        rc, mc = native.initial_config(), embedded.initial_config()
        for _ in range(5):
            for player in (DEFENDER, ATTACKER):
                move = rng.randrange(native.move_count(player))
                rc = native.apply(rc, player, move)
                mc = embedded.apply(mc, player, move)
                assert mc == rc + (1, 1)
                assert native.is_target(rc) == embedded.is_target(mc)
    _report(9, "robot and 2n-dimensional matrix game configurations correspond on 200 plays", started)


def test_criterion_10_solver_certificates():
    started = time.time()
    toy_cancel = wg.WeightedWordGame(
        alphabet=fg.RankedAlphabet(("a",)),
        defender_moves=(wg.WordConfig(fg.word("a"), 0),),
        attacker_moves=(wg.WordConfig(fg.word("~a"), 0),),
        initial=wg.WordConfig(fg.EPSILON, 0),
    )
    toy_survive = wg.WeightedWordGame(
        alphabet=fg.RankedAlphabet(("a", "b")),
        defender_moves=(wg.WordConfig(fg.word("a"), 0), wg.WordConfig(fg.word("b"), 0)),
        attacker_moves=(wg.WordConfig(fg.word("~a"), 0),),
        initial=wg.WordConfig(fg.EPSILON, 0),
    )
    i1_game = build_pipeline(load_instance("i1")).weighted_game
    eq_game = build_pipeline(load_instance("eq")).weighted_game
    domains = {
        "toy-cancel": word_domain(toy_cancel),
        "toy-survive": word_domain(toy_survive),
        "i1": word_domain(i1_game),
        "eq": word_domain(eq_game),
    }
    for label, domain in domains.items():
        for k in (1, 2, 3):
            solved = engine.attacker_wins_within(domain, k)
            brute = brute_attacker_wins(domain, domain.initial_config(), k)
            assert solved.attacker_wins == brute, (label, k)
            if solved.attacker_wins:
                for script in scripts(domain, DEFENDER, k):
                    assert replay_reaches_target(domain, solved.strategy, script), (
                        label, k, script,
                    )
            else:
                start = domain.initial_config()
                assert survives_every_attacker_move(domain, solved.strategy, start, k), (label, k)
    _report(10, "verdicts match brute force; certificates replay", started)
