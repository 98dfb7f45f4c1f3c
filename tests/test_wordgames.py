from __future__ import annotations

import itertools
import random

import pytest

from pcpgames import automata as au
from pcpgames import freegroup as fg
from pcpgames import wordgames as wg
from pcpgames.automata import AutomatonError
from pcpgames.domains import BraidConfig, build_pipeline, pair_domain, word_domain

from conftest import accepting, load_instance, paths_over
from oracles import counter_value

FIXTURE_NAMES = ("c4", "c5", "c6", "eq", "fin", "i1", "mm")


@pytest.fixture(scope="module")
def games(pipelines):
    return {name: pipe.weighted_game for name, pipe in pipelines.items()}


def unfolded(inst):
    return au.unfold_self_loops(au.build_solution_checker(inst))


def test_defender_moves_are_letters_with_zero_weight(games):
    for game in games.values():
        for m in game.defender_moves:
            assert len(m.word) == 1 and m.word.letters[0][1] == 1
            assert m.weight == 0


def test_initial_word_is_q0(games):
    for game in games.values():
        assert fg.render(game.initial.word) == "q0"
        assert game.initial.counter == 0


def test_b_move_from_transition(i1):
    game = wg.build_weighted_word_game(unfolded(i1))
    # q0 --a,-2--> q1 gives the attacker move (~a ~q1, -2)
    assert wg.WordConfig(fg.word("~a", "~q1"), -2) in game.attacker_moves


def test_hash_move_present(games):
    for game in games.values():
        assert game.attacker_moves[0] == wg.WordConfig(fg.word("#"), 0)


def test_extra_moves_shape(games, pipelines):
    for name, game in games.items():
        alphabet = pipelines[name].instance.domain_alphabet
        for f in ("q4", "q8"):
            for a in alphabet:
                assert wg.WordConfig(fg.word("~" + a, f, "~q0"), 0) in game.attacker_moves


def test_mid_path_moves_cover_all_defender_letters(mm):
    game = wg.build_weighted_word_game(unfolded(mm))
    mid = [m for m in game.attacker_moves if len(m.word) == 5]
    aut = unfolded(mm)
    non_initial = [t for t in aut.sorted_transitions() if t.source != "q0"]
    assert len(mid) == len(non_initial) * len(aut.alphabet)
    sample = mid[0].word.letters
    assert [sign for _, sign in sample] == [-1, 1, -1, -1, -1]
    assert sample[2][0] == wg.HASH


def test_build_rejects_five_state_automaton(i1):
    with pytest.raises(AutomatonError):
        wg.build_weighted_word_game(au.build_solution_checker(i1))


def test_apply_move_examples(games):
    step = word_domain(games["i1"]).step
    cfg = wg.WordConfig(fg.word("q0", "a"), 0)
    moved = step(cfg, wg.WordConfig(fg.word("~a", "~q1"), -2))
    assert moved == wg.WordConfig(fg.word("q0", "~q1"), -2)
    hashed = step(cfg, wg.WordConfig(fg.word("#"), 0))
    assert fg.render(hashed.word) == "q0 a #" and hashed.counter == 0


def test_is_target(games):
    is_target = word_domain(games["i1"]).is_target
    assert is_target(wg.WordConfig(fg.EPSILON, 0))
    assert not is_target(wg.WordConfig(fg.EPSILON, 5))
    assert not is_target(wg.WordConfig(fg.word("q0", "~q4"), 0))


def accepting_paths(aut, max_len):
    """Full-length zero-weight accepting paths that avoid the initial state mid-way."""
    out = []
    for n in range(1, max_len + 1):
        for letters in itertools.product(aut.alphabet, repeat=n):
            for p in paths_over(aut, "".join(letters)):
                if len(p) == n and accepting(aut, p) and all(t.target != aut.initial for t in p):
                    out.append(p)
    return out


def replay_path(game, aut, path):
    """The induced alternating play for a path, in the telescoping order."""
    step = word_domain(game).step
    cfg = game.initial
    u = "".join(t.letter for t in path)
    n = len(path)
    junk = sorted(aut.alphabet)[0]

    def attacker(move_word, weight):
        for m in game.attacker_moves:
            if m.word == move_word and m.weight == weight:
                return m
        raise AssertionError(f"missing attacker move {fg.render(move_word)} weight={weight}")

    for rnd in range(1, n + 1):
        cfg = step(cfg, wg.WordConfig(fg.word(u[n - rnd]), 0))
        if rnd < n:
            cfg = step(cfg, game.attacker_moves[0])
        else:
            t = path[0]
            cfg = step(cfg, attacker(fg.word("~" + t.letter, "~" + t.target), t.weight))
    for k in range(2, n + 1):
        cfg = step(cfg, wg.WordConfig(fg.word(junk), 0))
        t = path[k - 1]
        move = fg.word("~" + junk, t.source, "~" + wg.HASH, "~" + t.letter, "~" + t.target)
        cfg = step(cfg, attacker(move, t.weight))
    return cfg


def test_telescoping_invariant(pipelines):
    checked = 0
    for pipe in pipelines.values():
        aut = pipe.game_automaton
        game = pipe.weighted_game
        word = pipe.domain("word")
        junk = sorted(aut.alphabet)[0]
        for path in accepting_paths(aut, 4):
            cfg = replay_path(game, aut, path)
            final_state = path[-1].target
            assert fg.render(cfg.word) == f"{aut.initial} ~{final_state}"
            assert cfg.counter == 0
            # the extra move then unbraids to the target
            cfg = word.step(cfg, wg.WordConfig(fg.word(junk), 0))
            extra = fg.word("~" + junk, final_state, "~" + aut.initial)
            cfg = word.step(cfg, wg.WordConfig(extra, 0))
            assert word.is_target(cfg)
            checked += 1
    assert checked > 0


def test_play_counter_tracks_path_weight(pipelines):
    """Any telescoped path replay leaves the counter at the path weight."""
    pipe = pipelines["mm"]
    aut = pipe.game_automaton
    game = pipe.weighted_game
    paths = [
        p
        for letters in itertools.product(aut.alphabet, repeat=3)
        for p in paths_over(aut, "".join(letters))
        if len(p) == 3 and all(t.target != aut.initial for t in p)
    ]
    assert paths
    for path in paths:
        cfg = replay_path(game, aut, path)
        assert cfg.counter == sum(t.weight for t in path)


def test_junk_persistence(pipelines):
    """A move whose leading inverse letter fails to cancel dooms the play.

    Exhaustive depth-4 search on the eq game: once such a non-cancelling
    factor appears, no continuation reaches the target within the horizon.
    """
    game = pipelines["eq"].weighted_game
    word = pipelines["eq"].domain("word")
    depth = 4

    def leaves_junk(before: wg.WordConfig, move: wg.WordConfig) -> bool:
        if not move.word.letters or not before.word.letters:
            return False
        sym, sign = move.word.letters[0]
        return sign < 0 and before.word.letters[-1] != (sym, 1)

    def explore(cfg: wg.WordConfig, rnd: int, junked: bool) -> None:
        if word.is_target(cfg):
            assert not junked, "a junked play reached the target"
            return
        if rnd == depth:
            return
        for d in game.defender_moves:
            after_d = word.step(cfg, d)
            for a in game.attacker_moves:
                explore(word.step(after_d, a), rnd + 1, junked or leaves_junk(after_d, a))

    explore(game.initial, 0, False)


def test_counter_word():
    assert wg.counter_word(3) == fg.word("r", "r", "r")
    assert wg.counter_word(-2) == fg.word("~r", "~r")
    assert wg.counter_word(0) == fg.EPSILON


def test_to_pair_game_examples(pipelines):
    pipe = pipelines["i1"]
    pair = pipe.pair_game
    weighted = pipe.weighted_game
    for wm, pm in zip(weighted.attacker_moves, pair.attacker_moves):
        assert pm.word == wm.word
        assert counter_value(pm.counter_word) == wm.weight
        if wm.weight == -2:
            assert fg.render(pm.counter_word) == "~r ~r"
        if wm.weight == 0:
            assert pm.counter_word == fg.EPSILON
    is_target = pair_domain(pair).is_target
    assert is_target(wg.PairConfig(fg.EPSILON, fg.EPSILON))
    assert not is_target(wg.PairConfig(fg.EPSILON, fg.word("r")))


def test_pair_apply_counter_cancellation(pipelines):
    step = pair_domain(pipelines["i1"].pair_game).step
    cfg = wg.PairConfig(fg.word("q0"), fg.word("r", "r"))
    move = wg.PairConfig(fg.EPSILON, fg.word("~r"))
    assert step(cfg, move).counter_word == fg.word("r")


def test_pair_play_counter_equals_weight_sum(pipelines):
    rng = random.Random(5)
    weighted = pipelines["mm"].weighted_game
    pair = pipelines["mm"].pair_game
    wdom, pdom = pipelines["mm"].domain("word"), pair_domain(pair)
    for _ in range(30):
        wcfg, pcfg = weighted.initial, pair.initial
        for _ in range(4):
            d = rng.randrange(len(weighted.defender_moves))
            a = rng.randrange(len(weighted.attacker_moves))
            wcfg = wdom.step(wcfg, weighted.defender_moves[d])
            pcfg = pdom.step(pcfg, pair.defender_moves[d])
            wcfg = wdom.step(wcfg, weighted.attacker_moves[a])
            pcfg = pdom.step(pcfg, pair.attacker_moves[a])
            assert counter_value(pcfg.counter_word) == wcfg.counter
            assert pdom.is_target(pcfg) == wdom.is_target(wcfg)


def test_binarize_words_and_targets(pipelines):
    rng = random.Random(9)
    pipe = pipelines["eq"]
    pair, binary = pipe.pair_game, pipe.binary_pair_game
    weighted, binary_weighted = pipe.weighted_game, pipe.binary_weighted_game
    enc = lambda w: fg.alpha_encode(w, pair.alphabet)
    for wm, bw in zip(
        weighted.defender_moves + weighted.attacker_moves,
        binary_weighted.defender_moves + binary_weighted.attacker_moves,
        strict=True,
    ):
        assert bw.word == enc(wm.word)
        assert bw.weight == wm.weight
    for pm, bm in zip(pair.attacker_moves, binary.attacker_moves):
        assert bm.word == enc(pm.word)
        assert bm.counter_word == pm.counter_word
    assert binary.initial.word == enc(pair.initial.word)
    pdom, bdom = pair_domain(pair), pipe.domain("pair")
    for _ in range(30):
        pcfg, bcfg = pair.initial, binary.initial
        for _ in range(4):
            d = rng.randrange(len(pair.defender_moves))
            a = rng.randrange(len(pair.attacker_moves))
            pcfg = pdom.step(pdom.step(pcfg, pair.defender_moves[d]), pair.attacker_moves[a])
            bcfg = bdom.step(bdom.step(bcfg, binary.defender_moves[d]), binary.attacker_moves[a])
            assert bdom.is_target(bcfg) == pdom.is_target(pcfg)
            assert bcfg.word == enc(pcfg.word)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dump_parse_round_trip(name):
    game = build_pipeline(load_instance(name)).weighted_game
    text = wg.dump_weighted_game(game)
    parsed = wg.parse_weighted_game(text)
    assert parsed.defender_moves == game.defender_moves
    assert parsed.attacker_moves == game.attacker_moves
    assert parsed.initial == game.initial
    assert parsed.alphabet == game.alphabet


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_moves_are_elements_of_their_game(name):
    # A move and a point are one group's elements: one type, and a step is their product.
    pipe = build_pipeline(load_instance(name))
    for game in (pipe.weighted_game, pipe.binary_weighted_game, pipe.pair_game, pipe.binary_pair_game):
        for move in game.defender_moves + game.attacker_moves:
            assert type(move) is type(game.initial)
    binary_word = word_domain(pipe.binary_weighted_game, "binary-word")
    for braid, braid_game, source in (
        (pipe.domain("braid3"), pipe.braid3_game, binary_word),
        (pipe.domain("braid5"), pipe.braid5_game, pipe.domain("pair")),
    ):
        for moves, braids, source_moves in (
            (braid.defender_moves, braid_game.defender_braids, source.defender_moves),
            (braid.attacker_moves, braid_game.attacker_braids, source.attacker_moves),
        ):
            assert len(moves) == len(braids) == len(source_moves)
            for move, braid_word, source_move in zip(moves, braids, source_moves):
                assert type(move) is BraidConfig
                assert move.source == source_move and move.braid == braid_word
    for domain in (pipe.domain("word"), binary_word):
        x = domain.initial
        for move in domain.defender_moves + domain.attacker_moves:
            built = wg.WordConfig(fg.concat(x.word, move.word), x.counter + move.counter)
            stepped = domain.step(x, move)
            assert built.key == stepped.key
            assert (built.word, built.counter, built.weight) == (stepped.word, stepped.counter, stepped.weight)


def test_parse_refuses_an_initial_letter_outside_the_alphabet():
    text = "alphabet a\ninitial word=b weight=0\nplayer=D word=a weight=0\nplayer=A word=~a weight=0\n"
    message = "symbol 'b' in line 'initial word=b weight=0' is not in the alphabet line"
    with pytest.raises(ValueError, match=message):
        wg.parse_weighted_game(text)


def test_parse_without_alphabet_ranks_letters_by_first_use():
    text = "initial word=c weight=0\nplayer=D word=b weight=0\nplayer=A word=~a ~b weight=0\n"
    assert wg.parse_weighted_game(text).alphabet.symbols == ("b", "a", "c")


def test_dump_pair_game_renders(pipelines):
    text = wg.dump_pair_game(pipelines["i1"].pair_game)
    assert "counter=" in text and "player=D" in text


def test_dump_golden_pins_move_order(pipelines):
    """Strategy indices depend on the move order; the dump is frozen."""
    from conftest import GOLDEN

    text = wg.dump_weighted_game(pipelines["i1"].weighted_game)
    assert text == (GOLDEN / "i1_word_game.txt").read_text(encoding="utf-8")
