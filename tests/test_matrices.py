from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from pcpgames import freegroup as fg
from pcpgames import matrices as mx
from pcpgames.domains import REPRESENTATIONS, matrix_domain
from pcpgames.engine import ATTACKER, DEFENDER

from oracles import (
    RobotGame,
    all_reduced_words,
    anchor_lemma_holds,
    closed_form_alpha_image,
    column_anchor_lemma_report,
    det,
    is_identity,
    key_decides_target_along,
    mat_vec_mul,
    robot_domain,
    robot_matrix_domain,
    row_vec_mul,
    shift_matrix,
)

ALPHA3 = fg.RankedAlphabet(("z1", "z2", "z3"))

binary_letters = st.tuples(st.sampled_from(["c", "d"]), st.sampled_from([1, -1]))
binary_words = st.lists(binary_letters, max_size=10).map(fg.reduce)
ranked_letters = st.tuples(st.sampled_from(["z1", "z2", "z3"]), st.sampled_from([1, -1]))
ranked_words = st.lists(ranked_letters, max_size=6).map(fg.reduce)


def test_f_encode_identity():
    assert mx.f_encode(fg.EPSILON) == mx.identity(2)


def test_f_encode_closed_form():
    for j in range(1, 11):
        alphabet = fg.RankedAlphabet(tuple(f"z{i}" for i in range(1, j + 1)))
        image = mx.f_encode(fg.alpha_encode(fg.word(f"z{j}"), alphabet))
        assert image == closed_form_alpha_image(j)
    assert closed_form_alpha_image(1) == ((5, -8), (2, -3))


@settings(max_examples=300, derandomize=True)
@given(u=binary_words, v=binary_words)
def test_f_homomorphism(u, v):
    assert mx.f_encode(fg.concat(u, v)) == mx.mat_mul(mx.f_encode(u), mx.f_encode(v))


def test_f_injective_on_short_words():
    seen = {}
    for w in all_reduced_words(("c", "d"), 6):
        m = mx.f_encode(w)
        assert m not in seen, (fg.render(w), fg.render(seen[m]))
        seen[m] = w
        assert (m == mx.identity(2)) == is_identity(w)


@settings(max_examples=300, derandomize=True)
@given(w=ranked_words)
def test_mod4_invariant(w):
    m = mx.f_encode(fg.alpha_encode(w, ALPHA3))
    assert m[1][1] % 4 == 1


def test_pair_encode_identity_and_det():
    assert mx.pair_encode(fg.EPSILON, fg.EPSILON) == mx.identity(4)
    m = mx.pair_encode(fg.alpha_encode(fg.word("z2"), ALPHA3), fg.word("r", "~t"))
    assert det(m) == 1


@settings(max_examples=150, derandomize=True)
@given(u=binary_words, v=binary_words)
def test_pair_encode_homomorphism(u, v):
    ru, rv = fg.word("r"), fg.word("~r")
    lhs = mx.pair_encode(fg.concat(u, v), fg.concat(ru, rv))
    rhs = mx.mat_mul(mx.pair_encode(u, ru), mx.pair_encode(v, rv))
    assert lhs == rhs


def test_fixes_anchor_examples():
    assert mx.fixes_anchor(mx.identity(4))
    block = mx.block_diag(closed_form_alpha_image(1), mx.identity(2))
    assert not mx.fixes_anchor(block)


def test_anchor_lemma_short():
    assert anchor_lemma_holds(4)


def test_anchor_lemma_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        anchor_lemma_holds(5, max_words=10)


def test_column_anchor_variant_reported():
    holds, counterexample = column_anchor_lemma_report(4)
    # reported, not asserted: record the outcome in the test log
    print(f"column-anchor variant holds={holds} counterexample={counterexample}")


def test_build_matrix_game_determinants(pipelines):
    game = pipelines["i1"].matrix_game
    for m in game.defender + game.attacker:
        assert det(m) == 1
    assert game.anchor == (1, 0, 1, 0)


def test_matrix_game_requires_binary_words(pipelines):
    with pytest.raises(ValueError):
        mx.build_matrix_game(pipelines["i1"].pair_game)


def test_matrix_game_initial_encodes_initial_word(pipelines):
    pair = pipelines["eq"].binary_pair_game
    game = pipelines["eq"].matrix_game
    assert game.initial == mx.pair_encode(pair.initial.word, pair.initial.counter_word)
    assert game.initial != mx.identity(4)  # the word game starts on q0, not epsilon


def test_matrix_play_matches_word_play(pipelines):
    rng = random.Random(3)
    pair = pipelines["eq"].binary_pair_game
    pdom = pipelines["eq"].domain("pair")
    game = pipelines["eq"].matrix_game
    for _ in range(25):
        pcfg = pair.initial
        acc = game.initial
        for _ in range(4):
            d = rng.randrange(len(pair.defender_moves))
            a = rng.randrange(len(pair.attacker_moves))
            pcfg = pdom.step(pcfg, pair.defender_moves[d])
            acc = mx.apply_matrix_move(acc, game.defender[d])
            pcfg = pdom.step(pcfg, pair.attacker_moves[a])
            acc = mx.apply_matrix_move(acc, game.attacker[a])
            word_target = pdom.is_target(pcfg)
            assert word_target == (acc == mx.identity(4))
            assert word_target == mx.fixes_anchor(acc, game.anchor)


def test_apply_matrix_move_basics():
    m = closed_form_alpha_image(2)
    m4 = mx.block_diag(m, mx.identity(2))
    assert mx.apply_matrix_move(mx.identity(4), m4) == m4
    inv = mx.f_encode(fg.invert(fg.alpha_encode(fg.word("z2"), ALPHA3)))
    assert mx.mat_mul(m, inv) == mx.identity(2)


def pair_image(word, counter_word, inverted: bool):
    if inverted:
        word, counter_word = fg.invert(word), fg.invert(counter_word)
    return mx.pair_encode(word, counter_word)


counter_words = st.lists(st.sampled_from([("r", 1), ("r", -1)]), max_size=4).map(fg.reduce)
pair_images = st.builds(pair_image, binary_words, counter_words, st.booleans())


anchors = st.tuples(*[st.integers(-2, 2)] * 4).filter(any)


@settings(max_examples=200, derandomize=True)
@given(start=pair_images, moves=st.lists(pair_images, max_size=8), row=anchors)
def test_block_product_matches_generic_product(start, moves, row):
    # Pair images and their inverses, as the matrix game plays them.
    block = generic = start
    for m in moves:
        block, generic = mx.apply_matrix_move(block, m), mx.mat_mul(generic, m)
        assert block == generic
        assert mx.row_times_blocks(row, block) == row_vec_mul(row, generic)


@settings(max_examples=200, derandomize=True)
@given(anchor=anchors, replies=st.lists(pair_images, min_size=1, max_size=4), config=pair_images)
def test_anchor_row_lookup_matches_generic_scan(anchor, replies, config):
    # Any anchor, not only ANCHOR_ROW; each reply's own preimage is a hit, and
    # repeated replies tie there, so the least index must win.
    domain = matrix_domain(
        mx.MatrixGame(defender=(mx.identity(4),), attacker=tuple(replies), anchor=anchor)
    )
    for cfg in [config] + [mx.block_inverse(m) for m in replies]:
        expected = next(
            (a for a, m in enumerate(replies) if mx.fixes_anchor(mx.mat_mul(cfg, m), anchor)), None
        )
        assert domain.threat_replies(domain.canonical_key(cfg)) == (expected,)


@settings(max_examples=200, derandomize=True)
@given(
    anchor=anchors,
    defender=st.lists(pair_images, min_size=1, max_size=3),
    attacker=st.lists(pair_images, min_size=1, max_size=3),
    config=pair_images,
    one_round_out=st.booleans(),
    data=st.data(),
)
def test_key_decides_target_on_block_diagonal_games(anchor, defender, attacker, config, one_round_out, data):
    # Half the games start one round (defender move 0, attacker move 0) from the target.
    if one_round_out:
        config = mx.apply_matrix_move(mx.block_inverse(attacker[0]), mx.block_inverse(defender[0]))
    domain = matrix_domain(mx.MatrixGame(tuple(defender), tuple(attacker), anchor, config))
    rounds = data.draw(st.lists(
        st.tuples(st.integers(0, len(defender) - 1), st.integers(0, len(attacker) - 1)), max_size=4
    ))
    moves = [(p, i) for d, a in rounds for p, i in ((DEFENDER, d), (ATTACKER, a))]
    key_decides_target_along(domain, moves, anchor)


def test_block_inverse_inverts_pair_images():
    m = mx.pair_encode(fg.word("c", "d", "~c"), fg.word("r", "r"))
    assert mx.mat_mul(m, mx.block_inverse(m)) == mx.identity(4)


@pytest.mark.parametrize(
    "game",
    [
        mx.MatrixGame(defender=(mx.identity(4),), attacker=(shift_matrix((1, 2)),)),
        mx.MatrixGame(
            defender=(mx.identity(4),), attacker=(mx.identity(4),), initial=shift_matrix((0, 1))
        ),
        mx.MatrixGame(
            defender=(mx.identity(4),), attacker=(mx.block_diag(((2, 0), (0, 1)), mx.identity(2)),)
        ),
        mx.MatrixGame(
            defender=(mx.block_diag(mx.identity(2), ((1, 1), (0, 2))),), attacker=(mx.identity(4),)
        ),
    ],
    ids=[
        "move-not-block-diagonal", "initial-not-block-diagonal", "determinant-two",
        "defender-determinant-two",
    ],
)
def test_matrix_domain_refuses_games_it_cannot_multiply_by_blocks(game):
    with pytest.raises(ValueError):
        matrix_domain(game)


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_matrix_reply_table_built_once_per_game(pipelines, representation):
    pipe = pipelines["eq"]
    assert pipe.domain(representation) is pipe.domain(representation)
    assert pipe.domain(representation).threat_replies is pipe.domain(representation).threat_replies


def test_shift_inverse():
    assert mx.mat_mul(shift_matrix((2, -3)), shift_matrix((-2, 3))) == mx.identity(4)


@settings(max_examples=100, derandomize=True)
@given(u=binary_words, v=binary_words, w=binary_words)
def test_matrix_multiplication_associative(u, v, w):
    a, b, c = mx.f_encode(u), mx.f_encode(v), mx.f_encode(w)
    assert mx.mat_mul(mx.mat_mul(a, b), c) == mx.mat_mul(a, mx.mat_mul(b, c))


def test_robot_single_step():
    matrix = shift_matrix((2,))
    assert matrix == ((1, 2), (0, 1))
    assert mat_vec_mul(matrix, (3, 1)) == (5, 1)


def test_robot_zero_move_is_identity():
    assert shift_matrix((0, 0)) == mx.identity(4)


@pytest.fixture()
def robot2():
    return RobotGame(
        attacker=((1, 0), (0, 1), (-1, -1)),
        defender=((1, 1), (-1, 0)),
        initial=(0, 0),
        target=(2, 1),
    )


def test_robot_matrix_game_shape(robot2):
    domain = robot_matrix_domain(robot2)
    assert domain.initial_config() == (0, 0, 1, 1)
    assert domain.is_target((2, 1, 1, 1))
    assert not domain.is_target((2, 1, 0, 0))
    assert domain.defender_moves[0] == ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))


def test_robot_dual_simulation(robot2):
    native = robot_domain(robot2)
    embedded = robot_matrix_domain(robot2)
    rng = random.Random(17)
    for _ in range(50):
        rc, mc = native.initial_config(), embedded.initial_config()
        for _ in range(5):
            d = rng.randrange(native.move_count("D"))
            a = rng.randrange(native.move_count("A"))
            rc = native.apply(rc, "D", d)
            mc = embedded.apply(mc, "D", d)
            rc = native.apply(rc, "A", a)
            mc = embedded.apply(mc, "A", a)
            assert mc == rc + (1, 1)
            assert native.is_target(rc) == embedded.is_target(mc)


def test_robot_dimension_validation():
    with pytest.raises(ValueError, match="same dimension"):
        RobotGame(attacker=((1,),), defender=((1, 2),), initial=(0,), target=(1,))


def test_dump_matrix_game(pipelines):
    text = mx.dump_matrix_game(pipelines["i1"].matrix_game)
    assert "# dimension=4 convention=product" in text
    assert "# player=D move=0" in text
