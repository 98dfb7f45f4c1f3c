from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pcpgames import freegroup as fg

from oracles import all_reduced_words, alpha_decode, is_identity


def test_reduce_examples():
    assert fg.reduce([("c", 1), ("c", -1)]) == fg.EPSILON
    assert fg.reduce([("c", 1), ("d", 1), ("d", -1), ("c", -1)]) == fg.EPSILON
    assert fg.reduce([("c", 1), ("d", 1), ("c", -1)]) == fg.word("c", "d", "~c")


def test_group_word_rejects_unreduced():
    with pytest.raises(ValueError):
        fg.GroupWord((("c", 1), ("c", -1)))


def test_concat_examples():
    assert fg.concat(fg.word("q0", "a"), fg.word("~a", "~q4")) == fg.word("q0", "~q4")
    w = fg.word("c", "d", "c")
    assert fg.concat(w, fg.invert(w)) == fg.EPSILON
    assert fg.concat(fg.EPSILON, w) == w


def test_invert_examples():
    assert fg.invert(fg.word("c", "d")) == fg.word("~d", "~c")
    assert fg.invert(fg.EPSILON) == fg.EPSILON


@settings(max_examples=100, derandomize=True, deadline=None)
@given(letters=st.lists(st.tuples(st.sampled_from(["c", "d", "q0", "#"]), st.sampled_from([1, -1])), max_size=8))
def test_letter_codes_are_signed_symbol_ids(letters):
    codes = fg.letter_codes(tuple(letters))
    assert fg.code_letters(codes) == tuple(letters)
    assert all(code != 0 for code in codes)
    assert fg.letter_codes(tuple((sym, -sign) for sym, sign in letters)) == tuple(-code for code in codes)
    # one id per symbol: codes are equal exactly when letters are
    assert len(set(zip(letters, codes))) == len(set(letters)) == len(set(codes))


def test_invert_shares_one_tuple_per_inverse_letter():
    # Reply tables hold many inverted words; equal letters must be one object.
    u, v = fg.invert(fg.word("c", "d", "c")), fg.invert(fg.word("~d", "c"))
    assert u.letters[0] is u.letters[2] is v.letters[0]
    assert u.letters[1] is fg.invert(fg.word("d")).letters[0]
    assert v.letters[1] is fg.invert(fg.word("~d")).letters[0]


def test_render_parse_round_trip():
    assert fg.word("q0", "#", "~#") == fg.word("q0")
    v = fg.word("a", "~q1", "c")
    assert fg.parse(fg.render(v)) == v
    assert fg.parse("") == fg.EPSILON


@pytest.mark.parametrize("tokens", [("~",), ("",), ("a", "~")])
def test_word_refuses_a_token_with_no_symbol(tokens):
    with pytest.raises(ValueError, match="has no symbol"):
        fg.word(*tokens)


ALPHA3 = fg.RankedAlphabet(("z1", "z2", "z3"))


def test_alpha_encode_examples():
    assert fg.render(fg.alpha_encode(fg.word("z1"), ALPHA3)) == "c d ~c"
    assert fg.render(fg.alpha_encode(fg.word("~z2"), ALPHA3)) == "c c ~d ~c ~c"
    assert fg.alpha_encode(fg.word("z1", "~z1"), ALPHA3) == fg.EPSILON


def test_alpha_decode_examples():
    assert alpha_decode(fg.word("c", "d", "~c"), ALPHA3) == fg.word("z1")
    assert alpha_decode(fg.word("d", "c"), ALPHA3) is None
    assert alpha_decode(fg.EPSILON, ALPHA3) == fg.EPSILON


def test_alpha_rejects_unranked_letter():
    with pytest.raises(KeyError):
        fg.alpha_encode(fg.word("zz"), ALPHA3)


def test_is_identity():
    assert is_identity(fg.EPSILON)
    assert not is_identity(fg.word("c"))


def test_monomorphism_exhaustive_short():
    seen = {}
    for w in all_reduced_words(ALPHA3.symbols, 3):
        image = fg.alpha_encode(w, ALPHA3)
        assert image not in seen, (fg.render(w), fg.render(seen[image]))
        seen[image] = w
        assert alpha_decode(image, ALPHA3) == w
        assert is_identity(image) == is_identity(w)


letters = st.tuples(st.sampled_from(["z1", "z2", "z3"]), st.sampled_from([1, -1]))
words = st.lists(letters, max_size=12).map(fg.reduce)


@settings(max_examples=300, derandomize=True)
@given(w=words)
def test_reduce_idempotent_and_monotone(w):
    again = fg.reduce(w.letters)
    assert again == w
    assert len(fg.reduce(list(w.letters) + [("z1", 1), ("z1", -1)])) <= len(w) + 2


@settings(max_examples=300, derandomize=True)
@given(u=words, v=words, w=words)
def test_concat_associative(u, v, w):
    assert fg.concat(fg.concat(u, v), w) == fg.concat(u, fg.concat(v, w))


@settings(max_examples=300, derandomize=True)
@given(w=words)
def test_invert_involution_and_inverse_law(w):
    assert fg.invert(fg.invert(w)) == w
    assert is_identity(fg.concat(w, fg.invert(w)))


@settings(max_examples=300, derandomize=True)
@given(u=words, v=words)
def test_alpha_homomorphism(u, v):
    lhs = fg.alpha_encode(fg.concat(u, v), ALPHA3)
    rhs = fg.concat(fg.alpha_encode(u, ALPHA3), fg.alpha_encode(v, ALPHA3))
    assert lhs == rhs


binary_words = st.lists(
    st.tuples(st.sampled_from(["c", "d"]), st.sampled_from([1, -1])), max_size=8
).map(fg.reduce)


@settings(max_examples=300, derandomize=True)
@given(u=binary_words, v=binary_words)
def test_concat_matches_full_reduction(u, v):
    product = fg.concat(u, v)
    assert product == fg.reduce(u.letters + v.letters)
    assert fg.GroupWord(product.letters) == product


def test_all_reduced_words_counts():
    # rank-3 symmetric alphabet: 1 + 6 + 6*5 + 6*25 words up to length 3
    assert sum(1 for _ in all_reduced_words(ALPHA3.symbols, 3)) == 1 + 6 + 30 + 150
