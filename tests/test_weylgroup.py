"""Finite Weyl group arithmetic: words, lengths, actions, enumeration."""

import dataclasses

import pytest

from alcovepaths.lattice import neg
from alcovepaths import weylgroup as wg
from conftest import datum_of, graph_of, reflect_weight, two_rho
from test_qbg import NAME_TYPES

GROUP_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("C", 2): 8,
    ("C", 3): 48, ("D", 4): 192, ("G", 2): 12,
}


@pytest.mark.parametrize("family,rank", sorted(GROUP_ORDERS))
def test_group_order(family, rank):
    d = datum_of(family, rank)
    assert len(wg.enumerate_group(d)) == GROUP_ORDERS[(family, rank)]
    assert wg.group_order(d) == GROUP_ORDERS[(family, rank)]


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_simple_reflections_are_involutions(family, rank):
    d = datum_of(family, rank)
    e = wg.identity(d)
    for i in range(1, rank + 1):
        s = wg.simple_reflection(d, i)
        assert wg.multiply(s, s) == e
        assert wg.inverse(s) == s
        assert wg.length(s) == 1


def test_braid_relations_a2():
    d = datum_of("A", 2)
    s1, s2 = wg.simple_reflection(d, 1), wg.simple_reflection(d, 2)
    assert wg.from_word(d, (1, 2, 1)) == wg.from_word(d, (2, 1, 2))
    assert wg.multiply(s1, s2) != wg.multiply(s2, s1)


def test_braid_relations_g2():
    d = datum_of("G", 2)
    assert wg.from_word(d, (1, 2) * 3) == wg.from_word(d, (2, 1) * 3)
    assert wg.from_word(d, (1, 2) * 3) == wg.longest_element(d)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("C", 2), ("G", 2)])
def test_reduced_word_roundtrip(family, rank):
    d = datum_of(family, rank)
    for w in wg.enumerate_group(d):
        word = wg.reduced_word(w)
        assert wg.from_word(d, word) == w
        assert len(word) == wg.length(w)


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_length_via_inversions(family, rank):
    # l(w) equals the number of positive coroots sent negative by w
    d = datum_of(family, rank)
    for w in wg.enumerate_group(d):
        inv = sum(
            1 for g in d.pos_coroots
            if not d.is_pos_coroot(wg.act_coroot(w, g))
        )
        assert wg.length(w) == inv


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("C", 2), ("G", 2)])
def test_longest_element(family, rank):
    d = datum_of(family, rank)
    w0 = wg.longest_element(d)
    assert wg.length(w0) == len(d.pos_coroots)
    assert wg.multiply(w0, w0) == wg.identity(d)
    # w0 sends every positive coroot to a negative one
    for g in d.pos_coroots:
        assert not d.is_pos_coroot(wg.act_coroot(w0, g))


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_inverse_and_actions(family, rank):
    d = datum_of(family, rank)
    group = wg.enumerate_group(d)
    for w in group:
        wi = wg.inverse(w)
        assert wg.multiply(w, wi) == wg.identity(d)
        # contragredient actions preserve the pairing
        for g in d.pos_coroots:
            mu = d.fundamental_weight(1)
            assert d.pair(wg.act_coroot(w, g), wg.act_weight(w, mu)) == d.pair(g, mu)


def test_act_weight_refuses_a_weight_of_another_rank():
    # zip would pair the coroots with a short or long weight's first entries
    d = datum_of("A", 2)
    w0 = wg.longest_element(d)
    assert wg.act_weight(w0, (1, 0)) == (0, -1)
    for wt in ((1,), (1, 0, 5)):
        with pytest.raises(ValueError, match="length-2"):
            wg.act_weight(w0, wt)


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_reflection_of(family, rank):
    d = datum_of(family, rank)
    for g in d.pos_coroots:
        s = wg.reflection_of(d, g)
        assert wg.multiply(s, s) == wg.identity(d)
        assert wg.act_coroot(s, g) == neg(g)
        assert wg.reflection_of(d, neg(g)) == s
    with pytest.raises(ValueError):
        wg.reflection_of(d, (5,) * rank)


def test_reflection_matches_word_conjugation():
    d = datum_of("A", 3)
    # s_{e_1 - e_3} = s_1 s_2 s_1
    assert wg.reflection_of(d, (1, 1, 0)) == wg.from_word(d, (1, 2, 1))


def test_enumeration_sorted_by_length():
    d = datum_of("C", 2)
    lengths = [wg.length(w) for w in wg.enumerate_group(d)]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0 and lengths[-1] == 4


@pytest.mark.parametrize("family,rank", NAME_TYPES)
def test_enumeration_order_is_length_then_smallest_word(family, rank):
    # reduced_word peels left descents, so the key shares no code with the
    # breadth-first search, whose order is the order words are found in
    d = datum_of(family, rank)
    group = wg.enumerate_group(d)
    key = {w: (wg.length(w), wg.reduced_word(w)) for w in group}
    assert group == sorted(group, key=key.__getitem__)
    # the table the walk keeps has the same order and the reference words
    words = wg.smallest_words(d)
    assert list(words) == group
    assert all(words[w] == word for w, (_, word) in key.items())
    # each call gives a new list: changing one leaves the next and the table
    group.reverse()
    group.pop()
    assert wg.enumerate_group(d) == list(words) == sorted(key, key=key.__getitem__)
    assert wg.smallest_words(d) is words and len(words) == len(key)


def test_group_size_cap(monkeypatch):
    monkeypatch.setattr(wg, "GROUP_SIZE_CAP", 10)
    with pytest.raises(wg.GroupSizeCapExceeded, match="cap"):
        wg.enumerate_group(datum_of("A", 3))
    # the cap is read at call time; |W(A3)| = 24 is allowed at 24
    monkeypatch.setattr(wg, "GROUP_SIZE_CAP", 24)
    assert len(wg.enumerate_group(datum_of("A", 3))) == 24


@pytest.mark.parametrize("family,rank,order", [
    ("A", 4, 120), ("B", 4, 384), ("F", 4, 1152), ("E", 6, 51840),
    ("E", 7, 2903040), ("E", 8, 696729600),
])
def test_group_order_without_enumeration(family, rank, order):
    assert wg.group_order(datum_of(family, rank)) == order


@pytest.mark.parametrize("family,rank", [
    *(("A", r) for r in range(1, 9)), *(("B", r) for r in range(2, 8)),
    *(("C", r) for r in range(2, 8)), *(("D", r) for r in range(4, 8)),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
])
def test_type_order_matches_the_height_formula(family, rank):
    # the classification table the CLI reads before building a datum,
    # against the product over the datum's positive coroots
    assert wg.type_order(family, rank) == wg.group_order(datum_of(family, rank))


def test_descents():
    d = datum_of("A", 2)
    s1 = wg.simple_reflection(d, 1)
    assert wg.is_right_descent(s1, 1)
    assert not wg.is_right_descent(s1, 2)
    assert not wg.is_right_descent(wg.identity(d), 1)


def reflect_coroot(datum, i, c):
    """``s_i(c) = c - <c, alpha_i> alpha_i^vee`` from the Cartan matrix alone."""
    pairing = sum(ck * row[i - 1] for ck, row in zip(c, datum.cartan))
    return tuple(x - pairing * (j == i - 1) for j, x in enumerate(c))


@pytest.mark.parametrize("family,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4),
])
def test_actions_match_cartan_formulas(family, rank):
    # apply the reduced word of w letter by letter with the Cartan-matrix
    # formulas, which never read the stored form of w.  Dropping the first
    # letter of a lexicographically smallest reduced word leaves the one of
    # a shorter element, so each word costs one more letter.
    d = datum_of(family, rank)
    regular = tuple(range(1, rank + 1))     # strictly dominant, not a root
    images = {(): ([two_rho(d), regular], list(d.pos_coroots))}
    for w in wg.enumerate_group(d):
        word = wg.reduced_word(w)
        if word:
            weights, coroots = images[word[1:]]
            images[word] = (
                [reflect_weight(d, word[0], v) for v in weights],
                [reflect_coroot(d, word[0], c) for c in coroots],
            )
        weights, coroots = images[word]
        assert [wg.act_weight(w, v) for v in (two_rho(d), regular)] == weights
        assert [wg.act_coroot(w, c) for c in d.pos_coroots] == coroots
        negative = {
            c: all(x <= 0 for x in img) for c, img in zip(d.pos_coroots, coroots)
        }
        assert wg.length(w) == len(word) == sum(negative.values())
        for i in range(1, rank + 1):
            assert wg.is_right_descent(w, i) == negative[d.simple_coroot(i)]
    assert len(images) == wg.group_order(d)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("G", 2)])
def test_equal_elements_hash_equal_and_find_each_other(family, rank):
    # elements built by four routes are separate objects with one perm;
    # they must be ==, hash alike, find each other as graph.edges keys, and
    # get v's number from index and w0 v's from the reversed graph's
    d, g = datum_of(family, rank), graph_of(family, rank)
    w0 = wg.longest_element(d)
    for n, v in enumerate(g.vertices):
        word = wg.reduced_word(v)
        built = [
            wg.from_word(d, word),
            wg.multiply(wg.identity(d), v),
            wg.inverse(wg.inverse(v)),
            wg.inverse(wg.from_word(d, word[::-1])),
        ]
        out = {gamma: g.edges[v, gamma]
               for gamma in d.pos_coroots if (v, gamma) in g.edges}
        assert out
        for w in built:
            assert w is not v
            assert w == v and hash(w) == hash(v) == hash(v.perm)
            assert {gamma: g.edges[w, gamma] for gamma in out} == out
            assert g.index(w) == n
            assert g.reversed.index(w) == g.index(wg.multiply(w0, w))


def test_cached_hash_is_not_compared_or_shown():
    d = datum_of("A", 2)
    w = wg.from_word(d, (1, 2))
    fields = {f.name: f for f in dataclasses.fields(wg.WeylElt)}
    assert [name for name, f in fields.items() if f.compare] == ["perm"]
    assert [name for name, f in fields.items() if f.repr] == ["perm"]
    assert repr(w) == f"WeylElt(perm={w.perm!r})"
