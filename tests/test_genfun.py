"""Generating functions over folded paths and the Laurent polynomial ring."""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from alcovepaths.lattice import neg, sub
from alcovepaths import weylgroup as wg
from alcovepaths import affine as af
from alcovepaths.affine import ExtAffineElt
from alcovepaths import paths as pth
from alcovepaths import genfun as gf
from alcovepaths import identities as ids
from alcovepaths.genfun import LaurentPoly
from conftest import datum_and_graph, datum_of, graph_of, length_zero_elements


# --- polynomial ring -----------------------------------------------------

def _poly(terms):
    return LaurentPoly(dict(terms))


coeffs = st.integers(min_value=-5, max_value=5)
keys = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(0, 4)
)
polys = st.dictionaries(keys, coeffs, max_size=6).map(_poly)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly()


@given(polys)
@settings(max_examples=30, deadline=None)
def test_ring_units(a):
    one = LaurentPoly.monomial((0, 0))
    zero = LaurentPoly()
    assert a * one == a
    assert a + zero == a
    assert a.scale(3) == a + a + a
    assert gf.evaluate(a) == sum(a.terms.values())


@given(polys, st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
@settings(max_examples=30, deadline=None)
def test_shift_is_monomial_multiplication(a, mu):
    assert gf.shift(a, mu) == a * LaurentPoly.monomial(mu)


def test_poly_basics():
    zero = LaurentPoly()
    assert not zero
    assert repr(zero) == "0"
    p = LaurentPoly.monomial((1, -2), 3, 2)
    assert repr(p) == "2*x1^1*x2^-2*q^3"
    assert gf.to_json(p) == '[{"x": [1, -2], "q": 3, "c": 2}]'
    # zero coefficients are dropped
    assert LaurentPoly({((0, 0), 0): 0}) == zero
    assert p - p == zero


def test_w0_twist_involution():
    d = datum_of("A", 2)
    p = LaurentPoly.monomial((1, 0)) + LaurentPoly.monomial((0, -1), 2)
    assert gf.w0_twist(d, gf.w0_twist(d, p)) == p
    # w0 in A2 maps omega_1 to -omega_2
    assert gf.w0_twist(d, LaurentPoly.monomial((1, 0))) == LaurentPoly.monomial((0, -1))


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7),
    ("E", 8), ("F", 4), ("G", 2),
])
def test_w0_twist_matches_the_weyl_action(family, rank):
    # oracle: w0 acting on each weight through the coroot permutation
    d = datum_of(family, rank)
    w0 = wg.longest_element(d)
    weights = [(1,) * rank, tuple(range(rank)), tuple(j % 3 - 1 for j in range(rank))]
    for j in range(1, rank + 1):
        omega = d.fundamental_weight(j)
        weights += [omega, tuple(-x for x in omega)]
    p = LaurentPoly({(w, q): q + 1 for q, w in enumerate(weights)})
    assert gf.w0_twist(d, p) == LaurentPoly(
        {(wg.act_weight(w0, w), q): q + 1 for q, w in enumerate(weights)})


# --- the path generating function ----------------------------------------

def test_c_function_a1_fixtures():
    d = datum_of("A", 1)
    g = graph_of("A", 1)
    t = af.translation(d, (-1,))
    e = af.ext_identity(d)
    w0 = ExtAffineElt((0,), wg.longest_element(d))
    assert gf.c_function(d, g, e, t) == _poly({((-1,), 0): 1, ((1,), 0): 1})
    assert gf.c_function(d, g, w0, t) == _poly({((1,), 0): 1, ((-1,), 1): 1})


def test_c_function_empty_word():
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    u = ExtAffineElt((2, -1), wg.simple_reflection(d, 1))
    t0 = af.translation(d, (0, 0))
    assert gf.c_function(d, g, u, t0) == LaurentPoly.monomial((2, -1))


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (-1, -1)), ("C", 2, (-1, -1)), ("G", 2, (-1, 0)),
])
def test_c_function_word_independence(family, rank, lam):
    # at anti-dominant lam and at its dominant negative the value does not
    # depend on the reduced word: the lambda-chain's word gives the same C_e
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    e = af.ext_identity(d)
    for mu in (lam, neg(lam)):
        t = af.translation(d, mu)
        pi, word = af.word_for_translation(d, mu)
        # the chain's word is a reduced word for the pi-stripped part
        assert af.from_word_ext(d, word, pi) == t
        alt = gf.c_function(d, g, af.multiply(e, pi), af.from_word_ext(d, word),
                            word=word)
        assert alt == gf.c_function(d, g, e, t)


@pytest.mark.parametrize("family,rank,lam,by_smallest,by_chain", [
    ("A", 2, (-1, 2), 8, 12), ("C", 2, (-1, 2), 12, 20),
    ("C", 3, (-1, 0, 1), 20, 28),
])
def test_c_function_depends_on_the_word_at_mixed_sign(
        family, rank, lam, by_smallest, by_chain):
    # word independence is claimed for dominant and anti-dominant lam only:
    # at this mixed-sign weight the words of reduced_word_ext and of the
    # lambda-chain give different C_u; the counts are those of the first u
    # (in vertex order) where they differ, u = e in rank two and
    # u = s_3 s_2 in C3
    d, g = datum_and_graph(family, rank)
    t = af.translation(d, lam)
    pi, smallest = af.reduced_word_ext(d, t)
    pi_chain, chain = af.word_for_translation(d, lam)
    # both are reduced words of the same x, t_lam = pi x
    assert pi_chain == pi and chain != smallest
    counts = ([gf.evaluate(gf.c_function(d, g, ExtAffineElt((0,) * rank, v), t,
                                         word=word)) for word in (smallest, chain)]
              for v in g.vertices)
    assert next(c for c in counts if c[0] != c[1]) == [by_smallest, by_chain]


def _walked(*args):
    raise AssertionError("a fold table was filled")


def test_word_choice_refuses_a_mixed_sign_weight(monkeypatch):
    # the checker claims nothing at a mixed-sign lam (above): it refuses lam
    # as given, before any fold table
    monkeypatch.setattr(pth, "fold_tables", _walked)
    with pytest.raises(ValueError, match=re.escape("anti-dominant: (-1, 2)")):
        list(ids.word_choice(*datum_and_graph("A", 2), [(0, -1), (-1, 2)]))


def test_shift_equivariance():
    # C_{t_mu u}^w = x^mu * C_u^w, for every u
    mus = [(1, 0), (0, -1), (2, -1)]
    assert list(ids.shift(*datum_and_graph("A", 2), (-1, 0), mus)) == []


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("C", 2)])
def test_twisted_translation_invariance(family, rank):
    # For a length-zero pi, C_u^{pi w} = x^{wt(u pi)} C_{dir(u pi)}^w.
    # The plain form C_u^{pi w} = C_u^w is false: already in rank one,
    # C_id over s_0 is x^2 + q while C_id over pi s_0 = t_{-omega} is
    # x^{-1} + x.
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    pis = length_zero_elements(d)
    assert pis, "every listed type has nontrivial length-zero elements"
    lam = (-1,) * rank
    w = af.translation(d, lam)
    _, word = af.reduced_word_ext(d, w)
    for pi in pis:
        for uw in [(), (1,)]:
            u = ExtAffineElt((0,) * rank, wg.from_word(d, uw))
            upi = af.multiply(u, pi)
            lhs = gf.c_function(d, g, u, af.multiply(pi, w), word=word)
            rhs = gf.shift(
                gf.c_function(
                    d, g, ExtAffineElt((0,) * rank, upi.dir), w, word=word
                ),
                upi.wt,
            )
            assert lhs == rhs


def test_plain_translation_invariance_fails():
    # the rank-one counterexample pinned in the twisted test's note
    d = datum_of("A", 1)
    g = graph_of("A", 1)
    e = af.ext_identity(d)
    s0 = af.affine_simple_reflection(d, 0)
    pi = ExtAffineElt((1,), wg.longest_element(d))
    assert af.length_ext(d, pi) == 0
    c_s0 = gf.c_function(d, g, e, s0)
    c_pis0 = gf.c_function(d, g, e, af.multiply(pi, s0))
    assert c_s0 == _poly({((2,), 0): 1, ((0,), 1): 1})
    assert c_pis0 == _poly({((-1,), 0): 1, ((1,), 0): 1})
    assert c_s0 != c_pis0


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2)])
def test_recursion_derives_each_word_once(family, rank, monkeypatch):
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    lams = [(0, 0), (-1, 0), (-1, -1)]
    derive = af.reduced_word_ext
    derived = []

    def counting(datum, a):
        derived.append(a.wt)
        return derive(datum, a)

    monkeypatch.setattr(af, "reduced_word_ext", counting)
    cache = {}
    checks = [
        (u, i, lam, gf.recursion_check(d, g, u, i, lam, cache))
        for u in wg.enumerate_group(d) for i in (1, 2) for lam in lams
    ]
    monkeypatch.undo()
    # the right side walks lambda_chain(lam), so only the words of the
    # lam - omega_i are derived, each once
    mus = {sub(lam, d.fundamental_weight(i)) for i in (1, 2) for lam in lams}
    assert sorted(derived) == sorted(mus)
    # the tabulated value against a single-start generating function
    zero = (0,) * rank
    for u, i, lam, (lhs, rhs, ok) in checks:
        mu = sub(lam, d.fundamental_weight(i))
        assert ok
        assert lhs == gf.c_function(
            d, g, ExtAffineElt(zero, u), af.translation(d, mu)
        )


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_recursion_lhs_is_the_c_function(family, rank):
    # the left side against the unmemoized walk from u t_mu; clearing a
    # returned side must leave the cache, and so a repeated call, as it was
    d, g = datum_of(family, rank), graph_of(family, rank)
    cache = {}
    for lam in itertools.product((0, -1), repeat=rank):
        for i in range(1, rank + 1):
            t_mu = af.translation(d, sub(lam, d.fundamental_weight(i)))
            betas = af.beta_sequence(d, af.reduced_word_ext(d, t_mu)[1])
            for u in g.vertices:
                z0 = af.multiply(ExtAffineElt((0,) * rank, u), t_mu)
                want = Counter((pth.end_weight(p), pth.qwt_degree(p))
                               for p in pth.enumerate_paths(d, g, z0, betas))
                lhs, rhs, ok = gf.recursion_check(d, g, u, i, lam, cache)
                assert ok and lhs.terms == want, (lam, i, u)
                lhs.terms.clear()
                rhs.terms.clear()
                again = gf.recursion_check(d, g, u, i, lam, cache)
                assert again[2] and again[0].terms == want, (lam, i, u)


@pytest.mark.parametrize("family,rank,depth", [("A", 2, 2), ("C", 2, 2), ("G", 2, 1)])
def test_recursion_rhs_is_the_typed_path_sum(family, rank, depth):
    # the paper's peeling sum, with no fold walk over the joined chain: the
    # typed paths from u t_mu over the shifted betas, each adding
    # q^deg x^{wt(end) - dir(end)(lam)} times C_{dir(end)}^{t_lam}
    d, g = datum_of(family, rank), graph_of(family, rank)
    zero, cache = (0,) * rank, {}
    for lam in itertools.product(range(0, -depth - 1, -1), repeat=rank):
        t_lam = af.translation(d, lam)
        c_lam = {v: gf.c_function(d, g, ExtAffineElt(zero, v), t_lam)
                 for v in g.vertices}
        for i in range(1, rank + 1):
            betas = af.shifted_beta(d, i, lam)
            mu = sub(lam, d.fundamental_weight(i))
            for u in g.vertices:
                z0 = ExtAffineElt(wg.act_weight(u, mu), u)
                want = LaurentPoly()
                for p in pth.enumerate_paths(d, g, z0, betas):
                    end = p.ends[-1]
                    offset = sub(end.wt, wg.act_weight(end.dir, lam))
                    want = want + LaurentPoly.monomial(
                        offset, pth.qwt_degree(p)) * c_lam[end.dir]
                _, rhs, ok = gf.recursion_check(d, g, u, i, lam, cache)
                assert ok and rhs == want, (lam, i, u)


def test_recursion_right_table_shares_the_left_dicts():
    # a passing check stores one dict per vertex: the right table holds the
    # left table's own dicts, so the cache is no larger than the left side's
    d, g = datum_and_graph("A", 2)
    lams = list(itertools.product((0, -1, -2), repeat=2))
    cache = {}
    for u in g.vertices:
        for i in (1, 2):
            for lam in lams:
                assert gf.recursion_check(d, g, u, i, lam, cache)[2]
    for i in (1, 2):
        for lam in lams:
            left = cache[sub(lam, d.fundamental_weight(i))]
            right = cache[i, lam]
            assert right.keys() == left.keys()
            assert all(right[v] is left[v] for v in left), (i, lam)


def test_recursion_sides_share_no_dict_with_the_cache():
    # changing a returned side changes neither the cache nor a later call,
    # after a miss on mu (both sequences walked in one call) and after a
    # hit on mu (only the right side walked): mu = (-1, -1) is reached
    # from i = 1, lam = (0, -1) and again from i = 2, lam = (-1, 0)
    d, g = datum_and_graph("A", 2)
    cache = {}
    for u in g.vertices:
        for i in (1, 2):
            for lam in itertools.product((0, -1), repeat=2):
                lhs, rhs, ok = gf.recursion_check(d, g, u, i, lam, cache)
                assert ok
                before = {k: {v: dict(t) for v, t in c.items()}
                          for k, c in cache.items()}
                want = dict(lhs.terms), dict(rhs.terms)
                lhs.terms[(0, 0), 99] = 1
                rhs.terms.clear()
                again = gf.recursion_check(d, g, u, i, lam, cache)
                assert cache == before, (u, i, lam)
                assert (again[0].terms, again[1].terms) == want, (u, i, lam)


def _typed_paths(d, g, i, lam):
    """Paths over the shifted betas of omega_i, started at t_{lam - omega_i}."""
    t = af.translation(d, sub(lam, d.fundamental_weight(i)))
    return list(pth.enumerate_paths(d, g, t, af.shifted_beta(d, i, lam)))


def test_recursion_collapses_at_zero():
    # at lam = 0 the right side reduces to the bare typed-path sum
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    u = wg.identity(d)
    lhs, rhs, ok = gf.recursion_check(d, g, u, 1, (0, 0))
    assert ok
    direct = LaurentPoly()
    for p in _typed_paths(d, g, 1, (0, 0)):
        direct = direct + LaurentPoly.monomial(pth.end_weight(p), pth.qwt_degree(p))
    assert direct == lhs


@pytest.mark.parametrize("lam", [(1, 0), (-1, 1)])
def test_recursion_check_refuses_a_weight_before_any_walk(monkeypatch, lam):
    # the error names lam itself, and no fold table is filled first
    d, g = datum_and_graph("A", 2)
    monkeypatch.setattr(pth, "fold_tables", _walked)
    with pytest.raises(ValueError, match=re.escape(f"not anti-dominant: {lam}")):
        gf.recursion_check(d, g, wg.identity(d), 1, lam)


def test_c_function_refuses_a_translation_of_another_rank():
    # with an explicit word, w's weight is read only to find the start
    d, g = datum_and_graph("A", 2)
    e = wg.identity(d)
    t = af.translation(d, (-1, 0))
    word = af.reduced_word_ext(d, t)[1]
    u = ExtAffineElt((0, 0), e)
    assert gf.c_function(d, g, u, ExtAffineElt((-1, 0), e), word=word)
    with pytest.raises(ValueError, match="length-2"):
        gf.c_function(d, g, u, ExtAffineElt((-1,), e), word=word)


def test_typed_paths_structure():
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    out = _typed_paths(d, g, 1, (0, 0))
    assert len(out) == 3
    for p in out:
        assert p.start == af.translation(d, (-1, 0))
        assert pth.qwt_degree(p) >= 0
