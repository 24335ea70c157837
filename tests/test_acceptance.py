"""Acceptance gate: the ten headline guarantees of the package.

Each test pins one externally stated guarantee: exact counts and towers,
the one-step recursion, the two t=infinity routes, the cross-validated
edge criteria, the structural properties of the canonical coroot layout
(Lenart–Postnikov's lexicographic chain) and the independence of the
generating function from the reduced word at anti-dominant weights, the
invariance laws of the
generating function, the cominuscule twist, and non-negativity of all
specialization coefficients.  Eight of them are calls to the checkers of
``alcovepaths.identities``, and the last test shows that each checker
visits every case it is given.
"""

import itertools
import json
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from alcovepaths.lattice import neg
from alcovepaths import weylgroup as wg
from alcovepaths import affine as af
from alcovepaths.affine import AffineCoroot, ExtAffineElt
from alcovepaths import qbg
from alcovepaths import paths as pth
from alcovepaths import genfun as gf
from alcovepaths import macdonald as mac
from alcovepaths import identities as ids
from conftest import (datum_of, graph_of, length_rule_edges,
                      length_zero_elements)


def box(rank):
    """The anti-dominant weights with every coordinate in {0, -1, -2}."""
    return itertools.product(range(0, -3, -1), repeat=rank)


# 1. G2 fundamental path counts, under a second ---------------------------

def test_01_g2_fundamental_counts():
    start = time.monotonic()
    d = datum_of("G", 2)
    g = graph_of("G", 2)
    e = wg.identity(d)
    assert mac.weyl_dimension(g, e, neg(d.fundamental_weight(1))) == 15
    assert mac.weyl_dimension(g, e, neg(d.fundamental_weight(2))) == 7
    assert time.monotonic() - start < 1.0


# 2. rank-one tower: 2^n dimensions up to n = 8 ---------------------------

def test_02_a1_tower():
    start = time.monotonic()
    d = datum_of("A", 1)
    g = graph_of("A", 1)
    for sigma in wg.enumerate_group(d):
        for n in range(0, 9):
            assert mac.weyl_dimension(g, sigma, (-n,)) == 2 ** n
    assert time.monotonic() - start < 10.0


# 3. A2 tower: 3^{n1+n2} dimensions for every twist up to total 5 ---------

def test_03_a2_tower():
    start = time.monotonic()
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    for sigma in wg.enumerate_group(d):
        for n1 in range(0, 6):
            for n2 in range(0, 6 - n1):
                assert (
                    mac.weyl_dimension(g, sigma, (-n1, -n2))
                    == 3 ** (n1 + n2)
                )
    assert time.monotonic() - start < 60.0


# 4. one-step recursion, exact, over four types ---------------------------

@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("C", 2), ("A", 3), ("G", 2),
])
def test_04_recursion(family, rank):
    assert list(ids.recursion(graph_of(family, rank), box(rank))) == []


# 5. both t=infinity routes agree, exact ----------------------------------

@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("C", 2)])
def test_05_dual_route(family, rank):
    assert list(ids.dual_route(graph_of(family, rank), box(rank))) == []


# 6. the edge criteria agree with the length definition, exhaustively -----

@pytest.mark.parametrize("n", [2, 3, 4])
def test_06_edges_type_a_one_line(n):
    assert list(ids.lenart(graph_of("A", n))) == []


@pytest.mark.parametrize("n", [2, 3])
def test_06_edges_type_c_one_line(n):
    assert list(ids.lenart(graph_of("C", n))) == []


@pytest.mark.parametrize("family", ["B", "G"])
def test_06_one_line_rules_refuse_other_types(family):
    # the graph has no vertices to read: the refusal comes first
    with pytest.raises(ValueError, match=f"types A and C, not {family}$"):
        next(ids.lenart(SimpleNamespace(datum=datum_of(family, 2))))


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("C", 2), ("G", 2), ("A", 3), ("A", 4), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("F", 4),
])
def test_06_edges_obstruction_criterion(family, rank):
    # the graph is built by the criterion; the length definition gives
    # each edge's existence, kind and end independently
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    assert g.edges == length_rule_edges(d)
    assert {(w, gamma) for w in g.vertices for gamma in d.pos_coroots
            if qbg.criterion_edge(w, gamma)} == g.edges.keys()


# 7. structural properties of the canonical coroot layout ------------------

BETA_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
]


# t_{-rho} in E8 has 1240 letters, so the E types skip the concatenation
@pytest.mark.parametrize("family,rank", BETA_TYPES + [("E", 6), ("E", 7), ("E", 8)])
def test_07_beta_suite(family, rank):
    d = datum_of(family, rank)
    pos = set(d.pos_coroots)
    # the multiset of the layout; the checker reads only the graph's datum,
    # and E7 and E8 are over the group size cap
    assert list(ids.beta(SimpleNamespace(datum=d))) == []
    for i in range(1, rank + 1):
        betas = af.canonical_beta_order(d, i)

        # the layout opens with the simple coroot at degree one
        assert betas[0] == AffineCoroot(neg(d.simple_coroot(i)), 1)

        # count additivity at every entry with a split real part
        res = [neg(b.re) for b in betas]
        for j, gamma in enumerate(res):
            for tau in pos:
                eta = tuple(x - y for x, y in zip(gamma, tau))
                if eta in pos and tau <= eta:
                    pre = res[: j + 1]
                    assert pre.count(gamma) == pre.count(tau) + pre.count(eta)

        # the wall-crossing parameter deg / <gamma, omega_i> of the
        # lexicographic chain never increases along the layout
        ratios = [Fraction(b.deg, g[i - 1]) for b, g in zip(betas, res)]
        assert ratios == sorted(ratios, reverse=True), i


@pytest.mark.parametrize("family,rank", BETA_TYPES)
def test_07_beta_concatenation(family, rank):
    # the layout of t_{-omega_i} with each degree raised by <re(beta), lam>,
    # followed by the betas of a word for t_lam, is the beta sequence of a
    # reduced word of t_{lam - omega_i}
    d = datum_of(family, rank)
    lams = [neg(d.fundamental_weight(j)) for j in range(1, rank + 1)]
    lams.append((-1,) * rank)
    for lam in lams:
        _, w_lam = af.reduced_word_ext(d, af.translation(d, lam))
        tail = af.beta_sequence(d, w_lam)
        for i in range(1, rank + 1):
            shifted = af.shifted_beta(d, i, lam)
            assert shifted == tuple(
                AffineCoroot(b.re, b.deg + d.pair(b.re, lam))
                for b in af.canonical_beta_order(d, i)
            )
            elt, word = af.word_from_beta(d, shifted + tail)
            target = af.translation(
                d, tuple(l - o for l, o in zip(lam, d.fundamental_weight(i)))
            )
            assert af.length_ext(af.multiply(target, af.inverse(elt))) == 0
            assert len(word) == af.length_ext(target)


def _omega_pm(rank, *indices):
    """``-omega_i`` and ``omega_i`` for each index i."""
    lams = [tuple(-int(j == i) for j in range(1, rank + 1)) for i in indices]
    return lams + [neg(lam) for lam in lams]


# the F4 cases are the two layouts on which the lexicographic chain and the
# earlier layout search disagree; each case has dominant weights too
@pytest.mark.parametrize("family,rank,lams", [
    ("A", 3, _omega_pm(3, 1, 2, 3)),
    ("B", 3, _omega_pm(3, 1, 2, 3)),
    ("C", 3, _omega_pm(3, 1, 2, 3)),
    ("G", 2, [*box(2), *map(neg, box(2))]),
    ("F", 4, _omega_pm(4, 2, 3)),
], ids=["A3", "B3", "C3", "G2", "F4"])
def test_07_word_choice(family, rank, lams):
    assert list(ids.word_choice(graph_of(family, rank), lams)) == []


# 8. invariance laws of the generating function ----------------------------

@pytest.mark.parametrize("family", "ACG")
def test_08_translation_shift(family):
    # G2 has a root-weight coordinate of 3, so its start weights are the
    # largest the weighted decode adds
    mus = [(1, 0), (0, -1), (2, -1)]
    assert list(ids.shift(graph_of(family, 2), (-1, -1), mus)) == []


def test_08_length_zero_invariance():
    # The invariance under a length-zero left factor pi holds in the
    # weight-twisted form C_u^{pi w} = x^{wt(u pi)} C_{dir(u pi)}^w.  The
    # bare untwisted equation printed in one reference statement fails on
    # every nontrivial instance (rank one: C over s_0 is x^2 + q while C
    # over pi s_0 = t_{-omega} is x^{-1} + x), so the twisted form is the
    # one pinned here.
    for family, rank in [("A", 1), ("A", 2), ("C", 2)]:
        d = datum_of(family, rank)
        g = graph_of(family, rank)
        pis = length_zero_elements(d)
        assert pis
        w = af.translation(d, (-1,) * rank)
        _, word = af.reduced_word_ext(d, w)
        for pi in pis:
            for u in wg.enumerate_group(d):
                u_ext = ExtAffineElt((0,) * rank, u)
                upi = af.multiply(u_ext, pi)
                lhs = gf.c_function(g, u_ext, af.multiply(pi, w), word=word)
                rhs = gf.shift(
                    gf.c_function(
                        g, ExtAffineElt((0,) * rank, upi.dir), w, word=word
                    ),
                    upi.wt,
                )
                assert lhs == rhs, (family, rank, pi, wg.reduced_word(u))


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("C", 2), ("G", 2),
    ("B", 3), ("C", 3), ("D", 4), ("F", 4),
])
def test_08_w0_inversion(family, rank):
    assert list(ids.w0_inversion(graph_of(family, rank))) == []


# 9. cominuscule twist relates the two specializations --------------------

@pytest.mark.parametrize("family,rank,i,mmax", [
    ("A", 1, 1, 4), ("A", 2, 1, 3), ("A", 2, 2, 3), ("C", 2, 2, 2),
])
def test_09_cominuscule_twist(family, rank, i, mmax):
    assert list(ids.twist(graph_of(family, rank), i, range(1, mmax + 1))) == []


# 10. all specialization coefficients are non-negative integers -----------

def test_10_non_negativity():
    sweeps = [
        ("A", 1, [(-n,) for n in range(0, 9)]),
        ("A", 2, list(itertools.product(range(0, -3, -1), repeat=2))),
        ("C", 2, list(itertools.product(range(0, -3, -1), repeat=2))),
        ("A", 3, [(-1, 0, 0), (0, -1, 0), (-1, -1, -1)]),
        ("G", 2, [(-1, 0), (0, -1), (-1, -1)]),
    ]
    for family, rank, lams in sweeps:
        d = datum_of(family, rank)
        g = graph_of(family, rank)
        for lam in lams:
            for poly in (mac.e_zero(d, g, lam), mac.e_infinity(d, g, lam)):
                for (weight, qexp), coeff in poly.terms.items():
                    assert isinstance(coeff, int) and coeff > 0, (
                        family, rank, lam, weight, qexp, coeff
                    )
                    assert qexp >= 0


# the checkers visit every case: with the predicate a checker relies on made
# to fail, it yields one record per case, each naming distinct inputs -------

@pytest.mark.parametrize("name,patch,family,rank,inputs,cases", [
    ("shift", (gf, "shift", lambda poly, mu: gf.LaurentPoly()), "A", 2,
     ((-1, -1), iter([(1, 0), (0, -1), (2, -1)])), 6 * 3),
    ("recursion", (gf, "recursion_check", lambda *a: (None, None, False)),
     "A", 2, (box(2),), 6 * 2 * 9),
    ("w0_inversion", (qbg, "edge_kind", lambda *a: object()), "A", 3, (), 24 * 6),
    ("lenart", (qbg, "edge_kind", lambda *a: object()), "A", 3, (), 24 * 6),
    ("lenart", (qbg, "edge_kind", lambda *a: object()), "C", 2, (), 8 * 4),
    ("beta", (af, "canonical_beta_order", lambda d, i: ()), "G", 2, (), 2),
    ("dual_route", (mac, "specialization_report",
                    lambda *a: SimpleNamespace(agree=False)), "C", 2, (box(2),), 9),
    ("twist", (ids, "_twisted", lambda *a: False), "A", 2,
     (1, range(1, 4)), 3),
    # every fold table differs from every other; at {0, -1}^2 the words
    # besides the reference number 1, 2, 2 and 3: the lambda-chain at each
    # weight, and one lexicographic chain per negative coordinate
    ("word_choice", (pth, "fold_tables",
                     lambda g, starts, seqs, n=itertools.count():
                     [dict.fromkeys(starts, next(n)) for _ in seqs]),
     "G", 2, (itertools.product((0, -1), repeat=2),), 8),
])
def test_checkers_yield_one_record_per_failing_case(
    monkeypatch, name, patch, family, rank, inputs, cases
):
    monkeypatch.setattr(*patch)
    records = list(getattr(ids, name)(graph_of(family, rank), *inputs))
    assert len(records) == cases
    assert len({json.dumps(r, sort_keys=True) for r in records}) == cases
    assert {r["type"] for r in records} == {f"{family}{rank}"}
