"""Specializations, characters, dimensions, and the cominuscule twist."""

import itertools
import json
from fractions import Fraction

import pytest

from alcovepaths.lattice import dot, neg
from alcovepaths import weylgroup as wg
from alcovepaths import macdonald as mac
from alcovepaths import identities as ids
from alcovepaths.genfun import LaurentPoly
from conftest import datum_and_graph, datum_of, graph_of, reflect_weight


def _poly(terms):
    return LaurentPoly(dict(terms))


def test_a1_fixtures():
    d = datum_of("A", 1)
    g = graph_of("A", 1)
    assert mac.e_zero(d, g, (-1,)) == _poly({((-1,), 0): 1, ((1,), 0): 1})
    assert mac.e_infinity(d, g, (-1,)) == _poly({((-1,), 0): 1, ((1,), 1): 1})
    assert mac.e_zero(d, g, (-2,)) == _poly({
        ((-2,), 0): 1, ((2,), 0): 1, ((0,), 0): 1, ((0,), 1): 1,
    })
    assert mac.e_infinity(d, g, (-2,)) == _poly({
        ((-2,), 0): 1, ((2,), 2): 1, ((0,), 1): 1, ((0,), 2): 1,
    })


def test_a2_fixtures():
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    assert mac.e_zero(d, g, (-1, 0)) == _poly({
        ((-1, 0), 0): 1, ((1, -1), 0): 1, ((0, 1), 0): 1,
    })
    assert mac.e_infinity(d, g, (-1, 0)) == _poly({
        ((-1, 0), 0): 1, ((1, -1), 1): 1, ((0, 1), 1): 1,
    })
    # the two fundamental orbits are mirror images
    assert mac.e_zero(d, g, (0, -1)) == _poly({
        ((0, -1), 0): 1, ((-1, 1), 0): 1, ((1, 0), 0): 1,
    })


def test_specializations_at_zero_weight():
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    one = LaurentPoly.monomial((0, 0))
    assert mac.e_zero(d, g, (0, 0)) == one
    assert mac.e_infinity(d, g, (0, 0)) == one


def test_dominant_weight_rejected():
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    for fn in (mac.e_zero, mac.e_infinity, mac.specialization_report):
        with pytest.raises(ValueError, match="anti-dominant"):
            fn(d, g, (1, 0))
    with pytest.raises(ValueError):
        mac.e_zero(d, g, (-1,))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("C", 2)])
def test_dual_routes_agree(family, rank):
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    for lam in itertools.product(range(-1, 1), repeat=rank):
        r = mac.specialization_report(d, g, lam)
        assert r.agree
        assert r.e_inf_word == r.e_inf_reversed
        payload = json.loads(r.to_json())
        assert payload["routes_agree"] is True
        assert payload["lam"] == list(lam)


def test_report_payload_shape():
    d = datum_of("A", 1)
    g = graph_of("A", 1)
    payload = json.loads(mac.specialization_report(d, g, (-1,)).to_json())
    assert payload["e_zero"] == [
        {"x": [-1], "q": 0, "c": 1}, {"x": [1], "q": 0, "c": 1},
    ]
    assert payload["e_infinity"] == [
        {"x": [-1], "q": 0, "c": 1}, {"x": [1], "q": 1, "c": 1},
    ]


@pytest.mark.parametrize("family,rank,lams", [
    ("A", 1, [(-1,), (-2,), (-3,)]),
    ("A", 2, [(-1, 0), (-1, -1), (-2, -1)]),
    ("C", 2, [(0, -1), (-1, -1)]),
    ("G", 2, [(-1, 0), (0, -1)]),
])
def test_coefficients_non_negative(family, rank, lams):
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    for lam in lams:
        for poly in (mac.e_zero(d, g, lam), mac.e_infinity(d, g, lam)):
            assert all(c > 0 for c in poly.terms.values())
            assert all(q >= 0 for (_, q) in poly.terms)


def test_character_at_identity_is_e_zero():
    d = datum_of("C", 2)
    g = graph_of("C", 2)
    lam = (-1, 0)
    assert mac.weyl_character(d, g, wg.identity(d), lam) == mac.e_zero(d, g, lam)


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (-1, -1)), ("C", 2, (-1, 0)), ("G", 2, (0, -1)),
])
def test_dimension_independent_of_twist(family, rank, lam):
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    dims = {
        mac.weyl_dimension(d, g, sigma, lam) for sigma in wg.enumerate_group(d)
    }
    assert len(dims) == 1


def test_fundamental_dims():
    # the path count of t_{-omega_i} started at the identity
    import math
    expected = {("G", 2): (15, 7), ("C", 2): (4, 5)}
    # in type A_n the fundamental counts are binomial coefficients
    expected.update(
        {("A", n): tuple(math.comb(n + 1, i) for i in range(1, n + 1))
         for n in (1, 2, 3)}
    )
    for (family, rank), dims in expected.items():
        d, g = datum_and_graph(family, rank)
        for i, dim in enumerate(dims, start=1):
            lam = neg(d.fundamental_weight(i))
            assert mac.weyl_dimension(d, g, wg.identity(d), lam) == dim


def _box(rank, depth):
    """Every anti-dominant weight with coordinates in ``{0, ..., -depth}``."""
    return list(itertools.product(range(0, -depth - 1, -1), repeat=rank))


# 80 anti-dominant weights: a box of each type, and F4 at 0 and each -omega_i
DEGREE_ZERO_WEIGHTS = {
    ("A", 1): _box(1, 3),
    **{(f, 2): _box(2, 2) for f in "ABC"},
    **{(f, r): _box(r, 1) for f, r in [("G", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]},
    ("F", 4): [(0,) * 4] + [tuple(-int(i == j) for j in range(4)) for i in range(4)],
}


@pytest.mark.parametrize("family,rank", sorted(DEGREE_ZERO_WEIGHTS))
def test_degree_zero_is_the_weyl_dimension(family, rank):
    # the q^0 part of e_zero(lam) is the character of V(w0 lam); its
    # dimension is the Weyl product over the positive coroots g of
    # (<w0 lam, g> + ht g) / ht g, computed from the root datum alone
    d, g = datum_and_graph(family, rank)
    w0 = wg.longest_element(d)
    for lam in DEGREE_ZERO_WEIGHTS[family, rank]:
        top = wg.act_weight(w0, lam)
        weyl = 1
        for gamma in d.pos_coroots:
            weyl *= Fraction(dot(gamma, top) + sum(gamma), sum(gamma))
        degree_zero = sum(c for (_, q), c in mac.e_zero(d, g, lam).terms.items() if q == 0)
        assert degree_zero == weyl, lam


def test_dimension_multiplicativity():
    # dim factors over the fundamental decomposition of lam
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    e = wg.identity(d)
    d10 = mac.weyl_dimension(d, g, e, (-1, 0))
    d01 = mac.weyl_dimension(d, g, e, (0, -1))
    assert mac.weyl_dimension(d, g, e, (-1, -1)) == d10 * d01
    assert mac.weyl_dimension(d, g, e, (-2, -1)) == d10 ** 2 * d01


def test_cominuscule_indices():
    assert ids.cominuscule_indices(datum_of("A", 2)) == (1, 2)
    assert ids.cominuscule_indices(datum_of("A", 3)) == (1, 2, 3)
    assert ids.cominuscule_indices(datum_of("B", 3)) == (1,)
    assert ids.cominuscule_indices(datum_of("C", 2)) == (2,)
    assert ids.cominuscule_indices(datum_of("D", 4)) == (1, 3, 4)
    assert ids.cominuscule_indices(datum_of("G", 2)) == ()


def test_cominuscule_twist_rejects_other_indices():
    d = datum_of("C", 2)
    g = graph_of("C", 2)
    with pytest.raises(ValueError, match="not cominuscule"):
        next(ids.twist(d, g, 1, [1]))


def test_mismatch_exception_payload():
    exc = mac.SpecializationMismatch(
        (-1,), LaurentPoly.monomial((0,)), LaurentPoly(),
    )
    assert exc.lam == (-1,)
    assert "disagree" in str(exc)
    assert isinstance(exc, AssertionError)


def test_e_infinity_raises_on_disagreeing_routes(disagreeing_routes):
    d, g = datum_and_graph("A", 1)
    with pytest.raises(mac.SpecializationMismatch) as info:
        mac.e_infinity(d, g, [-1])
    value = _poly({((-1,), 0): 1, ((1,), 1): 1})
    assert info.value.lam == (-1,)
    assert info.value.by_word == value
    assert info.value.by_reversal == value + value


@pytest.mark.parametrize("family,rank,depth", [
    ("A", 2, 2), ("C", 2, 2), ("G", 2, 1), ("A", 3, 1), ("B", 3, 1),
])
def test_e_zero_is_w_invariant(family, rank, depth):
    # E(lam; q, 0) at anti-dominant lam is a Weyl-symmetric polynomial; each
    # simple reflection acts on its weights by the Cartan-matrix formula
    d, g = datum_and_graph(family, rank)
    for lam in itertools.product(range(0, -depth - 1, -1), repeat=rank):
        terms = mac.e_zero(d, g, lam).terms
        for i in range(1, rank + 1):
            moved = {(reflect_weight(d, i, x), q): c for (x, q), c in terms.items()}
            assert moved == terms, (lam, i)
