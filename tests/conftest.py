"""Shared fixtures and helpers: root data and quantum Bruhat graphs are
expensive to rebuild, so they are cached per type for the whole session."""

import io
from functools import lru_cache

import pytest

from alcovepaths.lattice import build_datum, dot, neg
from alcovepaths import weylgroup as wg
from alcovepaths import affine as af
from alcovepaths import qbg
from alcovepaths import macdonald as mac

# every simple type of rank at most 8, each once
TYPES_UP_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@lru_cache(maxsize=None)
def datum_of(family: str, rank: int):
    return build_datum(family, rank)


@lru_cache(maxsize=None)
def graph_of(family: str, rank: int):
    return qbg.build(datum_of(family, rank))


def written(export, *args) -> str:
    """What ``export(*args, out)`` writes to the text stream ``out``."""
    out = io.StringIO()
    export(*args, out)
    return out.getvalue()


def datum_and_graph(family: str, rank: int):
    """The datum and the graph of one type, the first two checker inputs."""
    return datum_of(family, rank), graph_of(family, rank)


def length_zero_elements(d):
    """The elements ``t_mu v`` of length zero with ``mu = +-omega_i``."""
    return [
        af.ExtAffineElt(mu, v)
        for i in range(1, d.rank + 1)
        for mu in (d.fundamental_weight(i), neg(d.fundamental_weight(i)))
        for v in wg.enumerate_group(d)
        if af.length_ext(d, af.ExtAffineElt(mu, v)) == 0
    ]


def two_rho(d):
    """2 rho, the sum of the positive roots, as a weight."""
    return tuple(map(sum, zip(*d.root_weights[:len(d.pos_coroots)])))


def length_rule_edges(d, elements=None):
    """The graph's edges out of ``elements`` (all of W by default) by their
    definition, ``{(w, gamma): (kind, w s_gamma)}``: Bruhat when the length
    goes up by one, quantum when it drops by ``<2 rho, gamma> - 1``.  Every
    length is counted afresh."""
    rho2 = two_rho(d)
    edges = {}
    for w in wg.enumerate_group(d) if elements is None else elements:
        lw = wg.length(d, w)
        for gamma in d.pos_coroots:
            ws = wg.multiply(w, wg.reflection_of(d, gamma))
            step = wg.length(d, ws) - lw
            if step == 1:
                edges[(w, gamma)] = (qbg.BRUHAT, ws)
            elif step == 1 - dot(gamma, rho2):
                edges[(w, gamma)] = (qbg.QUANTUM, ws)
    return edges


def reflect_weight(datum, i, lam):
    """``s_i(lam) = lam - lam_i alpha_i`` from the Cartan matrix alone;
    coordinate j of alpha_i is ``<alpha_j^vee, alpha_i> = cartan[j][i - 1]``."""
    return tuple(x - lam[i - 1] * row[i - 1] for x, row in zip(lam, datum.cartan))


@pytest.fixture
def datum():
    return datum_of


@pytest.fixture
def graph():
    return graph_of


@pytest.fixture
def disagreeing_routes(monkeypatch):
    """Make the two t=infinity routes disagree: the reversal route's value
    comes back doubled."""
    routes = mac._e_inf_routes

    def disagree(*args, **kwargs):
        by_word, by_reversal = routes(*args, **kwargs)
        return by_word, by_reversal + by_reversal
    monkeypatch.setattr(mac, "_e_inf_routes", disagree)
