"""
One checker per headline identity.

Each checker takes a root datum, its quantum Bruhat graph and the cases to
run (any iterable), and yields one JSON-ready record per failing case,
naming the type and the inputs of that case; an identity that holds yields
nothing.  ``SUITES`` lists the small-rank cases of ``alcovepaths verify``.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .lattice import add, neg
from . import weylgroup as wg
from . import affine as af
from .affine import ExtAffineElt
from . import qbg
from . import paths as pth
from . import genfun as gf
from . import macdonald as mac

__all__ = ["shift", "recursion", "w0_inversion", "lenart", "beta",
           "word_choice", "dual_route", "twist", "SUITES"]


def _failure(datum, **inputs) -> dict:
    return {"type": f"{datum.family}{datum.rank}", **inputs}


def _word(datum, w) -> list:
    return list(wg.smallest_words(datum)[w])


def shift(datum, graph, lam, mus):
    """``C_{t_mu u}^{t_lam} = x^mu C_u^{t_lam}`` for every u in W and each mu.

    The left side sums ``x^{end wt} q^{qdeg}`` over the paths of
    ``paths.enumerate_paths`` from ``t_mu u t_lam``, so it shares no code
    with ``genfun.c_function`` on the right.
    """
    mus, w = tuple(mus), af.translation(datum, lam)
    _, word = af.reduced_word_ext(datum, w)
    betas = af.beta_sequence(datum, word)
    for u in graph.vertices:
        base = gf.c_function(datum, graph, ExtAffineElt((0,) * datum.rank, u), w, word)
        for mu in mus:
            z0 = af.multiply(ExtAffineElt(tuple(mu), u), w)
            lhs = Counter((pth.end_weight(p), pth.qwt_degree(p))
                          for p in pth.enumerate_paths(datum, graph, z0, betas))
            if gf.LaurentPoly(lhs) != gf.shift(base, mu):
                yield _failure(datum, lam=list(lam), u=_word(datum, u), mu=list(mu))


def recursion(datum, graph, lams):
    """``genfun.recursion_check`` for every u in W, every i and each lam."""
    lams, cache = tuple(lams), {}
    for u in graph.vertices:
        for i in range(1, datum.rank + 1):
            for lam in lams:
                if not gf.recursion_check(datum, graph, u, i, lam, cache)[2]:
                    yield _failure(datum, u=_word(datum, u), i=i, lam=list(lam))


def w0_inversion(datum, graph):
    """``w -> w s_gamma`` is an edge iff ``w0 w s_gamma -> w0 w`` is, same kind.

    ``w0 w s_gamma`` is multiplied out, not read from the graph, so the
    check does not rest on the table the graph was built with.
    """
    w0 = wg.longest_element(datum)
    labels = [(g, wg.reflection_of(datum, g)) for g in datum.pos_coroots]
    for w in graph.vertices:
        for gamma, s in labels:
            dual = wg.multiply(w0, wg.multiply(w, s))
            if qbg.edge_kind(graph, w, gamma) != qbg.edge_kind(graph, dual, gamma):
                yield _failure(datum, w=_word(datum, w), gamma=list(gamma))


def lenart(datum, graph):
    """Lenart's one-line edge rules (types A and C) give the graph's edges."""
    n = datum.rank
    if datum.family == "A":
        rule, root = qbg.lenart_edge_typeA, qbg.typeA_root
        cases = list(itertools.combinations(range(1, n + 2), 2))
    elif datum.family == "C":
        rule, root = qbg.lenart_edge_typeC, qbg.typeC_root
        pairs = itertools.combinations(range(1, n + 1), 2)
        cases = [(cls, i, j) for i, j in pairs for cls in (1, 2)]
        cases += [(3, i) for i in range(1, n + 1)]
    else:
        raise ValueError(f"Lenart's rules cover types A and C, not {datum.family}")
    labels = [(c, datum.coroot_of_root(root(datum, *c))) for c in cases]
    for w in graph.vertices:
        for case, label in labels:
            if rule(datum, w, *case) != qbg.edge_kind(graph, w, label):
                yield _failure(datum, w=_word(datum, w), case=list(case))


def beta(datum, graph=None):
    """The layout of ``t_{-omega_i}`` is, as a multiset, the
    ``-gamma + k delta`` with ``gamma > 0`` and ``1 <= k <= <gamma, omega_i>``.

    The layout needs no graph; ``graph`` only keeps the common call form.
    """
    for i in range(1, datum.rank + 1):
        omega = datum.fundamental_weight(i)
        want = sorted((neg(g), k) for g in datum.pos_coroots
                      for k in range(1, datum.pair(g, omega) + 1))
        got = sorted((b.re, b.deg) for b in af.canonical_beta_order(datum, i))
        if got != want:
            yield _failure(datum, i=i)


def word_choice(datum, graph, lams):
    """``C_u^{t_lam}`` is the same for every u whichever reduced word of
    ``t_lam`` its paths are built from, for dominant or anti-dominant lam.

    Each word gets one ``paths.fold_table`` from the starts ``{v: v(lam)}``
    over every vertex.  Against the word of ``reduced_word_ext`` go
    ``affine.lambda_chain(lam)`` and, for each j with ``lam_j < 0``, the
    lexicographic chain ``shifted_beta(j, lam + omega_j)`` followed by the
    betas of ``t_{lam + omega_j}``; ``shifted_beta`` needs anti-dominant
    lam, so at a dominant lam the chain is the only other word.  A failure
    names the word's source and the first u whose table differs.  A lam of
    mixed signs is refused with a ValueError before any walk.
    """
    def betas(mu):
        return af.beta_sequence(
            datum, af.reduced_word_ext(datum, af.translation(datum, mu))[1])
    lams = [tuple(lam) for lam in lams]
    if mixed := [lam for lam in lams if min(lam) < 0 < max(lam)]:
        raise ValueError(f"weight is neither dominant nor anti-dominant: {mixed[0]!r}")
    for lam in lams:
        starts = {v: wg.act_weight(v, lam) for v in graph.vertices}
        want = pth.fold_table(datum, graph, starts, betas(lam))
        sources = [("lambda_chain", af.lambda_chain(datum, lam))]
        for j in range(1, datum.rank + 1):
            if lam[j - 1] < 0:
                up = add(lam, datum.fundamental_weight(j))
                sources.append(
                    (f"lex_chain={j}", af.shifted_beta(datum, j, up) + betas(up)))
        for source, seq in sources:
            got = pth.fold_table(datum, graph, starts, seq)
            u = next((v for v in graph.vertices if got[v] != want[v]), None)
            if u is not None:
                yield _failure(datum, lam=list(lam), source=source,
                               u=_word(datum, u))


def dual_route(datum, graph, lams):
    """The two ``t = infinity`` routes of ``specialization_report`` agree."""
    for lam in lams:
        if not mac.specialization_report(datum, graph, lam).agree:
            yield _failure(datum, lam=list(lam))


def twist(datum, graph, i, ms):
    """``macdonald.cominuscule_twist_check`` at ``-m omega_i`` for each m."""
    for m in ms:
        if not mac.cominuscule_twist_check(datum, graph, i, m):
            yield _failure(datum, i=i, m=m)


# suite -> (checker, cases); a case is (family, rank, *further inputs)
SUITES = {
    "shift": (shift, [("A", 2, (-1, 0), [(1, 0), (0, -1), (2, -1)])]),
    "recursion": (recursion, [(f, 2, [(0, 0), (-1, 0), (-1, -1)]) for f in "AC"]),
    "w0_inversion": (w0_inversion, [("A", 2), ("C", 2)]),
    "lenart": (lenart, [("A", 2), ("A", 3), ("C", 2)]),
    "beta": (beta, [("A", 2), ("C", 2), ("G", 2)]),
    "word_choice": (word_choice, [
        (f, 2, [*itertools.product((0, -1), repeat=2), (0, 1), (1, 0), (1, 1)])
        for f in "ACG"
    ]),
    "dual_route": (dual_route, [
        ("A", r, list(itertools.product((-1, 0), repeat=r))) for r in (1, 2)
    ]),
    "twist": (twist, [("A", 1, 1, [1, 2]), ("A", 2, 1, [1]), ("A", 2, 2, [1]),
                      ("C", 2, 2, [1])]),
}
