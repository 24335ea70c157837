"""
One checker per headline identity.

Each checker takes a root datum, its quantum Bruhat graph and the cases to
run (any iterable), and yields one JSON-ready record per failing case,
naming the type and the inputs of that case; an identity that holds yields
nothing.  ``SUITES`` lists the small-rank cases of ``alcovepaths verify``.
Every identity check lives here together with its independent oracle:
Lenart's one-line edge rules in types A and C, against the graph's one
edge rule in ``qbg``, and the cominuscule twist, against the two
specializations of ``macdonald``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .lattice import add, neg, sub
from . import weylgroup as wg
from . import affine as af
from .affine import ExtAffineElt
from . import qbg
from . import paths as pth
from . import genfun as gf
from . import macdonald as mac

__all__ = ["shift", "recursion", "w0_inversion", "lenart", "beta",
           "word_choice", "dual_route", "twist", "cominuscule_indices", "SUITES"]


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


def _one_line(datum, w) -> tuple:
    """One-line notation of w, in type A or C, from any reduced word.

    Type A permutes 1..n+1.  Type C permutes 1..n, bar(n)..bar(1), with
    bar(i) encoded as 2n+1-i, so the alphabet order is the integer order
    and position bar(i) is position 2n+1-i; ``s_i`` with ``i < n`` also
    swaps the mirrored positions bar(i+1) and bar(i).
    """
    n, c = datum.rank, datum.family == "C"
    p = list(range(1, 2 * n + 1 if c else n + 2))
    for i in wg.smallest_words(datum)[w]:
        p[i - 1], p[i] = p[i], p[i - 1]
        if c and i < n:
            p[-i - 1], p[-i] = p[-i], p[-i - 1]
    return tuple(p)


def _window(p, i, j):
    """Kind of the edge that swaps positions i < j of the one-line p, or
    None: no letter strictly between them lies on the circle of ``len(p)``
    letters from p_i to p_j.  Quantum when p_i > p_j."""
    a, b, m = p[i - 1], p[j - 1], len(p)
    if any((c - a) % m < (b - a) % m for c in p[i:j - 1]):
        return None
    return qbg.QUANTUM if a > b else qbg.BRUHAT


def _sum_window(p, i, j):
    """Kind of type C's edge of e_i + e_j, which swaps positions (i, bar j)
    and (j, bar i), or None: a Bruhat cover exactly when p_i < p_bar(j) and
    no letter strictly between positions i and bar(j), nor p_bar(i), lies
    between those two values; this class has no quantum edges."""
    a, b = p[i - 1], p[-j]
    if a < b and not any(a < c < b for c in p[i:-j]) and not a < p[-i] < b:
        return qbg.BRUHAT
    return None


def lenart(datum, graph):
    """Lenart's one-line edge rules (types A and C) give the graph's edges.

    Type A's root e_i - e_j and type C's class 1 (e_i - e_j) and class 3
    (2 e_i) read the window from position i to j, or to bar(i); class 2
    (e_i + e_j) has its own rule.  Each element's one-line notation is
    computed once.  Other types are refused before any vertex is read.
    """
    n = datum.rank

    def root(i, j, twice=0):
        # e_i - e_j, plus 2 e_j when ``twice``; type C's 2 e_i is j = i
        return tuple(int(i <= k < j) + twice * (2 * int(j <= k < n) + int(k == n))
                     for k in range(1, n + 1))
    if datum.family == "A":
        cases = [((i, j), _window, (i, j), root(i, j))
                 for i, j in itertools.combinations(range(1, n + 2), 2)]
    elif datum.family == "C":
        cases = [((cls, i, j), rule, (i, j), root(i, j, cls - 1))
                 for i, j in itertools.combinations(range(1, n + 1), 2)
                 for cls, rule in ((1, _window), (2, _sum_window))]
        cases += [((3, i), _window, (i, 2 * n + 1 - i), root(i, i, 1))
                  for i in range(1, n + 1)]
    else:
        raise ValueError(f"Lenart's rules cover types A and C, not {datum.family}")
    labels = [(case, rule, at, datum.coroot_of_root(r)) for case, rule, at, r in cases]
    for w in graph.vertices:
        p = _one_line(datum, w)
        for case, rule, at, label in labels:
            if rule(p, *at) != qbg.edge_kind(graph, w, label):
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

    All the words of one lam are walked in one ``paths.fold_tables`` call
    from the starts ``{v: v(lam)}`` over every vertex.  Against the word of
    ``reduced_word_ext`` go ``affine.lambda_chain(lam)`` and, for each j
    with ``lam_j < 0``, the lexicographic chain ``shifted_beta(j, lam +
    omega_j)`` followed by the betas of ``t_{lam + omega_j}``;
    ``shifted_beta`` needs anti-dominant lam, so at a dominant lam the
    chain is the only other word.  A table equal to the reference is the
    reference's own dict, so only the others are compared term by term.
    A failure names the word's source and the first u whose table differs.
    A lam of mixed signs is refused with a ValueError before any walk.
    """
    def betas(mu):
        return af.beta_sequence(
            datum, af.reduced_word_ext(datum, af.translation(datum, mu))[1])
    lams = [tuple(lam) for lam in lams]
    if mixed := [lam for lam in lams if min(lam) < 0 < max(lam)]:
        raise ValueError(f"weight is neither dominant nor anti-dominant: {mixed[0]!r}")
    for lam in lams:
        starts = {v: wg.act_weight(v, lam) for v in graph.vertices}
        sources = [("lambda_chain", af.lambda_chain(datum, lam))]
        for j in range(1, datum.rank + 1):
            if lam[j - 1] < 0:
                up = add(lam, datum.fundamental_weight(j))
                sources.append(
                    (f"lex_chain={j}", af.shifted_beta(datum, j, up) + betas(up)))
        want, *tables = pth.fold_tables(
            datum, graph, starts, [betas(lam), *(seq for _, seq in sources)])
        for (source, _), got in zip(sources, tables):
            u = next((v for v in graph.vertices
                      if got[v] is not want[v] and got[v] != want[v]), None)
            if u is not None:
                yield _failure(datum, lam=list(lam), source=source,
                               u=_word(datum, u))


def dual_route(datum, graph, lams):
    """The two ``t = infinity`` routes of ``specialization_report`` agree."""
    for lam in lams:
        if not mac.specialization_report(datum, graph, lam).agree:
            yield _failure(datum, lam=list(lam))


def cominuscule_indices(datum) -> tuple:
    """Fundamental indices whose simple root has coefficient 1 in the highest root."""
    return tuple(i for i, c in enumerate(datum.highest_root(), 1) if c == 1)


def _root_coords(datum, mu):
    """Root-basis coordinates of a weight, or None if they are not integral."""
    n = datum.rank
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(datum.cartan, mu)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    out = [row[n] for row in m]
    if any(x.denominator != 1 for x in out):
        return None
    return tuple(int(x) for x in out)


def _twisted(datum, graph, i, m) -> bool:
    """At lam = -m omega_i, the t = infinity specialization is the q-graded
    twist of the t = 0 one, and its two routes agree.

    Each monomial of ``e_zero`` sits at a weight lam + beta with beta in the
    non-negative root cone; multiplying it by q^(coefficient of alpha_i in
    beta) must give ``e_infinity``.  The anchoring at the anti-dominant
    extreme is fixed by the rank-one brute-force cases.  Both values come
    from one ``macdonald.specialization_report``.
    """
    lam = tuple(-m * x for x in datum.fundamental_weight(i))
    report = mac.specialization_report(datum, graph, lam)
    if not report.agree:
        return False
    twisted = Counter()
    for (w, q), c in report.e_zero.terms.items():
        beta = _root_coords(datum, sub(w, lam))
        if beta is None or min(beta) < 0:
            return False
        twisted[(w, q + beta[i - 1])] += c
    return gf.LaurentPoly(twisted) == report.e_inf_word


def twist(datum, graph, i, ms):
    """The cominuscule twist (``_twisted``) at ``-m omega_i`` for each m.

    An index i that is not cominuscule is refused with a ValueError before
    any specialization is computed.
    """
    if i not in cominuscule_indices(datum):
        raise ValueError(f"index {i} is not cominuscule in {datum.family}{datum.rank}")
    for m in ms:
        if not _twisted(datum, graph, i, m):
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
