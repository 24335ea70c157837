"""
Exact Laurent polynomials in (x, q) and the path generating function.

The generating function attached to a pair (u, w) of extended affine
elements sums ``x^{wt(end)} q^{qwt-degree}`` over the admissible folded
paths built from a reduced word of w, started at u*w.  The one-step
recursion that peels off one ``t_{-omega_i}`` factor is checked with two
fold walks for t_{lam - omega_i}, from the same starts: one over its
derived word, one over the shifted fundamental betas followed by the
lambda-chain of lam.
"""

from __future__ import annotations

import json

from .lattice import RootDatum, add, sub
from . import weylgroup as wg
from .weylgroup import WeylElt
from . import affine as af
from .affine import ExtAffineElt
from .qbg import QuantumBruhatGraph
from . import paths as pth

__all__ = [
    "LaurentPoly", "c_function", "recursion_check",
    "shift", "w0_twist", "evaluate", "term_records", "to_json",
]


class LaurentPoly:
    """Integer Laurent polynomial; terms map (weight, q-exponent) -> coeff."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def _adopt(cls, terms: dict) -> "LaurentPoly":
        """The polynomial with the dict ``terms`` itself, not a filtered
        copy: every coefficient in it must be nonzero."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def monomial(cls, weight, qexp: int = 0, coeff: int = 1) -> "LaurentPoly":
        return cls({(tuple(weight), qexp): coeff})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict = {}
        for (w1, q1), c1 in self.terms.items():
            for (w2, q2), c2 in other.terms.items():
                k = (add(w1, w2), q1 + q2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out)

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly({k: c * v for k, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (w, q), c in self.sorted_terms():
            mono = [f"x{i + 1}^{e}" for i, e in enumerate(w) if e]
            if q:
                mono.append(f"q^{q}")
            if c != 1 or not mono:
                mono.insert(0, str(c))
            bits.append("*".join(mono))
        return " + ".join(bits)


def shift(poly: LaurentPoly, mu) -> LaurentPoly:
    """Multiply by the monomial x^mu."""
    mu = tuple(mu)
    return LaurentPoly({(add(w, mu), q): c for (w, q), c in poly.terms.items()})


def w0_twist(datum: RootDatum, poly: LaurentPoly) -> LaurentPoly:
    """Apply the longest element to every x-exponent, leaving q alone: w0
    sends omega_j to -omega_sigma(j), sigma an involution as w0 is; sigma
    is built once per datum."""
    def build():
        w0 = wg.longest_element(datum)
        return tuple(wg.act_weight(w0, datum.fundamental_weight(j)).index(-1)
                     for j in range(1, datum.rank + 1))
    sigma = datum.memoized("w0_sigma", build)
    return LaurentPoly(
        {(tuple(-w[s] for s in sigma), q): c for (w, q), c in poly.terms.items()}
    )


def evaluate(poly: LaurentPoly) -> int:
    """The value at x = 1, q = 1, i.e. the sum of all coefficients."""
    return sum(poly.terms.values())


def term_records(poly: LaurentPoly) -> list:
    """One ``{"x": weight, "q": q-exponent, "c": coefficient}`` per term, sorted."""
    return [{"x": list(w), "q": q, "c": c} for (w, q), c in poly.sorted_terms()]


def to_json(poly: LaurentPoly) -> str:
    return json.dumps(term_records(poly))


def c_function(
    datum: RootDatum,
    graph: QuantumBruhatGraph,
    u: ExtAffineElt,
    w: ExtAffineElt,
    word=None,
) -> LaurentPoly:
    """Generating function over folded paths of the beta type of w.

    The word is derived from w unless an explicit reduced word is passed.
    For a translation by a dominant or anti-dominant weight the value does
    not depend on the choice (``identities.word_choice`` checks this); at
    some mixed-sign weights it does.  The paths start at u*w and are
    counted by ``paths.fold_tables`` over the one sequence from the one
    start ``{dir(u*w): wt(u*w)}``, whose table is the polynomial as it
    comes out of the walk.
    """
    if word is None:
        _, word = af.reduced_word_ext(datum, w)
    z0 = af.multiply(u, w)
    betas = af.beta_sequence(datum, word)
    terms = pth.fold_tables(datum, graph, {z0.dir: z0.wt}, [betas])[0][z0.dir]
    return LaurentPoly._adopt(terms)


def recursion_check(
    datum: RootDatum,
    graph: QuantumBruhatGraph,
    u: WeylElt,
    i: int,
    lam,
    cache: dict | None = None,
):
    """One-step peeling identity for anti-dominant lam and finite u.

    The direct value C_u^{t_mu}, mu = lam - omega_i, must equal the sum,
    over typed paths, of q^{deg} * C^{t_lam}_{dir(end)} *
    x^{wt(end) - dir(end)(lam)}.  By Lenart–Postnikov that sum is the fold
    walk over the shifted fundamental betas followed by the lambda-chain
    of lam, one beta sequence of t_mu.  Returns (lhs, rhs, equal).

    ``cache`` maps mu to ``{v: C_v^{t_mu}}`` over every vertex v, the
    table over the word ``reduced_word_ext`` gives t_mu, and ``(i, lam)``
    to the same over the joined sequence, both from the starts ``{v:
    v(mu)}`` (the paths of C_v^{t_mu} start at v t_mu = t_{v(mu)} v); a
    miss fills all v.  A miss on mu walks both sequences in one
    ``paths.fold_tables`` call, which hands the second table the first's
    dict wherever the two agree; when mu is cached, the call walks only
    the joined sequence and keeps the cached dict wherever they agree.
    So a passing check stores its terms once.  The returned sides share
    no dict with the cache.  ``u`` must be a vertex of ``graph``
    (``graph.index``), and is refused before the cache is read.
    """
    datum.check_antidominant(lam)
    graph.index(u)  # refuses a non-vertex before the cache is read
    if cache is None:
        cache = {}
    lam, mu = tuple(lam), sub(lam, datum.fundamental_weight(i))
    # cache[mu] is filled before cache[i, lam], so a miss on either is a
    # miss on (i, lam), and the starts are built once for both walks
    if (i, lam) not in cache:
        starts = {v: wg.act_weight(v, mu) for v in graph.vertices}
        right = af.shifted_beta(datum, i, lam) + af.lambda_chain(datum, lam)
        if mu in cache:
            left = cache[mu]
            (table,) = pth.fold_tables(datum, graph, starts, [right])
            cache[i, lam] = {v: left[v] if left[v] == c else c
                             for v, c in table.items()}
        else:
            _, word = af.reduced_word_ext(datum, af.translation(datum, mu))
            cache[mu], cache[i, lam] = pth.fold_tables(
                datum, graph, starts, [af.beta_sequence(datum, word), right])
    lhs = LaurentPoly._adopt(dict(cache[mu][u]))
    rhs = LaurentPoly._adopt(dict(cache[i, lam][u]))
    return lhs, rhs, lhs == rhs
