"""
Specialized nonsymmetric Macdonald polynomials and Weyl module data.

For anti-dominant lam, the t=0 specialization is the generating function
started at the identity, and the t=infinity specialization is computed by
two independent routes (a twist of the longest-element value, and a
reversed-graph enumeration) that must agree.  Characters and dimensions
of generalized Weyl modules are read off the same machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .lattice import RootDatum, sub
from . import weylgroup as wg
from .weylgroup import WeylElt
from . import affine as af
from .affine import ExtAffineElt
from .qbg import QuantumBruhatGraph
from . import genfun as gf
from .genfun import LaurentPoly

__all__ = [
    "SpecializationReport", "SpecializationMismatch", "e_zero", "e_infinity",
    "specialization_report", "weyl_character", "weyl_dimension",
    "cominuscule_indices", "cominuscule_twist_check",
]


class SpecializationMismatch(AssertionError):
    """The two t=infinity routes disagreed; carries both polynomials."""

    def __init__(self, lam, by_word: LaurentPoly, by_reversal: LaurentPoly):
        self.lam = lam
        self.by_word = by_word
        self.by_reversal = by_reversal
        super().__init__(
            f"t=infinity routes disagree at {lam!r}:\n"
            f"  twisted:  {by_word!r}\n  reversed: {by_reversal!r}"
        )


@dataclass(frozen=True)
class SpecializationReport:
    lam: tuple
    e_zero: LaurentPoly
    e_inf_word: LaurentPoly
    e_inf_reversed: LaurentPoly
    agree: bool

    def to_json(self) -> str:
        return json.dumps({
            "lam": list(self.lam),
            "e_zero": gf.term_records(self.e_zero),
            "e_infinity": gf.term_records(self.e_inf_word),
            "routes_agree": self.agree,
        })


def e_zero(datum: RootDatum, graph: QuantumBruhatGraph, lam) -> LaurentPoly:
    """The t=0 specialization at anti-dominant lam."""
    return weyl_character(datum, graph, wg.identity(datum), lam)


def _e_inf_routes(datum: RootDatum, graph: QuantumBruhatGraph, t_lam, word=None):
    w0 = ExtAffineElt((0,) * datum.rank, wg.longest_element(datum))
    by_word = gf.w0_twist(datum, gf.c_function(datum, graph, w0, t_lam, word))
    by_reversal = gf.c_function(
        datum, graph.reversed, af.ext_identity(datum), t_lam, word
    )
    return by_word, by_reversal


def e_infinity(datum: RootDatum, graph: QuantumBruhatGraph, lam) -> LaurentPoly:
    """The t=infinity specialization (q-exponents as printed at q^{-1}).

    Computed by two independent routes; a disagreement raises with both
    values attached.
    """
    datum.check_antidominant(lam)
    by_word, by_reversal = _e_inf_routes(datum, graph, af.translation(datum, lam))
    if by_word != by_reversal:
        raise SpecializationMismatch(tuple(lam), by_word, by_reversal)
    return by_word


def specialization_report(
    datum: RootDatum, graph: QuantumBruhatGraph, lam
) -> SpecializationReport:
    datum.check_antidominant(lam)
    t_lam = af.translation(datum, lam)
    _, word = af.reduced_word_ext(datum, t_lam)  # one word for all three
    by_word, by_reversal = _e_inf_routes(datum, graph, t_lam, word)
    zero = gf.c_function(datum, graph, af.ext_identity(datum), t_lam, word)
    return SpecializationReport(
        lam=tuple(lam),
        e_zero=zero,
        e_inf_word=by_word,
        e_inf_reversed=by_reversal,
        agree=by_word == by_reversal,
    )


def weyl_character(
    datum: RootDatum, graph: QuantumBruhatGraph, sigma: WeylElt, lam
) -> LaurentPoly:
    """Graded character of the generalized Weyl module twisted by sigma."""
    datum.check_antidominant(lam)
    return gf.c_function(
        datum,
        graph,
        ExtAffineElt((0,) * datum.rank, sigma),
        af.translation(datum, lam),
    )


def weyl_dimension(
    datum: RootDatum, graph: QuantumBruhatGraph, sigma: WeylElt, lam
) -> int:
    return gf.evaluate(weyl_character(datum, graph, sigma, lam))


def cominuscule_indices(datum: RootDatum) -> tuple:
    """Fundamental indices whose simple root has coefficient 1 in the highest root."""
    theta = datum.highest_root()
    return tuple(i + 1 for i, c in enumerate(theta) if c == 1)


def _weight_to_root_coords(datum: RootDatum, mu):
    """Solve for root-basis coordinates of a weight; None if not integral."""
    n = datum.rank
    m = [[Fraction(datum.cartan[i][j]) for j in range(n)] + [Fraction(mu[i])]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    out = [m[r][n] for r in range(n)]
    if any(x.denominator != 1 for x in out):
        return None
    return tuple(int(x) for x in out)


def cominuscule_twist_check(
    datum: RootDatum, graph: QuantumBruhatGraph, i: int, m: int
) -> bool:
    """Check that the t=infinity value is the q-graded twist of the t=0 value.

    Each monomial of the t=0 specialization at -m*omega_i sits at a weight
    -m*omega_i + beta with beta in the non-negative root cone; multiplying
    it by q^(coefficient of alpha_i in beta) must give the t=infinity
    specialization.  The anchoring at the anti-dominant extreme is fixed by
    the rank-one brute-force cases.  Both values come from one
    ``specialization_report``; the check fails if its two t=infinity routes
    disagree.
    """
    if i not in cominuscule_indices(datum):
        raise ValueError(f"index {i} is not cominuscule in {datum.family}{datum.rank}")
    lam = tuple(-m * x for x in datum.fundamental_weight(i))
    report = specialization_report(datum, graph, lam)
    if not report.agree:
        return False
    twisted: dict = {}
    for (w, q), c in report.e_zero.terms.items():
        beta = _weight_to_root_coords(datum, sub(w, lam))
        if beta is None or any(x < 0 for x in beta):
            return False
        twisted[(w, q + beta[i - 1])] = twisted.get((w, q + beta[i - 1]), 0) + c
    return LaurentPoly(twisted) == report.e_inf_word
