"""
Specialized nonsymmetric Macdonald polynomials and Weyl module data.

For anti-dominant lam, the t=0 specialization is the generating function
started at the identity, and the t=infinity specialization is computed by
two independent routes (a twist of the longest-element value, and a
reversed-graph enumeration) that must agree.  Characters and dimensions
of generalized Weyl modules are read off the same machinery.  The checks
of identities between these values, the cominuscule twist among them,
live in ``identities``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .lattice import RootDatum
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
