"""
Specialized nonsymmetric Macdonald polynomials and Weyl module data.

For anti-dominant lam, the t=0 specialization is the generating function
started at the identity.  The t=infinity one is the ``w0`` twist of the
longest-element value, checked against the walk from the identity on
``graph.reversed``: that graph is the forward columns relabelled by
``w0``, so the check covers the relabelling and ``genfun.w0_twist``, not
the walk.  Characters and dimensions of generalized Weyl modules are read
off the same machinery; the identity checks live in ``identities``.
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
    """The t=0 specialization at anti-dominant lam; ``graph`` must be of
    ``datum``."""
    datum.check_same(graph.datum)
    return weyl_character(graph, wg.identity(datum), lam)


def _e_inf_routes(graph: QuantumBruhatGraph, t_lam, word=None):
    datum = graph.datum
    w0 = ExtAffineElt((0,) * datum.rank, wg.longest_element(datum))
    by_word = gf.w0_twist(datum, gf.c_function(graph, w0, t_lam, word))
    by_reversal = gf.c_function(graph.reversed, af.ext_identity(datum), t_lam, word)
    return by_word, by_reversal


def e_infinity(datum: RootDatum, graph: QuantumBruhatGraph, lam) -> LaurentPoly:
    """The t=infinity specialization (q-exponents as printed at q^{-1}).

    Computed by the module's two routes, which share the forward walk; a
    disagreement raises with both values attached.  ``graph`` must be of
    ``datum``.
    """
    datum.check_same(graph.datum)
    datum.check_antidominant(lam)
    by_word, by_reversal = _e_inf_routes(graph, af.translation(datum, lam))
    if by_word != by_reversal:
        raise SpecializationMismatch(tuple(lam), by_word, by_reversal)
    return by_word


def specialization_report(graph: QuantumBruhatGraph, lam) -> SpecializationReport:
    datum = graph.datum
    datum.check_antidominant(lam)
    t_lam = af.translation(datum, lam)
    _, word = af.reduced_word_ext(datum, t_lam)  # one word for all three
    by_word, by_reversal = _e_inf_routes(graph, t_lam, word)
    zero = gf.c_function(graph, af.ext_identity(datum), t_lam, word)
    return SpecializationReport(
        lam=tuple(lam),
        e_zero=zero,
        e_inf_word=by_word,
        e_inf_reversed=by_reversal,
        agree=by_word == by_reversal,
    )


def weyl_character(graph: QuantumBruhatGraph, sigma: WeylElt, lam) -> LaurentPoly:
    """Graded character of the generalized Weyl module twisted by sigma."""
    datum = graph.datum
    datum.check_antidominant(lam)
    return gf.c_function(graph, ExtAffineElt((0,) * datum.rank, sigma),
                         af.translation(datum, lam))


def weyl_dimension(graph: QuantumBruhatGraph, sigma: WeylElt, lam) -> int:
    return gf.evaluate(weyl_character(graph, sigma, lam))
