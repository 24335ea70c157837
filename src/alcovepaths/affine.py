"""
Extended affine Weyl group and affine coroots.

Elements are stored in the normal form ``t_mu * v`` with ``mu`` a weight
(translation part) and ``v`` a finite Weyl group element, so the length
zero subgroup never needs to be materialized: it simply consists of the
elements whose closed length formula evaluates to zero.

Affine real coroots are pairs ``gamma + m*delta`` with ``gamma`` a finite
coroot and ``m`` an integer.  The element ``t_mu * v`` acts by

    gamma + m*delta  |->  v(gamma) + (m - <v(gamma), mu>) * delta

and the reflection in ``gamma + N*delta`` is ``t_{-N*alpha_gamma} s_gamma``
(with ``alpha_gamma`` the root of ``gamma`` written as a weight).

The beta sequence of ``t_lam`` for any weight ``lam``, of either sign, is
Lenart–Postnikov's lexicographic lambda-chain, one sort of its entries
(``lambda_chain``); the canonical layout of ``t_{-omega_i}`` is that chain
at ``-omega_i``, and the word of any translation is read off its chain.
Each canonical layout is built once per datum, on first use.  So is the
simple-step table (per affine simple ``i``: the index of ``Re a_i``,
``deg a_i`` and the permutation of ``s_i``), which the affine simple
coroots and reflections are read from, and through which reduced words and
beta sequences are derived on plain ``(wt, perm)`` pairs; only a returned
element is built.
``word_from_beta`` applies ``p^{-1}`` for ``p = t_mu v`` directly:
``p^{-1}(gamma + m*delta) = v^{-1}(gamma) + (m + <gamma, mu>)*delta``.

>>> from alcovepaths.lattice import build_datum
>>> d = build_datum("A", 2)
>>> pi, word = reduced_word_ext(d, translation(d, (-1, 0)))
>>> word, pi.wt, length_ext(d, pi)
((2, 0), (0, 1), 0)
>>> [(b.re, b.deg) for b in canonical_beta_order(d, 1)]
[((-1, 0), 1), ((-1, -1), 1)]
>>> beta_sequence(d, word) == canonical_beta_order(d, 1)
True
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .lattice import RootDatum, add, dot, neg
from . import weylgroup as wg
from .weylgroup import WeylElt

__all__ = [
    "AffineCoroot", "ExtAffineElt", "translation", "ext_identity",
    "multiply", "inverse", "act_on_affine_coroot", "affine_reflection",
    "affine_simple_coroot", "affine_simple_reflection", "length_ext",
    "is_right_descent_ext", "reduced_word_ext", "from_word_ext",
    "beta_sequence", "lambda_chain", "canonical_beta_order", "word_from_beta",
    "shifted_beta", "word_for_translation",
]

@dataclass(frozen=True)
class AffineCoroot:
    """A real affine coroot ``re + deg*delta``."""
    re: tuple
    deg: int

    def is_positive(self) -> bool:
        return self.deg > 0 or (
            self.deg == 0 and all(x >= 0 for x in self.re) and any(self.re)
        )


@dataclass(frozen=True)
class ExtAffineElt:
    """Extended affine element ``t_wt * dir`` in translation normal form."""
    wt: tuple
    dir: WeylElt


def translation(datum: RootDatum, mu) -> ExtAffineElt:
    datum.check_rank(mu)
    return ExtAffineElt(tuple(mu), wg.identity(datum))


def ext_identity(datum: RootDatum) -> ExtAffineElt:
    return ExtAffineElt((0,) * datum.rank, wg.identity(datum))


def multiply(a: ExtAffineElt, b: ExtAffineElt) -> ExtAffineElt:
    # (t_mu u)(t_nu v) = t_{mu + u(nu)} (u v); nu = 0 for s_1, ..., s_r
    wt = add(a.wt, wg.act_weight(a.dir, b.wt)) if any(b.wt) else a.wt
    return ExtAffineElt(wt, wg.multiply(a.dir, b.dir))


def inverse(a: ExtAffineElt) -> ExtAffineElt:
    u_inv = wg.inverse(a.dir)
    return ExtAffineElt(neg(wg.act_weight(u_inv, a.wt)), u_inv)


def act_on_affine_coroot(datum: RootDatum, a: ExtAffineElt, c: AffineCoroot) -> AffineCoroot:
    datum.check_rank(a.wt)
    vg = wg.act_coroot(a.dir, c.re)
    return AffineCoroot(vg, c.deg - dot(vg, a.wt))


def affine_reflection(datum: RootDatum, c: AffineCoroot) -> ExtAffineElt:
    """The reflection in the affine hyperplane of ``c = gamma + N*delta``."""
    alpha_wt = datum.coroot_weight(c.re)
    return ExtAffineElt(
        tuple(-c.deg * x for x in alpha_wt),
        wg.reflection_of(datum, c.re),
    )


def _check_affine_index(datum: RootDatum, i: int) -> None:
    if not 0 <= i <= datum.rank:
        raise ValueError(f"affine simple index out of range: {i}")


def affine_simple_coroot(datum: RootDatum, i: int) -> AffineCoroot:
    """a_i for i = 1..n; a_0 = -theta + delta with theta the highest coroot."""
    _check_affine_index(datum, i)
    k, deg, _ = _simple_steps(datum)[i]
    return AffineCoroot(datum.coroots[k], deg)


def affine_simple_reflection(datum: RootDatum, i: int) -> ExtAffineElt:
    """s_i, the reflection in ``a_i``."""
    return affine_reflection(datum, affine_simple_coroot(datum, i))


def length_ext(datum: RootDatum, a: ExtAffineElt) -> int:
    """Closed length formula for ``t_mu v``: the sum over the positive
    coroots ``c`` of ``|<v(c), mu> + [v(c) < 0]|``, with ``v(c)`` the coroot
    at ``perm[c]``, negative when that index is at least ``N``."""
    datum.check_rank(a.wt)
    n, coroots, mu = len(datum.pos_coroots), datum.coroots, a.wt
    return sum(abs(dot(coroots[j], mu) + (j >= n)) for j in a.dir.perm[:n])


def _simple_steps(datum: RootDatum) -> tuple:
    """Per affine simple ``i = 0..n``: ``(index of Re a_i, deg a_i, perm of
    s_i)``, with ``a_0 = -theta + delta`` and ``a_i`` the simple coroots; the
    translation part of ``s_i`` is ``-deg a_i`` times the root weight at that
    index."""
    def build():
        simples = [(neg(datum.highest_dual_root()), 1)] + [
            (datum.simple_coroot(i), 0) for i in range(1, datum.rank + 1)
        ]
        return tuple(
            (datum.coroot_index[g], deg, wg.reflection_of(datum, g).perm)
            for g, deg in simples
        )
    return datum.memoized("simple_steps", build)


def _descends(datum: RootDatum, wt, perm, step) -> bool:
    """The right descent rule at the step of ``i``: ``t_wt v`` sends
    ``a_i = gamma + d delta`` to ``v(gamma) + m delta`` with
    ``m = d - <v(gamma), wt>`` negative, or zero and ``v(gamma)``, the
    coroot at ``perm[index of gamma]``, negative."""
    k, deg, _ = step
    j = perm[k]
    m = deg - dot(datum.coroots[j], wt)
    return m < 0 or (m == 0 and j >= len(datum.pos_coroots))


def _times_simple(datum: RootDatum, wt, perm, step) -> tuple:
    """``(wt, perm)`` of ``t_wt v s_i`` from the step of ``i``: ``v`` of the
    translation part of ``s_i`` is ``-deg a_i`` times the root weight at
    ``perm[index of Re a_i]``."""
    k, deg, s = step
    if deg:
        wt = tuple(x - deg * y for x, y in zip(wt, datum.root_weights[perm[k]]))
    return wt, tuple(map(perm.__getitem__, s))


def is_right_descent_ext(datum: RootDatum, a: ExtAffineElt, i: int) -> bool:
    """l(a s_i) < l(a), i.e. ``t_mu v`` sends ``a_i`` to a negative affine
    coroot; the rule itself is ``_descends``."""
    datum.check_rank(a.wt)
    _check_affine_index(datum, i)
    return _descends(datum, a.wt, a.dir.perm, _simple_steps(datum)[i])


def reduced_word_ext(datum: RootDatum, a: ExtAffineElt):
    """Normal form ``a = pi * s_{i_1} ... s_{i_l}`` with ``pi`` of length zero.

    Returns ``(pi, word)`` where the word is the lexicographically smallest
    one obtained by repeatedly peeling the smallest right descent.  The
    peeling stops after ``N + sum_g |<g, mu>|`` letters, a bound on
    ``l(t_mu v)``, so a wrong descent answer raises instead of looping.
    """
    datum.check_rank(a.wt)
    cap = len(datum.pos_coroots) + sum(abs(dot(g, a.wt)) for g in datum.pos_coroots)
    steps = _simple_steps(datum)
    word = []
    wt, perm = tuple(a.wt), a.dir.perm
    while len(word) <= cap:
        for i, step in enumerate(steps):
            if _descends(datum, wt, perm, step):
                word.append(i)
                wt, perm = _times_simple(datum, wt, perm, step)
                break
        else:
            break
    pi = ExtAffineElt(wt, WeylElt(perm, datum))
    if len(word) > cap or length_ext(datum, pi) != 0:
        raise AssertionError("descents do not peel the element to length zero")
    word.reverse()
    return pi, tuple(word)


def from_word_ext(datum: RootDatum, word, pi: ExtAffineElt | None = None) -> ExtAffineElt:
    out = pi if pi is not None else ext_identity(datum)
    for i in word:
        out = multiply(out, affine_simple_reflection(datum, i))
    return out


def beta_sequence(datum: RootDatum, word) -> tuple:
    """beta_k = s_{i_l} ... s_{i_{k+1}} (a_{i_k}) for a reduced word (i_1..i_l)."""
    for i in word:
        _check_affine_index(datum, i)
    steps = _simple_steps(datum)
    out = [None] * len(word)
    wt, perm = (0,) * datum.rank, tuple(range(len(datum.coroots)))
    for k in range(len(word) - 1, -1, -1):
        step = steps[word[k]]
        # the image of a_i = gamma + d delta under t_wt v
        g = datum.coroots[perm[step[0]]]
        out[k] = AffineCoroot(g, step[1] - dot(g, wt))
        wt, perm = _times_simple(datum, wt, perm, step)
    return tuple(out)


def lambda_chain(datum: RootDatum, lam) -> tuple:
    """The beta sequence of ``t_lam``, for any weight ``lam``, along
    Lenart–Postnikov's lexicographic lambda-chain (arXiv math/0309207): the
    hyperplane crossings of the line from ``-x0`` in the direction ``-lam``.

    Per positive coroot gamma with ``h = <gamma, -lam>`` nonzero, the
    entries are ``-gamma + k*delta`` for ``1 <= k <= h`` when ``h > 0``, and
    ``gamma + k*delta`` for ``0 <= k < |h|`` when ``h < 0``, the crossing
    at level ``c = |h| - k``.  They are sorted increasing by
    ``(c/|h|, gamma_1/h, ..., gamma_r/h)`` times the lcm of the ``|h|``, in
    integers.  The result is the beta sequence of a reduced word of
    ``t_lam`` modulo its length-zero part; the multiset is the inversion
    set of ``t_lam``.

    >>> from alcovepaths.lattice import build_datum
    >>> [(b.re, b.deg) for b in lambda_chain(build_datum("A", 2), (1, -1))]
    [((0, -1), 1), ((1, 0), 0)]
    """
    datum.check_rank(lam)
    heights = [(g, -dot(g, lam)) for g in datum.pos_coroots]
    heights = [(g, h) for g, h in heights if h]
    lcm = math.lcm(*(abs(h) for _, h in heights))
    entries = []
    for g, h in heights:
        # the crossing levels: h > 0 has c = 0..h - 1, h < 0 has c = 1..|h|
        re, levels = (neg(g), range(h)) if h > 0 else (g, range(1, 1 - h))
        s = lcm // h
        entries += [((c * abs(s),) + tuple(x * s for x in g), re, abs(h) - c)
                    for c in levels]
    entries.sort(key=lambda e: e[0])
    return tuple(AffineCoroot(re, k) for _, re, k in entries)


def canonical_beta_order(datum: RootDatum, i: int) -> tuple:
    """``lambda_chain`` at ``-omega_i``, built once per datum: the entries
    ``-gamma + k*delta`` with ``1 <= k <= <gamma, omega_i>``, in decreasing
    wall-crossing parameter ``k / <gamma, omega_i>``."""
    omega = datum.fundamental_weight(i)
    return datum.memoized(("canonical_beta", i),
                          lambda: lambda_chain(datum, neg(omega)))


def word_from_beta(datum: RootDatum, betas):
    """Recover ``(s_{i_1} ... s_{i_l}, (i_1, ..., i_l))`` from a beta
    sequence; raises ValueError if it is not one."""
    steps = _simple_steps(datum)
    letters = {(k, deg): j for j, (k, deg, _) in enumerate(steps)}
    l = len(betas)
    word = [0] * l
    wt, perm = (0,) * datum.rank, tuple(range(len(datum.coroots)))
    for k in range(l - 1, -1, -1):
        # p = s_{i_l} ... s_{i_{k+1}} sends a_{i_k} to beta_k, so a_{i_k} is
        # p^{-1}(beta_k); v^{-1}(re) is the coroot at perm.index(index of re)
        b = betas[k]
        c = datum.coroot_index.get(tuple(b.re))
        j = None if c is None else letters.get(
            (perm.index(c), b.deg + dot(datum.coroots[c], wt)))
        if j is None:
            raise ValueError(
                f"not a valid beta sequence: step {k + 1} is not simple"
            )
        word[k] = j
        wt, perm = _times_simple(datum, wt, perm, steps[j])
    return inverse(ExtAffineElt(wt, WeylElt(perm, datum))), tuple(word)


def shifted_beta(datum: RootDatum, i: int, lam) -> tuple:
    """Beta prefix for ``t_{lam - omega_i}`` relative to ``t_lam``, lam anti-dominant.

    Each canonical beta of ``t_{-omega_i}`` has its degree raised by
    ``<re(beta), lam> >= 0``.
    """
    datum.check_antidominant(lam)
    return tuple(AffineCoroot(b.re, b.deg + dot(b.re, lam))
                 for b in canonical_beta_order(datum, i))


def word_for_translation(datum: RootDatum, lam):
    """``(pi, word)`` for ``t_lam = pi s_{i_1} ... s_{i_l}`` with any weight
    ``lam``, read by ``word_from_beta`` off ``lambda_chain(lam)``;
    ``pi = t_lam x^{-1}`` for the element ``x`` of that word."""
    x, word = word_from_beta(datum, lambda_chain(datum, lam))
    return multiply(translation(datum, lam), inverse(x)), word
