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

The affine simple coroots and reflections, the splittings of the positive
coroots and each canonical layout are built once per datum, on first use.
So is the simple-step table (per affine simple ``i``: the index of
``Re a_i``, ``deg a_i`` and the permutation of ``s_i``), through which
reduced words and beta sequences are derived on plain ``(wt, perm)``
pairs; only a returned element is built.  ``word_from_beta`` applies
``p^{-1}`` for ``p = t_mu v`` directly:
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
from fractions import Fraction

from .lattice import RootDatum, add, dot, neg
from . import weylgroup as wg
from .weylgroup import WeylElt

__all__ = [
    "AffineCoroot", "ExtAffineElt", "translation", "ext_identity",
    "multiply", "inverse", "act_on_affine_coroot", "affine_reflection",
    "affine_simple_coroot", "affine_simple_reflection", "length_ext",
    "is_right_descent_ext", "reduced_word_ext", "from_word_ext",
    "beta_sequence", "canonical_beta_order", "word_from_beta",
    "shifted_beta", "word_for_translation",
]

# placements the layout search may undo before it gives up; the most any
# shipped layout needs is 1014 (F4, index 2), every other one needs none
MAX_BACKTRACKS = 10_000


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


def _affine_simples(datum: RootDatum) -> tuple:
    """``((a_0, ..., a_n), (s_0, ..., s_n))``, built once per datum."""
    def build():
        coroots = (AffineCoroot(neg(datum.highest_dual_root()), 1),) + tuple(
            AffineCoroot(datum.simple_coroot(i), 0)
            for i in range(1, datum.rank + 1)
        )
        return coroots, tuple(affine_reflection(datum, c) for c in coroots)
    return datum.memoized("affine_simples", build)


def _check_affine_index(datum: RootDatum, i: int) -> None:
    if not 0 <= i <= datum.rank:
        raise ValueError(f"affine simple index out of range: {i}")


def affine_simple_coroot(datum: RootDatum, i: int) -> AffineCoroot:
    """a_i for i = 1..n; a_0 = -theta + delta with theta the highest coroot."""
    _check_affine_index(datum, i)
    return _affine_simples(datum)[0][i]


def affine_simple_reflection(datum: RootDatum, i: int) -> ExtAffineElt:
    _check_affine_index(datum, i)
    return _affine_simples(datum)[1][i]


def length_ext(datum: RootDatum, a: ExtAffineElt) -> int:
    """Closed length formula for ``t_mu v``."""
    v_inv = wg.inverse(a.dir)
    total = 0
    for g in datum.pos_coroots:
        chi = int(not datum.is_pos_coroot(wg.act_coroot(v_inv, g)))
        total += abs(datum.pair(g, a.wt) - chi)
    return total


def _simple_steps(datum: RootDatum) -> tuple:
    """Per affine simple ``i = 0..n``: ``(index of Re a_i, deg a_i, perm of
    s_i)``; the translation part of ``s_i`` is ``-deg a_i`` times the root
    weight at that index."""
    def build():
        return tuple(
            (datum.coroot_index[c.re], c.deg, s.dir.perm)
            for c, s in zip(*_affine_simples(datum))
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


def _preimage_letter(datum: RootDatum, wt, perm, re, deg):
    """The ``j`` with ``p^{-1}(re + deg delta) = a_j`` for ``p = t_wt v``, or
    None if there is none; ``v^{-1}(re)`` is the coroot at
    ``perm.index(index of re)``."""
    k = datum.coroot_index.get(tuple(re))
    if k is None:
        return None
    letters = datum.memoized("simple_letters", lambda: {
        (kj, dj): j for j, (kj, dj, _) in enumerate(_simple_steps(datum))
    })
    return letters.get((perm.index(k), deg + dot(datum.coroots[k], wt)))


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


def _coroot_splits(datum: RootDatum) -> tuple:
    """``(decomps, chains)`` from one pass over pairs of positive coroots.

    ``decomps[g]`` lists the pairs ``(t, e)`` of positive coroots with
    ``t + e = g`` and ``t <= e``; ``chains`` lists, in sorted order, the
    pairs ``(t, e)`` with ``t + e`` and ``t + 2e`` positive coroots too.
    Built once per datum.
    """
    def build():
        pos = sorted(datum.pos_coroots)
        is_pos = set(pos)
        decomps = {g: [] for g in pos}
        chains = []
        for t in pos:
            for e in pos:
                te = add(t, e)
                if te in is_pos:
                    if t <= e:
                        decomps[te].append((t, e))
                    if add(te, e) in is_pos:
                        chains.append((t, e))
        return decomps, chains
    return datum.memoized("coroot_splits", build)


def _canonical_beta_build(datum: RootDatum, i: int) -> tuple:
    decomps, chains = _coroot_splits(datum)
    tail = tuple(j for j in range(1, datum.rank + 1) if j != i)
    omega = datum.fundamental_weight(i)
    mult = {g: m for g in datum.pos_coroots if (m := dot(g, omega)) > 0}
    quads = [
        (t, e, add(t, e), add(t, add(e, e)))
        for t, e in chains
        if any(x in mult for x in (t, e, add(t, e), add(t, add(e, e))))
    ]
    # the quadruples each coroot belongs to, by position in quads
    quads_of: dict = {}
    for k, quad in enumerate(quads):
        for g in quad:
            quads_of.setdefault(g, []).append(k)

    def pref_key(entry):
        # crossing order of g with k copies placed: decreasing
        # deg/<g, omega_i>, then coordinate ratios
        g, k = entry
        ai = g[i - 1]
        head = -Fraction(mult[g] - k, ai)
        return (head,) + tuple(Fraction(g[j - 1], ai) for j in tail)

    # every entry in crossing order, sorted once: g's key rises with k and no
    # two keys tie, so the entries with placed[g] == k are the candidates of
    # a step, in order
    order = sorted(((g, k) for g in mult for k in range(mult[g])), key=pref_key)

    placed = {g: 0 for g in mult}
    states = [()] * len(quads)  # expected tail of the current chain block
    seq: list = []
    total = sum(mult.values())
    first = datum.simple_coroot(i)
    backtracks = 0

    def advance(g):
        if g not in quads_of:
            return states
        new = list(states)
        for k in quads_of[g]:
            t, e, te, t2e = quads[k]
            st = new[k]
            if st:
                if st[0] != g:
                    return None
                new[k] = st[1:]
            elif g == e:
                new[k] = (t2e, te, t2e)
            elif g == t:
                new[k] = (te, t2e)
            else:
                return None
        return new

    def dfs():
        nonlocal states, backtracks
        if len(seq) == total:
            return all(st == () for st in states)
        for g, k in order:
            if placed[g] != k or (not seq and g != first):
                continue
            if any(
                placed[g] + 1 != placed.get(t, 0) + placed.get(e, 0)
                for t, e in decomps[g]
            ):
                continue
            new_states = advance(g)
            if new_states is None:
                continue
            save = states
            states = new_states
            placed[g] += 1
            seq.append(AffineCoroot(neg(g), mult[g] - placed[g] + 1))
            if dfs():
                return True
            seq.pop()
            placed[g] -= 1
            states = save
            backtracks += 1
            if backtracks > MAX_BACKTRACKS:
                raise ValueError(
                    f"beta layout search for index {i} in "
                    f"{datum.family}{datum.rank} gave up after "
                    f"{MAX_BACKTRACKS} backtracks"
                )
        return False

    if not dfs():
        raise ValueError(
            f"no admissible beta layout for index {i} in "
            f"{datum.family}{datum.rank}"
        )
    return tuple(seq)


def canonical_beta_order(datum: RootDatum, i: int) -> tuple:
    """The beta sequence of ``t_{-omega_i}`` in its canonical reduced word.

    The underlying multiset is ``{-gamma + k*delta}`` over positive coroots
    gamma with ``<gamma, omega_i> > 0`` and ``1 <= k <= <gamma, omega_i>``.
    It is laid out greedily in decreasing order of the wall-crossing
    parameter ``deg / <gamma, omega_i>`` (ties broken by the coordinate
    ratios ``gamma_j / gamma_i`` over the remaining indices in increasing
    order), backtracking where necessary to keep two structural properties:

    - count additivity: whenever ``-gamma`` is placed and ``gamma`` splits
      as ``tau + eta`` with both summands positive coroots, the numbers of
      earlier ``tau``- and ``eta``-entries add up to the number of
      ``gamma``-entries placed so far;
    - chain factorization: for positive coroots ``tau, eta`` with
      ``tau + 2*eta`` also a coroot, the entries drawn from
      ``{tau, eta, tau+eta, tau+2eta}`` factor into blocks
      ``(eta, tau+2eta, tau+eta, tau+2eta)`` and ``(tau, tau+eta, tau+2eta)``.

    The result is always the beta sequence of an actual reduced word of
    ``t_{-omega_i}`` and matches the hand-computed rank-two sequences.  The
    search raises ValueError once it has undone ``MAX_BACKTRACKS``
    placements, rather than searching on.
    """
    if not 1 <= i <= datum.rank:
        raise ValueError(f"fundamental index out of range: {i}")
    return datum.memoized(
        ("canonical_beta", i), lambda: _canonical_beta_build(datum, i)
    )


def word_from_beta(datum: RootDatum, betas):
    """Recover ``(s_{i_1} ... s_{i_l}, (i_1, ..., i_l))`` from a beta
    sequence; raises ValueError if it is not one."""
    steps = _simple_steps(datum)
    l = len(betas)
    word = [0] * l
    wt, perm = (0,) * datum.rank, tuple(range(len(datum.coroots)))
    for k in range(l - 1, -1, -1):
        # p = s_{i_l} ... s_{i_{k+1}} sends a_{i_k} to beta_k
        b = betas[k]
        j = _preimage_letter(datum, wt, perm, b.re, b.deg)
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
    out = []
    for b in canonical_beta_order(datum, i):
        out.append(AffineCoroot(b.re, b.deg + dot(b.re, lam)))
    return tuple(out)


def _conjugation_table(datum: RootDatum, pi: ExtAffineElt) -> dict:
    """j -> c with pi^{-1} s_j pi = s_c, for a length-zero pi."""
    return {
        j: _preimage_letter(datum, pi.wt, pi.dir.perm, datum.coroots[k], deg)
        for j, (k, deg, _) in enumerate(_simple_steps(datum))
    }


def word_for_translation(datum: RootDatum, lam, lead_index=None):
    """``(pi, word)`` for ``t_lam`` with anti-dominant ``lam``, built by
    concatenating reduced words of the ``t_{-omega_i}`` factors (the lengths
    add, so the concatenation is again reduced after conjugating the earlier
    letters through the later length-zero parts).

    ``lead_index`` puts that fundamental factor first; the rest follow in
    increasing index order.
    """
    datum.check_antidominant(lam)
    order = list(range(1, datum.rank + 1))
    if lead_index is not None:
        order.remove(lead_index)
        order.insert(0, lead_index)
    pieces = []
    for i in order:
        target = translation(datum, neg(datum.fundamental_weight(i)))
        pi_i, w_i = reduced_word_ext(datum, target)
        for _ in range(-lam[i - 1]):
            pieces.append((pi_i, w_i))
    pi_tot = ext_identity(datum)
    word_tot: list = []
    for pi_i, w_i in pieces:
        table = _conjugation_table(datum, pi_i)
        word_tot = [table[j] for j in word_tot] + list(w_i)
        pi_tot = multiply(pi_tot, pi_i)
    return pi_tot, tuple(word_tot)
