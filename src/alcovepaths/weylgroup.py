"""
Finite Weyl group elements as exact integer matrices.

An element carries both its action on the weight lattice (``wm``, in
fundamental-weight coordinates) and its action on the coroot lattice
(``cm``, in simple-coroot coordinates).  The two are contragredient,
so inversion is a pair of transposes and no matrix inverse is needed.

>>> d = __import__("alcovepaths.lattice", fromlist=["build_datum"]).build_datum("A", 2)
>>> w0 = longest_element(d)
>>> length(d, w0)
3
>>> reduced_word(d, w0)
(1, 2, 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import RootDatum

__all__ = [
    "WeylElt", "identity", "simple_reflection", "multiply", "inverse",
    "act_weight", "act_coroot", "length", "is_right_descent", "reduced_word",
    "from_word", "longest_element", "reflection_of", "group_order",
    "enumerate_group", "GROUP_SIZE_CAP", "GroupSizeCapExceeded",
]

# refuse to enumerate groups larger than W(E6)
GROUP_SIZE_CAP = 51840


class GroupSizeCapExceeded(RuntimeError):
    """The Weyl group is larger than ``GROUP_SIZE_CAP``; nothing was enumerated."""


def _mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _transpose(m):
    return tuple(tuple(row[i] for row in m) for i in range(len(m)))


@dataclass(frozen=True)
class WeylElt:
    """A Weyl group element; ``wm`` acts on weights, ``cm`` on coroots."""
    wm: tuple
    cm: tuple

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.wm == other.wm

    def __hash__(self):
        return hash(self.wm)


def identity(datum: RootDatum) -> WeylElt:
    eye = tuple(
        tuple(int(i == j) for j in range(datum.rank)) for i in range(datum.rank)
    )
    return WeylElt(eye, eye)


def simple_reflection(datum: RootDatum, i: int) -> WeylElt:
    """s_i, 1-based simple index."""
    return reflection_of(datum, datum.simple_coroot(i))


def multiply(a: WeylElt, b: WeylElt) -> WeylElt:
    return WeylElt(_mat_mul(a.wm, b.wm), _mat_mul(a.cm, b.cm))


def inverse(a: WeylElt) -> WeylElt:
    # wm and cm are contragredient: wm^{-1} = cm^T
    return WeylElt(_transpose(a.cm), _transpose(a.wm))


def act_weight(a: WeylElt, w):
    return _mat_vec(a.wm, w)


def act_coroot(a: WeylElt, c):
    return _mat_vec(a.cm, c)


def _is_negative(v) -> bool:
    return all(x <= 0 for x in v) and any(x < 0 for x in v)


def length(datum: RootDatum, a: WeylElt) -> int:
    """Number of positive coroots sent to negative coroots."""
    return sum(1 for c in datum.pos_coroots if _is_negative(act_coroot(a, c)))


def is_right_descent(datum: RootDatum, a: WeylElt, i: int) -> bool:
    """l(a s_i) < l(a), i.e. a(alpha_i^vee) is negative."""
    return _is_negative(act_coroot(a, datum.simple_coroot(i)))


def from_word(datum: RootDatum, word) -> WeylElt:
    out = identity(datum)
    for i in word:
        out = multiply(out, simple_reflection(datum, i))
    return out


def reduced_word(datum: RootDatum, a: WeylElt) -> tuple:
    """Lexicographically smallest reduced word, as a tuple of 1-based indices."""
    out = []
    cur = a
    while True:
        for i in range(1, datum.rank + 1):
            # left descent of cur <=> cur^{-1}(alpha_i^vee) negative
            if _is_negative(_mat_vec(_transpose(cur.wm), datum.simple_coroot(i))):
                out.append(i)
                cur = multiply(simple_reflection(datum, i), cur)
                break
        else:
            return tuple(out)


def longest_element(datum: RootDatum) -> WeylElt:
    """w_0, found by greedy length ascent."""
    cur = identity(datum)
    while True:
        for i in range(1, datum.rank + 1):
            if not is_right_descent(datum, cur, i):
                nxt = multiply(cur, simple_reflection(datum, i))
                break
        else:
            return cur
        cur = nxt


def reflection_of(datum: RootDatum, coroot) -> WeylElt:
    """The reflection s_gamma for a (positive or negative) coroot gamma."""
    if not datum.is_coroot(coroot):
        raise ValueError(f"not a coroot: {coroot!r}")
    n = datum.rank
    root_wt = datum.coroot_weight(coroot)
    # s_gamma(x) = x - <gamma, x> alpha_gamma on weights
    wm = tuple(
        tuple(int(r == j) - coroot[j] * root_wt[r] for j in range(n))
        for r in range(n)
    )
    # s_gamma(c) = c - <c, alpha_gamma> gamma on coroots
    cm = tuple(
        tuple(int(r == j) - coroot[r] * root_wt[j] for j in range(n))
        for r in range(n)
    )
    return WeylElt(wm, cm)


def group_order(datum: RootDatum) -> int:
    """|W| = n! * prod(c_i) * det(C), from the classification.

    C is the Cartan matrix and c_i are the coefficients of the highest
    root.  The dual system has the same W and det(C^T) = det(C), so its
    highest root, the highest coroot, serves as well.
    """
    # fraction-free (Bareiss) elimination; a Cartan matrix is positive
    # definite, so no pivot is zero
    m = [list(row) for row in datum.cartan]
    prev = 1
    for k in range(datum.rank - 1):
        for i in range(k + 1, datum.rank):
            for j in range(k + 1, datum.rank):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    c = datum.highest_dual_root()
    return math.factorial(datum.rank) * math.prod(c) * m[-1][-1]


def enumerate_group(datum: RootDatum):
    """All elements, sorted by (length, reduced word).

    Raises GroupSizeCapExceeded before enumerating when |W| exceeds
    ``GROUP_SIZE_CAP``.
    """
    order = group_order(datum)
    if order > GROUP_SIZE_CAP:
        raise GroupSizeCapExceeded(
            f"|W({datum.family}{datum.rank})| = {order} exceeds the group "
            f"size cap {GROUP_SIZE_CAP}"
        )
    gens = [simple_reflection(datum, i) for i in range(1, datum.rank + 1)]
    e = identity(datum)
    seen = {e: ()}
    frontier = [e]
    while frontier:
        nxt = []
        for w in sorted(frontier, key=lambda x: seen[x]):
            for i, s in enumerate(gens, start=1):
                if not is_right_descent(datum, w, i):
                    ws = multiply(w, s)
                    if ws not in seen:
                        seen[ws] = seen[w] + (i,)
                        nxt.append(ws)
        frontier = nxt
    return sorted(seen, key=lambda w: (len(seen[w]), seen[w]))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
