"""
Finite Weyl group elements as permutations of the coroots.

An element ``w`` is stored as the permutation it induces on the coroots
of its root datum, in the order of ``RootDatum.coroots``: the N positive
coroots first, then their negatives in the same order.  ``perm[k]`` is
the index of ``w(coroots[k])``.  A product composes two tuples, the length
counts the positive indices sent to indices ``>= N``, and ``w`` acts on a
weight through the coroots it sends to the simple coroots.  A function
given an element reads the root datum from it (``w.datum``), and a
product of elements of two root data is refused.

>>> from alcovepaths.lattice import build_datum
>>> d = build_datum("A", 2)
>>> d.coroots
((0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (-1, -1))
>>> simple_reflection(d, 1).perm
(2, 4, 0, 5, 1, 3)
>>> w0 = longest_element(d)
>>> length(w0), reduced_word(w0)
(3, (1, 2, 1))
>>> act_weight(w0, (1, 0)), act_coroot(w0, (1, 1))
((0, -1), (-1, -1))
>>> list(smallest_words(d).values())
[(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .lattice import RootDatum, dot

__all__ = [
    "WeylElt", "identity", "simple_reflection", "multiply", "inverse",
    "act_weight", "act_coroot", "length", "is_right_descent", "reduced_word",
    "from_word", "longest_element", "reflection_of", "type_order",
    "group_order", "check_group_size", "smallest_words", "enumerate_group",
    "GROUP_SIZE_CAP", "GroupSizeCapExceeded",
]

# refuse to enumerate groups larger than W(E6)
GROUP_SIZE_CAP = 51840


class GroupSizeCapExceeded(RuntimeError):
    """The Weyl group is larger than ``GROUP_SIZE_CAP``; nothing was enumerated."""


@dataclass(frozen=True, slots=True)
class WeylElt:
    """A Weyl group element; ``perm[k]`` is the index of ``w(datum.coroots[k])``.
    It compares and hashes as ``perm`` does."""
    perm: tuple
    datum: RootDatum = field(compare=False, repr=False)

    def __hash__(self):
        return hash(self.perm)


def identity(datum: RootDatum) -> WeylElt:
    return WeylElt(tuple(range(len(datum.coroots))), datum)


def simple_reflection(datum: RootDatum, i: int) -> WeylElt:
    """s_i, 1-based simple index."""
    return reflection_of(datum, datum.simple_coroot(i))


def multiply(a: WeylElt, b: WeylElt) -> WeylElt:
    """The product ``ab``; an element of another root datum is refused."""
    if a.datum is not b.datum:
        a.datum.check_same(b.datum)
    # (ab)(c) = a(b(c))
    return WeylElt(tuple(map(a.perm.__getitem__, b.perm)), a.datum)


def inverse(a: WeylElt) -> WeylElt:
    # position v of the result holds the k with perm[k] = v
    return WeylElt(tuple(sorted(range(len(a.perm)), key=a.perm.__getitem__)), a.datum)


def act_weight(a: WeylElt, w):
    """a(w): coordinate j is <a^{-1}(alpha_j^vee), w>, and a^{-1}(alpha_j^vee)
    is the coroot that a sends to alpha_j^vee.  A weight of another rank is
    refused."""
    d = a.datum
    d.check_rank(w)
    source = a.perm.index
    return tuple(
        sum(map(operator.mul, d.coroots[source(k)], w)) for k in d.simple_index
    )


def act_coroot(a: WeylElt, c):
    k = a.datum.coroot_index.get(tuple(c))
    if k is None:
        raise ValueError(f"not a coroot: {c!r}")
    return a.datum.coroots[a.perm[k]]


def length(a: WeylElt) -> int:
    """Number of positive coroots sent to negative coroots."""
    n = len(a.datum.pos_coroots)
    return sum(map(n.__le__, a.perm[:n]))


def is_right_descent(a: WeylElt, i: int) -> bool:
    """l(a s_i) < l(a), i.e. a(alpha_i^vee) is negative."""
    datum = a.datum
    if not 1 <= i <= datum.rank:
        raise ValueError(f"simple index out of range: {i}")
    return a.perm[datum.simple_index[i - 1]] >= len(datum.pos_coroots)


def from_word(datum: RootDatum, word) -> WeylElt:
    out = identity(datum)
    for i in word:
        out = multiply(out, simple_reflection(datum, i))
    return out


def reduced_word(a: WeylElt) -> tuple:
    """Lexicographically smallest reduced word, as a tuple of 1-based indices."""
    datum = a.datum
    n = len(datum.pos_coroots)
    gens = [simple_reflection(datum, i).perm for i in range(1, datum.rank + 1)]
    out = []
    # peel left descents of a: i is one when a^{-1}(alpha_i^vee) is
    # negative, and peeling it turns a^{-1} into a^{-1} s_i
    inv = inverse(a).perm
    while True:
        for i, k in enumerate(datum.simple_index):
            if inv[k] >= n:
                out.append(i + 1)
                inv = tuple(map(inv.__getitem__, gens[i]))
                break
        else:
            return tuple(out)


def longest_element(datum: RootDatum) -> WeylElt:
    """w_0, found by greedy length ascent once per datum."""
    def build():
        cur = identity(datum)
        while True:
            for i in range(1, datum.rank + 1):
                if not is_right_descent(cur, i):
                    nxt = multiply(cur, simple_reflection(datum, i))
                    break
            else:
                return cur
            cur = nxt
    return datum.memoized("longest_element", build)


def reflection_of(datum: RootDatum, coroot) -> WeylElt:
    """The reflection s_gamma for a (positive or negative) coroot gamma.

    Each reflection is built once per datum, on first use.
    """
    k = datum.coroot_index.get(tuple(coroot))
    if k is None:
        raise ValueError(f"not a coroot: {coroot!r}")
    k %= len(datum.pos_coroots)

    def build():
        gamma, root_wt = datum.coroots[k], datum.root_weights[k]
        images = []
        for c in datum.pos_coroots:
            # s_gamma(c) = c - <c, alpha_gamma> gamma
            m = dot(c, root_wt)
            image = tuple(ci - m * gi for ci, gi in zip(c, gamma))
            images.append(datum.coroot_index[image])
        # s_gamma(-c) = -s_gamma(c), and the negative of the coroot at j is
        # at (j + N) % 2N
        n = len(images)
        images += [(j + n) % (2 * n) for j in images]
        return WeylElt(tuple(images), datum)
    return datum.memoized(("reflection", k), build)


def type_order(family: str, rank: int) -> int:
    """|W| of a valid simple type from its family and rank alone, by the
    classification; no root datum is built."""
    if family == "A":
        return math.factorial(rank + 1)
    if family in "BC":
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[family, rank]


def group_order(datum: RootDatum) -> int:
    """|W| = prod over positive coroots of (ht + 1) / ht (Macdonald): the
    Poincare series of W at t = 1.  The dual system has the same W."""
    heights = [sum(g) for g in datum.pos_coroots]
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def check_group_size(family: str, rank: int) -> None:
    """Raise GroupSizeCapExceeded when |W| of a valid simple type exceeds
    ``GROUP_SIZE_CAP``."""
    order = type_order(family, rank)
    if order > GROUP_SIZE_CAP:
        raise GroupSizeCapExceeded(
            f"|W({family}{rank})| = {order} exceeds the group "
            f"size cap {GROUP_SIZE_CAP}"
        )


def smallest_words(datum: RootDatum) -> dict:
    """``{w: smallest reduced word of w}`` over all of W in (length, word)
    order, walked once per datum and kept in its memo; callers only read it.
    Raises GroupSizeCapExceeded, before any work, above ``GROUP_SIZE_CAP``."""
    check_group_size(datum.family, datum.rank)

    def build():
        gens = [simple_reflection(datum, i) for i in range(1, datum.rank + 1)]
        e = identity(datum)
        # levels are visited in the order their words were found, letters in
        # increasing order: the first word found for an element is its
        # smallest, and ``seen`` is filled in (length, word) order
        seen = {e: ()}
        frontier = [e]
        while frontier:
            nxt = []
            for w in frontier:
                for i, s in enumerate(gens, start=1):
                    if not is_right_descent(w, i):
                        ws = multiply(w, s)
                        if ws not in seen:
                            seen[ws] = seen[w] + (i,)
                            nxt.append(ws)
            frontier = nxt
        return seen
    return datum.memoized("smallest_words", build)


def enumerate_group(datum: RootDatum):
    """The keys of ``smallest_words`` as a new list: W in (length, word) order."""
    return list(smallest_words(datum))
