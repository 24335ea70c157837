"""
Root data for the simple types A-G.

Weights, roots and coroots are integer coordinate tuples in the
fundamental-weight, simple-root and simple-coroot bases respectively,
so the pairing of a coroot with a weight is a plain dot product.
``coroots`` lists the positive coroots and then their negatives, and
``coroot_index`` gives each one's position there; ``roots`` and
``root_weights`` hold the root of each coroot, in root and in weight
coordinates, at the same positions.  Tables derived from the datum alone
(the reflections, the highest coroot, the affine simple-step table, the
canonical layouts, the one edge-label table of the quantum Bruhat graph)
are built on first use and kept in ``memo``, so each is built once per
datum.

>>> d = build_datum("A", 2)
>>> d.cartan
((2, -1), (-1, 2))
>>> sorted(d.pos_roots)
[(0, 1), (1, 0), (1, 1)]
>>> d.highest_dual_root()
(1, 1)
>>> d.coroots[d.simple_index[0]], d.coroot_index[(-1, -1)]
((1, 0), 5)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NewType

__all__ = [
    "Weight", "Root", "Coroot", "RootDatum", "build_datum", "check_type", "add",
    "sub", "neg",
]

# coordinate vectors; the basis depends on the type alias
Weight = NewType("Weight", tuple)
Root = NewType("Root", tuple)
Coroot = NewType("Coroot", tuple)


def add(a, b):
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} and {len(b)}")
    return tuple(map(operator.add, a, b))


def sub(a, b):
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} and {len(b)}")
    return tuple(map(operator.sub, a, b))


def neg(a):
    return tuple(-x for x in a)


def dot(a, b) -> int:
    """<a, b> with no length check, for vectors the program built itself;
    ``RootDatum.pair`` is the checked pairing."""
    return sum(map(operator.mul, a, b))


def _highest(positives) -> tuple:
    """The member of an irreducible positive system that dominates all others.

    It is the unique member of greatest height, so one pass finds it and
    one more checks that it dominates.
    """
    top = max(positives, key=sum)
    assert all(x >= y for v in positives for x, y in zip(top, v))
    return top


def check_type(family: str, rank: int) -> None:
    """Raise ValueError unless ``family`` and ``rank`` name a simple type."""
    n = rank
    ok = (
        (family == "A" and n >= 1)
        or (family == "B" and n >= 2)
        or (family == "C" and n >= 2)
        or (family == "D" and n >= 4)
        or (family == "E" and n in (6, 7, 8))
        or (family == "F" and n == 4)
        or (family == "G" and n == 2)
    )
    if not ok:
        raise ValueError(f"invalid simple type {family}{n}")


def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """Bourbaki-numbered Cartan matrix ``cartan[i][j] = <alpha_i^vee, alpha_j>``.

    In type G2 the numbering is fixed so that alpha_1 is the long simple
    root (the highest coroot is then 3*alpha_1^vee + 2*alpha_2^vee).
    """
    check_type(family, rank)
    n = rank
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B":
            bond(n - 2, n - 1, -1, -2)
        if family == "C":
            bond(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
    elif family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4
        for a, b in [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]:
            bond(a, b)
        for i in range(5, n - 1):
            bond(i, i + 1)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -1, -3)
    return c


@dataclass(frozen=True)
class RootDatum:
    """Immutable root datum of a simple type."""
    family: str
    rank: int
    cartan: tuple            # rows <alpha_i^vee, alpha_j>
    pos_roots: tuple         # Root coordinates, deterministic order
    pos_coroots: tuple       # Coroot of pos_roots[k] is pos_coroots[k]
    coroots: tuple = field(repr=False)        # pos_coroots, then their negatives
    coroot_index: dict = field(repr=False)    # coroot -> its index in coroots
    simple_index: tuple = field(repr=False)   # index of alpha_i^vee, i = 1..rank
    roots: tuple = field(repr=False)          # Root of coroots[k] is roots[k]
    root_weights: tuple = field(repr=False)   # roots[k] as a Weight
    # tables built on first use, keyed by a table name and its argument
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def memoized(self, key, build):
        """``build()``, computed on the first call with ``key`` and kept in ``memo``."""
        memo = self.memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def check_rank(self, v) -> None:
        if len(v) != self.rank:
            raise ValueError(f"expected a length-{self.rank} vector, got {v!r}")

    def check_same(self, other: "RootDatum") -> None:
        """Raise ValueError unless ``other``, the datum of a graph or an
        element given with this one, is this datum or one equal to it:
        the caller reads tables from both, and would mix two data."""
        if other is not self and other != self:
            raise ValueError(f"input of another root datum: {other.family}"
                             f"{other.rank}, not {self.family}{self.rank}")

    def check_antidominant(self, lam) -> None:
        """Raise ValueError unless lam is a weight with no positive coordinate."""
        self.check_rank(lam)
        if any(x > 0 for x in lam):
            raise ValueError(f"weight is not anti-dominant: {lam!r}")

    def pair(self, c: Coroot, w: Weight) -> int:
        """<c, w> for a coroot c and a weight w."""
        self.check_rank(c)
        self.check_rank(w)
        return dot(c, w)

    def root_to_weight(self, r: Root) -> Weight:
        """Coordinates of a root vector in the fundamental-weight basis."""
        self.check_rank(r)
        return tuple(
            sum(self.cartan[i][j] * r[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def is_coroot(self, c) -> bool:
        return tuple(c) in self.coroot_index

    def is_pos_coroot(self, c) -> bool:
        n = len(self.pos_coroots)
        return self.coroot_index.get(tuple(c), n) < n

    def coroot_of_root(self, r: Root) -> Coroot:
        return self.coroots[self.roots.index(tuple(r))]

    def root_of_coroot(self, c: Coroot) -> Root:
        return self.roots[self.coroot_index[tuple(c)]]

    def coroot_weight(self, c: Coroot) -> Weight:
        """The root of the coroot c, as a weight vector."""
        return self.root_weights[self.coroot_index[tuple(c)]]

    def simple_root(self, i: int) -> Root:
        """Simple root alpha_i, 1-based index."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index out of range: {i}")
        return tuple(int(j == i - 1) for j in range(self.rank))

    def simple_coroot(self, i: int) -> Coroot:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index out of range: {i}")
        return tuple(int(j == i - 1) for j in range(self.rank))

    def fundamental_weight(self, i: int) -> Weight:
        if not 1 <= i <= self.rank:
            raise ValueError(f"fundamental index out of range: {i}")
        return tuple(int(j == i - 1) for j in range(self.rank))

    def highest_root(self) -> Root:
        """The highest positive root in the dominance order."""
        return _highest(self.pos_roots)

    def highest_dual_root(self) -> Coroot:
        """The highest positive coroot in the dominance order of the dual system."""
        return self.memoized("highest_dual_root", lambda: _highest(self.pos_coroots))


_EXPECTED_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def build_datum(family: str, rank: int) -> RootDatum:
    """Build the root datum of a valid simple type, e.g. ``build_datum("G", 2)``."""
    cartan = _cartan_matrix(family, rank)
    n = rank

    # generate the roots as the reflection orbit of the simple roots, each
    # with its coroot, since s_j(alpha)^vee = s_j(alpha^vee): s_j moves a
    # root r by <alpha_j^vee, r>, coordinate j of r's weight, and its coroot
    # c by <c, alpha_j>, the dot product of c with column j of the Cartan
    # matrix; the two vanish together, and s_j then fixes both
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    columns = list(zip(*cartan))
    weight, coroot = {}, {}
    todo = [(s, s) for s in simples]
    while todo:
        r, c = todo.pop()
        if r not in weight:
            weight[r] = wt = tuple(dot(row, r) for row in cartan)
            coroot[r] = c
            for j, m in enumerate(wt):
                if m:
                    k = dot(c, columns[j])
                    todo.append((r[:j] + (r[j] - m,) + r[j + 1:],
                                 c[:j] + (c[j] - k,) + c[j + 1:]))
    pos = sorted(r for r in weight if all(x >= 0 for x in r))
    assert len(pos) * 2 == len(weight)
    if len(pos) != _EXPECTED_COUNTS[family](rank):
        raise AssertionError(f"positive root count mismatch for {family}{rank}")

    roots = tuple(pos) + tuple(map(neg, pos))
    coroots = tuple(map(coroot.__getitem__, roots))
    coroot_index = {c: k for k, c in enumerate(coroots)}
    root_weights = tuple(map(weight.__getitem__, roots))
    return RootDatum(
        family=family,
        rank=rank,
        cartan=tuple(map(tuple, cartan)),
        pos_roots=tuple(pos),
        pos_coroots=coroots[:len(pos)],
        coroots=coroots,
        coroot_index=coroot_index,
        # alpha_i^vee is the same unit vector as alpha_i
        simple_index=tuple(coroot_index[s] for s in simples),
        roots=roots,
        root_weights=root_weights,
    )

