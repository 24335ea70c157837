"""Root datum construction: Cartan data, root/coroot systems, pairings."""

import pytest

from alcovepaths.lattice import build_datum, add, dot, sub, neg
from conftest import TYPES_UP_TO_RANK_8, datum_of, two_rho

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
]

POS_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "F": lambda n: 24,
    "G": lambda n: 6,
}

# Bourbaki's simple roots, squared lengths (alpha_i, alpha_i) with short
# roots of squared length 2; G2 is numbered with alpha_1 long
SIMPLE_LENGTH2 = {
    "A": lambda n: (2,) * n,
    "B": lambda n: (4,) * (n - 1) + (2,),
    "C": lambda n: (2,) * (n - 1) + (4,),
    "D": lambda n: (2,) * n,
    "E": lambda n: (2,) * n,
    "F": lambda n: (4, 4, 2, 2),
    "G": lambda n: (6, 2),
}


def test_vector_helpers():
    assert add((1, 2), (3, -1)) == (4, 1)
    assert sub((1, 2), (3, -1)) == (-2, 3)
    assert neg((1, -2)) == (-1, 2)
    with pytest.raises(ValueError):
        add((1,), (1, 2))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_root_counts(family, rank):
    d = datum_of(family, rank)
    assert len(d.pos_roots) == POS_COUNT[family](rank)
    assert len(d.pos_coroots) == len(d.pos_roots)


@pytest.mark.parametrize("family,rank", TYPES_UP_TO_RANK_8)
def test_cartan_matrix_shape(family, rank):
    # the length table is an oracle the datum does not share: the datum
    # builds its coroots in the reflection orbit walk, with no invariant form
    d = datum_of(family, rank)
    L = SIMPLE_LENGTH2[family](rank)
    assert len(d.cartan) == rank
    for i in range(rank):
        assert d.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert d.cartan[i][j] <= 0
            # (alpha_i, alpha_j) = L_i c_ij / 2 is symmetric
            assert L[i] * d.cartan[i][j] == L[j] * d.cartan[j][i]
    for r, c in zip(d.pos_roots, d.pos_coroots):
        # alpha^vee = 2 alpha / (alpha, alpha), so c_k (alpha, alpha) = r_k L_k
        length2 = sum(r[i] * r[j] * L[i] * d.cartan[i][j]
                      for i in range(rank) for j in range(rank)) // 2
        assert [x * length2 for x in c] == [x * y for x, y in zip(r, L)], r


def test_g2_cartan_alpha1_long():
    # alpha_1 is the long simple root: c_12 = -1, c_21 = -3, so the highest
    # root 2 alpha_1 + 3 alpha_2 is long and the highest coroot belongs to
    # the highest short root alpha_1 + 2 alpha_2
    d = datum_of("G", 2)
    assert d.cartan == ((2, -1), (-3, 2))
    assert d.highest_root() == (2, 3)
    assert d.coroot_of_root((2, 3)) == (2, 1)
    assert d.highest_dual_root() == (3, 2)
    assert d.root_of_coroot((3, 2)) == (1, 2)


def test_invalid_types_rejected():
    for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("F", 3),
                         ("G", 3), ("H", 3), ("E", 5)]:
        with pytest.raises(ValueError):
            build_datum(family, rank)


@pytest.mark.parametrize("family,rank", ALL_TYPES + [("E", 6), ("E", 7), ("E", 8)])
def test_coroot_duality(family, rank):
    d = datum_of(family, rank)
    for k in range(len(d.coroots)):
        assert d.root_weights[k] == d.root_to_weight(d.roots[k])
        assert d.coroot_of_root(d.roots[k]) == d.coroots[k]
        assert d.root_of_coroot(d.coroots[k]) == d.roots[k]
    for r, c in zip(d.pos_roots, d.pos_coroots):
        assert d.coroot_of_root(r) == c
        assert d.root_of_coroot(c) == r
        # <gamma, alpha_gamma> = 2
        assert d.pair(c, d.root_to_weight(r)) == 2
        # negatives resolve through the same lookup
        assert d.coroot_of_root(neg(r)) == neg(c)
    assert d.is_coroot(neg(d.pos_coroots[0]))
    assert not d.is_pos_coroot(neg(d.pos_coroots[0]))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_simple_bases_and_pairing(family, rank):
    d = datum_of(family, rank)
    for i in range(1, rank + 1):
        assert d.pair(d.simple_coroot(i), d.fundamental_weight(i)) == 1
        for j in range(1, rank + 1):
            assert (
                d.pair(d.simple_coroot(i), d.root_to_weight(d.simple_root(j)))
                == d.cartan[i - 1][j - 1]
            )
    with pytest.raises(ValueError):
        d.simple_root(0)
    with pytest.raises(ValueError):
        d.fundamental_weight(rank + 1)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_two_rho(family, rank):
    d = datum_of(family, rank)
    total = (0,) * rank
    for r in d.pos_roots:
        total = add(total, d.root_to_weight(r))
    assert two_rho(d) == total
    # <2 rho, alpha_i^vee> = 2 for every simple coroot
    for i in range(1, rank + 1):
        assert dot(d.simple_coroot(i), two_rho(d)) == 2


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_highest_dual_root_dominates(family, rank):
    d = datum_of(family, rank)
    theta = d.highest_dual_root()
    for g in d.pos_coroots:
        assert all(x >= 0 for x in sub(theta, g))


def test_c2_coroot_coordinates():
    d = datum_of("C", 2)
    assert set(d.pos_coroots) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert d.highest_dual_root() == (1, 2)
