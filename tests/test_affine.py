"""Extended affine Weyl group: lengths, words, beta sequences.

The rank-two beta sequences of the fundamental translations are pinned
verbatim as fixtures; word validity of the canonical layout is checked
across every type of rank at most four plus G2 and on E6-E8, and the
lambda-chain of a weight of any sign against the inversion set of its
translation; the
degree-shifted layouts joined to a word of ``t_lam`` are checked in
``test_acceptance::test_07_beta_concatenation``, and count additivity and
the non-increasing wall-crossing parameter of the lexicographic chain in
``test_acceptance::test_07_beta_suite``.
The tables each datum memoizes are checked against fresh computations.
"""

import itertools
import random
from collections import Counter

import pytest

from alcovepaths.lattice import build_datum, neg
from alcovepaths import weylgroup as wg
from alcovepaths import affine as af
from alcovepaths import qbg
from alcovepaths import genfun as gf
from alcovepaths.affine import AffineCoroot, ExtAffineElt
from conftest import datum_of

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
]
E_TYPES = [("E", 6), ("E", 7), ("E", 8)]

# Beta sequences of t_{-omega_i} in G2, alpha_1 long, entries -gamma + k*delta
# written as ((gamma_1, gamma_2), k).  Both follow decreasing wall-crossing
# parameter k / gamma_i, ties broken by the coordinates; at i=1 the ratio
# 1/1 of ((1, 1), 1) comes before the ratio 2/3 of ((3, 1), 2) (positions
# 5/6).
G2_BETA_1 = (
    ((1, 0), 1), ((3, 1), 3), ((2, 1), 2), ((3, 2), 3), ((1, 1), 1),
    ((3, 1), 2), ((3, 2), 2), ((2, 1), 1), ((3, 1), 1), ((3, 2), 1),
)
G2_BETA_2 = (
    ((0, 1), 1), ((1, 1), 1), ((3, 2), 2), ((2, 1), 1), ((3, 1), 1),
    ((3, 2), 1),
)

# C2 sequence for i=2 with coroots in simple-coroot coordinates; the
# published form writes the underlying rank-two data in the dual (root)
# coordinates, which maps onto these coroot coordinates under duality.
C2_BETA_2 = (((0, 1), 1), ((1, 2), 2), ((1, 1), 1), ((1, 2), 1))


def _neg_deg(betas):
    return tuple((neg(b.re), b.deg) for b in betas)


def test_g2_beta_fixtures():
    d = datum_of("G", 2)
    assert _neg_deg(af.canonical_beta_order(d, 1)) == G2_BETA_1
    assert _neg_deg(af.canonical_beta_order(d, 2)) == G2_BETA_2
    # an independent witness: the betas of the peeled word of t_{-omega_i}
    for i in (1, 2):
        _, word = af.reduced_word_ext(
            d, af.translation(d, neg(d.fundamental_weight(i))))
        assert af.beta_sequence(d, word) == af.canonical_beta_order(d, i)


def test_c2_beta_fixture():
    d = datum_of("C", 2)
    assert _neg_deg(af.canonical_beta_order(d, 2)) == C2_BETA_2
    assert _neg_deg(af.canonical_beta_order(d, 1)) == (
        ((1, 0), 1), ((1, 1), 1), ((1, 2), 1),
    )


def test_translation_lengths_g2():
    d = datum_of("G", 2)
    t1 = af.translation(d, neg(d.fundamental_weight(1)))
    t2 = af.translation(d, neg(d.fundamental_weight(2)))
    assert af.length_ext(d, t1) == 10
    assert af.length_ext(d, t2) == 6


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_translation_length_formula(family, rank):
    # l(t_lam) = <2 rho^vee-ish sum over coroots> for anti-dominant lam
    d = datum_of(family, rank)
    lam = tuple(-1 for _ in range(rank))
    t = af.translation(d, lam)
    assert af.length_ext(d, t) == sum(
        -d.pair(g, lam) for g in d.pos_coroots
    )


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_ext_group_laws(family, rank):
    d = datum_of(family, rank)
    elts = [
        af.translation(d, (-1,) * rank),
        ExtAffineElt((1,) + (0,) * (rank - 1), wg.longest_element(d)),
        ExtAffineElt((0,) * rank, wg.simple_reflection(d, 1)),
    ]
    e = af.ext_identity(d)
    for a in elts:
        assert af.multiply(a, af.inverse(a)) == e
        assert af.multiply(e, a) == a
        for b in elts:
            for c in elts:
                assert af.multiply(af.multiply(a, b), c) == af.multiply(
                    a, af.multiply(b, c)
                )


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_action_respects_multiplication(family, rank):
    d = datum_of(family, rank)
    a = ExtAffineElt((-1,) + (0,) * (rank - 1), wg.longest_element(d))
    b = af.multiply(
        af.translation(d, (0,) * (rank - 1) + (-1,)),
        ExtAffineElt((0,) * rank, wg.simple_reflection(d, 1)),
    )
    ab = af.multiply(a, b)
    for g in d.pos_coroots:
        for k in (0, 1, 2):
            c = AffineCoroot(g, k)
            assert af.act_on_affine_coroot(
                d, ab, c
            ) == af.act_on_affine_coroot(d, a, af.act_on_affine_coroot(d, b, c))


def test_action_refuses_a_weight_of_the_wrong_length():
    d = datum_of("A", 2)
    c = AffineCoroot(d.simple_coroot(1), 1)
    for wt in ((-1,), (-1, 0, 0)):
        with pytest.raises(ValueError, match="length-2"):
            af.act_on_affine_coroot(d, ExtAffineElt(wt, wg.identity(d)), c)


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_affine_reflection_involution(family, rank):
    d = datum_of(family, rank)
    for g in d.pos_coroots:
        for k in (1, 2):
            s = af.affine_reflection(d, AffineCoroot(neg(g), k))
            assert af.multiply(s, s) == af.ext_identity(d)
            # the reflection fixes its own hyperplane coroot up to sign
            img = af.act_on_affine_coroot(d, s, AffineCoroot(neg(g), k))
            assert img == AffineCoroot(g, -k)


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_reduced_word_roundtrip_translations(family, rank):
    d = datum_of(family, rank)
    lams = [neg(d.fundamental_weight(i)) for i in range(1, rank + 1)]
    lams.append((-1,) * rank)
    for lam in lams:
        t = af.translation(d, lam)
        pi, word = af.reduced_word_ext(d, t)
        assert af.length_ext(d, pi) == 0
        assert len(word) == af.length_ext(d, t)
        assert af.from_word_ext(d, word, pi) == t


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3)])
def test_right_descent_matches_length_rule(family, rank):
    # oracle: a s_i is shorter than a, by the closed length formula
    d = datum_of(family, rank)
    simples = [af.affine_simple_reflection(d, i) for i in range(rank + 1)]
    for v in wg.enumerate_group(d):
        for mu in itertools.product((-1, 0, 1), repeat=rank):
            a = ExtAffineElt(mu, v)
            la = af.length_ext(d, a)
            for i, s in enumerate(simples):
                shorter = af.length_ext(d, af.multiply(a, s)) < la
                assert af.is_right_descent_ext(d, a, i) == shorter, (mu, v, i)
            pi, word = af.reduced_word_ext(d, a)
            assert len(word) == la
            assert af.from_word_ext(d, word, pi) == a


def _reference_fold(d, word):
    """The betas of a word and ``s_{i_l} ... s_{i_1}``, element by element
    through the public multiply and affine action."""
    betas = [None] * len(word)
    p = af.ext_identity(d)
    for k in range(len(word) - 1, -1, -1):
        betas[k] = af.act_on_affine_coroot(d, p, af.affine_simple_coroot(d, word[k]))
        p = af.multiply(p, af.affine_simple_reflection(d, word[k]))
    return tuple(betas), p


def _check_word_kernel(d, a):
    pi, word = af.reduced_word_ext(d, a)
    assert af.from_word_ext(d, word, pi) == a
    betas, p = _reference_fold(d, word)
    assert af.beta_sequence(d, word) == betas
    assert af.word_from_beta(d, betas) == (af.inverse(p), word)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2), ("B", 3),
    ("D", 4),
])
def test_word_kernel_matches_the_element_reference(family, rank):
    # every t_mu v with v in W and mu in {-1, 0, 1}^r: the words and betas
    # derived on (wt, perm) pairs against the per-element reference
    d = datum_of(family, rank)
    for v in wg.enumerate_group(d):
        for mu in itertools.product((-1, 0, 1), repeat=rank):
            _check_word_kernel(d, ExtAffineElt(mu, v))


@pytest.mark.parametrize("family,rank", [("F", 4), ("E", 6)])
def test_word_kernel_matches_the_element_reference_sampled(family, rank):
    d = datum_of(family, rank)
    rng = random.Random(17)
    for _ in range(60):
        v = wg.from_word(d, [rng.randint(1, rank) for _ in range(40)])
        mu = tuple(rng.choice((-1, 0, 1)) for _ in range(rank))
        _check_word_kernel(d, ExtAffineElt(mu, v))


def test_reduced_word_ext_stops_on_a_wrong_descent(monkeypatch):
    # a descent test that always answers yes at i = 0 would peel forever;
    # the letter bound turns that into an error
    d = datum_of("D", 4)
    right, a_0 = af._descends, af._simple_steps(d)[0]
    monkeypatch.setattr(
        af, "_descends",
        lambda d, wt, perm, step: step is a_0 or right(d, wt, perm, step))
    with pytest.raises(AssertionError, match="length zero"):
        af.reduced_word_ext(d, af.translation(d, neg(d.fundamental_weight(1))))


@pytest.mark.parametrize("family,rank", [("D", 4), ("F", 4)])
def test_right_descent_matches_affine_action(family, rank):
    # oracle: a sends a_i to a negative affine coroot under the public action
    d = datum_of(family, rank)
    mus = [(0,) * rank] + [
        f(d.fundamental_weight(i)) for i in range(1, rank + 1)
        for f in (tuple, neg)
    ]
    simples = [af.affine_simple_coroot(d, i) for i in range(rank + 1)]
    for v in wg.enumerate_group(d):
        for mu in mus:
            a = ExtAffineElt(mu, v)
            for i, c in enumerate(simples):
                img = af.act_on_affine_coroot(d, a, c)
                assert af.is_right_descent_ext(d, a, i) == (
                    not img.is_positive()), (mu, v, i)
    for wt in ((0,) * (rank - 1), (0,) * (rank + 1)):
        with pytest.raises(ValueError, match=f"length-{rank}"):
            af.is_right_descent_ext(d, ExtAffineElt(wt, wg.identity(d)), 0)


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_beta_sequence_is_inversion_set(family, rank):
    # the betas of a reduced word are exactly the positive affine coroots
    # sent negative by the element, each exactly once
    d = datum_of(family, rank)
    lam = (-1,) * rank
    t = af.translation(d, lam)
    _, word = af.reduced_word_ext(d, t)
    betas = af.beta_sequence(d, word)
    assert len(set(betas)) == len(betas) == len(word)
    for b in betas:
        assert b.is_positive()
        assert not af.act_on_affine_coroot(d, t, b).is_positive()


@pytest.mark.parametrize("family,rank", ALL_TYPES + E_TYPES)
def test_canonical_beta_word_valid(family, rank):
    # every canonical layout is the beta sequence of an actual reduced word
    d = datum_of(family, rank)
    for i in range(1, rank + 1):
        betas = af.canonical_beta_order(d, i)
        elt, word = af.word_from_beta(d, betas)
        assert af.beta_sequence(d, word) == betas


def test_shifted_beta_rejects_dominant():
    d = datum_of("A", 2)
    with pytest.raises(ValueError, match="anti-dominant"):
        af.shifted_beta(d, 1, (1, 0))


def test_canonical_beta_argument_validation():
    d = datum_of("A", 2)
    with pytest.raises(ValueError):
        af.canonical_beta_order(d, 0)
    with pytest.raises(ValueError):
        af.canonical_beta_order(d, 3)


def test_word_from_beta_rejects_garbage():
    d = datum_of("A", 2)
    bad = (AffineCoroot((1, 1), 5), AffineCoroot((1, 0), 0))
    with pytest.raises(ValueError, match="not a valid beta sequence"):
        af.word_from_beta(d, bad)


@pytest.mark.parametrize("bad", [
    (AffineCoroot((2, 1), 1), AffineCoroot((1, 0), 0)),
    (AffineCoroot((1, 0), 1), AffineCoroot((-1, -1, 0), 1)),
    # the layout of index 1 with its first beta repeated
    (AffineCoroot((-1, 0), 1), AffineCoroot((-1, 0), 1),
     AffineCoroot((-1, -1), 1)),
], ids=["not-a-coroot", "wrong-rank", "too-long"])
def test_word_from_beta_rejects_a_bad_beta(bad):
    d = datum_of("A", 2)
    with pytest.raises(ValueError, match="not a valid beta sequence"):
        af.word_from_beta(d, bad)


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("C", 2), ("G", 2), ("B", 3), ("D", 4), ("F", 4),
])
def test_word_for_translation(family, rank):
    d = datum_of(family, rank)
    lams = [neg(d.fundamental_weight(i)) for i in range(1, rank + 1)]
    lams += [(-1,) * rank, (-2,) + (-1,) * (rank - 1)]
    # mixed signs, and their negatives
    lams += [(1,) + (-1,) * (rank - 1), (-2,) + (1,) * (rank - 1)]
    for lam in lams + [neg(lam) for lam in lams]:
        t = af.translation(d, lam)
        pi, word = af.word_for_translation(d, lam)
        assert af.length_ext(d, pi) == 0
        assert af.from_word_ext(d, word, pi) == t
        assert len(word) == af.length_ext(d, t)


# every weight of any sign in {-2..2}^r at rank at most 2, {-1, 0, 1}^r above
CHAIN_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 4), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("family,rank", CHAIN_TYPES)
def test_lambda_chain_is_the_inversion_set(family, rank):
    # the oracle enumerates the positive affine coroots b with t_lam(b)
    # negative, sharing no code with the sort
    d = datum_of(family, rank)
    coords = range(-2, 3) if rank <= 2 else range(-1, 2)
    for lam in itertools.product(coords, repeat=rank):
        t = af.translation(d, lam)
        top = max(abs(d.pair(g, lam)) for g in d.pos_coroots)
        candidates = [AffineCoroot(g, k) for g in d.coroots for k in range(top + 1)]
        inversions = [b for b in candidates if b.is_positive()
                      and not af.act_on_affine_coroot(d, t, b).is_positive()]
        chain = af.lambda_chain(d, lam)
        assert Counter(chain) == Counter(inversions), lam
        pi, word = af.word_for_translation(d, lam)
        assert len(word) == af.length_ext(d, t) and af.length_ext(d, pi) == 0
        assert af.beta_sequence(d, word) == chain


def test_simple_affine_reflections():
    d = datum_of("A", 2)
    s0 = af.affine_simple_reflection(d, 0)
    # s_0 = t_theta s_theta with theta the highest (co)root
    assert s0.wt == d.root_to_weight(d.pos_roots[-1])
    assert af.multiply(s0, s0) == af.ext_identity(d)
    assert af.affine_simple_coroot(d, 0) == AffineCoroot((-1, -1), 1)


@pytest.mark.parametrize("i", [-1, 3])
def test_affine_simple_index_validation(i):
    d = datum_of("A", 2)
    with pytest.raises(ValueError, match="out of range"):
        af.affine_simple_coroot(d, i)
    with pytest.raises(ValueError, match="out of range"):
        af.affine_simple_reflection(d, i)


@pytest.mark.parametrize("family,rank", ALL_TYPES + [("E", 8)])
def test_memoized_tables_match_fresh_computation(family, rank):
    # a fresh datum: the first call of each loop fills its memo, the second
    # reads it back
    d = build_datum(family, rank)
    for _ in range(2):
        theta = d.highest_dual_root()
        assert d.is_pos_coroot(theta)
        assert all(x >= y for g in d.pos_coroots for x, y in zip(theta, g))
        assert af.affine_simple_coroot(d, 0) == AffineCoroot(neg(theta), 1)
        for i in range(rank + 1):
            assert af.affine_simple_reflection(d, i) == af.affine_reflection(
                d, af.affine_simple_coroot(d, i)
            )
        for c in d.coroots:
            assert d.coroot_weight(c) == d.root_to_weight(d.root_of_coroot(c))


def test_memo_belongs_to_its_datum():
    a, b = build_datum("G", 2), build_datum("G", 2)
    for d in (a, b):
        af.canonical_beta_order(d, 1)
        af.reduced_word_ext(d, af.translation(d, (-1, 0)))
        for gamma in d.pos_coroots:
            qbg.criterion_edge(d, wg.identity(d), gamma)
            wg.reflection_of(d, gamma)
        gf.w0_twist(d, gf.LaurentPoly.monomial((1, 0)))
    assert {("reflection", k) for k in range(len(a.pos_coroots))} <= a.memo.keys()
    assert {"longest_element", "w0_sigma", "simple_steps"} <= a.memo.keys()
    assert wg.longest_element(a) is a.memo["longest_element"]
    assert a.memo is not b.memo
    assert a.memo.keys() == b.memo.keys()
    assert not {id(v) for v in a.memo.values()} & {id(v) for v in b.memo.values()}
    assert af.canonical_beta_order(a, 1) == af.canonical_beta_order(b, 1)
