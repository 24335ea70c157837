"""Folded alcove path enumeration: counts, ordering, records, exports."""

import csv
import io
import itertools
import json
from collections import Counter
from types import SimpleNamespace

import pytest

from alcovepaths.lattice import add, neg
from alcovepaths import weylgroup as wg
from alcovepaths import affine as af
from alcovepaths.affine import AffineCoroot
from alcovepaths import paths as pth
from alcovepaths import qbg
from alcovepaths import genfun as gf
from conftest import datum_of, graph_of, written


def _translation_input(family, rank, lam):
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    t = af.translation(d, lam)
    _, word = af.reduced_word_ext(d, t)
    return d, g, t, af.beta_sequence(d, word)


def _kernel_terms(d, g, z0, betas):
    """The kernel's terms from z0, read as ``genfun.c_function`` reads them."""
    return pth.fold_tables(d, g, {z0.dir: z0.wt}, [betas])[0][z0.dir]


def _kernel_count(d, g, z0, betas):
    starts = {z0.dir: (0,) * d.rank}
    return sum(pth.fold_tables(d, g, starts, [betas])[0][z0.dir].values())


def _walk_terms(d, g, z0, betas):
    """The terms of the unmemoized enumeration from z0."""
    return dict(Counter(
        (pth.end_weight(p), pth.qwt_degree(p))
        for p in pth.enumerate_paths(d, g, z0, betas)
    ))


def _assert_table_matches_walks(d, g, starts, betas):
    """One table over the directions ``starts``, each at weight zero, and one
    table per start, against the enumeration from each t_0 v, on the graph
    and on its reversal.  A single start gives the kernel its tightest
    digit bound."""
    zero = (0,) * d.rank
    starts = dict.fromkeys(starts, zero)
    for gr in (g, g.reversed):
        table = pth.fold_tables(d, gr, starts, [betas])[0]
        assert set(table) == set(starts)
        for v in starts:
            want = _walk_terms(d, gr, af.ExtAffineElt(zero, v), betas)
            assert table[v] == want, (v, gr is g)
            (alone,) = pth.fold_tables(d, gr, {v: zero}, [betas])
            assert alone[v] == want, (v, gr is g)


def test_g2_fundamental_counts():
    for i, want in ((1, 15), (2, 7)):
        d, g, t, betas = _translation_input(
            "G", 2, neg(datum_of("G", 2).fundamental_weight(i))
        )
        assert _kernel_count(d, g, t, betas) == want


@pytest.mark.parametrize("n", range(1, 5))
def test_a1_counts_powers_of_two(n):
    d, g, t, betas = _translation_input("A", 1, (-n,))
    assert _kernel_count(d, g, t, betas) == 2 ** n


@pytest.mark.parametrize("lam", [(-1, 0), (0, -1), (-1, -1), (-2, -1)])
def test_a2_counts_powers_of_three(lam):
    d, g, t, betas = _translation_input("A", 2, lam)
    assert _kernel_count(d, g, t, betas) == 3 ** (-lam[0] - lam[1])


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (-1, -1)), ("C", 2, (-1, 0)), ("C", 2, (0, -1)), ("G", 2, (0, -1)),
])
def test_count_matches_enumeration(family, rank, lam):
    d, g, t, betas = _translation_input(family, rank, lam)
    paths = list(pth.enumerate_paths(d, g, t, betas))
    assert len(paths) == _kernel_count(d, g, t, betas)
    # fold sets are distinct and lexicographically ordered
    folds = [p.folds for p in paths]
    assert folds == sorted(set(folds))
    assert folds[0] == ()
    # the memoized kernel against the unmemoized enumeration, both ways
    for gr in (g, g.reversed):
        assert _kernel_terms(d, gr, t, betas) == _walk_terms(d, gr, t, betas)


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (-1, 0)), ("A", 2, (0, -1)), ("A", 2, (-1, -1)),
    ("C", 2, (-1, 0)), ("C", 2, (0, -1)), ("C", 2, (-1, -1)),
    ("G", 2, (-1, 0)), ("G", 2, (0, -1)), ("G", 2, (-1, -1)),
    ("B", 3, (-1, 0, 0)), ("B", 3, (0, -1, 0)), ("B", 3, (0, 0, -1)),
])
def test_fold_table_matches_walks_from_each_start(family, rank, lam):
    # one table over every start against a single-start table and the
    # unmemoized enumeration, from t_0 v t_lam = t_{v(lam)} v for each v
    d, g, t, betas = _translation_input(family, rank, lam)
    zero = (0,) * rank
    for gr in (g, g.reversed):
        table = pth.fold_tables(d, gr, dict.fromkeys(g.vertices, zero), [betas])[0]
        assert set(table) == set(g.vertices)
        for v, terms in table.items():
            assert pth.fold_tables(d, gr, {v: zero}, [betas])[0][v] == terms
            z0 = af.ExtAffineElt(wg.act_weight(v, lam), v)
            want = _walk_terms(d, gr, z0, betas)
            assert _kernel_terms(d, gr, z0, betas) == want, (v, gr is g)


# The kernel packs each (weight, q-degree) into one integer whose digits
# must never carry; these inputs push the digits to their extremes.

@pytest.mark.parametrize("m", range(1, 5))
def test_fold_table_at_the_digit_bound_in_a1(m):
    # the end weights of t_{-m omega} span [-2m, 2m], both ends reached
    d, g, t, betas = _translation_input("A", 1, (-m,))
    _assert_table_matches_walks(d, g, g.vertices, betas)
    plain = pth.fold_tables(d, g, dict.fromkeys(g.vertices, (0,)), [betas])[0]
    weights = {wt for terms in plain.values() for (wt,), _ in terms}
    assert {-2 * m, 2 * m} <= weights
    # a start weight is packed into the keys, and the digit bound grows by
    # its largest coordinate, so one far outside the sweeps' own range gets
    # the weight-zero table shifted
    far, near = g.vertices
    table = pth.fold_tables(d, g, {far: (10 ** 6,), near: (0,)}, [betas])[0]
    assert table[far] == {((x + 10 ** 6,), q): c
                          for ((x,), q), c in plain[far].items()}
    assert table[near] == plain[near]


@pytest.mark.parametrize("m", (1, 2))
def test_fold_table_at_the_digit_bound_in_g2(m):
    # G2 is the one type whose root weights have a coordinate of size 3
    d, g, t, betas = _translation_input("G", 2, (-m, 0))
    assert max(abs(x) for c in d.coroots for x in d.coroot_weight(c)) == 3
    _assert_table_matches_walks(d, g, g.vertices, betas)


@pytest.mark.parametrize("family,rank,lam", [
    ("B", 3, (0, -1, 0)), ("G", 2, (-1, 0)),
])
def test_fold_table_packs_start_weights_at_the_extremes(family, rank, lam):
    # one call mixes zero starts with starts whose coordinates are all
    # +10**6, all -10**6 or of mixed sign; each table is its start's
    # weight-zero table shifted by mu, and equal terms share one key tuple
    d, g, t, betas = _translation_input(family, rank, lam)
    big, zero = 10 ** 6, (0,) * rank
    mus = [zero, (big,) * rank, (-big,) * rank,
           tuple(big if j % 2 else -big for j in range(rank))]
    for gr in (g, g.reversed):
        starts = {v: mus[n % len(mus)] for n, v in enumerate(gr.vertices)}
        table = pth.fold_tables(d, gr, starts, [betas])[0]
        keys, shared = {}, 0
        for v, mu in starts.items():
            plain = pth.fold_tables(d, gr, {v: zero}, [betas])[0][v]
            assert table[v] == {
                (tuple(x + m for x, m in zip(wt, mu)), q): c
                for (wt, q), c in plain.items()}, (v, mu)
            for key in table[v]:
                shared += key in keys
                assert keys.setdefault(key, key) is key, (v, key)
        assert shared


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
])
def test_fold_shift_is_a_root_weight(family, rank):
    # the kernel's shift v(wt) at gamma + k delta is -k times the root
    # weight of the coroot v(gamma)
    d = datum_of(family, rank)
    for v in wg.enumerate_group(d):
        for c in d.coroots:
            for k in (1, -2):
                wt = af.affine_reflection(d, AffineCoroot(c, k)).wt
                assert wg.act_weight(v, wt) == tuple(
                    -k * x for x in d.coroot_weight(wg.act_coroot(v, c))
                ), (v, c, k)


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_fold_table_on_degree_shifted_betas(family, rank):
    # the typed betas of genfun.recursion_check, whose degrees are raised
    # by <Re beta, lam>, from every start
    d, g = datum_of(family, rank), graph_of(family, rank)
    for lam in itertools.product((0, -1, -2), repeat=rank):
        for i in range(1, rank + 1):
            _assert_table_matches_walks(
                d, g, g.vertices, af.shifted_beta(d, i, lam))


def test_fold_table_f4_omega2():
    d, g, t, betas = _translation_input("F", 4, (0, -1, 0, 0))
    assert _kernel_count(d, g, t, betas) == 1703
    _assert_table_matches_walks(d, g, (t.dir,), betas)


def test_fold_table_gives_each_start_its_own_table():
    # with no betas, or the single a_0 that 3 of the 6 starts cannot fold
    # at, several starts have the same terms; each still gets its own dict
    d, g = datum_of("A", 2), graph_of("A", 2)
    for betas in ((), (af.affine_simple_coroot(d, 0),)):
        for gr in (g, g.reversed):
            starts = dict.fromkeys(gr.vertices, (0, 0))
            (table,) = pth.fold_tables(d, gr, starts, [betas])
            assert len({id(terms) for terms in table.values()}) == len(table)
            first, *rest = gr.vertices
            table[first].clear()
            for v in rest:
                z0 = af.ExtAffineElt((0, 0), v)
                assert table[v] == _walk_terms(d, gr, z0, betas), (v, betas)


def _word_betas(d, lam):
    """The betas of the word ``reduced_word_ext`` derives for t_lam."""
    return af.beta_sequence(d, af.reduced_word_ext(d, af.translation(d, lam))[1])


@pytest.mark.parametrize("family,rank,lam,mixed", [
    ("B", 3, (0, -1, -1), (1, 1, -1)),
    ("C", 3, (-1, 0, -1), (1, 1, -1)),
    ("G", 2, (-1, -1), (1, -2)),
])
def test_fold_tables_match_one_call_per_sequence(family, rank, lam, mixed):
    # the words identities.word_choice walks at an anti-dominant lam, where
    # every table agrees with the first, and two words of a mixed-sign
    # weight at which C_v depends on the word for some v but not all; each
    # table is the one-sequence call's, and a later table holds the first
    # one's dict exactly where the two agree
    d, g = datum_of(family, rank), graph_of(family, rank)
    words = [_word_betas(d, lam), af.lambda_chain(d, lam)]
    for j in range(1, rank + 1):
        if lam[j - 1] < 0:
            up = add(lam, d.fundamental_weight(j))
            words.append(af.shifted_beta(d, j, up) + _word_betas(d, up))
    cases = [(lam, words), (mixed, [_word_betas(d, mixed), af.lambda_chain(d, mixed)])]
    for weight, seqs in cases:
        starts = {v: wg.act_weight(v, weight) for v in g.vertices}
        for gr in (g, g.reversed):
            tables = pth.fold_tables(d, gr, starts, seqs)
            assert tables == [pth.fold_tables(d, gr, starts, [b])[0] for b in seqs]
            first, *rest = tables
            shared = 0
            for table in tables:
                assert len({id(terms) for terms in table.values()}) == len(starts)
            for table in rest:
                for v in starts:
                    assert (table[v] is first[v]) == (table[v] == first[v]), v
                    shared += table[v] is first[v]
            if weight == lam:
                assert shared == len(rest) * len(starts), gr is g
            else:
                assert 0 < shared < len(starts), gr is g


def test_fold_tables_take_the_bound_from_every_sequence():
    # in A1 the words of t_{-omega} and t_{-4 omega} have sum |deg| 1 and
    # 10; the second's end weights reach +-8, past the digits a bound set
    # by the first sequence alone would give
    d, g = datum_of("A", 1), graph_of("A", 1)
    short, long = _word_betas(d, (-1,)), _word_betas(d, (-4,))
    starts = dict.fromkeys(g.vertices, (0,))
    for seqs in ([short, long], [long, short]):
        for gr in (g, g.reversed):
            tables = pth.fold_tables(d, gr, starts, seqs)
            assert tables == [pth.fold_tables(d, gr, starts, [b])[0] for b in seqs]
    weights = {wt for terms in tables[0].values() for (wt,), _ in terms}
    assert {-8, 8} <= weights
    with pytest.raises(ValueError, match="no beta sequence"):
        pth.fold_tables(d, g, starts, [])


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (-1, -1)), ("C", 2, (-1, -1)), ("G", 2, (-1, -1)),
    ("B", 3, (0, -1, 0)),
])
def test_fold_table_start_weights(family, rank, lam):
    # the start {v: v(lam)} is t_{v(lam)} v, the start of C_v^{t_lam}
    d, g, t, betas = _translation_input(family, rank, lam)
    starts = {v: wg.act_weight(v, lam) for v in g.vertices}
    for gr in (g, g.reversed):
        table = pth.fold_tables(d, gr, starts, [betas])[0]
        assert set(table) == set(starts)
        for v, mu in starts.items():
            z0 = af.ExtAffineElt(mu, v)
            assert table[v] == _walk_terms(d, gr, z0, betas), (v, gr is g)

    def read(key):
        raise AssertionError("an edge was read")
    # a bad start, alone or among good ones, is refused before any edge is read
    unread = SimpleNamespace(edges=SimpleNamespace(get=read))
    for bad in ({t.dir: (0,) * (rank + 1)}, {**starts, t.dir: (0,) * (rank - 1)}):
        with pytest.raises(ValueError, match="length"):
            pth.fold_tables(d, unread, bad, [betas])


def test_enumeration_prefix_closed():
    d, g, t, betas = _translation_input("C", 2, (-1, -1))
    folds = {p.folds for p in pth.enumerate_paths(d, g, t, betas)}
    for J in folds:
        for k in range(len(J)):
            assert J[:k] in folds


def test_path_invariants():
    d, g, t, betas = _translation_input("A", 2, (-1, -1))
    refl = [af.affine_reflection(d, b) for b in betas]
    for p in pth.enumerate_paths(d, g, t, betas):
        assert p.start == t
        assert len(p.ends) == len(p.folds) + 1
        assert set(p.quantum_folds) <= set(p.folds)
        # ends is the running product of reflections at the folds
        z = t
        for j, end in zip(p.folds, p.ends[1:]):
            z = af.multiply(z, refl[j - 1])
            assert end == z
        assert pth.end_weight(p) == p.ends[-1].wt
        assert pth.end_dir(p) == p.ends[-1].dir
        assert pth.qwt_degree(p) == sum(betas[j - 1].deg for j in p.quantum_folds)


def _nonzero(values, rank, most=None):
    """The nonzero weights with coordinates in ``values`` and at most
    ``most`` nonzero coordinates."""
    return [w for w in itertools.product(values, repeat=rank)
            if 0 < sum(map(bool, w)) <= (most or rank)]


@pytest.mark.parametrize("family,rank,wts", [
    # w0 = -1 in every type here but A3, where w0 v and v w0 differ
    ("A", 3, _nonzero((-1, 0, 1), 3)),
    ("G", 2, _nonzero(range(-2, 3), 2)),
    ("B", 3, _nonzero((-1, 0, 1), 3)),
    ("C", 3, _nonzero((-1, 0, 1), 3)),
    # two nonzero coordinates at most, and two full weights, keep D4 near 0.5 s
    ("D", 4, _nonzero((-1, 0, 1), 4, most=2) + [(1, 1, 1, 1), (1, -1, 1, -1)]),
])
def test_reversed_walk_is_the_w0_image_of_the_forward_walk(family, rank, wts):
    # at anti-dominant, dominant and mixed-sign wt, the reversed table from
    # {v: v(wt)} is the w0 twist of the forward table from {w0 v: (w0 v)(wt)}
    # at every vertex v: the walk on graph.reversed is the forward walk read
    # through w0
    d, g = datum_of(family, rank), graph_of(family, rank)
    w0 = wg.longest_element(d)
    for wt in wts:
        _, word = af.reduced_word_ext(d, af.translation(d, wt))
        betas = af.beta_sequence(d, word)
        starts = {v: wg.act_weight(v, wt) for v in g.vertices}
        fwd = pth.fold_tables(d, g, starts, [betas])[0]
        back = pth.fold_tables(d, g.reversed, starts, [betas])[0]
        for v in g.vertices:
            want = gf.w0_twist(d, gf.LaurentPoly(fwd[wg.multiply(w0, v)]))
            assert gf.LaurentPoly(back[v]) == want, (wt, wg.reduced_word(d, v))


def test_reversed_enumeration_swaps_edge_kinds():
    d, g, t, betas = _translation_input("A", 1, (-1,))
    fwd = list(pth.enumerate_paths(d, g, t, betas))
    rev = list(pth.enumerate_paths(d, g.reversed, t, betas))
    assert [p.folds for p in fwd] == [(), (1,)]
    assert [p.folds for p in rev] == [(), (1,)]
    # forward, the fold at 1 rides a covering edge; reversed, a quantum one
    assert fwd[1].quantum_folds == ()
    assert rev[1].quantum_folds == (1,)


def test_malformed_betas_rejected():
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    z0 = af.ext_identity(d)
    with pytest.raises(ValueError, match="zero real part"):
        pth.fold_tables(d, g, {z0.dir: z0.wt}, [[AffineCoroot((0, 0), 1)]])
    with pytest.raises(ValueError, match="not a coroot"):
        pth.fold_tables(d, g, {z0.dir: z0.wt}, [[AffineCoroot((2, 0), 1)]])


def test_a_beta_with_a_list_real_part_is_read_as_its_tuple():
    # the coroot lookup converts the real part once, for the check and the
    # index alike, so a list is the coroot it lists
    d, g, t, betas = _translation_input("A", 2, (-1, -1))
    e = wg.identity(d)
    listed = [AffineCoroot(list(b.re), b.deg) for b in betas]
    assert pth.fold_tables(d, g, {e: (0, 0)}, [listed]) == (
        pth.fold_tables(d, g, {e: (0, 0)}, [betas]))


def test_export_json_records():
    d, g, t, betas = _translation_input("A", 1, (-1,))
    out = json.loads(written(pth.export, d, pth.enumerate_paths(d, g, t, betas), "json"))
    assert len(out) == 2
    assert out[0] == {
        "folds": [], "quantum_folds": [], "end_weight": [-1],
        "end_dir": "e", "qwt_degree": 0,
    }
    assert out[1]["folds"] == [1]
    assert out[1]["end_weight"] == [1]


def test_export_csv_parses_back():
    d, g, t, betas = _translation_input("A", 2, (-1, 0))
    text = written(pth.export, d, pth.enumerate_paths(d, g, t, betas), "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert rows[0]["end_dir"] == "e"
    assert {r["end_weight"] for r in rows} == {"-1 0", "1 -1", "0 1"}


@pytest.mark.parametrize("family,rank,lam", [("A", 3, (-1, 0, -1)), ("G", 2, (-1, -1))])
def test_export_is_the_stdlib_encoding(family, rank, lam):
    # oracle: the stdlib json and csv writers on the path records, both ways
    d, g, t, betas = _translation_input(family, rank, lam)
    for gr in (g, g.reversed):
        paths = list(pth.enumerate_paths(d, gr, t, betas))
        records = [pth.path_record(d, p) for p in paths]
        assert written(pth.export, d, paths, "json") == json.dumps(records, indent=1) + "\n"
        buf = io.StringIO()
        rows = csv.DictWriter(buf, fieldnames=list(records[0]), lineterminator="\n")
        rows.writeheader()
        rows.writerows({**r, **{k: " ".join(map(str, r[k])) for k in
                                ("folds", "quantum_folds", "end_weight")}} for r in records)
        assert written(pth.export, d, paths, "csv") == buf.getvalue()
        assert '"' in buf.getvalue()  # an end name with a comma is quoted
    # no record is the empty JSON list
    assert written(pth.export, d, [], "json") == "[]\n"


class _Broken(Exception):
    pass


def _then_broken(paths, k):
    yield from paths[:k]
    raise _Broken


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_export_writes_each_record_before_the_next_is_drawn(fmt):
    # a walk that fails after k paths leaves exactly k records written
    d, g, t, betas = _translation_input("A", 2, (-1, -1))
    paths = list(pth.enumerate_paths(d, g, t, betas))
    whole = written(pth.export, d, paths, fmt)
    for k in (0, 1, 3, len(paths)):
        out = io.StringIO()
        with pytest.raises(_Broken):
            pth.export(d, _then_broken(paths, k), fmt, out)
        text = out.getvalue()
        assert whole.startswith(text)
        if fmt == "json":
            assert text.count('"folds"') == k
        else:
            assert len(text.splitlines()) == k + (fmt == "csv")


class _Unread:
    def __getitem__(self, k):
        raise AssertionError("an edge was read")


def test_a_start_that_is_no_vertex_is_refused():
    # the longest element of B2 is no vertex of the A2 graph; the walks
    # used to read no edge from it and count the empty path alone.  The
    # duck graph offers only what the walks and edge_kind read: datum,
    # vertices, steps and index
    d, g, t, betas = _translation_input("A", 2, (-1, -1))
    bad = wg.longest_element(datum_of("B", 2))
    good = {v: (0, 0) for v in g.vertices}
    for gr in (g, g.reversed):
        unread = SimpleNamespace(datum=gr.datum, vertices=gr.vertices,
                                 steps=_Unread(), index=gr.index)
        for starts in ({bad: (0, 0)}, {**good, bad: (0, 0)}):
            with pytest.raises(ValueError, match="not a vertex"):
                pth.fold_tables(d, unread, starts, [betas])
        with pytest.raises(ValueError, match="not a vertex"):
            next(pth.enumerate_paths(d, unread, af.ExtAffineElt((0, 0), bad), betas))
        with pytest.raises(ValueError, match="not a vertex"):
            qbg.edge_kind(unread, bad, d.pos_coroots[0])
    with pytest.raises(ValueError, match="not a vertex"):
        gf.c_function(d, g, af.ExtAffineElt((0, 0), bad), t)


@pytest.mark.parametrize("family,rank,lam", [
    ("B", 3, (-1, 0, 0)), ("C", 3, (0, 0, -1)), ("G", 2, (-1, -1)),
])
def test_fold_table_reads_starts_equal_to_vertices(family, rank, lam):
    # a start equal to a vertex but another object walks as the vertex does
    d, g, t, betas = _translation_input(family, rank, lam)
    starts = {v: wg.act_weight(v, lam) for v in g.vertices}
    copies = {wg.from_word(d, wg.reduced_word(d, v)): mu for v, mu in starts.items()}
    e = wg.identity(d)
    assert e == g.vertices[0] and e is not g.vertices[0]
    for gr in (g, g.reversed):
        want = pth.fold_tables(d, gr, starts, [betas])[0]
        assert pth.fold_tables(d, gr, copies, [betas])[0] == want
        zero, first = (0,) * rank, g.vertices[0]
        assert pth.fold_tables(d, gr, {e: zero}, [betas])[0][e] == (
            pth.fold_tables(d, gr, {first: zero}, [betas])[0][first])
