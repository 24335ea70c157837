"""Quantum Bruhat graphs: counts, duality, the edge rule, export.

``qbg.build`` uses the obstruction criterion alone; the length
conditions, which define the graph, are the oracle here (and in
``test_acceptance.test_06_edges_obstruction_criterion``, edge by edge).
One transcribed reference table for A2 states 16 edges; the length
conditions give 8 covering plus 7 quantum = 15, and so does the
criterion.  The fixture asserts 15.
"""

import ast
import importlib
import inspect
import io
import json
import operator
import pkgutil
import random
import re
from pathlib import Path

import pytest

import alcovepaths
from alcovepaths.lattice import build_datum, dot
from alcovepaths import weylgroup as wg
from alcovepaths import affine as af
from alcovepaths import qbg
from alcovepaths import paths as pth
from alcovepaths import genfun as gf
from alcovepaths import identities as ids
from alcovepaths import macdonald as mac
from conftest import (TYPES_UP_TO_RANK_8, datum_of, graph_of, length_rule_edges,
                      two_rho, written)

EDGE_COUNTS = {
    ("A", 1): (1, 1),
    ("A", 2): (8, 7),
    ("C", 2): (12, 10),
    ("G", 2): (20, 18),
}


@pytest.mark.parametrize("family,rank", sorted(EDGE_COUNTS))
def test_edge_counts(family, rank):
    g = graph_of(family, rank)
    kinds = [kind for kind, _ in g.edges.values()]
    bruhat, quantum = EDGE_COUNTS[(family, rank)]
    assert kinds.count(qbg.BRUHAT) == bruhat
    assert kinds.count(qbg.QUANTUM) == quantum


@pytest.mark.parametrize("family,rank", sorted(EDGE_COUNTS))
def test_edge_length_conditions(family, rank):
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    for (w, gamma), (kind, _) in g.edges.items():
        ws = wg.multiply(w, wg.reflection_of(d, gamma))
        lw, lws = wg.length(w), wg.length(ws)
        if kind == qbg.BRUHAT:
            assert lws == lw + 1
        else:
            assert lws == lw - dot(gamma, two_rho(d)) + 1


@pytest.mark.parametrize("family,rank", sorted(EDGE_COUNTS) + [("B", 3)])
def test_reflect_table(family, rank):
    # each edge stores its end w s_gamma, in both directions, as the vertex
    # object itself, so the table holds one WeylElt per element
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    vertex = {w: w for w in g.vertices}
    for gr in (g, g.reversed):
        for (w, gamma), (kind, ws) in gr.edges.items():
            assert kind in (qbg.BRUHAT, qbg.QUANTUM)
            assert ws == wg.multiply(w, wg.reflection_of(d, gamma))
            assert ws is vertex[ws]


@pytest.mark.parametrize("family,rank", sorted(EDGE_COUNTS) + [
    ("B", 3), ("C", 3), ("D", 4), ("F", 4),
])
def test_reversed_graph(family, rank):
    # the edge w -> w s_gamma of g is the edge w s_gamma -> w of g.reversed,
    # and g.reversed is g's own columns with vertex i renamed w0 vertices[i],
    # each name one of g's vertex objects
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    rev = g.reversed
    assert len(rev.edges) == len(g.edges)
    for (w, gamma), (kind, ws) in g.edges.items():
        assert rev.edges[(ws, gamma)] == (kind, w)
    assert rev.steps is g.steps
    w0, vertex = wg.longest_element(d), {w: w for w in g.vertices}
    for v, w in zip(rev.vertices, g.vertices, strict=True):
        assert v == wg.multiply(w0, w)
        assert v is vertex[v]
    assert rev.reversed.edges == g.edges
    assert [rev.index(v) for v in rev.vertices] == list(range(len(g.vertices)))


def test_reversed_graph_built_once_on_demand():
    g = qbg.build(datum_of("A", 2))
    assert "reversed" not in vars(g)
    assert g.reversed is g.reversed


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4),
])
def test_quantum_labels_are_quantum_roots(family, rank):
    # Brenti-Fomin-Postnikov: gamma labels a quantum edge iff
    # l(s_gamma) = <2 rho, gamma> - 1; the right side is computed from the
    # reflection's length alone, with no graph lookup
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    labels = {gamma for (_, gamma), (kind, _) in g.edges.items()
              if kind == qbg.QUANTUM}
    quantum_roots = {
        gamma for gamma in d.pos_coroots
        if wg.length(wg.reflection_of(d, gamma)) == dot(gamma, two_rho(d)) - 1
    }
    assert labels == quantum_roots
    assert labels


@pytest.mark.parametrize("family,rank", TYPES_UP_TO_RANK_8)
def test_exclusion_rule_is_the_bfp_condition(family, rank):
    # at sigma = s_gamma the obstruction criterion asks only whether gamma
    # is excluded, and s_gamma -> e is quantum iff the Brenti-Fomin-Postnikov
    # condition holds; no group or graph is built, so E6-E8 are in reach
    d = datum_of(family, rank)
    for gamma in d.pos_coroots:
        s = wg.reflection_of(d, gamma)
        bfp = wg.length(s) == dot(gamma, two_rho(d)) - 1
        assert qbg.criterion_edge(s, gamma) == bfp, gamma


@pytest.mark.parametrize("family,rank,size",
                         [("E", 6, 250), ("E", 7, 200), ("E", 8, 120)])
def test_edge_rule_on_sampled_elements(family, rank, size):
    # the E types are beyond the exhaustive comparison in test_acceptance;
    # a seeded sample, against the length definition on every positive
    # coroot, enumerates no group.  Each word is a prefix of a reduced word
    # of w0, so every length is reached, then ``rank`` random letters
    d = datum_of(family, rank)
    rng = random.Random(rank)
    top = wg.reduced_word(wg.longest_element(d))
    sample = list(dict.fromkeys(
        wg.from_word(d, top[:rng.randrange(len(top) + 1)]
                     + tuple(rng.randint(1, rank) for _ in range(rank)))
        for _ in range(size)))
    edges = length_rule_edges(d, sample)
    assert {(w, gamma) for w in sample for gamma in d.pos_coroots
            if qbg.criterion_edge(w, gamma)} == edges.keys()
    # the kind is the sign of w(gamma), and both kinds are sampled
    assert {kind for kind, _ in edges.values()} == {qbg.BRUHAT, qbg.QUANTUM}
    for (w, gamma), (kind, _) in edges.items():
        assert (kind == qbg.BRUHAT) == d.is_pos_coroot(wg.act_coroot(w, gamma))


def test_identity_edges_are_simple_covers():
    # from the identity, exactly the simple coroots give (covering) edges
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    e = wg.identity(d)
    assert qbg.edge_kind(g, e, (1, 0)) == qbg.BRUHAT
    assert qbg.edge_kind(g, e, (0, 1)) == qbg.BRUHAT
    assert qbg.edge_kind(g, e, (1, 1)) is None
    # out of w0, every positive coroot labels a covering-down (quantum) edge
    w0 = wg.longest_element(d)
    for gamma in d.pos_coroots:
        assert qbg.edge_kind(g, w0, gamma) == qbg.QUANTUM


def test_edge_kind_lookup():
    d = datum_of("A", 2)
    g = graph_of("A", 2)
    e = wg.identity(d)
    assert qbg.edge_kind(g, e, (1, 0)) == qbg.BRUHAT
    # negative labels are normalized
    assert qbg.edge_kind(g, e, (-1, 0)) == qbg.BRUHAT
    # on the reversed graph, the edge out of s_1 along alpha_1 is the cover
    # e -> s_1 turned around, and the one out of e the quantum s_1 -> e
    s1 = wg.simple_reflection(d, 1)
    assert qbg.edge_kind(g.reversed, s1, (-1, 0)) == qbg.BRUHAT
    assert qbg.edge_kind(g.reversed, e, (1, 0)) == qbg.QUANTUM
    with pytest.raises(ValueError):
        qbg.edge_kind(g, e, (5, 5))


def test_one_line_notation():
    d = datum_of("A", 2)
    assert ids._one_line(wg.identity(d)) == (1, 2, 3)
    assert ids._one_line(wg.simple_reflection(d, 1)) == (2, 1, 3)
    assert ids._one_line(wg.longest_element(d)) == (3, 2, 1)


def test_signed_one_line_notation():
    d = datum_of("C", 2)
    assert ids._one_line(wg.identity(d)) == (1, 2, 3, 4)
    # s_2 swaps position 2 with bar(2)
    assert ids._one_line(wg.simple_reflection(d, 2)) == (1, 3, 2, 4)


def test_export_json_deterministic():
    g = graph_of("A", 2)
    out1 = written(qbg.export_json, g)
    out2 = written(qbg.export_json, g)
    assert out1 == out2
    data = json.loads(out1)
    assert len(data["vertices"]) == 6
    assert len(data["edges"]) == 15
    kinds = {e["kind"] for e in data["edges"]}
    assert kinds == {"bruhat", "quantum"}


def test_export_dot():
    out = written(qbg.export_dot, graph_of("A", 1))
    assert out.startswith("digraph qbg {") and out.endswith("}\n")
    assert out.count("->") == 2
    assert 'style=dashed kind="quantum"' in out


class _Writes(io.StringIO):
    """A text stream that records the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


@pytest.mark.parametrize("export", [qbg.export_json, qbg.export_dot],
                         ids=["json", "dot"])
def test_exports_write_as_they_go(export):
    # each vertex line and edge record is written as it is made: no write
    # holds the whole F4 document, nor a hundredth of it
    out = _Writes()
    export(graph_of("F", 4), out)
    whole = len(out.getvalue())
    assert whole == sum(out.sizes) and max(out.sizes) < whole / 100
    assert len(out.sizes) > 1152 + 9968  # F4: one write per vertex and edge


NAME_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
]


def word_names(d, g):
    # oracle: reduced_word peels left descents, so it shares no code with
    # the exports, which read each name off the breadth-first group walk
    return {w: ",".join(map(str, wg.reduced_word(w))) or "e"
            for w in g.vertices}


@pytest.mark.parametrize("family,rank", NAME_TYPES)
def test_names_are_smallest_reduced_words(family, rank):
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    names, order = qbg._by_name(g)
    assert dict(zip(g.vertices, names)) == word_names(d, g)
    assert [names[i] for i in order] == sorted(names)


def _walked(*args):
    raise AssertionError("the group was walked again")


def test_exports_read_the_one_group_walk(monkeypatch):
    # a fresh datum, walked once by qbg.build: the names, both exports and
    # path_record read that table; they walk nothing, peel no word, and the
    # names read no edge
    d = build_datum("C", 3)
    g = qbg.build(d)
    words, want = d.memo["smallest_words"], word_names(d, g)
    t = af.translation(d, (0, -1, -1))
    paths = list(pth.enumerate_paths(
        g, t, af.beta_sequence(d, af.reduced_word_ext(d, t)[1])))
    monkeypatch.setattr(wg, "enumerate_group", _walked)
    monkeypatch.setattr(wg, "reduced_word", _walked)
    names, _ = qbg._by_name(qbg.QuantumBruhatGraph(d, g.vertices, {}))
    assert dict(zip(g.vertices, names)) == want
    assert written(qbg.export_json, g) and written(qbg.export_dot, g)
    assert [pth.path_record(p)["end_dir"] for p in paths] == [
        want[p.end.dir] for p in paths]
    for fmt in ("table", "json", "csv"):
        assert written(pth.export, paths, fmt)
    assert d.memo["smallest_words"] is words


@pytest.mark.parametrize("family,rank",
                         [("A", 1), ("A", 2), ("B", 2), ("C", 3), ("G", 2)])
def test_export_json_is_the_stdlib_encoding(family, rank):
    # oracle: the stdlib encoder on one dict per edge
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    name = word_names(d, g)
    edges = sorted(
        ({"src": name[w], "label": list(gamma), "kind": kind}
         for (w, gamma), (kind, _) in g.edges.items()),
        key=lambda e: (e["src"], e["label"], e["kind"]),
    )
    expected = json.dumps(
        {"vertices": sorted(name.values()), "edges": edges}, indent=1)
    assert written(qbg.export_json, g) == expected + "\n"


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("G", 2)])
def test_step_columns_are_the_edges(family, rank):
    # steps[k][i] = (j, quantum) is the edge vertices[i] -> vertices[j]
    # labelled pos_coroots[k]; the edges view and edge_kind, at either sign
    # of the label, read the same edge, and None means there is none
    d = datum_of(family, rank)
    g = graph_of(family, rank)
    for gr in (g, g.reversed):
        vs, found = gr.vertices, 0
        assert len(gr.steps) == len(d.pos_coroots)
        for gamma, col in zip(d.pos_coroots, gr.steps):
            assert len(col) == len(vs)
            for w, e in zip(vs, col):
                kind = e and (qbg.BRUHAT, qbg.QUANTUM)[e[1]]
                assert qbg.edge_kind(gr, w, gamma) == kind
                assert qbg.edge_kind(gr, w, tuple(-x for x in gamma)) == kind
                if e:
                    found += 1
                    assert gr.edges[w, gamma] == (kind, vs[e[0]])
                else:
                    assert (w, gamma) not in gr.edges
        assert found == len(gr.edges)
        assert gr.reversed.reversed.steps == gr.steps
        # ids keys each vertex number by the vertex's simple coroot images,
        # read by one itemgetter per datum
        key = operator.itemgetter(*d.simple_index)
        assert gr.ids == {key(w.perm): i for i, w in enumerate(vs)}
        # an element of another group is no vertex, and is refused
        other = wg.longest_element(datum_of("A", 1))
        with pytest.raises(ValueError, match="not a vertex"):
            qbg.edge_kind(gr, other, d.pos_coroots[0])


def test_rank_one_keys_are_bare_indices():
    # the per-datum itemgetter gives a bare index at rank 1, and build,
    # index and reversed all take that form
    d, g = datum_of("A", 1), graph_of("A", 1)
    (k,) = d.simple_index
    assert g.ids == {w.perm[k]: i for i, w in enumerate(g.vertices)}
    e, w0 = wg.identity(d), wg.longest_element(d)
    assert [g.index(e), g.index(w0)] == [0, 1]
    assert g.reversed.index(e) == g.index(w0) and g.steps[0] == [(1, False), (0, True)]


@pytest.mark.parametrize("family,rank,other", [("B", 3, "C3"), ("A", 3, "G2")])
def test_an_element_of_another_datum_is_refused(monkeypatch, family, rank, other):
    # elements compare by their coroot permutations alone, and some of
    # C3's (w0 among them) and G2's identity have the permutation of a
    # vertex of B3 or A3; index refuses them, and so does every walk and
    # the recursion check, before it reads its cache
    d, g = datum_of(family, rank), graph_of(family, rank)
    od = datum_of(other[0], int(other[1]))
    equal = [w for w in wg.enumerate_group(od) if w in set(g.vertices)]
    assert equal and (other != "C3" or wg.longest_element(od) in equal)
    lam = (-1,) + (0,) * (rank - 1)
    t = af.translation(d, lam)
    betas = af.beta_sequence(d, af.reduced_word_ext(d, t)[1])
    for w in equal:
        for gr in (g, g.reversed):
            with pytest.raises(ValueError, match="not a vertex"):
                gr.index(w)
            with pytest.raises(ValueError, match="not a vertex"):
                qbg.edge_kind(gr, w, d.pos_coroots[0])
            with pytest.raises(ValueError, match="not a vertex"):
                pth.fold_tables(gr, {w: lam}, [betas])
            with pytest.raises(ValueError, match="not a vertex"):
                next(pth.enumerate_paths(gr, af.ExtAffineElt(lam, w), betas))
            with pytest.raises(ValueError, match="not a vertex"):
                gf.recursion_check(d, gr, w, 1, lam, {})
        # the twist times t_lam is a product of elements of two data; G2's
        # twist acts on no weight of rank 3, and is refused for that first
        with pytest.raises(ValueError, match="another root datum|length-2 vector"):
            mac.weyl_dimension(g, w, lam)
    # an element of a group of another rank is refused too, not looked up
    with pytest.raises(ValueError, match="not a vertex"):
        gf.recursion_check(d, g, wg.longest_element(datum_of("A", 1)), 1, lam, {})
    # the four functions that take a datum beside a graph or an element
    # refuse the other datum's, either way round, before any work (the
    # work they hand on raises), also from a start that is a vertex
    def work(*args):
        raise AssertionError("work began before the data were compared")
    with monkeypatch.context() as m:
        for module, name in ((mac, "weyl_character"), (mac, "_e_inf_routes"),
                             (pth, "fold_tables"), (af, "_simple_steps")):
            m.setattr(module, name, work)
        for wd, ed in ((d, od), (od, d)):
            gr, e = graph_of(ed.family, ed.rank), wg.identity(ed)
            mu = (-1,) + (0,) * (wd.rank - 1)
            # read with C3's tables, B3's t_(-1,0,0) s1 s2 s3 has length 8,
            # not 9, and its descents do not peel it to the identity
            v = wg.from_word(ed, range(1, ed.rank + 1))
            for call, *args in ((mac.e_zero, gr, mu), (mac.e_infinity, gr, mu),
                                (gf.recursion_check, gr, e, 1, mu, {}),
                                (af.reduced_word_ext, af.ExtAffineElt(mu, v))):
                with pytest.raises(ValueError, match="another root datum"):
                    call(wd, *args)
    # a product of elements of two data is refused, not composed: B3's s3
    # times C3's s3 was a B3 element other than the identity, and
    # c_function on B3's graph with B3's word of t_(-1,0,0) and a twist in
    # C3 returned B3 values for 4 of C3's 48 elements, and called the
    # other 44 "not a vertex"
    for wd, ed in ((d, od), (od, d)):
        s, r = wg.simple_reflection(wd, wd.rank), wg.simple_reflection(ed, ed.rank)
        mu = (-1,) + (0,) * (wd.rank - 1)
        gr = graph_of(wd.family, wd.rank)
        word = af.reduced_word_ext(wd, af.translation(wd, mu))[1]
        calls = [(wg.multiply, s, r), (wg.multiply, r, s),
                 (af.multiply, af.ExtAffineElt((0,) * wd.rank, s),
                  af.ExtAffineElt((0,) * ed.rank, r))]
        calls += [(gf.c_function, gr, af.ext_identity(wd), af.ExtAffineElt(mu, w), word)
                  for w in wg.enumerate_group(ed)]
        # across ranks, a weight of the one acting on an element of the
        # other is refused for that first
        refusal = "another root datum"
        if wd.rank != ed.rank:
            refusal += "|length-[23] vector"
        for call, *args in calls:
            with pytest.raises(ValueError, match=refusal):
                call(*args)
    # an element of an equal datum built apart is a vertex
    again = build_datum(family, rank)
    assert g.index(wg.longest_element(again)) == g.index(wg.longest_element(d))
    # and meets the datum's own elements, graph and tables as its own
    w0 = wg.longest_element(again)
    assert wg.multiply(w0, wg.longest_element(d)) == wg.identity(d)
    a = af.ExtAffineElt(lam, w0)
    assert af.reduced_word_ext(d, a) == af.reduced_word_ext(again, a)
    assert mac.e_zero(again, g, lam) == mac.e_zero(d, g, lam)


def test_a_datum_is_read_from_the_graph_or_element_given():
    # a public function given a graph, an element or a path reads the root
    # datum from it, so no second datum beside it can be another's.  The
    # exceptions are the four that the benchmark calls with a datum, each
    # refusing one of another root datum first
    given = re.compile(r"\b(QuantumBruhatGraph|WeylElt|ExtAffineElt|AlcovePath)\b")
    both = []
    for info in pkgutil.iter_modules(alcovepaths.__path__):
        module = importlib.import_module(f"alcovepaths.{info.name}")
        for name in getattr(module, "__all__", ()):
            f = getattr(module, name)
            if not inspect.isfunction(f):
                continue
            params = inspect.signature(f).parameters.values()
            if "datum" in (p.name for p in params) and any(
                    p.name == "graph" or given.search(str(p.annotation)) for p in params):
                both.append(f"{info.name}.{name}")
    assert sorted(both) == ["affine.reduced_word_ext", "genfun.recursion_check",
                            "macdonald.e_infinity", "macdonald.e_zero"]


def test_only_index_reads_the_vertex_numbers():
    # the walks and edge_kind read a graph through datum, vertices, steps
    # and index, so a graph that numbers its vertices another way needs
    # only index: nothing in the package reads graph.ids but build, which
    # finds each edge's end in it, index and reversed
    reads = []
    for path in sorted(Path(qbg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "ids":
                around = [f for f in funcs
                          if f.lineno <= node.lineno <= f.end_lineno]
                inner = max(around, key=lambda f: f.lineno, default=None)
                reads.append((path.name, inner and inner.name))
    assert sorted(reads) == [("qbg.py", "build"), ("qbg.py", "index"),
                             ("qbg.py", "reversed")]


def test_walks_and_exports_build_no_edges_view():
    # the walks and exports read the columns: the dict view, which at E6
    # would hold 713,076 key tuples, is never built
    d = build_datum("B", 3)
    g = qbg.build(d)
    lam = (-1, 0, -1)
    assert mac.weyl_dimension(g, wg.identity(d), lam) > 0
    assert mac.e_infinity(d, g, lam).terms
    t = af.translation(d, lam)
    betas = af.beta_sequence(d, af.reduced_word_ext(d, t)[1])
    for gr in (g, g.reversed):
        assert list(pth.enumerate_paths(gr, t, betas))
        assert written(qbg.export_json, gr) and written(qbg.export_dot, gr)
        assert "edges" not in vars(gr)
