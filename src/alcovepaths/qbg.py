"""
Quantum Bruhat graph on the dual root system.

Vertices are the Weyl group elements; an edge ``w -> w s_gamma`` with
label a positive coroot ``gamma`` is Bruhat when the length goes up by
one and quantum when it drops by ``<2 rho, gamma> - 1``.  The graph is
built from one rule that needs no lengths, the obstruction criterion: the
kind is the sign of ``w(gamma)``, and existence is read off ``w``'s
inversion mask, one bit per positive coroot, against a fixed mask per
label.  That criterion is the one edge rule in the package; the tests
check it against the length definition, and ``identities.lenart`` against
Lenart's one-line rules in types A and C.

The graph is stored as one column per positive coroot, indexed by vertex
number: ``steps[k][i]`` is ``(j, quantum)`` for the edge from
``vertices[i]`` labelled ``pos_coroots[k]`` to ``vertices[j]``, or None.
Walks run on these integers and hash no Weyl group element; ``edges`` is
a dict view of the same edges, built on first use.  A Weyl group element
is fixed by its images of the simple coroots, and ``ids``, the graph's one
vertex table, keys each vertex number by them: ``build`` finds each edge's
end ``w s_gamma`` there, ``index`` any element equal to a vertex, and
``reversed`` each ``w0 vertices[i]``; the key is one ``itemgetter`` per
datum (``_images``).

The exports ``export_table``, ``export_json`` and ``export_dot`` write to
a text stream they are given.  Each vertex line and each edge record is
written as it is made, vertices in name order and each vertex's edges by
label, so no document or sorted edge list is held whole.

>>> from alcovepaths.lattice import build_datum
>>> from alcovepaths import weylgroup as wg
>>> d = build_datum("A", 2)
>>> g = build(d)
>>> quantum = [e[1] for col in g.steps for e in col if e]
>>> quantum.count(False), quantum.count(True)
(8, 7)
>>> e, w0 = wg.identity(d), wg.longest_element(d)
>>> g.index(e), g.index(w0), g.reversed.index(e) == g.index(w0)
(0, 5, True)
>>> criterion_edge(d, w0, (1, 1))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .lattice import RootDatum
from . import weylgroup as wg
from .weylgroup import WeylElt

__all__ = [
    "QuantumBruhatGraph", "build", "edge_kind", "criterion_edge",
    "word_name", "export_table", "export_json", "export_dot",
]

BRUHAT = "bruhat"
QUANTUM = "quantum"


@dataclass(frozen=True)
class QuantumBruhatGraph:
    """``steps[k][i]`` is ``(j, quantum)`` for the edge from ``vertices[i]``
    labelled ``datum.pos_coroots[k]`` to ``vertices[j]``, or None; the walks
    read these columns, and ``edges`` is a dict view built on first use."""
    datum: RootDatum
    vertices: tuple           # all WeylElt; (length, word) order in build's graph
    steps: tuple              # per positive coroot: [(j, quantum) or None per vertex]

    @cached_property
    def ids(self) -> dict:
        """Each vertex's position in ``vertices``, keyed by its images of the
        simple coroots (``_images``: ``perm`` at ``datum.simple_index``),
        which fix a Weyl group element; built once per graph, and read by
        ``build``, ``index`` and ``reversed``."""
        key = _images(self.datum)
        return {key(w.perm): i for i, w in enumerate(self.vertices)}

    def index(self, w: WeylElt) -> int:
        """The vertex number of ``w``, which must equal a vertex (not
        necessarily be the same object), found by its images of the simple
        coroots.  An element of another root datum is refused first:
        elements compare by their coroot permutations alone, and its images
        could name a vertex."""
        d = self.datum
        i = self.ids.get(_images(d)(w.perm)) if w.datum is d or w.datum == d else None
        if i is None:
            raise ValueError(f"element is not a vertex of the graph: {w!r}")
        return i

    @cached_property
    def edges(self) -> dict:
        """``{(w, gamma): (kind, w s_gamma)}``, a view of ``steps`` built on
        first use; the walks and exports read ``steps``."""
        vs = self.vertices
        records = [((BRUHAT, w), (QUANTUM, w)) for w in vs]
        return {(vs[i], g): records[j][q] for i, g, q, j in _edges(self, range(len(vs)))}

    @cached_property
    def reversed(self) -> "QuantumBruhatGraph":
        """The graph with every edge turned around, built on first use: the
        edge ``w -> w s_gamma`` becomes ``w s_gamma -> w`` of the same kind.
        As ``w -> w s_gamma`` is an edge iff ``w0 w s_gamma -> w0 w`` is, of
        the same kind (``identities.w0_inversion``), that is these ``steps``
        with vertex ``i`` renamed ``w0 vertices[i]``, found in ``ids`` by
        its images of the simple coroots: no element or column is made."""
        key, w0 = _images(self.datum), wg.longest_element(self.datum).perm
        vs, ids = self.vertices, self.ids
        # the permutation of w0 w is w0's read at w.perm
        relabelled = tuple(vs[ids[key(itemgetter(*w.perm)(w0))]] for w in vs)
        return QuantumBruhatGraph(self.datum, relabelled, self.steps)


def build(datum: RootDatum) -> QuantumBruhatGraph:
    vertices = tuple(wg.enumerate_group(datum))
    labels = _edge_labels(datum)
    graph = QuantumBruhatGraph(datum, vertices,
                               tuple([None] * len(vertices) for _ in labels))
    # an edge's end is found in ids by its images of the simple coroots,
    # and its (Bruhat, quantum) records are shared by every edge into it
    ids, records = graph.ids, [((j, False), (j, True)) for j in range(len(vertices))]
    for i, w in enumerate(vertices):
        perm, mask = w.perm, _inversions(w)
        for col, label in zip(graph.steps, labels):
            kind = _edge_rule(mask, label)
            if kind:
                col[i] = records[ids[label[4](perm)]][kind is QUANTUM]
    return graph


def edge_kind(graph: QuantumBruhatGraph, w: WeylElt, gamma):
    """Kind of the edge ``w -> w s_gamma``, or None if there is none.

    The label may be given with either sign; ``s_gamma = s_{-gamma}``.
    An element that is not a vertex of the graph is refused.
    """
    d = graph.datum
    if not d.is_coroot(gamma):
        raise ValueError(f"not a coroot: {gamma!r}")
    i = graph.index(w)
    edge = graph.steps[d.coroot_index[tuple(gamma)] % len(d.pos_coroots)][i]
    return edge and (BRUHAT, QUANTUM)[edge[1]]


# ---------------------------------------------------------------------------
# Obstruction criterion: the edge rule


def _edge_labels(datum: RootDatum) -> tuple:
    """Per positive coroot gamma, at its index k: ``(bit, paired, pairs,
    excluded, ends)``, with ``bit = 1 << k``.

    S = {alpha positive, alpha != gamma, s_gamma(alpha) negative} falls
    into ``pairs`` pairs of alpha and beta = -s_gamma(alpha), and
    ``paired`` is its mask over the positive coroot indices: the negatives
    follow the N positive coroots in the same order, so alpha is in S iff
    ``s[alpha] >= N``, with ``s`` the permutation of s_gamma.  Pair lemma:
    alpha + beta is a sum of positive coroots and also ``<alpha, r> gamma``
    (r the root of gamma), so a positive multiple of gamma; w(alpha) +
    w(beta) is then the same multiple of w(gamma), and no pair has both
    members sent negative by a w with w(gamma) positive.
    ``excluded`` says that gamma never labels a quantum edge: its root r is
    short and has a long simple root in its support.  Coordinate k of
    gamma is ``r_k (alpha_k, alpha_k) / (r, r)``, so with at most two root
    lengths that is some ``gamma_k > r_k``.  This is the
    Brenti–Fomin–Postnikov condition ``l(s_gamma) = <2 rho, gamma> - 1``
    read off the root datum; ``test_qbg.test_exclusion_rule_is_the_bfp_condition``
    checks the two agree on every positive coroot through E8.  ``ends``
    reads a permutation at ``s`` of the simple coroots, so ``ends(w.perm)``
    is the key of ``w s_gamma`` in ``ids``, in ``_images``'s form.  Built
    once per datum.
    """
    def build():
        n, labels = len(datum.pos_coroots), []
        for k, gamma in enumerate(datum.pos_coroots):
            s = wg.reflection_of(datum, gamma).perm
            paired = [a for a in range(n) if s[a] >= n and a != k]
            excluded = any(c > r for c, r in zip(gamma, datum.roots[k]))
            labels.append((1 << k, sum(1 << a for a in paired), len(paired) // 2,
                           excluded, itemgetter(*(s[j] for j in datum.simple_index))))
        return tuple(labels)
    return datum.memoized("edge_labels", build)


def _edge_rule(mask: int, label):
    """Kind of the edge ``w -> w s_gamma``, or None, for w given by its
    inversion ``mask`` (``_inversions``) and gamma by its ``_edge_labels``
    entry.  If w(gamma) is negative, the edge is quantum iff gamma is not
    excluded and w sends all of S negative.  If it is positive, the edge is
    Bruhat unless w keeps both members of some pair positive; by the pair
    lemma no pair has both sent negative, so that is exactly one negative
    per pair: ``pairs`` negatives in S."""
    bit, paired, pairs, excluded, _ = label
    if mask & bit:
        return None if excluded or mask & paired != paired else QUANTUM
    return BRUHAT if (mask & paired).bit_count() == pairs else None


def _inversions(w: WeylElt) -> int:
    """Bit k is set when w sends the positive coroot of index k negative."""
    n = len(w.datum.pos_coroots)
    return sum(1 << k for k, j in enumerate(w.perm[:n]) if j >= n)


def _images(datum: RootDatum) -> itemgetter:
    """The key of ``ids``: a getter of a permutation at
    ``datum.simple_index``, so of the indices of an element's images of the
    simple coroots.  One per datum; at rank 1 it gives a bare index, and
    every key takes that form."""
    return datum.memoized("images", lambda: itemgetter(*datum.simple_index))


def criterion_edge(datum: RootDatum, sigma: WeylElt, gamma) -> bool:
    """Existence of an edge ``sigma -> sigma s_gamma``, by the rule that
    ``build`` uses (``_edge_rule``), from the root datum alone."""
    if not datum.is_pos_coroot(gamma):
        raise ValueError(f"not a positive coroot: {gamma!r}")
    label = _edge_labels(datum)[datum.coroot_index[tuple(gamma)]]
    return _edge_rule(_inversions(sigma), label) is not None


# ---------------------------------------------------------------------------
# Export


def word_name(word) -> str:
    """A reduced word as a vertex name: ``"1,2,1"``, or ``"e"`` when empty."""
    return ",".join(map(str, word)) or "e"


def _by_name(graph: QuantumBruhatGraph):
    """Each vertex's name, its word in ``weylgroup.smallest_words``, by
    vertex number, and the vertex numbers sorted by name."""
    words = wg.smallest_words(graph.datum)
    names = [word_name(words[w]) for w in graph.vertices]
    return names, sorted(range(len(names)), key=names.__getitem__)


def _edges(graph: QuantumBruhatGraph, order):
    """``(src, label, quantum, dst)`` per edge, ends by vertex number: the
    edges out of each vertex of ``order`` in turn, by label.  A vertex has
    at most one edge per label, so with ``order`` sorted by name this is
    the exports' order, sorted by source name, label and kind."""
    cols = sorted(zip(graph.datum.pos_coroots, graph.steps), key=itemgetter(0))
    for i in order:
        for g, col in cols:
            if e := col[i]:
                yield i, g, e[1], e[0]


def _joined(items):
    """The pieces of ``items`` joined by a comma and a newline, as
    ``json.dumps`` lays out a list with ``indent``, to be written one at a
    time."""
    items = iter(items)
    yield next(items, "")
    for x in items:
        yield ",\n" + x


def export_table(graph: QuantumBruhatGraph, out) -> None:
    """Write the numbers of vertices, Bruhat edges and quantum edges to the
    text stream ``out``, one line each."""
    quantum = [e[1] for col in graph.steps for e in col if e]
    out.write(f"vertices: {len(graph.vertices)}\nbruhat edges: "
              f"{quantum.count(False)}\nquantum edges: {quantum.count(True)}\n")


def export_json(graph: QuantumBruhatGraph, out) -> None:
    """Write the bytes of ``json.dumps({"vertices": [...], "edges": [...]},
    indent=1)`` and a newline to the text stream ``out``, with the names
    sorted and one ``{"src", "label", "kind"}`` record per edge sorted by
    those fields.  Each vertex line and each edge record is written as it
    is made, from fixed templates (the stdlib encoder is pure Python once
    ``indent`` is set), so the document is never held whole."""
    names, order = _by_name(graph)
    # everything of a record after its source name, by label and kind
    tail = {}
    for g in graph.datum.pos_coroots:
        label = ",\n".join(f"    {x}" for x in g)
        for quantum, kind in enumerate((BRUHAT, QUANTUM)):
            tail[g, quantum] = (f'",\n   "label": [\n{label}\n   ],\n'
                                f'   "kind": "{kind}"\n  }}')
    out.write('{\n "vertices": [\n')
    out.writelines(_joined(f'  "{names[i]}"' for i in order))
    out.write('\n ],\n "edges": [\n')
    out.writelines(_joined(f'  {{\n   "src": "{names[i]}{tail[g, q]}'
                           for i, g, q, _ in _edges(graph, order)))
    out.write("\n ]\n}\n")


def export_dot(graph: QuantumBruhatGraph, out) -> None:
    """Write the graph in DOT to the text stream ``out``: one line per
    vertex, then one per edge with quantum edges dashed, in
    ``export_json``'s order, each written as it is made."""
    names, order = _by_name(graph)
    label = {g: str(list(g)) for g in graph.datum.pos_coroots}
    style = ("", ' style=dashed kind="quantum"')
    out.write("digraph qbg {\n")
    out.writelines(f'  "{names[i]}";\n' for i in order)
    out.writelines(f'  "{names[i]}" -> "{names[j]}" [label="{label[g]}"{style[q]}];\n'
                   for i, g, q, j in _edges(graph, order))
    out.write("}\n")
