"""
Quantum Bruhat graph on the dual root system.

Vertices are the Weyl group elements; an edge ``w -> w s_gamma`` with
label a positive coroot ``gamma`` is Bruhat when the length goes up by
one and quantum when it drops by ``<2 rho, gamma> - 1``.  The graph is
built from one rule that needs no lengths, the obstruction criterion: the
kind is the sign of ``w(gamma)``, and existence is read off ``w``'s
inversion mask, one bit per positive coroot, against a fixed mask per
label.  An edge's end ``w s_gamma`` is looked up by its images of the
simple coroots, which fix a Weyl group element.  That criterion is the
one edge rule in the package; the tests check it against the length
definition, and ``identities.lenart`` against Lenart's one-line rules in
types A and C.

The graph is stored as one column per positive coroot, indexed by vertex
number: ``steps[k][i]`` is ``(j, quantum)`` for the edge from
``vertices[i]`` labelled ``pos_coroots[k]`` to ``vertices[j]``, or None.
Walks run on these integers and hash no Weyl group element; ``edges`` is
a dict view of the same edges, built on first use.

>>> from alcovepaths.lattice import build_datum
>>> from alcovepaths import weylgroup as wg
>>> d = build_datum("A", 2)
>>> quantum = [e[1] for col in build(d).steps for e in col if e]
>>> quantum.count(False), quantum.count(True)
(8, 7)
>>> criterion_edge(d, wg.longest_element(d), (1, 1))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .lattice import RootDatum, neg
from . import weylgroup as wg
from .weylgroup import WeylElt

__all__ = [
    "QuantumBruhatGraph", "build", "edge_kind", "criterion_edge",
    "word_name", "export_dot", "export_json",
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
        """Each vertex's position in ``vertices``."""
        return {w: i for i, w in enumerate(self.vertices)}

    @cached_property
    def edges(self) -> dict:
        """``{(w, gamma): (kind, w s_gamma)}``, a view of ``steps`` built on
        first use; the walks and exports read ``steps``."""
        vs = self.vertices
        records = [((BRUHAT, w), (QUANTUM, w)) for w in vs]
        return {(vs[i], g): records[j][q] for i, g, q, j in _edges(self)}

    @cached_property
    def reversed(self) -> "QuantumBruhatGraph":
        """The graph with every edge turned around, built on first use: the
        edge ``w -> w s_gamma`` becomes ``w s_gamma -> w`` of the same kind.
        As ``w -> w s_gamma`` is an edge iff ``w0 w s_gamma -> w0 w`` is, of
        the same kind (``identities.w0_inversion``), that is these ``steps``
        with vertex ``i`` renamed ``w0 vertices[i]``, found by its images of
        the simple coroots as in ``build``: no element or column is made."""
        simple, w0 = self.datum.simple_index, wg.longest_element(self.datum).perm
        by_images = {tuple(map(w.perm.__getitem__, simple)): w for w in self.vertices}
        relabelled = tuple(by_images[tuple(w0[w.perm[k]] for k in simple)]
                           for w in self.vertices)
        return QuantumBruhatGraph(self.datum, relabelled, self.steps)


def build(datum: RootDatum) -> QuantumBruhatGraph:
    vertices = tuple(wg.enumerate_group(datum))
    # an element is fixed by its images of the simple coroots: an edge's
    # end is looked up by them, and its (Bruhat, quantum) records are
    # shared by every edge into it
    records = {tuple(map(w.perm.__getitem__, datum.simple_index)):
               ((j, False), (j, True)) for j, w in enumerate(vertices)}
    labels = _edge_labels(datum)
    steps = [[None] * len(vertices) for _ in labels]
    for i, w in enumerate(vertices):
        at, mask = w.perm.__getitem__, _inversions(w)
        for col, label in zip(steps, labels):
            kind = _edge_rule(mask, label)
            if kind:
                col[i] = records[tuple(map(at, label[4]))][kind is QUANTUM]
    return QuantumBruhatGraph(datum, vertices, tuple(steps))


def edge_kind(graph: QuantumBruhatGraph, w: WeylElt, gamma):
    """Kind of the edge ``w -> w s_gamma``, or None if there is none.

    The label may be given with either sign; ``s_gamma = s_{-gamma}``.
    An element that is not a vertex of the graph is refused.
    """
    d = graph.datum
    if not d.is_coroot(gamma):
        raise ValueError(f"not a coroot: {gamma!r}")
    i = graph.ids.get(w)
    if i is None:
        raise ValueError(f"element is not a vertex of the graph: {w!r}")
    g = tuple(gamma) if d.is_pos_coroot(gamma) else neg(gamma)
    edge = graph.steps[d.coroot_index[g]][i]
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
    holds ``s`` at the simple coroots, so ``w s_gamma`` sends them to
    ``w.perm`` at ``ends``.  Built once per datum.
    """
    def build():
        n, labels = len(datum.pos_coroots), []
        for k, gamma in enumerate(datum.pos_coroots):
            s = wg.reflection_of(datum, gamma).perm
            paired = [a for a in range(n) if s[a] >= n and a != k]
            excluded = any(c > r for c, r in zip(gamma, datum.roots[k]))
            labels.append((1 << k, sum(1 << a for a in paired), len(paired) // 2,
                           excluded, tuple(s[j] for j in datum.simple_index)))
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


def _names(graph: QuantumBruhatGraph) -> dict:
    """Each vertex's name, its word in ``weylgroup.smallest_words``."""
    return {w: word_name(x) for w, x in wg.smallest_words(graph.datum).items()}


def _edges(graph: QuantumBruhatGraph):
    """``(src, label, quantum, dst)`` per edge, ends by vertex number."""
    for g, col in zip(graph.datum.pos_coroots, graph.steps):
        for i, e in enumerate(col):
            if e:
                yield i, g, e[1], e[0]


def export_json(graph: QuantumBruhatGraph) -> str:
    """The bytes of ``json.dumps({"vertices": [...], "edges": [...]},
    indent=1)``, with the names sorted and one ``{"src", "label", "kind"}``
    record per edge sorted by those fields, written from fixed templates:
    the stdlib encoder is pure Python once ``indent`` is set."""
    name = _names(graph)
    # everything of a record after its source name, by label and kind
    tail = {}
    for g in graph.datum.pos_coroots:
        label = ",\n".join(f"    {x}" for x in g)
        for quantum, kind in enumerate((BRUHAT, QUANTUM)):
            tail[g, quantum] = (f'",\n   "label": [\n{label}\n   ],\n'
                                f'   "kind": "{kind}"\n  }}')
    names = list(map(name.__getitem__, graph.vertices))
    items = sorted((names[i], g, q) for i, g, q, _ in _edges(graph))
    vertices = ",\n".join(f'  "{v}"' for v in sorted(names))
    edges = ",\n".join(f'  {{\n   "src": "{src}{tail[g, q]}'
                        for src, g, q in items)
    return f'{{\n "vertices": [\n{vertices}\n ],\n "edges": [\n{edges}\n ]\n}}'


def export_dot(graph: QuantumBruhatGraph) -> str:
    names = list(map(_names(graph).__getitem__, graph.vertices))
    label = {g: str(list(g)) for g in graph.datum.pos_coroots}
    lines = ["digraph qbg {"]
    lines += [f'  "{v}";' for v in sorted(names)]
    items = sorted((names[i], g, q, names[j]) for i, g, q, j in _edges(graph))
    for src, g, q, dst in items:
        style = ' style=dashed kind="quantum"' if q else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{label[g]}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
