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

>>> from alcovepaths.lattice import build_datum
>>> from alcovepaths import weylgroup as wg
>>> d = build_datum("A", 2)
>>> kinds = [kind for kind, _ in build(d).edges.values()]
>>> kinds.count(BRUHAT), kinds.count(QUANTUM)
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
    datum: RootDatum
    vertices: tuple           # all WeylElt, sorted by (length, word)
    edges: dict               # (WeylElt, positive Coroot) -> (kind, w s_gamma)

    @cached_property
    def reversed(self) -> "QuantumBruhatGraph":
        """The graph with every edge turned around, built on first use: the
        edge ``w -> w s_gamma`` becomes ``w s_gamma -> w`` of the same kind."""
        edges = {(ws, g): (kind, w) for (w, g), (kind, ws) in self.edges.items()}
        return QuantumBruhatGraph(self.datum, self.vertices, edges)


def build(datum: RootDatum) -> QuantumBruhatGraph:
    vertices = tuple(wg.enumerate_group(datum))
    # an element is fixed by its images of the simple coroots: an edge's
    # end is looked up by them, and its (Bruhat, quantum) records are
    # shared by every edge into it
    records = {tuple(map(w.perm.__getitem__, datum.simple_index)):
               ((BRUHAT, w), (QUANTUM, w)) for w in vertices}
    labels = tuple(zip(datum.pos_coroots, _edge_labels(datum)))
    edges = {}
    for w in vertices:
        at, mask = w.perm.__getitem__, _inversions(w)
        for gamma, label in labels:
            kind = _edge_rule(mask, label)
            if kind:
                edges[(w, gamma)] = records[tuple(map(at, label[4]))][kind is QUANTUM]
    return QuantumBruhatGraph(datum, vertices, edges)


def edge_kind(graph: QuantumBruhatGraph, w: WeylElt, gamma):
    """Kind of the edge ``w -> w s_gamma``, or None if there is none.

    The label may be given with either sign; ``s_gamma = s_{-gamma}``.
    """
    d = graph.datum
    if not d.is_coroot(gamma):
        raise ValueError(f"not a coroot: {gamma!r}")
    g = tuple(gamma) if d.is_pos_coroot(gamma) else neg(gamma)
    edge = graph.edges.get((w, g))
    return edge and edge[0]


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
        for kind in (BRUHAT, QUANTUM):
            tail[g, kind] = (f'",\n   "label": [\n{label}\n   ],\n'
                             f'   "kind": "{kind}"\n  }}')
    items = sorted((name[w], g, kind) for (w, g), (kind, _) in graph.edges.items())
    vertices = ",\n".join(f'  "{v}"' for v in sorted(name.values()))
    edges = ",\n".join(f'  {{\n   "src": "{src}{tail[g, kind]}'
                        for src, g, kind in items)
    return f'{{\n "vertices": [\n{vertices}\n ],\n "edges": [\n{edges}\n ]\n}}'


def export_dot(graph: QuantumBruhatGraph) -> str:
    name = _names(graph)
    label = {g: str(list(g)) for g in graph.datum.pos_coroots}
    lines = ["digraph qbg {"]
    lines += [f'  "{v}";' for v in sorted(name.values())]
    items = sorted(
        (name[w], g, kind, name[ws]) for (w, g), (kind, ws) in graph.edges.items()
    )
    for src, g, kind, dst in items:
        style = ' style=dashed kind="quantum"' if kind == QUANTUM else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{label[g]}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
