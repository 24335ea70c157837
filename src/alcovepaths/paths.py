"""
Folded alcove paths over a fixed sequence of affine coroots.

A path is a choice of fold positions J inside the beta sequence of a
(translated) Weyl group element.  Folding at position j multiplies the
running element by the reflection in the *original* coroot ``beta_j``;
positions that are skipped leave the element unchanged.  A fold set is
admissible when each folded step projects to an edge of the quantum
Bruhat graph, and the fold is quantum exactly when that edge is.
Both walks take the datum and the graph apart and refuse a graph of
another root datum.  ``export`` writes each path's record as the walk
yields it, as a table, JSON or CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import RootDatum, dot
from . import weylgroup as wg
from .affine import ExtAffineElt
from . import qbg
from .qbg import QuantumBruhatGraph

__all__ = [
    "AlcovePath", "enumerate_paths", "fold_tables",
    "end_weight", "end_dir", "qwt_degree", "path_record", "export",
]


@dataclass(frozen=True)
class AlcovePath:
    """A folded path: start element, coroot sequence, and fold data.

    ``folds`` is the strictly increasing tuple of 1-based fold positions;
    ``ends`` lists the running elements z_0, ..., z_r (one per fold, plus
    the start); ``quantum_folds`` is the subset of folds whose projected
    edge is quantum.
    """
    start: ExtAffineElt
    betas: tuple
    folds: tuple
    ends: tuple
    quantum_folds: tuple


def _positions(datum: RootDatum, betas) -> list:
    """Per position, ``(column, k, deg)`` for ``beta = gamma + deg delta``:
    ``k`` is the index of gamma in ``datum.coroots``, and ``column`` that of
    the positive coroot ``|gamma|`` labelling beta's QBG edges, its column
    of ``graph.steps``."""
    n, out = len(datum.pos_coroots), []
    for b in betas:
        if not any(b.re):
            raise ValueError(f"beta with zero real part: {b!r}")
        k = datum.coroot_index.get(tuple(b.re))
        if k is None:
            raise ValueError(f"beta real part is not a coroot: {b!r}")
        out.append((k % n, k, b.deg))
    return out


def _check_graph(datum: RootDatum, graph: QuantumBruhatGraph) -> None:
    """Refuse a graph of another root datum: a walk reads coroot indices
    and root weights from ``datum`` and columns from ``graph``, and would
    mix the two."""
    if graph.datum is not datum and graph.datum != datum:
        raise ValueError(f"graph of another root datum: {graph.datum.family}"
                         f"{graph.datum.rank}, not {datum.family}{datum.rank}")


def enumerate_paths(
    datum: RootDatum, graph: QuantumBruhatGraph, z0: ExtAffineElt, betas
):
    """Yield every admissible fold set, in lexicographic order on J.

    Admissibility is prefix-closed, so the search folds at position p only
    when the step dir(z) -> dir(z) s_{|Re beta_p|} is an edge of ``graph``
    (``graph.reversed``, the columns relabelled by ``w0``, turns edges
    around); the subtree is pruned otherwise.  Edges are read off
    ``graph.steps`` by vertex number; a graph of another root datum and a
    start that is no vertex are refused.  The empty fold set is always
    admissible and comes first.
    """
    betas = tuple(betas)
    positions = _positions(datum, betas)
    _check_graph(datum, graph)
    vertices, v0 = graph.vertices, graph.index(z0.dir)
    cols = [(graph.steps[g], k, deg) for g, k, deg in positions]

    def walk(z, v, pos, folds, ends, qfolds):
        yield AlcovePath(z0, betas, folds, ends, qfolds)
        for p in range(pos, len(betas)):
            col, k, deg = cols[p]
            edge = col[v]
            if edge is None:
                continue
            j, quantum = edge
            # z s_{beta_p} = t_{wt + shift} ws with shift = -deg_p times the
            # root weight of z.dir(Re beta_p), as in fold_tables
            shift = datum.root_weights[z.dir.perm[k]]
            z1 = ExtAffineElt(tuple(x - deg * y for x, y in zip(z.wt, shift)),
                              vertices[j])
            q1 = qfolds + (p + 1,) if quantum else qfolds
            yield from walk(z1, j, p + 1, folds + (p + 1,), ends + (z1,), q1)

    yield from walk(z0, v0, 0, (), (z0,), ())


def _sweep(graph, at, positions, packed, qdigit) -> list:
    """The packed tables ``{key: count}`` of the vertices ``at`` over one
    beta sequence, each for the paths from t_0 v.

    A forward sweep finds the directions and folds at each position; a
    backward sweep builds T(v, p), the terms of folds at positions >= p, as
    T(v, p + 1) plus, if v folds at p, T(v s_p, p + 1) shifted by v(wt_p)
    and deg_p.  Both sweeps run on vertex numbers and read each fold off
    column ``graph.steps[column]`` of each ``(column, k, deg)`` in
    ``positions`` (``_positions``).  At ``beta_p = gamma + deg_p delta``,
    v(wt_p) is ``-deg_p`` times the root weight of v(gamma), whose packed
    form is read at ``v.perm[k]``.
    """
    vertices, reached, folds = graph.vertices, set(at), []
    for g, k, deg in positions:
        col, here = graph.steps[g], {}
        for v in reached:
            if edge := col[v]:
                j, quantum = edge
                shift = -deg * packed[vertices[v].perm[k]]
                if quantum:
                    shift += deg * qdigit
                here[v] = (j, shift)
        folds.append(here)
        reached.update(j for j, _ in here.values())
    below = dict.fromkeys(reached, {0: 1})
    # T(u, p + 1) = T(u, p) for every u that does not fold at p, so only
    # the folded directions get new dicts
    for here in reversed(folds):
        new = {}
        for v, (dest, s) in here.items():
            terms = new[v] = dict(below[v])
            for key, c in below[dest].items():
                key += s
                terms[key] = terms.get(key, 0) + c
        below.update(new)
    return [below[i] for i in at]


def fold_tables(
    datum: RootDatum, graph: QuantumBruhatGraph, starts, sequences
) -> list:
    """One ``{v: {(end weight, q-degree): count}}`` per beta sequence in
    ``sequences``, each for the paths from t_mu v over that sequence.

    ``starts`` is a mapping ``{v: mu}`` shared by every sequence, ``graph``
    must be of ``datum``, and every v a vertex of it (``graph.index``),
    all checked before any column is read; a single sequence
    is ``[betas]``, and an empty list of sequences is refused.  Each
    sequence is swept on its own (see ``_sweep``), and only the first
    one's packed start tables are kept past its decode.
    Inside the sweeps a term key is one integer, the weight and q-degree as
    balanced digits in base ``2 * bound + 1``: ``bound`` is the largest
    ``sum_p |deg_p|`` over the sequences times the largest root-weight
    coordinate, plus the largest ``|mu|`` coordinate, so every partial sum
    plus mu lies in ``[-bound, bound]`` and two packed tables are equal
    exactly when their terms are.  A start whose packed table over a later
    sequence equals its table over the first gets the first sequence's
    dict itself, not decoded again.  Every other table is a dict of its
    own: each distinct key is decoded once per call, one pass per digit,
    and equal terms share one key tuple.
    """
    sequences = [_positions(datum, betas) for betas in sequences]
    if not sequences:
        raise ValueError("no beta sequence to walk")
    for mu in starts.values():  # refused before any sweep
        datum.check_rank(mu)
    _check_graph(datum, graph)
    at = list(map(graph.index, starts))
    # root_weights holds each root weight and its negative
    top = max(map(max, datum.root_weights))
    span = max((abs(m) for mu in starts.values() for m in mu), default=0)
    bound = top * max(sum(abs(deg) for *_, deg in s) for s in sequences) + span
    base = 2 * bound + 1
    digits = [base ** i for i in range(datum.rank + 1)]
    packed = [dot(wt, digits) for wt in datum.root_weights]
    # adding bound to every weight digit leaves each in [0, 2 * bound], so
    # digit i is a plain remainder and the q-degree what is left at the top
    lift = bound * sum(digits[:-1])
    offs = [dot(mu, digits) + lift for mu in starts.values()]
    many = len(starts) * len(sequences) > 1  # a later table may name the same keys
    name, tables, first = {}, [], None
    for positions in sequences:
        mine, out = _sweep(graph, at, positions, packed, digits[-1]), {}
        for n, (v, off, below) in enumerate(zip(starts, offs, mine)):
            if first is not None and below == first[n]:
                out[v] = tables[0][v]
                continue
            keys = [key + off for key in below]
            fresh = tops = [key for key in keys if key not in name] if name else keys
            cols = []
            for _ in range(datum.rank):
                cols.append([key % base - bound for key in tops])
                tops = [key // base for key in tops]
            terms = zip(zip(*cols), tops)
            if many:
                name.update(zip(fresh, terms))
                terms = map(name.__getitem__, keys)
            out[v] = dict(zip(terms, below.values()))
        if first is None:
            first = mine
        # the next sweep runs with no packed tables but the first's alive
        del mine
        tables.append(out)
    return tables


def end_weight(p: AlcovePath):
    return p.ends[-1].wt


def end_dir(p: AlcovePath) -> wg.WeylElt:
    return p.ends[-1].dir


def qwt_degree(p: AlcovePath) -> int:
    """Total delta-degree of the coroots folded at quantum positions."""
    return sum(p.betas[j - 1].deg for j in p.quantum_folds)


def path_record(datum: RootDatum, p: AlcovePath) -> dict:
    """Flat export record for one path; each format of ``export`` writes
    its fields in this order."""
    return {
        "folds": list(p.folds),
        "quantum_folds": list(p.quantum_folds),
        "end_weight": list(end_weight(p)),
        "end_dir": qbg.word_name(wg.smallest_words(datum)[end_dir(p)]),
        "qwt_degree": qwt_degree(p),
    }


def _table(records):
    total = 0
    for total, r in enumerate(records, 1):
        yield "J={} J-={} wt={} dir={} qdeg={}\n".format(*r.values())
    yield f"total: {total}\n"


def _json_list(xs) -> str:
    return "[\n   " + ",\n   ".join(map(str, xs)) + "\n  ]" if xs else "[]"


def _json(records):
    sep = "[\n"
    for *lists, name, qdeg in map(dict.values, records):
        yield sep + _JSON_RECORD.format(*map(_json_list, lists), name, qdeg)
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _csv(records):
    yield "folds,quantum_folds,end_weight,end_dir,qwt_degree\n"
    for *lists, name, qdeg in map(dict.values, records):
        name = f'"{name}"' if "," in name else name
        yield ",".join([*(" ".join(map(str, x)) for x in lists), name, f"{qdeg}\n"])


_JSON_RECORD = (' {{\n  "folds": {},\n  "quantum_folds": {},\n  "end_weight": {},\n'
                '  "end_dir": "{}",\n  "qwt_degree": {}\n }}')
_FORMATS = {"table": _table, "json": _json, "csv": _csv}


def export(datum: RootDatum, paths, fmt: str, out) -> None:
    """Write each path's ``path_record`` to the text stream ``out`` as
    ``paths`` yields it, before the next path is drawn, so no record is
    kept.  ``fmt`` is ``"table"``, one line per path and then the total;
    ``"json"``, the bytes of ``json.dumps(records, indent=1)`` and a
    newline; or ``"csv"``, a header and one row per path, each list
    space-separated and a name with a comma quoted, as ``csv``'s minimal
    quoting does.  JSON and CSV are written from fixed templates: the
    stdlib JSON encoder is pure Python once ``indent`` is set."""
    out.writelines(_FORMATS[fmt](path_record(datum, p) for p in paths))
