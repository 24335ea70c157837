"""The four benchmark workloads and their per-job correctness oracles.

Each workload is a closed loop in one process: one job at a time, no
threads, no subprocesses.  A workload

- ``plan(rng)``: turns the seeded random generator into a job list of
  plain data (type names, weights, indices), so the library only ever
  sees the generated inputs;
- ``set_up(lib)``: builds what the jobs read (root data, graphs);
- ``run(lib, ctx, job)``: makes the library calls of one job and returns
  their outputs as plain data;
- ``check(ctx, job, out)``: compares the output with values that never come
  from the code path under test (pinned constants or closed formulas).

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import re

# ---------------------------------------------------------------------------
# Pinned oracle values, recorded from the seed implementation and checked
# against closed formulas where one exists.


def weyl_group_order(family: str, rank: int) -> int:
    """|W| from the classification (not from enumerating the group)."""
    n = rank
    if family == "A":
        return math.factorial(n + 1)
    if family in "BC":
        return 2 ** n * math.factorial(n)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840,
            ("E", 7): 2903040, ("E", 8): 696729600}[(family, n)]


# `qbg --format json` output per type: Bruhat edges, quantum edges and the
# sha256 of stdout, recorded on the seed commit.
QBG_PINNED = {
    "A2": (8, 7, "e1a52dc4cfc9d1cb5d4a707dfeac21a0a1be5faae3d98b5bb6d46d92d87b513b"),
    "B3": (138, 102, "03dcddee7cad948219f0939e913086f05a5bd630479832b7ff6250f1ea2e5fee"),
    "C3": (138, 100, "dfccf0425ae935ba4a7364abad2012809ebc0559d990289988956428a1167f7a"),
    "A4": (444, 326, "35168e8bf74dfd5bd4843b1323df3c3379777b22b0306012243119ed5a236626"),
    "B4": (1740, 1168, "b4c18ba12ab0a26768fa9488063fdef2d8fcea25d296b901cb10a46e52b1a612"),
}

# Edge counts of the graphs the specialize and recursion workloads build.
QBG_EDGES = {
    "A2": 15, "C2": 22, "G2": 38, "A3": 104, "B3": 240, "D4": 1336, "B4": 2908,
}

# Dimensions of the fundamental generalized Weyl modules (the
# Kirillov-Reshetikhin dimensions); a module at -sum m_i omega_i has
# dimension prod dim_i ** m_i.
FUNDAMENTAL_DIMS = {
    "A2": (3, 3), "C2": (4, 5), "G2": (15, 7), "A3": (4, 6, 4),
    "B3": (7, 22, 8), "D4": (8, 29, 8, 8), "B4": (9, 37, 93, 16),
}


def parse_type(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"([A-G])(\d+)", name)
    if not m:
        raise ValueError(f"bad type name {name!r}")
    return m.group(1), int(m.group(2))


def weight_box(rank: int, depth: int, max_level: int | None = None) -> list:
    """Nonzero anti-dominant weights with coordinates in {0, ..., -depth}
    and, when given, coordinate sum at least ``-max_level``."""
    out = []
    for lam in itertools.product(range(0, -depth - 1, -1), repeat=rank):
        if any(lam) and (max_level is None or -sum(lam) <= max_level):
            out.append(lam)
    return out


def build_data(lib, types, graphs: bool) -> dict:
    """Root data (and graphs) keyed by type name."""
    out = {}
    for t in types:
        datum = lib.lattice.build_datum(*parse_type(t))
        out[t] = (datum, lib.qbg.build(datum) if graphs else None)
    return out


class Workload:
    name = ""

    def plan(self, rng) -> list:
        raise NotImplementedError

    def set_up(self, lib):
        return None

    def set_up_ok(self, ctx) -> bool:
        """Check what set-up built against pinned values."""
        return True

    def run(self, lib, ctx, job):
        raise NotImplementedError

    def check(self, ctx, job, out) -> bool:
        raise NotImplementedError

    def trace_counts(self, rec, out) -> None:
        """Add counters that only the job's output shows to a traced pass."""


# ---------------------------------------------------------------------------


class QbgCli(Workload):
    """In-process ``alcovepaths qbg --type T --format json``, stdout captured."""

    name = "qbg_cli"
    COUNTS = {"B3": 10, "C3": 10, "A4": 1, "B4": 1}

    def __init__(self, counts=None):
        self.counts = dict(counts or self.COUNTS)

    def plan(self, rng):
        jobs = [t for t, k in self.counts.items() for _ in range(k)]
        rng.shuffle(jobs)
        return jobs

    def run(self, lib, ctx, job):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(["qbg", "--type", job, "--format", "json"])
        return code, buf.getvalue()

    def trace_counts(self, rec, out):
        rec.counts["cli.stdout_bytes"] += len(out[1].encode())

    def check(self, ctx, job, out):
        code, text = out
        bruhat, quantum, digest = QBG_PINNED[job]
        graph = json.loads(text)
        kinds = [e["kind"] for e in graph["edges"]]
        return (
            code == 0
            and len(graph["vertices"]) == weyl_group_order(*parse_type(job))
            and kinds.count("bruhat") == bruhat
            and kinds.count("quantum") == quantum
            and hashlib.sha256(text.encode()).hexdigest() == digest
        )


class Specialize(Workload):
    """``e_zero`` and ``e_infinity`` (both routes) at seeded weights."""

    name = "specialize"
    # type -> (box of anti-dominant weights, jobs drawn from it without
    # replacement).  Only A2 is sampled: its jobs are all faster than the
    # median job, so the draw moves neither wall_s nor the percentiles.
    # The jobs run in box order: the order decides when the collector
    # frees the memos a job leaves behind, and so the peak RSS.
    BOXES = {
        "A2": (weight_box(2, 2), 5),
        "C2": (weight_box(2, 2), 8),
        "G2": (weight_box(2, 2, 3), 7),
        "A3": (weight_box(3, 2, 3), 16),
        "B3": (weight_box(3, 2, 2), 9),
        "D4": (weight_box(4, 1, 2), 10),
        "B4": (weight_box(4, 1, 2), 10),
    }

    def __init__(self, boxes=None):
        self.boxes = dict(boxes or self.BOXES)

    def plan(self, rng):
        jobs = []
        for t, (box, k) in self.boxes.items():
            drawn = set(rng.sample(box, k))
            jobs += [(t, lam) for lam in box if lam in drawn]
        return jobs

    def set_up(self, lib):
        return build_data(lib, self.boxes, graphs=True)

    def set_up_ok(self, ctx):
        return all(len(g.edges) == QBG_EDGES[t] for t, (_, g) in ctx.items())

    def run(self, lib, ctx, job):
        t, lam = job
        datum, graph = ctx[t]
        zero = lib.macdonald.e_zero(datum, graph, lam)
        inf = lib.macdonald.e_infinity(datum, graph, lam)
        return zero.terms, inf.terms

    def check(self, ctx, job, out):
        t, lam = job
        zero, inf = out
        expect = math.prod(d ** -m for d, m in zip(FUNDAMENTAL_DIMS[t], lam))
        return sum(zero.values()) == sum(inf.values()) == expect


class Recursion(Workload):
    """``genfun.recursion_check`` over every u and i, one cache per type.

    One job is every check at one u: each i and each lam of the box.
    """

    name = "recursion"
    # type -> depth of the weight box {0, ..., -depth}^rank (zero included)
    BOXES = {"A2": 2, "C2": 2, "G2": 1, "A3": 1}

    def __init__(self, boxes=None):
        boxes = dict(boxes or self.BOXES)
        self.checks = {}
        for t, depth in boxes.items():
            rank = parse_type(t)[1]
            self.checks[t] = [
                (i, lam)
                for i in range(1, rank + 1)
                for lam in itertools.product(range(0, -depth - 1, -1), repeat=rank)
            ]

    def plan(self, rng):
        jobs = [
            (t, u)
            for t in self.checks
            for u in range(weyl_group_order(*parse_type(t)))
        ]
        rng.shuffle(jobs)
        return jobs

    def set_up(self, lib):
        data = build_data(lib, self.checks, graphs=True)
        return {
            t: (datum, graph, lib.weylgroup.enumerate_group(datum), {})
            for t, (datum, graph) in data.items()
        }

    def set_up_ok(self, ctx):
        return all(
            len(g.edges) == QBG_EDGES[t]
            and len(elts) == weyl_group_order(*parse_type(t))
            for t, (_, g, elts, _) in ctx.items()
        )

    def run(self, lib, ctx, job):
        t, u = job
        datum, graph, elts, cache = ctx[t]
        out = []
        for i, lam in self.checks[t]:
            lhs, rhs, ok = lib.genfun.recursion_check(
                datum, graph, elts[u], i, lam, cache
            )
            out.append((ok, sum(lhs.terms.values()), sum(rhs.terms.values())))
        return out

    def check(self, ctx, job, out):
        # both sides are C_u^{t_mu} at mu = lam - omega_i; at x = q = 1 that
        # is the dimension of the module at mu, whatever u is
        t = job[0]
        if len(out) != len(self.checks[t]):
            return False
        for (i, lam), (ok, lhs, rhs) in zip(self.checks[t], out):
            mu = [m - (j == i - 1) for j, m in enumerate(lam)]
            expect = math.prod(d ** -m for d, m in zip(FUNDAMENTAL_DIMS[t], mu))
            if not (ok is True and lhs == rhs == expect):
                return False
        return True


class AffineWords(Workload):
    """Affine reduced words, beta sequences and canonical layouts, no graph."""

    name = "affine_words"
    # (type, candidate fundamental indices or None for all, how many to draw)
    WORDS = (("E6", None, None), ("E7", None, None), ("E8", (1, 8), None))
    # (type, weight depth, max level, how many weights to draw)
    TRANSLATIONS = (("D4", 2, 3, 8), ("F4", 1, 2, 3))

    def __init__(self, words=None, translations=None):
        self.words = tuple(words or self.WORDS)
        self.translations = tuple(translations or self.TRANSLATIONS)

    def plan(self, rng):
        jobs = []
        for t, candidates, k in self.words:
            if candidates is None:
                candidates = tuple(range(1, parse_type(t)[1] + 1))
            picks = candidates if k is None else rng.sample(candidates, k)
            jobs += [("word", t, i) for i in picks]
        for t, depth, level, k in self.translations:
            box = weight_box(parse_type(t)[1], depth, level)
            jobs += [("translation", t, lam) for lam in rng.sample(box, k)]
        rng.shuffle(jobs)
        return jobs

    def set_up(self, lib):
        types = {t for t, _, _ in self.words} | {t for t, *_ in self.translations}
        return {t: d for t, (d, _) in build_data(lib, sorted(types), False).items()}

    @staticmethod
    def weight(job, rank):
        """t_{-omega_i} for a word job, t_lam for a translation job."""
        kind, _, arg = job
        if kind == "word":
            return tuple(-int(j == arg - 1) for j in range(rank))
        return arg

    def run(self, lib, ctx, job):
        kind, t, arg = job
        datum = ctx[t]
        af = lib.affine
        lengths = ()
        if kind == "word":
            target = af.translation(datum, self.weight(job, datum.rank))
            _, word = af.reduced_word_ext(datum, target)
            layout = af.canonical_beta_order(datum, arg)
            _, layout_word = af.word_from_beta(datum, layout)
            lengths = (len(layout), len(layout_word))
        else:
            _, word = af.word_for_translation(datum, arg)
        _, back = af.word_from_beta(datum, af.beta_sequence(datum, word))
        return word, back, lengths

    def check(self, ctx, job, out):
        word, back, lengths = out
        datum = ctx[job[1]]
        lam = self.weight(job, datum.rank)
        # l(t_lam) = sum over positive coroots gamma of |<gamma, lam>|
        expect = sum(
            abs(sum(g * x for g, x in zip(c, lam))) for c in datum.pos_coroots
        )
        return (
            len(word) == expect
            and back == word
            and all(n == expect for n in lengths)
        )


WORKLOADS = {w.name: w for w in (QbgCli, Specialize, Recursion, AffineWords)}
