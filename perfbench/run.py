"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload qbg_cli --seed 1 --seconds 10 --trace 0

The program under test is ``src/alcovepaths`` below the current directory;
it is imported from there and nowhere else.  With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a separate traced pass and the tracing overhead.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with
its unit and sample count, and the run metadata.  A fuller record (and,
for traced runs, the spans) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from recorder import Recorder  # noqa: E402
from workloads import WORKLOADS, weyl_group_order  # noqa: E402

PACKAGE = "alcovepaths"
LAYERS = ("lattice", "weylgroup", "qbg", "affine", "paths", "genfun",
          "macdonald", "cli")
SETUP_REPEATS = 3         # fewest set-ups behind setup_s
SETUP_MIN_S = 2.0         # ... and at least this much unscaled set-up time
MIN_PASSES = 2
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
MAX_RUN_S = 120.0         # start no new pass after this much elapsed time
PROBE_INTERVAL_S = 0.02   # how often the speed probe samples the machine
PROBE_WINDOW = 5          # fewest samples a scale factor is taken from
# time of the probe kernel on an idle core of the reference machine (see
# README.md); it only sets the scale of the reported seconds
PROBE_NOMINAL_S = 0.00105
OUT_DIR = ".perfbench_out"


class SourceMissing(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# importing the program


def source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"no {PACKAGE} package under {src}")
    return src


def fresh_import(src: Path) -> SimpleNamespace:
    """Import the package anew, so no module-level state survives a pass."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module(PACKAGE)
    where = Path(package.__file__).resolve().parent
    if where != (src / PACKAGE).resolve():
        raise SourceMissing(f"{PACKAGE} was imported from {where}, not {src}")
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
    return SimpleNamespace(package=package, modules=modules, **modules)


# ---------------------------------------------------------------------------
# tracing hooks: counters measured where the work happens


def _count(key, size=lambda args, result: 1):
    def hook(rec, args, result):
        rec.counts[key] += size(args, result)
    return hook


def _on_build(rec, args, result):
    datum = args[0]
    rec.counts["qbg.edges"] += len(result.edges)
    rec.counts["qbg.edge_tests"] += (
        weyl_group_order(datum.family, datum.rank) * len(datum.pos_coroots)
    )


def _on_c_function(rec, args, result):
    rec.counts["genfun.terms_out"] += len(result.terms)
    if rec.active("genfun.recursion_check"):
        rec.counts["genfun.c_function_in_check"] += 1


def _on_typed(rec, args, result):
    # each typed path of a recursion check looks up one cached value
    if rec.active("genfun.recursion_check"):
        rec.counts["genfun.lookups"] += len(result)


HOOKS = {
    "weylgroup.enumerate_group": _count("weylgroup.elements",
                                        lambda a, r: len(r)),
    "qbg.build": _on_build,
    "qbg.edge_kind": _count("qbg.edge_hits", lambda a, r: r is not None),
    "affine.reduced_word_ext": _count("affine.word_letters",
                                      lambda a, r: len(r[1])),
    "paths.enumerate_paths": _count("paths.paths_yielded"),
    "genfun.c_function": _on_c_function,
    "genfun.c_function_typed": _on_typed,
    "genfun.recursion_check": _count("genfun.lookups"),
    "macdonald.e_zero": _count("macdonald.terms_out", lambda a, r: len(r.terms)),
    "macdonald.e_infinity": _count("macdonald.terms_out",
                                   lambda a, r: len(r.terms)),
}


# ---------------------------------------------------------------------------
# measuring


def _probe_kernel():
    # pure-Python dict and tuple work, like the library's own inner loops
    out = {}
    for i in range(1600):
        k = (i % 37, i % 11, (i * 7) % 13)
        out[k] = out.get(k, 0) + i
        tuple(x + 1 for x in k)
    return out


class SpeedProbe:
    """Times code in seconds of an idle reference core.

    A SIGALRM timer interrupts the process every PROBE_INTERVAL_S and
    times a fixed kernel.  A timed call's own time (the handler's time
    taken out) is scaled by PROBE_NOMINAL_S over the mean kernel time
    sampled during the call, or over the last PROBE_WINDOW samples when
    the call was too short to hold that many.  Other tenants slow the
    shared core by up to about two times, and they slow the kernel and the
    program alike, so the scaled time keeps the program's own cost and
    drops most of the drift.  The mean, not the median, matches a call
    that runs through fast and slow phases alike.  The kernel runs with the
    garbage collector off, so a collection of the program's heap never
    lands in it; its objects are freed before the collector is back on.

    With a recorder set, the samples' time is taken out of every open
    span, so the spans the signal interrupted are not charged for it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self.rec: Recorder | None = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        t1 = time.perf_counter()
        _probe_kernel()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        stolen = time.perf_counter() - t0
        self.stolen += stolen
        if self.rec is not None:
            self.rec.excluded_ns += int(stolen * 1e9)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn):
        """``(result, scaled seconds, raw seconds)`` of ``fn()``."""
        n, stolen = len(self.samples), self.stolen
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0 - (self.stolen - stolen)
        during = self.samples[min(n, len(self.samples) - PROBE_WINDOW):]
        return result, raw * PROBE_NOMINAL_S / statistics.fmean(during), raw


def raw_time(fn):
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, raw


def set_up(workload, src: Path, rec: Recorder | None = None):
    """Fresh import plus the workload's set-up; returns (lib, ctx)."""
    lib = fresh_import(src)
    if rec is not None:
        rec.install(lib.package, lib.modules, HOOKS)
    return lib, workload.set_up(lib)


def set_up_ok(workload, ctx) -> bool:
    try:
        return bool(workload.set_up_ok(ctx))
    except Exception:  # a set-up that no longer fits its check fails it
        return False


def _traceback(exc) -> str:
    return "".join(traceback.format_exception(exc))


def run_pass(workload, lib, ctx, jobs, timer=raw_time, rec: Recorder | None = None):
    """Run the job list once; returns (latencies, raw latencies, failures)."""
    latencies, raw, failures = [], [], []

    def attempt(job):
        try:
            return workload.run(lib, ctx, job), None
        except Exception as exc:  # a failed job counts; the run goes on
            return None, exc

    for k, job in enumerate(jobs):
        if rec is not None:
            rec.job = k
        (out, exc), t, t_raw = timer(lambda: attempt(job))
        latencies.append(t)
        raw.append(t_raw)
        if exc is not None:
            failures.append((k, repr(job), "raised " + _traceback(exc)))
            continue
        try:
            ok = workload.check(ctx, job, out)
        except Exception as exc:
            failures.append((k, repr(job), "check raised " + _traceback(exc)))
            continue
        if not ok:
            failures.append((k, repr(job), "wrong output"))
        elif rec is not None:
            workload.trace_counts(rec, out)
    return latencies, raw, failures


def tail(values):
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload, jobs, src: Path, seconds: float) -> dict:
    """Untraced run: passes, each after a fresh set-up, until the jobs have
    run for ``seconds`` and at least MIN_PASSES times."""
    start = time.perf_counter()
    setups, setup_raw, per_job, failures = [], [], [[] for _ in jobs], []
    raw_walls = []
    ok = True
    with SpeedProbe() as probe:
        while True:
            lib = ctx = None
            gc.collect()
            (lib, ctx), s, s_raw = probe.time(lambda: set_up(workload, src))
            setups.append(s)
            setup_raw.append(s_raw)
            ok = ok and set_up_ok(workload, ctx)
            latencies, raw, failed = run_pass(workload, lib, ctx, jobs, probe.time)
            failures += failed
            raw_walls.append(sum(raw))
            for k, t in enumerate(latencies):
                per_job[k].append(t)
            passes = len(setups)
            elapsed = time.perf_counter() - start
            if (sum(raw_walls) >= seconds and passes >= MIN_PASSES) or (
                elapsed + raw_walls[-1] + s_raw > MAX_RUN_S
            ):
                break
        lib = ctx = None
        while len(setups) < SETUP_REPEATS or sum(setup_raw) < SETUP_MIN_S:
            gc.collect()
            _, s, s_raw = probe.time(lambda: set_up(workload, src))
            setups.append(s)
            setup_raw.append(s_raw)
        speed = statistics.fmean(probe.samples) / PROBE_NOMINAL_S
    job_lat = [statistics.median(ts) for ts in per_job]
    tail_value, tail_pct = tail(job_lat)
    attempted = len(jobs) * passes
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups"),
        "wall_s": (sum(job_lat), "s",
                   f"{len(jobs)} jobs, each its median of {passes} passes; "
                   f"unscaled {statistics.median(raw_walls):.4g} s per pass, "
                   f"machine {speed:.2f}x slower than reference"),
        "job_p50_ms": (1000 * statistics.median(job_lat), "ms",
                       f"n={len(job_lat)} jobs"),
        "job_tail_ms": (1000 * tail_value, "ms",
                        f"p{tail_pct:.1f}, n={len(job_lat)} jobs, "
                        f"{min(TAIL_BEYOND, len(job_lat) - 1)} beyond"),
        "peak_rss_mb": (rss_mb, "MB", "n=1, ru_maxrss of the process"),
        "error_rate": (len(failures) / attempted, "ratio",
                       f"{len(failures)} of {attempted} jobs"),
    }
    return {"metrics": metrics, "attempted": attempted,
            "failures": failures, "set_up_ok": ok,
            "jobs": [(repr(job), t) for job, t in zip(jobs, job_lat)]}


def layer_metrics(rec: Recorder, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass (set-up included)."""
    calls, counts = rec.calls, rec.counts
    self_s = lambda name: rec.self_ns[name] / 1e9  # noqa: E731

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = counts["genfun.lookups"]
    return {
        "lattice.build_datum_s": (rec.total_ns["lattice.build_datum"] / 1e9, "s"),
        "weylgroup.enumerate_group_s":
            (rec.total_ns["weylgroup.enumerate_group"] / 1e9, "s"),
        "weylgroup.elements": (counts["weylgroup.elements"], "count"),
        "weylgroup.multiply_calls": (calls["weylgroup.multiply"], "count"),
        "weylgroup.length_calls": (calls["weylgroup.length"], "count"),
        "weylgroup.reduced_word_calls": (calls["weylgroup.reduced_word"], "count"),
        "weylgroup.self_s": (rec.layer_self_ns("weylgroup") / 1e9, "s"),
        "qbg.build_self_s": (self_s("qbg.build"), "s"),
        "qbg.edges": (counts["qbg.edges"], "count"),
        "qbg.edge_yield": (ratio(counts["qbg.edges"], counts["qbg.edge_tests"]),
                           "ratio"),
        "qbg.export_self_s": (self_s("qbg.export_json") + self_s("qbg.export_dot"),
                              "s"),
        "cli.stdout_bytes": (counts["cli.stdout_bytes"], "bytes"),
        "cli.self_s": (rec.layer_self_ns("cli") / 1e9, "s"),
        "qbg.edge_kind_calls": (calls["qbg.edge_kind"], "count"),
        "qbg.edge_kind_self_s": (self_s("qbg.edge_kind"), "s"),
        "qbg.edge_hit_ratio": (ratio(counts["qbg.edge_hits"],
                                     calls["qbg.edge_kind"]), "ratio"),
        "affine.reduced_word_ext_calls": (calls["affine.reduced_word_ext"], "count"),
        "affine.reduced_word_ext_self_s": (self_s("affine.reduced_word_ext"), "s"),
        "affine.length_ext_calls": (calls["affine.length_ext"], "count"),
        "affine.word_letters": (counts["affine.word_letters"], "count"),
        "affine.beta_sequence_self_s": (self_s("affine.beta_sequence"), "s"),
        "affine.canonical_beta_self_s": (self_s("affine.canonical_beta_order"), "s"),
        "paths.enumerate_self_s": (self_s("paths.enumerate_paths"), "s"),
        "paths.paths_yielded": (counts["paths.paths_yielded"], "count"),
        "paths.count_self_s": (self_s("paths.count"), "s"),
        "genfun.c_function_calls": (calls["genfun.c_function"], "count"),
        "genfun.c_function_self_s": (self_s("genfun.c_function"), "s"),
        "genfun.poly_mul_calls": (calls["genfun.LaurentPoly.__mul__"], "count"),
        "genfun.terms_out": (counts["genfun.terms_out"], "count"),
        "genfun.recursion_check_self_s": (self_s("genfun.recursion_check"), "s"),
        "genfun.cache_hit_ratio":
            (1 - counts["genfun.c_function_in_check"] / lookups
             if lookups else 0.0, "ratio"),
        "macdonald.self_s": (rec.layer_self_ns("macdonald") / 1e9, "s"),
        "macdonald.terms_out": (counts["macdonald.terms_out"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def measure_traced(workload, jobs, src: Path, out_dir: Path, stem: str) -> dict:
    """One untraced pass, then one traced pass (set-up included).

    Both passes are timed by one speed probe, so trace.overhead_s is a
    difference of scaled times and the machine's drift between the passes
    drops out.  The span times are plain wall time with the probe's
    samples taken out."""
    rec = Recorder()
    with SpeedProbe() as probe:
        lib, ctx = set_up(workload, src)
        untraced, _, failures = run_pass(workload, lib, ctx, jobs, probe.time)
        lib = ctx = None
        gc.collect()
        probe.rec = rec
        lib, ctx = set_up(workload, src, rec)
        ok = set_up_ok(workload, ctx)
        traced, _, failed = run_pass(workload, lib, ctx, jobs, probe.time, rec)
        rec.uninstall()
    untraced, traced = sum(untraced), sum(traced)
    metrics = {
        k: (v, unit, "one traced pass")
        for k, (v, unit) in layer_metrics(rec, traced - untraced).items()
    }
    kept = rec.write_spans(out_dir / f"{stem}-spans.tsv.gz")
    return {"metrics": metrics, "attempted": 2 * len(jobs),
            "failures": failures + failed, "set_up_ok": ok,
            "spans": {"kept": kept, "dropped": rec.dropped,
                      "hook_errors": rec.counts["trace.hook_errors"],
                      "traced_wall_s": traced, "untraced_wall_s": untraced}}


# ---------------------------------------------------------------------------
# run metadata


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = root / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(root: Path, src: Path, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "machine": platform.machine(), "commit": _commit(root),
        "source_sha256": digest.hexdigest(),
        "closed_loop": "one process, one job at a time",
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        src = source_dir(root)
        fresh_import(src)
    except (SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    jobs = workload.plan(random.Random(f"{args.workload}:{args.seed}"))
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = measure_traced(workload, jobs, src, out_dir, stem)
    else:
        result = measure(workload, jobs, src, args.seconds)
    meta = metadata(root, src, args)
    failed = len(result["failures"])
    correct = failed == 0 and result["set_up_ok"]

    print(f"# {json.dumps(meta)}")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"{name:32s} {value:14.6g} {unit:6s} ({note})")
    if "spans" in result:
        print(f"# spans {json.dumps(result['spans'])}")
    if not result["set_up_ok"]:
        print("set-up check failed: a graph did not match its pinned size")
    for k, job, why in result["failures"][:10]:
        print(f"job {k} {job}: {why}")
    record = dict(result, meta=meta, correct=correct)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            n: {"value": v, "unit": u}
            for n, (v, u, _) in result["metrics"].items() if n != "error_rate"
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
