"""Tests of the benchmark itself: tiny workloads, the oracles, the tracer
and the compare verdicts."""

import random
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import compare  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from recorder import Recorder  # noqa: E402

SRC = HERE.parents[1] / "src"

TINY = {
    "qbg_cli": lambda: wl.QbgCli({"A2": 2}),
    "specialize": lambda: wl.Specialize(
        {"A2": ([(-1, 0), (0, -1), (-1, -1)], 2), "G2": ([(-1, 0)], 1)}
    ),
    "recursion": lambda: wl.Recursion({"A2": 1}),
    "affine_words": lambda: wl.AffineWords(
        words=[("A2", None, None), ("C3", (1, 2, 3), 1)],
        translations=[("B2", 1, 2, 2)],
    ),
}


@pytest.fixture(autouse=True)
def keep_library_modules():
    """The benchmark re-imports the package; give later tests the original."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "alcovepaths" or k.startswith("alcovepaths.")}
    yield
    for k in [k for k in sys.modules
              if k == "alcovepaths" or k.startswith("alcovepaths.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def tiny_run(name, trace=False, tmp_path=None):
    workload = TINY[name]()
    jobs = workload.plan(random.Random(f"{name}:1"))
    if trace:
        return bench.measure_traced(workload, jobs, SRC, tmp_path, "t")
    return bench.measure(workload, jobs, SRC, seconds=0)


def test_workload_names_match_the_benchmark_spec():
    import json

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert set(TINY) == set(wl.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == set(tiny_run("qbg_cli")["metrics"]) - {"error_rate"}


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_runs_at_a_tiny_size(name):
    result = tiny_run(name)
    assert result["failures"] == []
    assert result["set_up_ok"]
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert metrics["error_rate"][0] == 0
    for key in ("setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"):
        assert metrics[key][0] > 0, key


def test_same_seed_gives_same_jobs():
    for cls in wl.WORKLOADS.values():
        a = cls().plan(random.Random("x:7"))
        b = cls().plan(random.Random("x:7"))
        assert a == b and len(a) >= 1


def test_wrong_pinned_digest_raises_error_rate(monkeypatch):
    bruhat, quantum, _ = wl.QBG_PINNED["A2"]
    monkeypatch.setitem(wl.QBG_PINNED, "A2", (bruhat, quantum, "0" * 64))
    result = tiny_run("qbg_cli")
    assert result["metrics"]["error_rate"][0] == 1.0
    assert len(result["failures"]) == result["attempted"] >= 2


def test_wrong_pinned_dimension_raises_error_rate(monkeypatch):
    monkeypatch.setitem(wl.FUNDAMENTAL_DIMS, "G2", (14, 7))
    result = tiny_run("specialize")
    # only the G2 job reads the tampered value
    assert result["metrics"]["error_rate"][0] == pytest.approx(1 / 3)


def test_wrong_pinned_dimension_raises_recursion_error_rate(monkeypatch):
    # every u checks i = 2, where mu = lam - omega_2 reads the second dimension
    monkeypatch.setitem(wl.FUNDAMENTAL_DIMS, "A2", (3, 4))
    result = tiny_run("recursion")
    assert result["metrics"]["error_rate"][0] == 1.0
    assert result["attempted"] == 2 * 6       # two passes over |W(A2)| jobs


def test_recursion_oracle_rejects_a_consistently_wrong_c_function():
    # lam = 0 only: mu is -omega_1, then -omega_2, both of dimension 3.  An
    # empty C-function makes both sides 0 and the library's flag True.
    workload = wl.Recursion({"A2": 0})
    assert workload.check(None, ("A2", 0), [(True, 3, 3), (True, 3, 3)])
    assert not workload.check(None, ("A2", 0), [(True, 0, 0), (True, 0, 0)])
    assert not workload.check(None, ("A2", 0), [(True, 3, 3)])


def test_a_raising_job_counts_and_is_timed_like_the_others():
    class Raising(wl.Recursion):
        def run(self, lib, ctx, job):
            if job[1] == 0:
                raise ValueError("boom")
            return super().run(lib, ctx, job)

    workload = Raising({"A2": 1})
    jobs = workload.plan(random.Random(0))
    lib, ctx = bench.set_up(workload, SRC)
    timer = lambda fn: (fn(), 1.0, 2.0)  # noqa: E731
    latencies, raw, failures = bench.run_pass(workload, lib, ctx, jobs, timer)
    assert [f[1] for f in failures] == [repr(("A2", 0))]
    assert "ValueError: boom" in failures[0][2]
    assert latencies == [1.0] * len(jobs) and raw == [2.0] * len(jobs)


def test_traced_counts_for_a2_qbg(tmp_path):
    m = tiny_run("qbg_cli", trace=True, tmp_path=tmp_path)["metrics"]
    value = {k: v[0] for k, v in m.items()}
    # two jobs of `qbg --type A2 --format json`
    assert value["weylgroup.elements"] == 2 * 6          # |W(A2)| = 3!
    assert value["qbg.edges"] == 2 * 15                  # 8 Bruhat + 7 quantum
    assert value["qbg.edge_yield"] == pytest.approx(15 / 18)   # 6 elements x 3 roots
    assert value["cli.stdout_bytes"] == 2 * 1268         # export plus newline
    assert value["genfun.c_function_calls"] == 0
    assert value["affine.reduced_word_ext_calls"] == 0


def test_traced_counts_for_a2_specialization(tmp_path):
    workload = wl.Specialize({"A2": ([(-1, 0)], 1)})
    jobs = workload.plan(random.Random(0))
    m = bench.measure_traced(workload, jobs, SRC, tmp_path, "t")["metrics"]
    value = {k: v[0] for k, v in m.items()}
    # e_zero is one generating function, e_infinity two routes
    assert value["genfun.c_function_calls"] == 3
    # each derives the word of t_{-omega_1}: <gamma, omega_1> is 1 for
    # alpha_1 and alpha_1 + alpha_2, 0 for alpha_2, so 2 letters
    assert value["affine.reduced_word_ext_calls"] == 3
    assert value["affine.word_letters"] == 3 * 2
    # V(omega_1) of A2 has three weights, each of multiplicity one
    assert value["macdonald.terms_out"] == 3 + 3
    assert value["qbg.edges"] == 15
    assert value["cli.stdout_bytes"] == 0
    assert value["genfun.cache_hit_ratio"] == 0.0        # no recursion checks


def test_recorder_counts_self_time_and_from_imports():
    inner = types.ModuleType("fake.inner")
    outer = types.ModuleType("fake.outer")
    exec(
        "def leaf(n):\n"
        "    return sum(range(n))\n"
        "def gen(n):\n"
        "    for i in range(n):\n"
        "        yield leaf(i)\n",
        inner.__dict__,
    )
    inner.__all__ = ["leaf", "gen"]
    for fn in (inner.leaf, inner.gen):
        fn.__module__ = inner.__name__
    exec(
        "def top(n):\n"
        "    return [leaf(k) for k in range(n)] + list(gen(2))\n",
        outer.__dict__,
    )
    outer.leaf, outer.gen = inner.leaf, inner.gen   # `from inner import leaf, gen`
    outer.top.__module__ = outer.__name__
    package = types.ModuleType("fake")
    original = inner.leaf

    rec = Recorder()
    rec.install(package, {"inner": inner, "outer": outer},
                {"inner.gen": lambda r, a, item: r.counts.__setitem__(
                    "yielded", r.counts["yielded"] + 1)})
    assert outer.leaf is not original and inner.leaf is outer.leaf
    assert outer.top(3) == [0, 0, 1, 0, 0]
    rec.uninstall()
    assert inner.leaf is original and outer.leaf is original

    assert rec.calls["outer.top"] == 1
    assert rec.calls["inner.leaf"] == 3 + 2
    assert rec.calls["inner.gen"] == 1
    assert rec.counts["yielded"] == 2
    # spans: top, three leaves, three resumes of gen (the last one ends it)
    # with a leaf inside each of the first two
    assert len(rec.span_start) == 1 + 3 + 3 + 2
    assert rec.span_parent[0] == -1
    assert all(rec.span_parent[i] == 0 for i in range(1, 4))
    total = rec.total_ns["outer.top"]
    assert sum(rec.self_ns.values()) == total
    assert 0 < rec.self_ns["outer.top"] < total


def test_recorder_takes_excluded_time_out_of_open_spans():
    mod = types.ModuleType("fake.mod")
    rec = Recorder()

    def f():
        t0 = time.perf_counter_ns()
        time.sleep(0.02)
        rec.excluded_ns += time.perf_counter_ns() - t0   # as the probe does

    f.__module__ = mod.__name__
    mod.f, mod.__all__ = f, ["f"]
    rec.install(types.ModuleType("fake"), {"mod": mod})
    mod.f()
    rec.uninstall()
    assert 0 <= rec.total_ns["mod.f"] == rec.self_ns["mod.f"] < 5_000_000


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    value, pct = bench.tail(values)
    assert value == 89 and pct == 90.0
    assert bench.tail([3, 1, 2]) == (3, 100.0)


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.3 for p in parent]
    assert compare.judge(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.judge(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert compare.judge(parent, list(parent), "lower", 0.1)["verdict"] == (
        "no regression")
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.judge(noisy, list(reversed(noisy)), "lower", 0.1)[
        "verdict"] == "unresolved"
    assert compare.judge(parent, faster, "higher", 0.1)["verdict"] == "regression"


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench.main(["--workload", "qbg_cli", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
