"""Compare a parent checkout with a change, workload by workload.

Usage::

    python3 perfbench/compare.py --parent ../parent --change . [--pairs 10]

Both checkouts are measured with this file's benchmark code (``run.py``
next to it) and the run length and bounds of the ``BENCHMARK.json`` above
it, so only the program differs.  Each pair runs the parent and the change
on the same seed, alternating which side goes first.  For every
end-to-end metric of every workload the verdict is

- ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
- ``better``: every run of the change beats every run of the parent;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound, and the spread is within the bound or every
  change run is worse than every parent run;
- ``unresolved``: the run-to-run spread (interquartile range over median,
  on either side) is wider than the bound;
- ``no regression`` otherwise.

The exit code is 1 when any metric regressed or any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
MIN_PAIRS = 10
RUN_TIMEOUT_S = 300


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent, change, better: str, bound: float) -> dict:
    """Verdict for one metric; ``parent[i]`` and ``change[i]`` are pair i."""
    sign = 1 if better == "lower" else -1   # sign * (p - c) > 0: change better
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    if wins >= WIN_SHARE * len(parent) and sign * (pm - cm) > p3 - p1:
        verdict = "gain"
    elif all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "better"
    elif worse_by > bound and (
        spread <= bound or all(sign * (c - p) > 0 for p in parent for c in change)
    ):
        verdict = "regression"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        "verdict": verdict, "wins": wins, "pairs": len(parent),
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "worse_by": worse_by, "spread": spread, "bound": bound,
    }


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{root}: {workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_workload(spec, workload, parent_root, change_root, pairs, first_seed):
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        sides = [("parent", parent_root), ("change", change_root)]
        if i % 2:
            sides.reverse()
        for side, root in sides:
            runs[side].append(
                run_once(root, workload, first_seed + i, spec["run_seconds"])
            )
    verdicts = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        verdicts[name] = judge(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            metric["better"], metric["bound"],
        )
    correct = all(r["correct"] for side in runs.values() for r in side)
    return verdicts, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads(SPEC.read_text())

    failed = False
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        verdicts, correct = compare_workload(
            spec, workload, args.parent.resolve(), args.change.resolve(),
            args.pairs, args.first_seed,
        )
        failed |= not correct or any(
            v["verdict"] == "regression" for v in verdicts.values()
        )
        rows.append((workload, verdicts, correct))
        print(f"\n{workload} (all runs correct: {correct})")
        for name, v in verdicts.items():
            print(
                f"  {name:12s} {v['verdict']:13s} wins {v['wins']}/{v['pairs']}"
                f"  parent q1/med/q3 {'/'.join(f'{x:.4g}' for x in v['parent'])}"
                f"  change {'/'.join(f'{x:.4g}' for x in v['change'])}"
                f"  worse by {100 * v['worse_by']:+.1f}%"
                f"  spread {100 * v['spread']:.1f}% (bound {100 * v['bound']:.0f}%)"
            )
    print("\nworkload      " + "  ".join(f"{m['name']:>13s}" for m in spec["end_to_end"]))
    for workload, verdicts, _ in rows:
        print(f"{workload:13s} " + "  ".join(
            f"{verdicts[m['name']]['verdict']:>13s}" for m in spec["end_to_end"]
        ))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
