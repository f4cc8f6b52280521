"""Steadiness check: two sets of runs of one commit, spread against bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py                      # 2 sets x 10 seeds, the gated workloads
    python3 perfbench/steady.py --workloads bulk --seeds 5 --sets 1

For every workload and end-to-end metric it prints each set's median, the
spread (distance between the first and third quartile, as a share of the
median; ``statistics.quantiles(values, n=4)``) against the metric's bound
in ``BENCHMARK.json``, and how far the second set's median moved from the
first's in the worse direction.  It also compares the share of failed
operations between the sets, which must match exactly.  Exits 1 when a
spread (other than ``setup_s``'s), a move or a failed share is out of
bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(command, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=200,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for index in range(args.sets):
            seeds = range(1 + index * args.seeds, 1 + (index + 1) * args.seeds)
            sets.append([_run(spec["command"], workload, seed, args.seconds)
                         for seed in seeds])
        shares = [{run["failed"] / run["attempted"] for run in runs} for runs in sets]
        print(f"{workload}: failed share per set {[sorted(s) for s in shares]}",
              flush=True)
        if any(len(s) != 1 for s in shares) or len({min(s) for s in shares}) != 1:
            ok = False
            print("  FAIL: the share of failed operations differs between runs")
        if not all(run["correct"] for runs in sets for run in runs):
            ok = False
            print("  FAIL: a run reported incorrect output")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [_spread(v) for v in values]
            moved = max(sign * (m - medians[0]) / medians[0] for m in medians)
            flags = []
            if name != "setup_s" and max(spreads) > bound:
                flags.append("spread over bound")
            if moved > bound:
                flags.append("median moved over bound")
            ok = ok and not flags
            print(f"  {name:16s} medians {' '.join(f'{m:10.4f}' for m in medians)}"
                  f"  spread {' '.join(f'{s:6.3f}' for s in spreads)}"
                  f"  bound {bound:5.2f}  worse-move {moved:+6.3f}"
                  f"  {'; '.join(flags) or ('ok' if max(spreads) < bound / 3 else 'ok (over a third of bound)')}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
