"""The repo benchmark: one run of one workload against ``repro.service``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 40 --trace 0

Each workload runs in a fresh process (``perfbench/worker.py``) with a
pinned hash seed.  With ``--trace 0`` the run also starts
``SETUP_SAMPLES - 1`` set-up-only processes and reports the median set-up
time with the timed window's end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of the traced rounds instead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("interactive", "bulk", "tailor", "serve")
#: set-up is timed in this many fresh processes; the median is reported
SETUP_SAMPLES = 5
#: seconds all the processes of one run may take together
RUN_BUDGET = 170


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "service").is_dir():
        print(f"no repro sources under {ROOT / 'src'}: run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    common = ["--workload", args.workload]
    deadline = time.monotonic() + RUN_BUDGET
    try:
        setups = [] if args.trace else [
            _worker(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = _worker(
            common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)],
            deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
