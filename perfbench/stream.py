"""Print the ``tailor`` selection stream of a seed and mark the faulty draws.

Usage (from the repository root)::

    python3 perfbench/stream.py --seed 1 --rounds 3
    python3 perfbench/stream.py --seed 1 --rounds 3 --compose

Every draw is printed with what the benchmark did with it: kept, kept but
refused at acquisition, or left out because its composed grammar would
reference an undefined nonterminal (the feature-model fault) or because it
repeats an earlier selection.  The fixed faulty slot that closes each round
is printed too.  ``--compose`` composes every draw and checks the composed
grammar's undefined nonterminals against the static reading the benchmark
uses; it exits 1 on a disagreement.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.sql.dialects import dialect_features  # noqa: E402
from repro.sql.product_line import build_sql_product_line  # noqa: E402

import inputs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--compose", action="store_true")
    args = parser.parse_args(argv)

    line = build_sql_product_line()
    disagreements = 0
    draws = {"total": 0, "faulty": 0}

    def log(index, base, added, outcome):
        nonlocal disagreements
        fault = "FAULT " if "undefined" in outcome or "faulty" in outcome else "      "
        draws["total"] += outcome != "fixed faulty slot"
        draws["faulty"] += outcome.startswith("left out: undefined")
        print(f"round {index:3d}  {fault}{base:9s} + {', '.join(added):50s} {outcome}")
        if args.compose and not outcome.startswith("kept: refused"):
            config = line.resolve_configuration(dialect_features(base) + list(added))
            composed = line.compose_product(config).grammar.undefined_nonterminals()
            if composed != inputs.undefined_nonterminals(line, config):
                disagreements += 1
                print(f"    composed grammar leaves {sorted(composed)} undefined")

    inputs.tailor_rounds(line, args.seed, args.rounds, log=log)
    print(f"{draws['faulty']} of {draws['total']} draws hit the fault")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
