"""Run one workload of the OSR engine benchmark and print its metrics.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository; the engine is
imported from ``src/`` of that checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The lines before it are the human-readable
report: every metric with its unit and sample count, and with
``--trace 1`` the per-layer tables (also written, with every span, to
``perfbench/out/``).  Exit status: 0 when every output and check is
correct, 1 when one is not, 2 when the engine's sources are missing or
the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady", "tierup_churn", "phase_shift", "warm_start"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no engine sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run

    result = run(args.workload, args.seed, args.seconds,
                 trace=bool(args.trace), out_dir=OUT_DIR)
    for block in result.report:
        print(block)
    print(json.dumps(result.as_json()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
