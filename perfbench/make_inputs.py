#!/usr/bin/env python3
"""Write one workload's benchmark inputs to a directory, as a run makes them.

    python3 perfbench/make_inputs.py --workload sensor-csv --seed 1 --out inputs
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run  # noqa: F401  (puts src/ on sys.path before dmdc is imported)
from workloads import WORKLOADS


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory to write")
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload]().make_inputs(out, args.seed)
    print(f"wrote {args.workload} inputs for seed {args.seed} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
