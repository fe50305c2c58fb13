#!/usr/bin/env python3
"""Regenerate every experiment table in one run.

This is the batch driver behind EXPERIMENTS.md: it runs the whole experiment
suite at the chosen scale and prints (or writes) the rendered report.

Run with::

    python examples/reproduce_experiments.py [--scale small] [--only E1 E2] [--output report.md]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import available_experiments, run_experiment

# Per-experiment overrides keeping the default run laptop-friendly.
_SCALE_OVERRIDES: dict[str, dict[str, dict]] = {
    "small": {
        "E1": {"epsilons": (0.1, 0.25, 0.5)},
        "E2": {"lengths": (4.0, 8.0, 16.0)},
        "E3": {"num_jobs": 100},
        "E4": {"num_jobs": 20},
        "E5": {"alphas": (2.0, 3.0, 4.0)},
    },
    "medium": {
        "E1": {"scale": "medium"},
        "E2": {"lengths": (4.0, 8.0, 16.0, 24.0, 32.0)},
        "E3": {"num_jobs": 250},
        "E4": {"num_jobs": 40, "include_brute_force": True},
        "E5": {"alphas": (2.0, 3.0, 4.0, 5.0, 6.0)},
        "E6": {"scale": "medium"},
        "E9": {"scale": "medium"},
    },
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "medium"), default="small")
    parser.add_argument("--only", nargs="*", default=None, help="subset of experiment ids")
    parser.add_argument("--output", default=None, help="write the report to this file")
    args = parser.parse_args()

    experiment_ids = [e.upper() for e in (args.only or available_experiments())]
    overrides = _SCALE_OVERRIDES.get(args.scale, {})

    sections = []
    for experiment_id in experiment_ids:
        start = time.perf_counter()
        result = run_experiment(experiment_id, **overrides.get(experiment_id, {}))
        elapsed = time.perf_counter() - start
        sections.append(result.render() + f"\n\n(ran in {elapsed:.1f}s)")
        print(f"[{experiment_id}] done in {elapsed:.1f}s", file=sys.stderr)

    report = "\n\n\n".join(sections)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(report)


if __name__ == "__main__":
    main()
