"""Paired perfbench runs of two checkouts: the time gate for a change.

    python -m benchmarks.pairs PARENT_TREE CHANGE_TREE

Both trees must hold the same ``perfbench/``.  For each workload in
``BENCHMARK.json`` the benchmark's command runs untraced at seed ``SEED`` for
``run_seconds``, in ``PAIRS`` pairs of one run per tree; the parent goes first
in even pairs and the change in odd ones.  Both medians of every end-to-end
metric are printed as markdown.  The exit code is 1 when a run reports
``correct: false``, when the change fails a larger share of operations than
the parent, or when the change's median of a metric is worse than the
parent's by more than that metric's ``bound`` in its ``better`` direction;
otherwise it is 0.  A run that cannot measure stops the gate with its error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path
from statistics import median

#: Pairs per workload, and the seed of every run.
PAIRS = 3
SEED = 1

#: The benchmark's declaration: workloads, command, run length and bounds.
BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(tree: str, workload: str, spec: dict) -> dict:
    """One untraced benchmark run in ``tree``; returns its result line."""
    options = ["--workload", workload, "--seed", str(SEED), "--trace", "0"]
    argv = [*spec["command"], *options, "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def failed_share(runs: list[dict]) -> float:
    return sum(run["failed"] for run in runs) / max(1, sum(run["attempted"] for run in runs))


def compare(parent: list[dict], change: list[dict], spec: dict) -> tuple[list[str], list[str]]:
    """Judge one workload's runs; returns markdown table rows and the regressions."""
    found = []
    if not all(run["correct"] for run in parent + change):
        found.append("a run reported correct: false")
    before, after = failed_share(parent), failed_share(change)
    rows = [
        "| metric | better | bound | parent | change | change/parent |",
        "|---|---|---|---|---|---|",
        f"| failed share | lower | 0 | {before:.2%} | {after:.2%} | |",
    ]
    if after > before:
        found.append(f"failed share rose from {before:.2%} to {after:.2%}")
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        before = median(run["metrics"][name]["value"] for run in parent)
        after = median(run["metrics"][name]["value"] for run in change)
        ratio = after / before if before else float("inf")
        rows.append(
            f"| {name} | {better} | {bound:.0%} | {before:.5g} | {after:.5g} | {ratio:.3f} |"
        )
        worse = after - before if better == "lower" else before - after
        if worse > bound * before:
            found.append(f"{name} median {before:.5g} -> {after:.5g} is past its {bound:.0%} bound")
    return rows, found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.pairs", description=__doc__.splitlines()[0]
    )
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    trees = (args.parent, args.change)
    regressed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs: tuple[list[dict], list[dict]] = ([], [])
        for pair in range(PAIRS):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                runs[side].append(run_once(trees[side], workload, spec))
        rows, found = compare(*runs, spec)
        verdict = "REGRESSION" if found else "no regression"
        print("\n".join([f"## {workload}: {verdict}", "", *rows, "", *(f"- {s}" for s in found)]))
        regressed |= bool(found)
    return int(regressed)


if __name__ == "__main__":
    raise SystemExit(main())
