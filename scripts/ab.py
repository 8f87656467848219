#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark: a revision against this checkout.

    python3 scripts/ab.py REV [--workload W] [--pairs N] [--first-seed F]
                              [--seconds S] [--trace 0|1]

REV's committed files are exported with `git archive` into a temporary
directory, removed on exit; the other side is this checkout as it stands,
uncommitted edits included.  Both trees' `src` are byte-compiled before
each pair, so that no side's `setup_s` pays for compiling, not even
after an edit made during the run.  Pair i (from 1) runs
`perfbench/run.py` with seed F + i - 1 in both trees (F is --first-seed,
default 1, so that a claim can be re-checked on seeds it was not built
on), REV first in odd pairs and this checkout first in even ones; each
pair's end-to-end values go to stderr.  Only run.py's output is read: its last line (JSON) and, for the
raw times that run.py scales, the notes of `wall_s` and `setup_s`.

--trace 0 prints, per end-to-end metric, each side's median and
quartiles, the ratio of the medians, the pairs in which this checkout
read lower, and a verdict against the metric's bound in BENCHMARK.json.
--trace 1 names each counter (every traced metric not in seconds) that
differs between the two sides in any pair, and prints the layer self
times.  Without --workload, every workload in BENCHMARK.json runs.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
RAW = ("wall_s", "setup_s")  # metrics whose note gives the unscaled time


def export(rev: str, dest: Path) -> None:
    """REV's committed tree, unpacked into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """run.py's metric values, with the raw times under "<metric>.raw" and
    its verdict under "correct", and the metrics' units."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py failed in {tree}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values["correct"] = result["correct"]
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    for line in lines:
        for name in RAW:
            raw = re.match(rf"\s+{name}\s.*raw ([0-9.]+) s", line)
            if raw:
                values[f"{name}.raw"] = float(raw.group(1))
    return values, units


def spread(values):
    """(median, lower quartile, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def verdict(name, base, change, lower, pairs):
    med_b, q1_b, q3_b = spread(base)
    med_c, q1_c, q3_c = spread(change)
    bound = BOUNDS.get(name.split(".")[0])
    if bound is not None and med_c > med_b * (1 + bound):
        return "WORSE beyond bound"
    if abs(med_c - med_b) > q3_b - q1_b and lower * 10 >= 9 * pairs:
        return "lower"
    if abs(med_c - med_b) > q3_b - q1_b and lower * 10 <= pairs:
        return "higher"
    if bound is not None and max(q3_b - q1_b, q3_c - q1_c) > bound * med_b:
        return "unresolved: spread beyond bound"
    return "no clear change"


def report_e2e(workload, pairs):
    n = len(pairs)
    print(f"\n{workload}: {n} pairs, REV -> this checkout "
          "(median [quartiles]; lower = pairs in which this checkout read lower)")
    names = []
    for name in BOUNDS:
        names += [name] + [f"{name}.raw"] * (f"{name}.raw" in pairs[0][0])
    for name in names:
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        lower = sum(c < b for b, c in zip(base, change))
        mb, q1b, q3b = spread(base)
        mc, q1c, q3c = spread(change)
        ratio = mc / mb if mb else float("nan")
        print(f"  {name:14s} {mb:10.4g} [{q1b:.4g}, {q3b:.4g}] -> "
              f"{mc:10.4g} [{q1c:.4g}, {q3c:.4g}]  x{ratio:.3f}  "
              f"lower {lower}/{n}  {verdict(name, base, change, lower, n)}")


def report_trace(workload, pairs, units):
    n = len(pairs)
    print(f"\n{workload}: {n} traced pairs, REV -> this checkout")
    moved = []
    for name, unit in units.items():
        if unit == "s":
            continue
        diffs = [(b[name], c[name]) for b, c in pairs if b[name] != c[name]]
        if diffs:
            shown = ", ".join(f"{b:g} -> {c:g}" for b, c in diffs[:4])
            moved.append(f"  moved: {name} in {len(diffs)}/{n} pairs ({shown})")
    print("\n".join(moved) if moved else "  no counter moved")
    for name, unit in units.items():
        if unit == "s":
            mb = statistics.median(b[name] for b, _ in pairs)
            mc = statistics.median(c[name] for _, c in pairs)
            print(f"  {name:18s} {mb:10.4g} -> {mc:10.4g} s (medians)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="the revision to compare this checkout with")
    ap.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]],
                    action="append", help="repeatable; default every workload")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1,
                    help="the seed of pair 1; pair i runs seed FIRST_SEED + i - 1")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]

    with tempfile.TemporaryDirectory(prefix="neron-ab-") as tmp:
        trees = {"rev": Path(tmp) / "tree", "here": ROOT}
        export(args.rev, trees["rev"])
        for workload in workloads:
            pairs, incorrect = [], 0
            for pair in range(1, args.pairs + 1):
                for tree in trees.values():
                    subprocess.run([sys.executable, "-m", "compileall", "-q",
                                    str(tree / "src")], check=True)
                seed = args.first_seed + pair - 1
                order = ("rev", "here") if pair % 2 else ("here", "rev")
                got = {}
                for side in order:
                    got[side], units = run(trees[side], workload, seed,
                                           args.seconds, args.trace)
                    incorrect += not got[side].pop("correct")
                pairs.append((got["rev"], got["here"]))
                shown = "".join(f", {k} {got['rev'][k]:.4g} -> {got['here'][k]:.4g}"
                                for k in got["rev"] if k.split(".raw")[0] in BOUNDS)
                print(f"{workload} seed {seed}: {' then '.join(order)}{shown}",
                      file=sys.stderr)
            if args.trace:
                report_trace(workload, pairs, units)
            else:
                report_e2e(workload, pairs)
            if incorrect:
                print(f"  {incorrect} runs reported correct: false")
    return 0


if __name__ == "__main__":
    sys.exit(main())
