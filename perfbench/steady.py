#!/usr/bin/env python3
"""Steadiness mode: runs one workload N times and reports each metric's spread.

    python3 perfbench/steady.py --workload <name> [--runs 10]
                                [--save batch.json] [--against earlier.json]

Run from the repository root. Each run goes through ``perfbench/run.py``
with its own seed (1, 2, ..., N) and the
``run_seconds`` of ``BENCHMARK.json``. For every end-to-end metric the
report gives the median and quartiles of the runs (Python's
``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and the metric's bound from ``BENCHMARK.json``:

* ``steady`` -- spread at most a third of the bound;
* ``within`` -- spread within the bound;
* ``NOISY``  -- spread beyond the bound.

``--save`` writes the batch's values; ``--against`` compares this batch's
medians with a saved batch and flags a metric whose median got worse by
more than its bound. The exit code is 1 when a run fails, reports
``correct: false``, or a metric is NOISY or worse than ``--against``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: run failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith(("host:", "gauge:")):
            print(f"  seed {seed} {line}")
    return result


def worse_by(old: float, new: float, better: str) -> float:
    """Share of ``old`` by which ``new`` is worse (negative when better)."""
    delta = new - old if better == "lower" else old - new
    return delta / abs(old) if old else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in metrics}
    ok = True
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, spec["run_seconds"])
        if not result["correct"] or result["failed"]:
            print(f"  seed {seed}: correct={result['correct']} failed={result['failed']}")
            ok = False
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"  seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in metrics))

    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, m in metrics.items():
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / abs(med) if med else 0.0
        if spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within"
        else:
            verdict = "NOISY"
            ok = False
        if earlier:
            shift = worse_by(statistics.median(earlier[name]), statistics.median(v), m["better"])
            verdict += f", {shift:+.1%} vs saved"
            if shift > m["bound"]:
                verdict += " WORSE"
                ok = False
        print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {m['bound']:6}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
