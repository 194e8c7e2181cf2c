"""Compare two checkouts on the benchmark in alternated pairs of runs.

Runs ``perfbench/run.py --trace 0`` from a parent tree and a change tree,
one process at a time, for N pairs per workload. Pair i uses seed
``--seed + i`` on both sides, and the side that runs first alternates from
pair to pair. Every run is printed; then, for each end-to-end metric declared
in BENCHMARK.json, both medians and quartiles, the number of pairs the change
won, and the relative change of the median against the metric's bound
(``worse`` is the share by which the change is worse in the metric's
direction). An end-to-end line ends in ``gain`` when the change won at least
nine tenths of the pairs and its median beats the parent's by more than the
parent's quartile spread, and in ``unresolved`` when that spread, relative
to the parent's median, is wider than the metric's bound. Below that table
come the same figures, without a bound, for the unscaled ``raw``
solves_per_s, solve_ms.p50 and solve_ms.p90 that each run prints on its
``# host kernel`` line; scaled and raw can disagree when the host-speed
kernel drifts. Example, from the root of the change tree:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload brute-n7 --pairs 10 --seed 511

Exits 1 if any run fails, reports ``correct: false`` or ``failed > 0``.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
RAW = ("solves_per_s", "solve_ms.p50", "solve_ms.p90")
RAW_LINE = re.compile(r"^# host kernel .* raw solves_per_s (\S+) solve_ms\.p50 (\S+) "
                      r"solve_ms\.p90 (\S+)$", re.MULTILINE)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from tree; returns its closing JSON line, or a failed
    result, with the unscaled figures of its host line under "raw"."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": -1, "metrics": {}}
    raw = RAW_LINE.search(proc.stdout)
    result["raw"] = dict(zip(RAW, map(float, raw.groups()))) if raw else {}
    if proc.returncode != 0:
        result["correct"] = False
        sys.stderr.write(proc.stderr)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(name: str, better: str, bound: float | None,
            parent: list[float], change: list[float]) -> str:
    """One table line; without a bound it ends at the relative change."""
    pq, cq = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    line = (f"{name:19s} parent {pq[1]:.6g} [{pq[0]:.6g}-{pq[2]:.6g}]  "
            f"change {cq[1]:.6g} [{cq[0]:.6g}-{cq[2]:.6g}]  "
            f"won {wins}/{len(parent)}  delta {rel:+.2%}")
    if bound is None:
        return line
    worse = -sign * rel + 0.0  # no -0.00%
    spread = pq[2] - pq[0]
    flags = [flag for flag, hit in (
        ("OVER BOUND", worse > bound),
        ("gain", wins >= 0.9 * len(parent) and sign * (cq[1] - pq[1]) > spread),
        ("unresolved", spread > bound * abs(pq[1])),
    ) if hit]
    return f"{line}  worse {worse:+.2%} (bound {bound:.1%})" + "".join(f"  {f}" for f in flags)


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ok = True
    for workload in args.workload or names:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], workload, seed, args.seconds)
                runs[side].append(result)
                ok &= bool(result["correct"]) and result["failed"] == 0
                values = " ".join(f"{k}={m['value']:.6g}"
                                  for k, m in sorted(result["metrics"].items()))
                print(f"{workload} pair {i} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']} {values}", flush=True)
        print(f"== {workload}: {args.pairs} pairs, {args.seconds:g} s runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                series = [[r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change")]
            except KeyError:
                print(f"{name:15s} missing from some run")
                ok = False
                continue
            print(compare(name, metric["better"], metric["bound"], *series))
        for name in RAW:
            try:
                series = [[r["raw"][name] for r in runs[side]] for side in ("parent", "change")]
            except KeyError:
                print(f"raw {name} missing from some run")
                continue
            print(compare(f"raw {name}", better[name], None, *series))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
