"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of a checkout (takes well under a minute):

    python3 perfbench/smoke.py

Checks that every run is correct, that the metric names each mode prints are
exactly the ones BENCHMARK.json declares for it, that exact per-layer counts
repeat across two traced runs with one seed, and that every name cited in
layers.json is declared. Exits nonzero on the first mismatch.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

TINY = {
    "alta-n300": replace(run.SPECS["alta-n300"], n=40, instances=6, quality_calls=5,
                         trace_instances=5),
    "brute-n7": replace(run.SPECS["brute-n7"], n=5, instances=3, quality_calls=3),
    "sweep-n60": replace(run.SPECS["sweep-n60"], n=12, instances=1),
}
# Per-layer metrics that must repeat exactly for one seed.
EXACT_UNITS = ("count",)
EXACT_NAMES = ("lap.useful_ratio", "loss.mean")


def fail(message: str) -> None:
    sys.stderr.write(f"smoke: {message}\n")
    raise SystemExit(1)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"] for m in bench["end_to_end"]},
        True: {m["name"] for m in bench["per_layer"]},
    }
    if set(TINY) != {w["name"] for w in bench["workloads"]}:
        fail("workloads in BENCHMARK.json and run.SPECS differ")
    layers = json.loads((run.ROOT / "perfbench" / "layers.json").read_text())
    for entry in layers["map"]:
        unknown = set(entry["per_layer"]) - declared[True]
        unknown |= set(entry["end_to_end"]) - declared[False]
        unknown |= set(entry["workloads"]) - set(TINY)
        if unknown:
            fail(f"layers.json cites undeclared names {sorted(unknown)}")

    sys.path.insert(0, str(run.ROOT / "src"))
    for name, spec in TINY.items():
        spec = replace(spec, min_solves=1)
        for trace in (False, True):
            result = run.run(spec, seed=3, seconds=0.01, trace=trace)
            printed = set(result["metrics"])
            if not result["correct"] or result["failed"]:
                fail(f"{name} trace={int(trace)}: outputs failed their checks")
            if printed != declared[trace]:
                fail(f"{name} trace={int(trace)}: printed but undeclared "
                     f"{sorted(printed - declared[trace])}, declared but not printed "
                     f"{sorted(declared[trace] - printed)}")
        again = run.run(spec, seed=3, seconds=0.01, trace=True)["metrics"]
        for metric, entry in result["metrics"].items():
            if entry["unit"] in EXACT_UNITS or metric in EXACT_NAMES:
                if entry["value"] != again[metric]["value"]:
                    fail(f"{name}: {metric} differs between runs with one seed")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
