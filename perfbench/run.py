"""tlsperm benchmark: one workload per process, a closed loop, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload alta-n300 --seed 1 --seconds 33 --trace 0

Workloads (p = 2, mixing rotation_2d(60), inputs drawn from stream(seed, i)):

* alta-n300: n = 300, a random true permutation, identity start, sigma 0.05,
  instances solved by alta c1..c4 and aloa in rotation. Dominated by the
  assignment.
* brute-n7: brute_force_tls at n = 7 with sigma cycling over 0, 0.1, 0.3.
  Dominated by tls_objective and the linalg wrappers; no assignment at all.
* sweep-n60: ``tlsperm sweep --sweep shuffle`` at n = 60 with five estimators,
  called through cli.main. Many small solves plus validation, metrics and CSV.

Each run sets up (imports the package in fresh interpreters, draws the
inputs), warms up, then solves in a closed loop until ``--seconds`` have
passed, the calls that give the loss metrics are done and at least 100
solves are timed. Outputs are checked after the loop.
``--trace 0`` prints the end-to-end metrics, with times scaled to a fixed
host speed (see hostspeed.py); ``--trace 1`` alternates untraced and traced
passes over a smaller input set and prints the per-layer metrics, per traced
pass, in raw seconds. The last stdout line is a JSON object with keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os

# One BLAS thread; this must precede the first numpy import.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

from hostspeed import REF_S, HostSpeed  # noqa: E402
from tracer import LAYERS, Tracer, patched  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / "perfbench" / "_work"
IMPORT_REPEATS = 3
GENERATION_REPEATS = 5
ALTA_LABELS = ("alta_c1", "alta_c2", "alta_c3", "alta_c4", "aloa")
ALL_LABELS = ALTA_LABELS + ("brute",)
THETA = 60.0
BRUTE_SIGMAS = (0.0, 0.1, 0.3)
SWEEP_GRID = "0,0.25,0.5,0.75,1"


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. instances: distinct inputs, cycled in order
    (sweep: trials per cli call, which is the one input); quality_calls:
    leading calls whose outputs give the loss metrics, always completed so
    those stay fixed per seed; trace_instances: inputs in one traced pass (a
    sweep's traced pass is one whole call); replay_calls: leading calls
    re-solved with a reference assignment to check the result."""

    name: str
    n: int
    instances: int
    quality_calls: int
    trace_instances: int
    replay_calls: int = 0
    min_solves: int = 100


SPECS = {
    # alta solve times depend on the input (c4 and aloa iteration counts range
    # from 3 to 25), so its p90 needs many distinct inputs per run: n = 300
    # fits several hundred solves in a run where n = 500 fits about 160, and
    # a run solves each input at most once.
    "alta-n300": Spec("alta-n300", n=300, instances=600, quality_calls=250, trace_instances=10,
                      replay_calls=25),
    "brute-n7": Spec("brute-n7", n=7, instances=90, quality_calls=90, trace_instances=3),
    # one call writes 5 grid points x 5 estimators x 24 trials = 600 records;
    # short calls let the host-speed scale follow the host's phases
    "sweep-n60": Spec("sweep-n60", n=60, instances=24, quality_calls=1, trace_instances=1),
}


@dataclass
class Job:
    """One timed call into the program. call() returns (seconds, result)."""

    instance: int
    label: str
    call: Callable[[], tuple[float, object]]


@dataclass
class Case:
    x: np.ndarray
    pi_star: np.ndarray
    y1: np.ndarray
    y2: np.ndarray


def make_case(tp, seed: int, i: int, n: int, sigma: float) -> Case:
    rng = tp.stream(seed, i)
    x = tp.generate_design(n, 2, rng)
    pi_star = tp.random_permutation(n, rng)
    inst = tp.ProblemInstance(x=x, r=tp.rotation_2d(THETA), pi_star=pi_star,
                              sigma=tp.as_covariance(sigma, 2))
    obs = tp.generate_observations(inst, rng)
    return Case(x=x, pi_star=pi_star, y1=obs.y1, y2=obs.y2)


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def is_bijection(perm, n: int) -> bool:
    arr = np.asarray(perm)
    return arr.shape == (n,) and np.array_equal(np.sort(arr), np.arange(n))


class SolverWorkload:
    """Shared shape of alta-n300 and brute-n7: one job per instance, the
    estimator label chosen by label(i)."""

    def __init__(self, tp, spec: Spec, seed: int, workdir: Path):
        self.tp = tp
        self.spec = spec
        self.seed = seed
        self.cases = [self.make(i) for i in range(spec.instances)]

    def make(self, i: int) -> Case:
        return make_case(self.tp, self.seed, i, self.spec.n, self.sigma(i))

    def generate_jobs(self) -> list[Job]:
        """Input generation of the traced instances, which the traced run
        times as part of each pass so that setup's model calls show."""
        return [Job(i, "generate", lambda i=i: timed(lambda: self.make(i)))
                for i in range(self.spec.trace_instances)]

    def check_generated(self, job: Job, case: Case) -> int:
        """1 when regenerated inputs differ from the ones set up."""
        ref = self.cases[job.instance]
        return int(not all(np.array_equal(getattr(case, f), getattr(ref, f))
                           for f in ("x", "pi_star", "y1", "y2")))

    def replay(self, job: Job, result) -> int:
        """Failed solves found by a reference re-solve; none by default."""
        return 0

    def jobs(self, count: int | None = None) -> list[Job]:
        idx = range(self.spec.instances if count is None else count)
        return [Job(i, self.label(i), self._caller(i)) for i in idx]

    def trace_jobs(self) -> list[Job]:
        return self.jobs(self.spec.trace_instances)

    def solve_count(self, result) -> int:
        return 1

    def solve_ms(self, seconds: float, result) -> list[float]:
        return [seconds * 1000.0]

    def iterations(self, job: Job, result) -> list[int]:
        return [result.iterations]

    def quality(self, job: Job, result) -> list[tuple[str, float]]:
        """(label, procrustes loss) per solve."""
        case = self.cases[job.instance]
        return [(job.label, self.tp.procrustes_loss(case.x, case.pi_star, result.perm))]


class AltaWorkload(SolverWorkload):
    """Instance i is solved by one estimator, in rotation. Solving every
    instance with all five would give five correlated solve times per draw
    (c4 and aloa take many iterations on the same instances), so a run would
    hold five times fewer independent draws and its p90 would follow the seed."""

    def label(self, i: int) -> str:
        return ALTA_LABELS[i % len(ALTA_LABELS)]

    def sigma(self, i: int) -> float:
        return 0.05

    def _caller(self, i: int):
        case, tp = self.cases[i], self.tp
        if self.label(i) == "aloa":
            return lambda: timed(lambda: tp.aloa(case.y1, case.y2))
        kind = self.label(i)[len("alta_"):]
        return lambda: timed(lambda: tp.alta(case.y1, case.y2, kind=kind))

    def replay(self, job: Job, result) -> int:
        """1 when a re-solve whose every assignment comes from scipy's exact
        LAP returns another permutation or objective trace, which is how an
        approximate or wrong assignment shows; also 1 when the re-solve made
        fewer assignment calls than its iterations need, because the
        replacement then did not reach the assignment step."""
        lap = ReferenceLap()
        with patched(lambda layer, fname, fn: lap if (layer, fname) == ("lap", "solve_lap") else None):
            _, again = job.call()
        same = (np.array_equal(again.perm, result.perm)
                and len(again.objective_trace) == len(result.objective_trace)
                and all(close(a, b, 1e-12) for a, b in
                        zip(again.objective_trace, result.objective_trace)))
        return int(not same or lap.calls < result.iterations - 1)

    def check(self, job: Job, result) -> int:
        """Failed solves: not a bijection, a failure marker, or a reported
        objective that does not match a re-scored tls_objective."""
        case = self.cases[job.instance]
        if result.failure is not None or not is_bijection(result.perm, self.spec.n):
            return 1
        rescored = self.tp.tls_objective(case.y2, case.y1[np.asarray(result.perm)])
        if result.ols_residual_trace is not None:
            # aloa selects its iterate by the least-squares residual
            claimed = result.objective_trace[int(np.argmin(result.ols_residual_trace))]
        else:
            claimed = result.best_objective
        return int(not close(claimed, rescored, 1e-9))


class BruteWorkload(SolverWorkload):
    def __init__(self, tp, spec: Spec, seed: int, workdir: Path):
        super().__init__(tp, spec, seed, workdir)
        self.minimum: dict[int, float] = {}

    def label(self, i: int) -> str:
        return "brute"

    def sigma(self, i: int) -> float:
        return BRUTE_SIGMAS[i % len(BRUTE_SIGMAS)]

    def _caller(self, i: int):
        case, tp = self.cases[i], self.tp
        return lambda: timed(lambda: tp.brute_force_tls(case.y1, case.y2))

    def check(self, job: Job, result) -> int:
        """Failed solves: not a bijection, worse than the truth, a reported
        objective that differs from tls_objective at the returned permutation,
        or above the minimum of an independent search over all n! permutations."""
        case = self.cases[job.instance]
        if not is_bijection(result.perm, self.spec.n):
            return 1
        at_truth = self.tp.tls_objective(case.y2, case.y1[case.pi_star])
        rescored = self.tp.tls_objective(case.y2, case.y1[np.asarray(result.perm)])
        best = result.best_objective
        if job.instance not in self.minimum:
            self.minimum[job.instance] = reference_minimum(case)
        return int(best > at_truth + 1e-10 or not close(best, rescored, 1e-12)
                   or best > self.minimum[job.instance] * (1 + 1e-9) + 1e-12)


class ReferenceLap:
    """Drop-in for tlsperm's solve_lap: scipy's exact assignment on the same
    cost matrix, counting its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, cost):
        self.calls += 1
        c = np.asarray(cost, dtype=float)
        rows, cols = linear_sum_assignment(c)
        return cols.astype(np.intp), float(c[rows, cols].sum())


def reference_minimum(case: Case) -> float:
    """Smallest rank-p residual over all row alignments: the sum of the p
    smallest eigenvalues of each stack's 2p x 2p Gram matrix, batched. Gram
    rounding is about 1e-14 here, far inside the check's tolerance."""
    n, p = case.y1.shape
    perms = np.array(list(itertools.permutations(range(n))))
    stacks = np.concatenate([np.broadcast_to(case.y2, (len(perms), n, p)), case.y1[perms]], axis=2)
    eig = np.linalg.eigvalsh(np.swapaxes(stacks, 1, 2) @ stacks)
    return float(np.min(np.sum(eig[:, :p], axis=1)))


@dataclass
class SweepOutput:
    code: int
    records: bytes
    summary: bytes

    def rows(self) -> list[list[str]]:
        lines = self.records.decode().splitlines()
        return [line.split(",") for line in lines[2:]]

    def digest(self) -> tuple[str, str]:
        """Hashes of the records without the wall_ms column, and of the summary."""
        lines = self.records.decode().splitlines()
        stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines)
        return (hashlib.sha256(stripped.encode()).hexdigest(),
                hashlib.sha256(self.summary).hexdigest())


class SweepWorkload:
    """One job: a whole ``tlsperm sweep`` through cli.main, one solve per record."""

    def __init__(self, tp, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.out = workdir / "records.csv"
        self.summary = self.out.with_suffix(".summary.csv")
        self.argv = [
            "sweep", "--sweep", "shuffle", "--grid", SWEEP_GRID, "--n", str(spec.n),
            "--estimator", "alta:c1,alta:c2,alta:c3,alta:c4,aloa", "--workers", "1",
            "--trials", str(spec.instances), "--seed", str(seed), "--out", str(self.out),
        ]
        self.expected = len(SWEEP_GRID.split(",")) * len(ALTA_LABELS) * spec.instances
        self.reference: tuple[str, str] | None = None

    def _call(self):
        main = sys.modules["tlsperm.cli"].main
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = main(self.argv)
        seconds = time.perf_counter() - t0
        return seconds, SweepOutput(code, self.out.read_bytes(), self.summary.read_bytes())

    def jobs(self) -> list[Job]:
        return [Job(0, "sweep", self._call)]

    trace_jobs = jobs

    def generate_jobs(self) -> list[Job]:
        return []  # the sweep generates its inputs inside the timed call

    def replay(self, job: Job, result) -> int:
        return 0

    def solve_count(self, result) -> int:
        return self.expected

    def solve_ms(self, seconds: float, result) -> list[float]:
        return [float(row[-1]) for row in result.rows()]

    def iterations(self, job: Job, result) -> list[int]:
        return [int(row[9]) for row in result.rows()]

    def quality(self, job: Job, result) -> list[tuple[str, float]]:
        return [(row[3], float(row[5])) for row in result.rows()]

    def check(self, job: Job, result) -> int:
        """Failed solves: records with a failure marker; every record of a
        call that exits nonzero, writes the wrong record count, or whose
        records (without wall_ms) or summary hash differently from the first call."""
        rows = result.rows()
        if result.code != 0 or len(rows) != self.expected:
            return self.expected
        if self.reference is None:
            self.reference = result.digest()
        if result.digest() != self.reference:
            return self.expected
        return sum(1 for row in rows if row[11] != "")


WORKLOADS = {"alta-n300": AltaWorkload, "brute-n7": BruteWorkload, "sweep-n60": SweepWorkload}


# -- run phases ---------------------------------------------------------------

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import tlsperm, tlsperm.cli; "
                "print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """Seconds to import tlsperm and its cli in a fresh interpreter, where
    numpy and scipy load anew too; interpreter start-up is not counted."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def setup(spec: Spec, seed: int, workdir: Path, host: HostSpeed):
    """Median import time over IMPORT_REPEATS fresh interpreters plus the
    median of GENERATION_REPEATS rounds of input generation in this process,
    each round at the reference host speed."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        before = host.sample()
        seconds = import_seconds()
        imports.append(seconds * host.scale(before, host.sample()))
    tp = importlib.import_module("tlsperm")
    importlib.import_module("tlsperm.cli")
    generation = []
    for _ in range(GENERATION_REPEATS):
        before = host.sample()
        t0 = time.perf_counter()
        workload = WORKLOADS[spec.name](tp, spec, seed, workdir)
        seconds = time.perf_counter() - t0
        generation.append(seconds * host.scale(before, host.sample()))
    return statistics.median(imports) + statistics.median(generation), tp, workload


def run_job(job: Job):
    """(seconds, result); result is None when the call raised."""
    t0 = time.perf_counter()
    try:
        return job.call()
    except Exception:  # a raising solve is counted as failed; keep measuring
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None


@dataclass
class Outcome:
    """seconds: raw time of the call; scale takes it to the reference host speed."""

    job: Job
    seconds: float
    result: object
    scale: float = 1.0


def check_all(workload, outcomes: list[Outcome], replays: int) -> tuple[int, int]:
    """(attempted, failed) solves; the first `replays` calls are also re-solved
    against a reference (a solve failing both counts once)."""
    attempted = failed = 0
    for k, o in enumerate(outcomes):
        count = workload.solve_count(o.result)
        attempted += count
        if o.result is None:
            failed += count
            continue
        bad = workload.check(o.job, o.result)
        if not bad and k < replays:
            bad = workload.replay(o.job, o.result)
        failed += bad
    return attempted, failed


def quality_rows(workload, outcomes: list[Outcome]):
    return [q for o in outcomes if o.result is not None for q in workload.quality(o.job, o.result)]


def label_losses(rows) -> dict[str, float]:
    """Mean procrustes loss per estimator label that ran."""
    out = {}
    for label in ALL_LABELS:
        losses = [loss for lab, loss in rows if lab == label]
        if losses:
            out[label] = float(np.mean(losses))
    return out


def percentile(values: list[float], pct: int) -> float:
    """pct-th percentile, pct a multiple of 10, by statistics.quantiles'
    default method (its 50th is the median); 0 when there are no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[pct // 10 - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(spec: Spec, workload, seconds: float, setup_s: float, host: HostSpeed) -> dict:
    """Closed loop over the input set; end-to-end metrics at the reference
    host speed (see hostspeed.py). The loop ends once the quality calls,
    min_solves solves and `seconds` are done."""
    jobs = workload.jobs()
    outcomes: list[Outcome] = []
    solves = 0
    t_start = time.perf_counter()
    before = host.sample()
    while True:
        job = jobs[len(outcomes) % len(jobs)]
        dt, result = run_job(job)
        after = host.sample()
        outcomes.append(Outcome(job, dt, result, host.scale(before, after)))
        before = after
        solves += workload.solve_count(result)
        if (len(outcomes) >= spec.quality_calls and solves >= spec.min_solves
                and time.perf_counter() - t_start >= seconds):
            break
    busy = sum(o.seconds for o in outcomes)
    ref_busy = sum(o.seconds * o.scale for o in outcomes)
    attempted, failed = check_all(workload, outcomes, spec.replay_calls)
    raw_ms, ms = [], []
    for o in outcomes:
        if o.result is not None:
            for v in workload.solve_ms(o.seconds, o.result):
                raw_ms.append(v)
                ms.append(v * o.scale)
    first = quality_rows(workload, outcomes[:spec.quality_calls])
    losses = label_losses(first)
    print(f"# timed {attempted} solves over {len(outcomes)} calls in {busy:.3f} s, "
          f"{ref_busy:.3f} s at reference host speed; loss over the first {len(first)} solves")
    print(f"# host kernel median {statistics.median(host.samples) * 1e3:.3f} ms "
          f"(reference {REF_S * 1e3:.3f} ms); raw solves_per_s {attempted / busy:.6g} "
          f"solve_ms.p50 {percentile(raw_ms, 50):.6g} solve_ms.p90 {percentile(raw_ms, 90):.6g}")
    loss_all = float(np.mean([q[1] for q in first])) if first else 0.0
    print("# loss.mean " + " ".join(f"{k}={v:.6g}" for k, v in losses.items())
          + f" all={loss_all:.6g}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (attempted / ref_busy, "1/s"),
        "solve_ms.p50": (percentile(ms, 50), "ms"),
        "solve_ms.p90": (percentile(ms, 90), "ms"),
        "alignment.mean": (1.0 - loss_all / 2.0, "ratio"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(spec: Spec, workload, seconds: float, tracer: Tracer) -> dict:
    """Alternate untraced and traced passes over the trace inputs; per-layer
    metrics per traced pass. A pass generates its inputs anew, then solves."""
    generate = workload.generate_jobs()
    jobs = workload.trace_jobs()
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    generated: list[Outcome] = []
    bounds = []
    plain_wall = traced_wall = 0.0
    t_start = time.perf_counter()
    while True:
        for job in generate + jobs:
            dt, result = run_job(job)
            (generated if job.label == "generate" else plain).append(Outcome(job, dt, result))
            plain_wall += dt
        mark = len(tracer)
        with tracer.installed():
            for job in generate + jobs:
                tracer.current_instance = job.instance
                dt, result = run_job(job)
                (generated if job.label == "generate" else traced).append(Outcome(job, dt, result))
                traced_wall += dt
        bounds.append((mark, len(tracer)))
        if time.perf_counter() - t_start >= seconds:
            break
    passes = len(bounds)
    attempted, failed = check_all(workload, plain + traced, min(spec.replay_calls, len(jobs)))
    bad_inputs = sum(1 if o.result is None else workload.check_generated(o.job, o.result)
                     for o in generated)
    if bad_inputs:
        print("# check failed: regenerated inputs differ from the set-up ones", file=sys.stderr)
        failed += bad_inputs

    nid = np.frombuffer(tracer.name_id, dtype=np.int64)
    per_pass = [np.bincount(nid[a:b], minlength=len(tracer.names)) for a, b in bounds]
    del nid
    if any(not np.array_equal(c, per_pass[0]) for c in per_pass):
        print("# check failed: span counts differ between traced passes", file=sys.stderr)
        failed += 1
    agg = tracer.aggregate()
    calls = {name: c // passes for name, (c, _) in agg.items()}
    self_s = {name: s / passes for name, (_, s) in agg.items()}

    brute_jobs = sum(1 for j in jobs if j.label == "brute")
    if brute_jobs and calls.get("tls.objective", 0) != math.factorial(spec.n) * brute_jobs:
        print("# check failed: tls.objective calls != n! x instances", file=sys.stderr)
        failed += 1

    first = quality_rows(workload, traced[:len(jobs)])
    iters = [it for o in traced[:len(jobs)] if o.result is not None
             for it in workload.iterations(o.job, o.result)]
    lap_jobs = [o for o in traced[:len(jobs)] if o.result is not None and o.job.label != "brute"]
    useful = sum(max(it - 1, 0) for o in lap_jobs for it in workload.iterations(o.job, o.result))
    lap_calls = calls.get("lap", 0)
    obj_calls = calls.get("tls.objective", 0)
    wall = traced_wall / passes
    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    unattributed = wall - sum(layer_self.values())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "lap.calls": (lap_calls, "count"),
        "lap.self_s": (self_s.get("lap", 0.0), "s"),
        "lap.ms_per_call": (ratio(self_s.get("lap", 0.0) * 1e3, lap_calls), "ms"),
        "lap.useful_ratio": (ratio(useful, lap_calls), "ratio"),
        "tls.objective.calls": (obj_calls, "count"),
        "tls.objective.self_s": (self_s.get("tls.objective", 0.0), "s"),
        "tls.objective.us_per_call": (ratio(self_s.get("tls.objective", 0.0) * 1e6, obj_calls), "us"),
        "tls.fit.calls": (calls.get("tls.fit", 0), "count"),
        "tls.fit.self_s": (self_s.get("tls.fit", 0.0), "s"),
        "linalg.as_matrix.calls": (calls.get("linalg.as_matrix", 0), "count"),
        "linalg.as_matrix.self_s": (self_s.get("linalg.as_matrix", 0.0), "s"),
        "linalg.svd.self_s": (self_s.get("linalg.svd", 0.0), "s"),
        "linalg.singular_values.calls": (calls.get("linalg.singular_values", 0), "count"),
        "linalg.singular_values.self_s": (self_s.get("linalg.singular_values", 0.0), "s"),
        "estimators.build_cost.self_s": (self_s.get("estimators.build_cost", 0.0), "s"),
        "estimators.alta.self_s": (self_s.get("estimators.alta", 0.0), "s"),
        "estimators.aloa.self_s": (self_s.get("estimators.aloa", 0.0), "s"),
        "estimators.brute_force_tls.self_s": (self_s.get("estimators.brute_force_tls", 0.0), "s"),
        "estimators.iterations.mean": (float(np.mean(iters)) if iters else 0.0, "count"),
    }
    losses = label_losses(first)
    for label in ALL_LABELS:
        m[f"estimators.{label}.loss_mean"] = (losses.get(label, 0.0), "ratio")
    m.update({
        "loss.mean": (float(np.mean([q[1] for q in first])) if first else 0.0, "ratio"),
        "cli.run_sweep.self_s": (self_s.get("cli.run_sweep", 0.0), "s"),
        "cli.summarize.self_s": (self_s.get("cli.summarize", 0.0), "s"),
        "cli.write.self_s": (self_s.get("cli.write", 0.0), "s"),
        "cli.write.bytes": (workload_bytes(traced[:len(jobs)]), "bytes"),
        "matio.format_float.calls": (calls.get("matio.format_float", 0), "count"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m.update({
        "trace.unattributed_s": (unattributed, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": ((traced_wall - plain_wall) / passes, "s"),
        "trace.spans": (len(tracer) // passes, "count"),
    })
    print(f"# traced {passes} passes of {len(jobs)} calls; per pass: wall {wall:.4f} s, "
          f"untraced {plain_wall / passes:.4f} s, {len(tracer) // passes} spans")
    print("# layer self_s " + " ".join(f"{k}={v:.4f}" for k, v in layer_self.items())
          + f" unattributed={unattributed:.4f}")
    return {"attempted": attempted, "failed": failed, "metrics": m}


def workload_bytes(outcomes: list[Outcome]) -> int:
    return sum(len(o.result.records) + len(o.result.summary) for o in outcomes
               if isinstance(o.result, SweepOutput))


def machine_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def run(spec: Spec, seed: int, seconds: float, trace: bool) -> dict:
    """Whole run for one workload; returns the result object for the last line."""
    machine = machine_record(seed)
    print("# machine " + json.dumps(machine, sort_keys=True))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        host = HostSpeed()
        setup_s, _, workload = setup(spec, seed, Path(tmp), host)
        warmed = set()
        for job in workload.jobs():  # one untimed call per estimator
            if job.label not in warmed:
                warmed.add(job.label)
                run_job(job)
        if not trace:
            out = measure(spec, workload, seconds, setup_s, host)
        else:
            tracer = Tracer()
            out = measure_traced(spec, workload, seconds, tracer)
            header = json.dumps({"machine": machine, "workload": spec.name})
            tracer.write(WORK_DIR / f"trace-{spec.name}-seed{seed}.npz", header)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tlsperm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    src = ROOT / "src"
    if not (src / "tlsperm" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tlsperm sources under {src}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(src))
    result = run(SPECS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
