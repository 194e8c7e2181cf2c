"""Batch harness and command-line front end.

Subcommands: gen, estimate, sweep, bound, bruteforce, lemma. Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 inequality-suite violation.

Sweeps are deterministic: every trial owns a counter-based stream keyed by
(seed, grid index, trial index), records are sorted canonically before
writing, and all numbers are formatted locale-independently, so a rerun with
the same arguments reproduces the CSV byte for byte. The wall_ms timing
column is last so determinism checks can strip it.

Every output table is a list of dicts keyed by column name in column order;
write_table takes the header from the first row's keys.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, NumericalFailure
from .estimators import BRUTE_FORCE_LIMIT, COST_KINDS, EstimateResult, alta, aloa, brute_force_tls
from .evaluation import (
    _hamming_distance,
    _procrustes_loss,
    _quadratic_loss,
    eig_tail_rhs,
    hamming_distance,
    procrustes_loss,
    procrustes_residual_gap,
    quadratic_loss,
    recovery_bound,
    trace_max_check,
)
from .matio import format_float, read_matrix, read_permutation, write_matrix, write_permutation
from .model import (
    ProblemInstance,
    as_covariance,
    generate_design,
    generate_observations,
    identity_permutation,
    partial_shuffle,
    random_orthogonal,
    random_permutation,
    rotation_2d,
    stream,
)
from .tls import tls_objective

SWEEP_AXES = ("noise", "n", "snr", "shuffle")
RECORDS_SCHEMA = "# schema: tlsperm-sweep-v1"
SUMMARY_SCHEMA = "# schema: tlsperm-summary-v1"
BOUND_SCHEMA = "# schema: tlsperm-bound-v1"
LEMMA_SCHEMA = "# schema: tlsperm-lemma-v1"


@dataclass
class ExperimentConfig:
    """One sweep: vary `axis` over `grid`, run `trials` per point.

    axis semantics: noise varies the scalar noise level at fixed n; n varies
    the sample count at fixed noise; snr varies n while scaling noise by
    (first grid value / n) so the signal-to-noise ratio degrades on a fixed
    schedule; shuffle keeps the true permutation at identity and starts the
    estimators from a partial shuffle of the top round(fraction * n) rows.
    """

    axis: str
    grid: list[float]
    n: int
    p: int
    sigma: object  # scalar noise level or p x p covariance
    theta: float
    trials: int
    seed: int
    estimators: list[str] = field(default_factory=lambda: ["alta_c3"])
    init: str = "truth"
    fresh_design: bool = True
    workers: int = 1


def parse_estimators(text: str, default_cost: str = "c3") -> list[str]:
    """Comma list of estimator specs into canonical labels.

    `alta` uses the default cost kind; `alta:cK` pins one; `aloa` and `brute`
    stand alone. Labels come out as alta_cK, aloa, brute.
    """
    if default_cost not in COST_KINDS:
        raise ContractViolation(f"unknown cost kind {default_cost!r}")
    labels: list[str] = []
    for part in text.split(","):
        part = part.strip()
        if part == "alta":
            label = f"alta_{default_cost}"
        elif part.startswith(("alta:", "alta_")):
            kind = part[len("alta:"):]
            if kind not in COST_KINDS:
                raise ContractViolation(f"unknown cost kind {kind!r} in estimator spec {part!r}")
            label = f"alta_{kind}"
        elif part in ("aloa", "brute"):
            label = part
        else:
            raise ContractViolation(f"unknown estimator spec {part!r}")
        if label not in labels:
            labels.append(label)
    if not labels:
        raise ContractViolation("no estimators given")
    return labels


def _resolve_permutation(spec: str, n: int | None = None, rng=None, truth=None):
    """Resolve a truth|identity|random|partial=K spec to a permutation of 0..n-1.

    truth returns a copy of `truth`, which must then be known; random and
    partial=K draw from rng. With n None the spec is only checked.
    """
    k = 0
    if spec.startswith("partial="):
        try:
            k = int(spec[len("partial="):])
        except ValueError as exc:
            raise ContractViolation(f"bad init spec {spec!r}") from exc
        if k < 0:
            raise ContractViolation("partial shuffle size must be nonnegative")
    elif spec not in ("truth", "identity", "random"):
        raise ContractViolation(f"unknown init spec {spec!r}")
    if n is None:
        return None
    if spec == "truth":
        if truth is None:
            raise ContractViolation("--init truth needs a known true permutation")
        return np.array(truth, dtype=np.intp)
    if spec == "identity":
        return identity_permutation(n)
    if spec == "random":
        return random_permutation(n, rng)
    if k > n:
        raise ContractViolation(f"partial shuffle size {k} exceeds n={n}")
    return partial_shuffle(n, k, rng)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.axis not in SWEEP_AXES:
        raise ContractViolation(f"unknown sweep axis {cfg.axis!r}")
    if not cfg.grid:
        raise ContractViolation("grid must be nonempty")
    if cfg.trials < 1:
        raise ContractViolation("trials must be >= 1")
    if cfg.workers < 1:
        raise ContractViolation("workers must be >= 1")
    if cfg.p < 1:
        raise ContractViolation("p must be >= 1")
    _resolve_permutation(cfg.init)
    parse_estimators(",".join(cfg.estimators))
    if cfg.axis in ("n", "snr"):
        for g in cfg.grid:
            if g != int(g) or int(g) < 2 * cfg.p:
                raise ContractViolation(f"grid value {g} is not a sample count >= 2p")
    else:
        if cfg.n < 2 * cfg.p:
            raise ContractViolation(f"need n >= 2p, got n={cfg.n}, p={cfg.p}")
    if cfg.axis == "noise":
        for g in cfg.grid:
            if g < 0:
                raise ContractViolation("noise levels must be nonnegative")
    if cfg.axis == "shuffle":
        for g in cfg.grid:
            if not 0.0 <= g <= 1.0:
                raise ContractViolation("shuffle fractions must lie in [0, 1]")
    if "brute" in cfg.estimators:
        worst = max(int(g) for g in cfg.grid) if cfg.axis in ("n", "snr") else cfg.n
        if worst > BRUTE_FORCE_LIMIT:
            raise ContractViolation(
                f"brute estimator needs n <= {BRUTE_FORCE_LIMIT} at every grid point")


def _point_params(cfg: ExperimentConfig, gi: int) -> tuple[int, np.ndarray, int | None]:
    """Resolve (n, covariance, shuffle size) for grid point gi."""
    g = cfg.grid[gi]
    if cfg.axis == "noise":
        return cfg.n, as_covariance(float(g), cfg.p), None
    if cfg.axis == "n":
        return int(g), as_covariance(cfg.sigma, cfg.p), None
    if cfg.axis == "snr":
        n = int(g)
        scale = cfg.grid[0] / n
        base = as_covariance(cfg.sigma, cfg.p)
        return n, base * scale * scale, None
    n = cfg.n
    return n, as_covariance(cfg.sigma, cfg.p), int(round(float(g) * n))


def _run_estimator(label: str, y1, y2, init) -> EstimateResult:
    if label.startswith("alta_"):
        return alta(y1, y2, kind=label[len("alta_"):], init=init)
    if label == "aloa":
        return aloa(y1, y2, init=init)
    return brute_force_tls(y1, y2)


def _run_single_trial(cfg: ExperimentConfig, gi: int, ti: int) -> list[dict]:
    n, cov, shuffle_k = _point_params(cfg, gi)
    rng = stream(cfg.seed, gi, ti)
    if cfg.fresh_design:
        design_rng = rng
    else:
        # one design shared by all trials at this grid point; the stream at
        # trial index cfg.trials is never consumed by a real trial
        design_rng = stream(cfg.seed, gi, cfg.trials)
    x = generate_design(n, cfg.p, design_rng)
    r = rotation_2d(cfg.theta) if cfg.p == 2 else random_orthogonal(cfg.p, design_rng)
    pi_star = identity_permutation(n)
    if shuffle_k is not None:
        init = partial_shuffle(n, shuffle_k, rng)
    else:
        init = _resolve_permutation(cfg.init, n, rng, truth=pi_star)
    obs = generate_observations(ProblemInstance(x=x, r=r, pi_star=pi_star, sigma=cov), rng)
    records = []
    for label in cfg.estimators:
        t0 = time.perf_counter()
        try:
            result = _run_estimator(label, obs.y1, obs.y2, init)
            perm = result.perm
            objective = result.best_objective
            iterations = result.iterations
            converged = result.converged
            failed = result.failure or ""
        except NumericalFailure as exc:
            perm = init
            with np.errstate(over="ignore", invalid="ignore"):
                objective = tls_objective(obs.y2, obs.y1[init])
            iterations = 0
            converged = False
            failed = exc.__class__.__name__.lower()
        wall_ms = (time.perf_counter() - t0) * 1000.0
        records.append({
            "axis": cfg.axis,
            "grid_index": gi,
            "grid_value": float(cfg.grid[gi]),
            "estimator": label,
            "trial": ti,
            "procrustes_loss": _procrustes_loss(x, pi_star, perm),
            "quadratic_loss": _quadratic_loss(x, pi_star, perm),
            "hamming": _hamming_distance(pi_star, perm),
            "objective": objective,
            "iterations": iterations,
            "converged": converged,
            "failed": failed,
            "wall_ms": f"{wall_ms:.3f}",
        })
    return records


def run_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Execute the sweep and return (records, summary rows), both sorted.

    Trials run on cfg.workers threads; map keeps their order, and an
    interrupt cancels the trials that have not started.
    """
    validate_config(cfg)
    tasks = [(gi, ti) for gi in range(len(cfg.grid)) for ti in range(cfg.trials)]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        chunks = list(pool.map(lambda t: _run_single_trial(cfg, *t), tasks))
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda rec: (rec["grid_index"], rec["estimator"], rec["trial"]))
    return records, summarize(records)


def summarize(records: list[dict]) -> list[dict]:
    """Per (grid point, estimator): mean and quartiles of the alignment loss."""
    rows = []
    keys = sorted({(rec["grid_index"], rec["estimator"]) for rec in records})
    for gi, label in keys:
        grp = [rec for rec in records if rec["grid_index"] == gi and rec["estimator"] == label]
        losses = np.array([rec["procrustes_loss"] for rec in grp])
        q25, q50, q75 = np.quantile(losses, [0.25, 0.5, 0.75])
        rows.append({
            "axis": grp[0]["axis"],
            "grid_index": gi,
            "grid_value": grp[0]["grid_value"],
            "estimator": label,
            "trials": len(grp),
            "failures": sum(1 for rec in grp if rec["failed"]),
            "mean_procrustes": float(losses.mean()),
            "q25_procrustes": float(q25),
            "median_procrustes": float(q50),
            "q75_procrustes": float(q75),
            "mean_quadratic": float(np.mean([rec["quadratic_loss"] for rec in grp])),
            "mean_hamming": float(np.mean([rec["hamming"] for rec in grp])),
        })
    return rows


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_table(path, schema: str, rows: list[dict]) -> None:
    """Write a schema line, the first row's keys as the column line, then one
    comma-joined line of cells per row: floats as format_float, bools as 1/0,
    anything else through str."""
    lines = [schema, ",".join(rows[0])]
    lines += [",".join(_cell(v) for v in row.values()) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_sweep_svg(path, rows: list[dict], title: str) -> None:
    """Minimal self-contained line chart: mean alignment loss per grid point,
    one polyline per estimator."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 50
    estimators = sorted({row["estimator"] for row in rows})
    grid_vals = sorted({(row["grid_index"], row["grid_value"]) for row in rows})
    ymax = max(max(row["mean_procrustes"] for row in rows), 1e-12) * 1.08
    plot_w = width - left - right
    plot_h = height - top - bottom

    def xpos(gi: int) -> float:
        if len(grid_vals) == 1:
            return left + plot_w / 2
        return left + plot_w * gi / (len(grid_vals) - 1)

    def ypos(v: float) -> float:
        return top + plot_h * (1.0 - v / ymax)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        f'stroke="black"/>',
    ]
    for gi, gv in grid_vals:
        x = xpos(gi)
        parts.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                     f'y2="{top + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{gv:.4g}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = ymax * frac
        y = ypos(v)
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{v:.3g}</text>')
    for k, label in enumerate(estimators):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        pts = [(row["grid_index"], row["mean_procrustes"])
               for row in rows if row["estimator"] == label]
        pts.sort()
        coords = " ".join(f"{xpos(gi):.2f},{ypos(v):.2f}" for gi, v in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        for gi, v in pts:
            parts.append(f'<circle cx="{xpos(gi):.2f}" cy="{ypos(v):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = top + 16 + 16 * k
        parts.append(f'<line x1="{left + plot_w - 130}" y1="{ly - 4}" '
                     f'x2="{left + plot_w - 110}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{left + plot_w - 104}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# -- bound and inequality suites ---------------------------------------------

def run_bound(n: int, p: int, sigma, theta: float, etas: list[float],
              c: float, seed: int) -> list[dict]:
    """Assemble the loss bound for each confidence exponent eta."""
    x = generate_design(n, p, stream(seed))
    r = rotation_2d(theta) if p == 2 else random_orthogonal(p, stream(seed, 1))
    cov = as_covariance(sigma, p)
    rows = []
    for eta in etas:
        bv = recovery_bound(x, r, cov, eta, c)
        rows.append({
            "n": n, "p": p, "eta": eta, "c": c,
            "snr": bv.snr, "a_n": bv.a_n, "bound": bv.bound,
            "prob_statement": bv.probability_statement,
            "prob_derivation": bv.probability_derivation,
            "noiseless": bv.noiseless,
        })
    return rows


def run_lemma_suite(kind: str, trials: int, seed: int, n: int = 2000,
                    p: int = 2, eps: float = 0.5) -> tuple[list[dict], int]:
    """Randomized checks of the supporting inequalities.

    kinds: procrustes (alignment loss vs twice the rank-p residual), tracemax
    (constrained trace maximum vs nuclear norm), eigtail (empirical tail
    frequency of the stacked noise Gram vs its bound). Returns (rows,
    violation count).
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    rows: list[dict] = []
    violations = 0
    if kind in ("procrustes", "tracemax"):
        for t in range(trials):
            rng = stream(seed, t)
            pt = int(rng.integers(1, 4))
            nt = int(rng.integers(2 * pt, 13))
            x = generate_design(nt, pt, rng)
            perm = random_permutation(nt, rng)
            if kind == "procrustes":
                lhs, rhs = procrustes_residual_gap(x, perm)
                bad = lhs > rhs + 1e-9
            else:
                lhs, rhs = trace_max_check(x, perm, samples=64, rng=rng)
                bad = lhs > rhs + 1e-9 or lhs < rhs - max(0.02 * rhs, 1e-9)
            violations += int(bad)
            rows.append({"kind": kind, "trial": t, "n": nt, "p": pt,
                         "lhs": lhs, "rhs": rhs, "violation": int(bad)})
        return rows, violations
    if kind != "eigtail":
        raise ContractViolation(f"unknown suite kind {kind!r}")
    cov = as_covariance(1.0, p)
    rhs = eig_tail_rhs(cov, n, eps)  # validates n and eps before any draw
    lam1 = 1.0
    threshold = 2.0 * n * lam1 * (1.0 + eps)
    exceed = 0
    for t in range(trials):
        rng = stream(seed, t)
        e1 = rng.standard_normal((n, p))
        e2 = rng.standard_normal((n, p))
        top1 = float(np.linalg.eigvalsh(e1.T @ e1)[-1])
        top2 = float(np.linalg.eigvalsh(e2.T @ e2)[-1])
        if top2 + top1 >= threshold:
            exceed += 1
    freq = exceed / trials
    bad = freq > rhs
    violations = int(bad)
    rows.append({"kind": kind, "trial": trials, "n": n, "p": p,
                 "lhs": freq, "rhs": rhs, "violation": int(bad)})
    return rows, violations


# -- argparse front end -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _sigma_value(text: str):
    try:
        return float(text)
    except ValueError:
        path = Path(text)
        if not path.exists():
            raise ContractViolation(
                f"--sigma must be a number or an existing matrix file, got {text!r}")
        return read_matrix(path)


def _grid_values(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ContractViolation(f"bad grid {text!r}") from exc
    if not vals:
        raise ContractViolation("grid must be nonempty")
    if not all(math.isfinite(v) for v in vals):
        raise ContractViolation(f"bad grid {text!r}")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tlsperm",
                     description="Row-alignment recovery for doubly noisy linear models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, n_default=60):
        sp.add_argument("--n", type=int, default=n_default, help="sample count")
        sp.add_argument("--p", type=int, default=2, help="column count")
        sp.add_argument("--sigma", type=str, default="0.2",
                        help="scalar noise level or path to a covariance CSV")
        sp.add_argument("--theta", type=float, default=60.0,
                        help="mixing rotation in degrees (p = 2)")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("gen", help="generate an instance and observations")
    add_common(sp)
    sp.add_argument("--perm", type=str, default="identity",
                    help="true permutation: identity, random, or partial=K")
    sp.add_argument("--out", type=str, required=True, help="output directory")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("estimate", help="run one estimator on a single instance")
    add_common(sp)
    sp.add_argument("--y1", type=str, help="matrix CSV; omit to generate")
    sp.add_argument("--y2", type=str, help="matrix CSV; omit to generate")
    sp.add_argument("--truth-x", type=str, help="design CSV for loss reporting")
    sp.add_argument("--truth-perm", type=str, help="true permutation file")
    sp.add_argument("--estimator", type=str, default="alta",
                    choices=["alta", "aloa", "brute"])
    sp.add_argument("--cost", type=str, default="c3", choices=list(COST_KINDS))
    sp.add_argument("--init", type=str, default="identity",
                    help="truth, identity, random, or partial=K")
    sp.add_argument("--out", type=str, help="write the estimated permutation here")
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("sweep", help="Monte Carlo sweep over one axis")
    add_common(sp)
    sp.add_argument("--sweep", type=str, required=True, choices=list(SWEEP_AXES),
                    dest="axis")
    sp.add_argument("--grid", type=str, required=True,
                    help="comma-separated grid values")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--estimator", type=str, default="alta",
                    help="comma list: alta, alta:cK, aloa, brute")
    sp.add_argument("--cost", type=str, default="c3", choices=list(COST_KINDS),
                    help="cost kind for bare alta specs")
    sp.add_argument("--init", type=str, default="truth",
                    help="truth, identity, random, or partial=K")
    sp.add_argument("--fresh-design", type=str, default="true",
                    choices=["true", "false"],
                    help="false shares one design per grid point")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", type=str, required=True, help="records CSV path")
    sp.add_argument("--svg", action="store_true",
                    help="also write a line chart next to the CSV")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("bound", help="assemble the recovery loss bound")
    add_common(sp, n_default=300)
    sp.add_argument("--eta", type=str, default="0.5,1,2",
                    help="comma-separated confidence exponents")
    sp.add_argument("--c", type=float, default=1.0 / 32.0)
    sp.add_argument("--out", type=str, help="CSV path")
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("bruteforce", help="exact estimator on a small instance")
    add_common(sp, n_default=6)
    sp.add_argument("--perm", type=str, default="random",
                    help="true permutation: identity, random, or partial=K")
    sp.add_argument("--limit", type=int, default=BRUTE_FORCE_LIMIT)
    sp.add_argument("--out", type=str, help="write the estimated permutation here")
    sp.set_defaults(func=_cmd_bruteforce)

    sp = sub.add_parser("lemma", help="randomized inequality suites")
    sp.add_argument("--kind", type=str, required=True,
                    choices=["procrustes", "tracemax", "eigtail"])
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=2000, help="eigtail sample count")
    sp.add_argument("--p", type=int, default=2, help="eigtail column count")
    sp.add_argument("--eps", type=float, default=0.5, help="eigtail margin")
    sp.add_argument("--out", type=str, help="CSV path")
    sp.set_defaults(func=_cmd_lemma)
    return parser


def _generate_cli_instance(args, perm_spec: str):
    rng = stream(args.seed)
    cov = as_covariance(_sigma_value(args.sigma), args.p)
    x = generate_design(args.n, args.p, rng)
    r = rotation_2d(args.theta) if args.p == 2 else random_orthogonal(args.p, rng)
    # --perm truth names the identity here
    pi_star = _resolve_permutation(perm_spec, args.n, rng, truth=identity_permutation(args.n))
    inst = ProblemInstance(x=x, r=r, pi_star=pi_star, sigma=cov)
    return inst, generate_observations(inst, rng)


def _cmd_gen(args) -> int:
    inst, obs = _generate_cli_instance(args, args.perm)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, value in (("x.csv", inst.x), ("r.csv", inst.r), ("sigma.csv", inst.sigma),
                        ("y1.csv", obs.y1), ("y2.csv", obs.y2), ("pi_star.txt", inst.pi_star)):
        write = write_permutation if name.endswith(".txt") else write_matrix
        write(outdir / name, value)
        print(outdir / name)
    return 0


def _report(x, pi_star, perm, out) -> None:
    """Print perm's three losses when the truth is known; write perm to out if given."""
    if x is not None and pi_star is not None:
        print(f"procrustes_loss: {format_float(procrustes_loss(x, pi_star, perm))}")
        print(f"quadratic_loss: {format_float(quadratic_loss(x, pi_star, perm))}")
        print(f"hamming: {hamming_distance(pi_star, perm)}")
    if out:
        write_permutation(out, perm)


def _cmd_estimate(args) -> int:
    if (args.y1 is None) != (args.y2 is None):
        raise ContractViolation("--y1 and --y2 must be given together")
    if args.y1 is not None:
        y1 = read_matrix(args.y1)
        y2 = read_matrix(args.y2)
        x = read_matrix(args.truth_x) if args.truth_x else None
        pi_star = read_permutation(args.truth_perm) if args.truth_perm else None
    else:
        inst, obs = _generate_cli_instance(args, "identity")
        y1, y2, x, pi_star = obs.y1, obs.y2, inst.x, inst.pi_star
    n = y1.shape[0]
    init = _resolve_permutation(args.init, n, stream(args.seed, 1), truth=pi_star)
    label = parse_estimators(args.estimator, args.cost)[0]
    result = _run_estimator(label, y1, y2, init)
    print(f"estimator: {label}")
    print(f"objective: {format_float(result.best_objective)}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {result.converged}")
    if result.failure:
        print(f"failure: {result.failure}")
    _report(x, pi_star, result.perm, args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig(
        axis=args.axis,
        grid=_grid_values(args.grid),
        n=args.n,
        p=args.p,
        sigma=_sigma_value(args.sigma),
        theta=args.theta,
        trials=args.trials,
        seed=args.seed,
        estimators=parse_estimators(args.estimator, args.cost),
        init=args.init,
        fresh_design=args.fresh_design == "true",
        workers=args.workers,
    )
    records, summary = run_sweep(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(out, RECORDS_SCHEMA, records)
    summary_path = out.with_suffix(".summary.csv")
    write_table(summary_path, SUMMARY_SCHEMA, summary)
    print(out)
    print(summary_path)
    if args.svg:
        svg_path = out.with_suffix(".svg")
        write_sweep_svg(svg_path, summary, f"{cfg.axis} sweep, n={cfg.n}, p={cfg.p}")
        print(svg_path)
    for row in summary:
        print(f"{row['axis']}={row['grid_value']:g} {row['estimator']}: "
              f"mean={row['mean_procrustes']:.6g} median={row['median_procrustes']:.6g}")
    return 0


def _cmd_bound(args) -> int:
    etas = _grid_values(args.eta)
    rows = run_bound(args.n, args.p, _sigma_value(args.sigma), args.theta,
                     etas, args.c, args.seed)
    for row in rows:
        ps = min(1.0, max(0.0, row["prob_statement"]))
        pd = min(1.0, max(0.0, row["prob_derivation"]))
        print(f"eta={row['eta']:g} bound={row['bound']:.6g} a_n={row['a_n']:.6g} "
              f"snr={row['snr']:.6g} prob>={ps:.6g} (derivation {pd:.6g})")
    if args.out:
        write_table(args.out, BOUND_SCHEMA, rows)
        print(args.out)
    return 0


def _cmd_bruteforce(args) -> int:
    if args.n > args.limit:
        raise ContractViolation(f"--n {args.n} exceeds --limit {args.limit}")
    inst, obs = _generate_cli_instance(args, args.perm)
    result = brute_force_tls(obs.y1, obs.y2, limit=args.limit)
    obj_star = tls_objective(obs.y2, obs.y1[inst.pi_star])
    print(f"objective_at_estimate: {format_float(result.best_objective)}")
    print(f"objective_at_truth: {format_float(obj_star)}")
    print(f"permutations_tried: {result.iterations}")
    _report(inst.x, inst.pi_star, result.perm, args.out)
    return 0


def _cmd_lemma(args) -> int:
    rows, violations = run_lemma_suite(args.kind, args.trials, args.seed,
                                       n=args.n, p=args.p, eps=args.eps)
    if args.out:
        write_table(args.out, LEMMA_SCHEMA, rows)
        print(args.out)
    worst = max((row["lhs"] - row["rhs"] for row in rows), default=0.0)
    print(f"kind={args.kind} trials={args.trials} violations={violations} "
          f"worst_gap={worst:.3g}")
    if violations:
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ContractViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
