"""Sweep harness and command-line front end.

Subcommands: gen, estimate, sweep, bound, bruteforce, lemma. Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 inequality-suite violation.
A closed stdout (``tlsperm ... | head``) ends the command quietly with 1.
The inequality suite behind ``lemma`` lives in evaluation, beside its checks;
this module holds argparse and the sweep harness.

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
import os
import sys
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import ContractViolation, NumericalFailure
from .estimators import (BRUTE_FORCE_LIMIT, COST_KINDS, EstimateResult, _bind_cdist, alta, aloa,
                         brute_force_tls)
from .evaluation import (
    _hamming_distance,
    _procrustes_loss,
    _quadratic_loss,
    recovery_bound,
    run_lemma_suite,
)
from .lap import _bind_assignment
from .matio import format_float, read_matrix, read_permutation, write_matrix, write_permutation
from .model import (
    ProblemInstance,
    _draw,
    _noise_factor,
    as_covariance,
    generate_design,
    identity_permutation,
    partial_shuffle,
    random_orthogonal,
    rotation_2d,
    stream,
)
from .tls import tls_objective

SWEEP_AXES = ("noise", "n", "snr", "shuffle")
ESTIMATOR_LABELS = tuple(f"alta_{kind}" for kind in COST_KINDS) + ("aloa", "brute")
RECORDS_SCHEMA = "# schema: tlsperm-sweep-v1"
SUMMARY_SCHEMA = "# schema: tlsperm-summary-v1"
BOUND_SCHEMA = "# schema: tlsperm-bound-v1"
LEMMA_SCHEMA = "# schema: tlsperm-lemma-v1"


@dataclass
class ExperimentConfig:
    """One sweep: vary `axis` over `grid`, run `trials` per point. Construction
    validates it and resolves `points` by `_sweep_points`, which states what
    each axis means."""

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
    points: list[tuple[int, np.ndarray, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.points = _sweep_points(self)


def parse_estimators(text: str) -> list[str]:
    """Comma list of estimator specs into canonical labels.

    `alta` uses cost kind c3; `alta:cK` pins one; `aloa` and `brute` stand
    alone. Labels come out as alta_cK, aloa, brute.
    """
    labels: list[str] = []
    for part in text.split(","):
        part = part.strip()
        if part == "alta":
            label = "alta_c3"
        elif part.startswith("alta:"):
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
    return labels


def _shuffle_size(spec: str, n: int | None = None) -> int | None:
    """Check a truth|identity|random|partial=K start spec, against n when given,
    and return how many top rows partial_shuffle draws for it: 0 for truth (the
    identity wherever this is called) and identity, n for random, K for
    partial=K."""
    if spec in ("truth", "identity"):
        return 0
    if spec == "random":
        return n
    if not spec.startswith("partial="):
        raise ContractViolation(f"unknown init spec {spec!r}")
    try:
        k = int(spec[len("partial="):])
    except ValueError as exc:
        raise ContractViolation(f"bad init spec {spec!r}") from exc
    if k < 0:
        raise ContractViolation("partial shuffle size must be nonnegative")
    if n is not None and k > n:
        raise ContractViolation(f"partial shuffle size {k} exceeds n={n}")
    return k


def _mixing(p: int, theta: float, rng) -> np.ndarray:
    """The p x p mixing matrix: the rotation by theta degrees at p = 2, else a
    random orthogonal draw from rng. theta must be finite at every p."""
    r = rotation_2d(theta)
    return r if p == 2 else random_orthogonal(p, rng)


def _sweep_points(cfg: ExperimentConfig) -> list[tuple[int, np.ndarray, int]]:
    """Validate the sweep and resolve each grid value g to (n, left_t, k), with
    left_t the transposed noise factor and partial_shuffle(n, k) the start.

    The true permutation is always the identity. By axis:
    noise: g is the scalar noise level, at n = cfg.n;
    n: g is the sample count, with noise cfg.sigma;
    snr: as n, with the covariance scaled by (grid[0] / g)^2, so the
      signal-to-noise ratio degrades on a fixed schedule;
    shuffle: g in [0, 1] is a fraction, at n = cfg.n with noise cfg.sigma; the
      estimators start from a shuffle of the top round(g * n) rows.
    Every other axis starts from cfg.init, which is checked on every axis.
    cfg.sigma and cfg.theta are checked on every axis and at every p, then
    each point's start against its n, then its scaled covariance, factored
    here once; all before any trial runs.
    """
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
    _shuffle_size(cfg.init)
    if not cfg.estimators or not set(cfg.estimators) <= set(ESTIMATOR_LABELS):
        raise ContractViolation(
            f"estimators must be labels from {ESTIMATOR_LABELS}, got {cfg.estimators}")
    sized = cfg.axis in ("n", "snr")
    if not sized and cfg.n < 2 * cfg.p:
        raise ContractViolation(f"need n >= 2p, got n={cfg.n}, p={cfg.p}")
    for g in cfg.grid:
        if not math.isfinite(g):
            raise ContractViolation(f"grid value {g} is not finite")
        if sized and (g != int(g) or int(g) < 2 * cfg.p):
            raise ContractViolation(f"grid value {g} is not a sample count >= 2p")
        if cfg.axis == "noise" and g < 0:
            raise ContractViolation("noise levels must be nonnegative")
        if cfg.axis == "shuffle" and not 0.0 <= g <= 1.0:
            raise ContractViolation("shuffle fractions must lie in [0, 1]")
    ns = [int(g) if sized else cfg.n for g in cfg.grid]
    if "brute" in cfg.estimators and max(ns) > BRUTE_FORCE_LIMIT:
        raise ContractViolation(
            f"brute estimator needs n <= {BRUTE_FORCE_LIMIT} at every grid point")
    sigma = as_covariance(cfg.sigma, cfg.p)
    covs = [as_covariance(float(g), cfg.p) if cfg.axis == "noise" else sigma for g in cfg.grid]
    rotation_2d(cfg.theta)  # rejects a non-finite angle at every p
    points = []
    for g, n, cov in zip(cfg.grid, ns, covs):
        scale = cfg.grid[0] / n if cfg.axis == "snr" else 1.0
        k = round(float(g) * n) if cfg.axis == "shuffle" else _shuffle_size(cfg.init, n)
        points.append((n, cov * scale * scale, k))
    return [(n, _noise_factor(as_covariance(cov, cfg.p)).T, k) for n, cov, k in points]


def _run_estimator(label: str, y1, y2, init) -> EstimateResult:
    if label.startswith("alta_"):
        return alta(y1, y2, kind=label[len("alta_"):], init=init)
    if label == "aloa":
        return aloa(y1, y2, init=init)
    return brute_force_tls(y1, y2)


def _run_single_trial(cfg: ExperimentConfig, gi: int, ti: int,
                      n: int, left_t: np.ndarray, k: int) -> list[dict]:
    rng = stream(cfg.seed, gi, ti)
    # without fresh designs, one design is shared by all trials at this grid
    # point; the stream at trial index cfg.trials is never consumed by a real trial
    design_rng = rng if cfg.fresh_design else stream(cfg.seed, gi, cfg.trials)
    x = generate_design(n, cfg.p, design_rng)
    r = _mixing(cfg.p, cfg.theta, design_rng)
    pi_star = identity_permutation(n)
    init = partial_shuffle(n, k, rng)
    obs = _draw(x, r, pi_star, left_t, rng)
    records = []
    for label in cfg.estimators:
        t0 = time.perf_counter()
        try:
            result = _run_estimator(label, obs.y1, obs.y2, init)
            perm = result.perm
            outcome = {"objective": result.best_objective, "iterations": result.iterations,
                       "converged": result.converged, "failed": result.failure or ""}
        except NumericalFailure as exc:
            perm = None  # no estimate: its objective and loss cells stay empty
            outcome = {"objective": None, "iterations": 0, "converged": False,
                       "failed": exc.__class__.__name__.lower()}
        wall_ms = (time.perf_counter() - t0) * 1000.0
        records.append({
            "axis": cfg.axis,
            "grid_index": gi,
            "grid_value": float(cfg.grid[gi]),
            "estimator": label,
            "trial": ti,
            "procrustes_loss": None if perm is None else _procrustes_loss(x, pi_star, perm),
            "quadratic_loss": None if perm is None else _quadratic_loss(x, pi_star, perm),
            "hamming": None if perm is None else _hamming_distance(pi_star, perm),
            **outcome,
            "wall_ms": f"{wall_ms:.3f}",
        })
    return records


def run_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Execute the sweep and return (records, summary rows), both sorted.

    Trials run on cfg.workers threads and the main thread wakes once, when
    all are done or one has raised. A trial's exception, or an interrupt,
    cancels the trials that have not started; results are read in task order,
    so the first failing trial in that order raises.

    A sweep that assigns binds scipy's assignment and cdist before its first
    trial, so no trial's wall_ms counts loading them.
    """
    if set(cfg.estimators) != {"brute"}:
        _bind_assignment()
        _bind_cdist()
    tasks = [(gi, ti, *point) for gi, point in enumerate(cfg.points) for ti in range(cfg.trials)]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(_run_single_trial, cfg, *t) for t in tasks]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for future in futures:
                future.cancel()
        chunks = [future.result() for future in futures]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda rec: (rec["grid_index"], rec["estimator"], rec["trial"]))
    return records, summarize(records)


def summarize(records: list[dict]) -> list[dict]:
    """Per (grid point, estimator): loss means and quartiles over finished trials.

    records come sorted by (grid_index, estimator), as run_sweep returns them,
    so each group is one run of them and is read once."""
    rows = []
    for (gi, label), grp in groupby(records, lambda rec: (rec["grid_index"], rec["estimator"])):
        grp = list(grp)
        done = [rec for rec in grp if rec["procrustes_loss"] is not None]
        losses = np.array([rec["procrustes_loss"] for rec in done])
        stats = ([float(v) for v in (losses.mean(), *np.quantile(losses, [0.25, 0.5, 0.75]),
                                     np.mean([rec["quadratic_loss"] for rec in done]),
                                     np.mean([rec["hamming"] for rec in done]))]
                 if done else [None] * 6)
        rows.append({
            "axis": grp[0]["axis"],
            "grid_index": gi,
            "grid_value": grp[0]["grid_value"],
            "estimator": label,
            "trials": len(grp),
            "failures": sum(1 for rec in grp if rec["failed"]),
            **dict(zip(("mean_procrustes", "q25_procrustes", "median_procrustes",
                        "q75_procrustes", "mean_quadratic", "mean_hamming"), stats)),
        })
    return rows


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format_float(value)
    return "" if value is None else str(value)


def write_table(path, schema: str, rows: list[dict]) -> None:
    """Write a schema line, the first row's keys as the column line, then one
    comma-joined line of cells per row: None as an empty cell, floats as
    format_float, bools as 1/0, anything else through str."""
    lines = [schema, ",".join(rows[0])]
    lines += [",".join(_cell(v) for v in row.values()) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_sweep_svg(path, rows: list[dict], title: str) -> None:
    """Minimal self-contained line chart: mean alignment loss per grid point,
    one polyline per estimator; a point where no trial finished is left out."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 50
    estimators = sorted({row["estimator"] for row in rows})
    grid_vals = sorted({(row["grid_index"], row["grid_value"]) for row in rows})
    scored = [row for row in rows if row["mean_procrustes"] is not None]
    ymax = max([row["mean_procrustes"] for row in scored] + [1e-12]) * 1.08
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
               for row in scored if row["estimator"] == label]
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
                    help="one of alta (cost c3), alta:cK, aloa, brute")
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
                    help="comma list: alta (cost c3), alta:cK, aloa, brute")
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


def _refuse_directory_out(out: str | None) -> None:
    """Refuse a directory as --out before a command's work; no --out passes."""
    if out is not None and Path(out).is_dir():
        raise ContractViolation(f"--out {Path(out)} is a directory")


def _generate_cli_instance(args, perm_spec: str):
    rng = stream(args.seed)
    cov = as_covariance(_sigma_value(args.sigma), args.p)
    x = generate_design(args.n, args.p, rng)
    r = _mixing(args.p, args.theta, rng)
    pi_star = partial_shuffle(args.n, _shuffle_size(perm_spec, args.n), rng)
    inst = ProblemInstance(x=x, r=r, pi_star=pi_star, sigma=cov)
    return inst, _draw(x, r, pi_star, _noise_factor(cov).T, rng)


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
    """Print perm's three losses when the truth is known; write perm to out if given.

    x and pi_star are checked already, by read_matrix and read_permutation and
    against y1's shape, or by generation; perm is an estimator's."""
    if x is not None and pi_star is not None:
        print(f"procrustes_loss: {format_float(_procrustes_loss(x, pi_star, perm))}")
        print(f"quadratic_loss: {format_float(_quadratic_loss(x, pi_star, perm))}")
        print(f"hamming: {_hamming_distance(pi_star, perm)}")
    if out:
        write_permutation(out, perm)


def _cmd_estimate(args) -> int:
    if "," in args.estimator:
        raise ContractViolation(f"estimate takes one estimator spec, got {args.estimator!r}")
    label = parse_estimators(args.estimator)[0]
    if (args.y1 is None) != (args.y2 is None):
        raise ContractViolation("--y1 and --y2 must be given together")
    if args.y1 is None and (args.truth_x or args.truth_perm):
        raise ContractViolation("--truth-x and --truth-perm need --y1 and --y2")
    if args.truth_x and not args.truth_perm:  # the losses need both
        raise ContractViolation("--truth-x needs --truth-perm")
    _refuse_directory_out(args.out)
    if args.y1 is not None:
        y1 = read_matrix(args.y1)
        y2 = read_matrix(args.y2)
        x = read_matrix(args.truth_x) if args.truth_x else None
        pi_star = read_permutation(args.truth_perm) if args.truth_perm else None
        if x is not None and x.shape != y1.shape:
            raise ContractViolation(f"--truth-x has shape {x.shape}, y1 has {y1.shape}")
        if pi_star is not None and pi_star.size != y1.shape[0]:
            raise ContractViolation(
                f"--truth-perm has length {pi_star.size}, y1 has {y1.shape[0]} rows")
    else:
        inst, obs = _generate_cli_instance(args, "identity")
        y1, y2, x, pi_star = obs.y1, obs.y2, inst.x, inst.pi_star
    n = y1.shape[0]
    if args.init == "truth":  # the known pi_star, which need not be the identity
        if pi_star is None:
            raise ContractViolation("--init truth needs a known true permutation")
        init = pi_star
    else:
        init = partial_shuffle(n, _shuffle_size(args.init, n), stream(args.seed, 1))
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
        estimators=parse_estimators(args.estimator),
        init=args.init,
        fresh_design=args.fresh_design == "true",
        workers=args.workers,
    )
    _refuse_directory_out(args.out)
    out = Path(args.out)
    summary_path = out.with_suffix(".summary.csv")  # never equals out: the stem is kept
    svg_path = out.with_suffix(".svg")
    if args.svg and out == svg_path:
        raise ContractViolation(f"--out {out} is also the --svg chart path")
    for path in (summary_path, svg_path) if args.svg else (summary_path,):
        if path.is_dir():
            raise ContractViolation(f"{path} is a directory")
    out.parent.mkdir(parents=True, exist_ok=True)
    records, summary = run_sweep(cfg)
    write_table(out, RECORDS_SCHEMA, records)
    write_table(summary_path, SUMMARY_SCHEMA, summary)
    print(out)
    print(summary_path)
    if args.svg:
        write_sweep_svg(svg_path, summary, f"{cfg.axis} sweep, n={cfg.n}, p={cfg.p}")
        print(svg_path)
    for row in summary:
        stats = (f"mean={row['mean_procrustes']:.6g} median={row['median_procrustes']:.6g}"
                 if row["mean_procrustes"] is not None else "mean=n/a median=n/a")
        failures = f" failures={row['failures']}" if row["failures"] else ""
        print(f"{row['axis']}={row['grid_value']:g} {row['estimator']}: {stats}{failures}")
    return 0


def _cmd_bound(args) -> int:
    etas = _grid_values(args.eta)
    sigma = _sigma_value(args.sigma)
    _refuse_directory_out(args.out)
    x = generate_design(args.n, args.p, stream(args.seed))
    r = _mixing(args.p, args.theta, stream(args.seed, 1))
    cov = as_covariance(sigma, args.p)
    rows = []
    for eta in etas:
        bv = recovery_bound(x, r, cov, eta, args.c)
        rows.append({
            "n": args.n, "p": args.p, "eta": eta, "c": args.c,
            "snr": bv.snr, "a_n": bv.a_n, "bound": bv.bound,
            "prob_statement": bv.probability_statement,
            "prob_derivation": bv.probability_derivation,
            "noiseless": bv.noiseless,
        })
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
    _refuse_directory_out(args.out)
    inst, obs = _generate_cli_instance(args, args.perm)
    result = brute_force_tls(obs.y1, obs.y2)
    obj_star = tls_objective(obs.y2, obs.y1[inst.pi_star])
    print(f"objective_at_estimate: {format_float(result.best_objective)}")
    print(f"objective_at_truth: {format_float(obj_star)}")
    print(f"permutations_tried: {result.iterations}")
    _report(inst.x, inst.pi_star, result.perm, args.out)
    return 0


def _cmd_lemma(args) -> int:
    _refuse_directory_out(args.out)
    rows = run_lemma_suite(args.kind, args.trials, args.seed, n=args.n, p=args.p, eps=args.eps)
    if args.out:
        write_table(args.out, LEMMA_SCHEMA, rows)
        print(args.out)
    violations = sum(row["violation"] for row in rows)
    worst = max(row["lhs"] - row["rhs"] for row in rows)
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
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # stdout's reader is gone: no error line, and what is still buffered
        # goes to devnull so the interpreter's closing flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ContractViolation, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
