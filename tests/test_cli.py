"""Command-line front end: file formats round-trip exactly, subcommands obey
their exit-code contract, and sweeps rerun byte-identically once the timing
column is stripped."""
from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from tlsperm import cli, estimators, evaluation, lap, model
from tlsperm.cli import main
from tlsperm.errors import ContractViolation, NumericalFailure
from tlsperm.estimators import alta
from tlsperm.evaluation import hamming_distance, procrustes_loss, quadratic_loss
from tlsperm.matio import (
    format_float,
    read_matrix,
    read_permutation,
    write_matrix,
    write_permutation,
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def stdout_fields(capsys) -> dict:
    out = {}
    for line in capsys.readouterr().out.splitlines():
        if ": " in line:
            key, val = line.split(": ", 1)
            out[key] = val
    return out


def records_without_timing(path) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in Path(path).read_text().splitlines()]


ROOT = Path(__file__).resolve().parents[1]


def fresh_python(args, cwd, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter anew on args, with this checkout's package and one
    BLAS thread; extra keyword arguments go to subprocess.run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    env.update(kwargs.pop("env", {}))
    if "stdout" not in kwargs:
        kwargs["capture_output"] = True
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, text=True,
                          timeout=120, **kwargs)


class TestMatio:
    def test_matrix_round_trip_is_exact(self, tmp_path):
        vals = np.array([[np.pi, 1.0 / 3.0, 1e-300],
                         [-1e300, 0.1, -0.0],
                         [5e-17, 123456789.123456789, 2.0]])
        path = tmp_path / "m.csv"
        write_matrix(path, vals)
        back = read_matrix(path)
        assert back.shape == vals.shape
        assert np.array_equal(back, vals)

    def test_permutation_round_trip(self, tmp_path):
        path = tmp_path / "p.txt"
        write_permutation(path, [3, 1, 0, 2])
        assert np.array_equal(read_permutation(path), [3, 1, 0, 2])

    def test_malformed_matrix_files_rejected(self, tmp_path):
        cases = {
            "empty.csv": "",
            "head.csv": "3\n1,2\n",
            "header.csv": "a,b\n1,2\n",
            "rows.csv": "2,2\n1,2\n",
            "cols.csv": "1,3\n1,2\n",
            "tok.csv": "1,2\n1,zap\n",
            "binary.csv": bytes(range(256)),
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_bytes(text.encode() if isinstance(text, str) else text)
            with pytest.raises(ContractViolation, match=f"^{re.escape(str(path))}: "):
                read_matrix(path)

    def test_bad_permutation_file_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\nx\n")
        with pytest.raises(ContractViolation):
            read_permutation(path)
        path.write_text("0\n2\n")
        with pytest.raises(ContractViolation):
            read_permutation(path)
        path.write_bytes(bytes(range(256)))
        message = f"^{re.escape(str(path))}: not a text permutation file$"
        with pytest.raises(ContractViolation, match=message):
            read_permutation(path)


class TestGen:
    def test_writes_consistent_noiseless_instance(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert run("gen", "--n", 8, "--sigma", 0, "--perm", "random",
                   "--seed", 5, "--out", out) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        x = read_matrix(out / "x.csv")
        r = read_matrix(out / "r.csv")
        y1 = read_matrix(out / "y1.csv")
        y2 = read_matrix(out / "y2.csv")
        sigma = read_matrix(out / "sigma.csv")
        pi = read_permutation(out / "pi_star.txt")
        assert np.array_equal(y1, x)
        assert np.allclose(y2, x[pi] @ r, atol=1e-12)
        assert np.array_equal(sigma, np.zeros((2, 2)))
        assert sorted(pi) == list(range(8))

    def test_covariance_file_accepted_as_sigma(self, tmp_path):
        cov = tmp_path / "cov.csv"
        write_matrix(cov, np.diag([0.09, 0.01]))
        out = tmp_path / "inst"
        assert run("gen", "--n", 6, "--sigma", cov, "--out", out) == 0
        assert np.array_equal(read_matrix(out / "sigma.csv"), np.diag([0.09, 0.01]))

    @pytest.mark.parametrize("p, sigma", [
        (2, 0.1),
        (3, np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.0], [0.0, 0.0, 0.01]])),
    ], ids=["scalar", "covariance-file"])
    def test_draw_equals_library_draw(self, p, sigma, tmp_path):
        """gen's instance is the library's, bit for bit: the design, mixing,
        permutation and the observed pair of generate_observations, all drawn
        in order from stream(seed)."""
        sigma_arg = sigma
        if not np.isscalar(sigma):
            sigma_arg = tmp_path / "cov.csv"
            write_matrix(sigma_arg, sigma)
        out = tmp_path / "inst"
        assert run("gen", "--n", 12, "--p", p, "--sigma", sigma_arg, "--perm", "random",
                   "--seed", 7, "--out", out) == 0
        rng = model.stream(7)
        x = model.generate_design(12, p, rng)
        r = cli._mixing(p, 60.0, rng)
        pi_star = model.partial_shuffle(12, 12, rng)
        obs = model.generate_observations(model.ProblemInstance(x, r, pi_star, sigma), rng)
        assert np.array_equal(read_matrix(out / "x.csv"), x)
        assert np.array_equal(read_matrix(out / "r.csv"), r)
        assert np.array_equal(read_permutation(out / "pi_star.txt"), pi_star)
        assert read_matrix(out / "y1.csv").tobytes() == obs.y1.tobytes()
        assert read_matrix(out / "y2.csv").tobytes() == obs.y2.tobytes()

    def test_missing_sigma_file_is_usage_error(self, tmp_path):
        assert run("gen", "--n", 6, "--sigma", tmp_path / "nope.csv",
                   "--out", tmp_path / "inst") == 1


class TestEstimate:
    def test_generated_instance_reports_losses(self, tmp_path, capsys):
        perm_out = tmp_path / "perm.txt"
        assert run("estimate", "--n", 10, "--sigma", 0.05, "--seed", 3,
                   "--estimator", "alta:c3", "--out", perm_out) == 0
        fields = stdout_fields(capsys)
        assert fields["estimator"] == "alta_c3"
        assert float(fields["objective"]) >= 0.0
        assert "procrustes_loss" in fields
        assert read_permutation(perm_out).size == 10

    @pytest.mark.parametrize("kind", ["c1", "c2", "c3", "c4"])
    def test_alta_spec_pins_cost_kind(self, tmp_path, capsys, kind):
        """`--estimator alta:cK` prints exactly what alta(kind=cK) returns."""
        inst = tmp_path / "inst"
        assert run("gen", "--n", 20, "--sigma", 0.3, "--perm", "random",
                   "--seed", 4, "--out", inst) == 0
        capsys.readouterr()
        y1, y2 = read_matrix(inst / "y1.csv"), read_matrix(inst / "y2.csv")
        x, pi_star = read_matrix(inst / "x.csv"), read_permutation(inst / "pi_star.txt")
        assert run("estimate", "--y1", inst / "y1.csv", "--y2", inst / "y2.csv",
                   "--truth-x", inst / "x.csv", "--truth-perm", inst / "pi_star.txt",
                   "--estimator", f"alta:{kind}", "--init", "identity") == 0
        res = alta(y1, y2, kind=kind)
        expected = [
            f"estimator: alta_{kind}",
            f"objective: {format_float(res.best_objective)}",
            f"iterations: {res.iterations}",
            f"converged: {res.converged}",
            f"procrustes_loss: {format_float(procrustes_loss(x, pi_star, res.perm))}",
            f"quadratic_loss: {format_float(quadratic_loss(x, pi_star, res.perm))}",
            f"hamming: {hamming_distance(pi_star, res.perm)}",
        ]
        assert capsys.readouterr().out.splitlines() == expected

    def test_file_route_with_truth_recovers_noiseless(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        assert run("gen", "--n", 6, "--sigma", 0, "--perm", "random",
                   "--seed", 11, "--out", inst) == 0
        capsys.readouterr()
        assert run("estimate", "--y1", inst / "y1.csv", "--y2", inst / "y2.csv",
                   "--truth-x", inst / "x.csv",
                   "--truth-perm", inst / "pi_star.txt",
                   "--estimator", "brute") == 0
        fields = stdout_fields(capsys)
        assert fields["hamming"] == "0"
        assert float(fields["procrustes_loss"]) <= 1e-12

    def test_init_truth_starts_from_the_known_permutation(self, tmp_path, capsys, monkeypatch):
        """--init truth is the true permutation read with --truth-perm, not the
        identity; without one it is a usage error before any estimator runs."""
        inst = tmp_path / "inst"
        assert run("gen", "--n", 10, "--sigma", 0.1, "--perm", "random",
                   "--seed", 5, "--out", inst) == 0
        capsys.readouterr()
        pi_star = read_permutation(inst / "pi_star.txt")
        assert not np.array_equal(pi_star, np.arange(10))
        starts = []
        real = cli._run_estimator

        def recording(label, y1, y2, init):
            starts.append(init)
            return real(label, y1, y2, init)

        monkeypatch.setattr(cli, "_run_estimator", recording)
        route = ("estimate", "--y1", inst / "y1.csv", "--y2", inst / "y2.csv", "--init", "truth")
        assert run(*route, "--truth-perm", inst / "pi_star.txt") == 0
        assert len(starts) == 1 and np.array_equal(starts[0], pi_star)
        capsys.readouterr()
        assert run(*route) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --init truth needs a known true permutation\n"
        assert len(starts) == 1

    def test_theta_checked_at_every_p(self, capsys):
        assert run("estimate", "--p", 3, "--theta", "inf") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rotation angle must be finite, got inf\n"

    def test_lone_y1_is_usage_error(self, tmp_path):
        y1 = tmp_path / "y1.csv"
        write_matrix(y1, np.eye(4))
        assert run("estimate", "--y1", y1) == 1

    def test_truth_files_checked_before_solving(self, tmp_path, capsys):
        """Truth files that do not match y1 are a usage error before any
        estimate is printed."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen", "--n", 10, "--perm", "random", "--seed", 1, "--out", a) == 0
        assert run("gen", "--n", 8, "--perm", "random", "--seed", 2, "--out", b) == 0
        capsys.readouterr()
        route = ("estimate", "--y1", a / "y1.csv", "--y2", a / "y2.csv")
        cases = [
            (("--truth-x", b / "x.csv", "--truth-perm", a / "pi_star.txt"),
             "--truth-x has shape (8, 2), y1 has (10, 2)"),
            (("--truth-x", a / "x.csv", "--truth-perm", b / "pi_star.txt"),
             "--truth-perm has length 8, y1 has 10 rows"),
        ]
        for extra, message in cases:
            assert run(*route, *extra) == 1, extra
            captured = capsys.readouterr()
            assert captured.out == "", extra
            assert captured.err == f"error: {message}\n", extra

    def test_degenerate_first_fit_is_reported_with_exit_0(self, tmp_path, capsys):
        """A y1 of zeros leaves alta's first fit degenerate: the estimate is
        printed with its failure line, and the command still succeeds."""
        y1, y2 = tmp_path / "y1.csv", tmp_path / "y2.csv"
        write_matrix(y1, np.zeros((5, 2)))
        write_matrix(y2, np.arange(10.0).reshape(5, 2))
        assert run("estimate", "--y1", y1, "--y2", y2) == 0
        assert capsys.readouterr().out.splitlines() == [
            "estimator: alta_c3", "objective: 0", "iterations: 1", "converged: False",
            "failure: degenerate_fit"]

    def test_rank_deficient_input_is_numerical_failure(self, tmp_path):
        y1 = tmp_path / "y1.csv"
        y2 = tmp_path / "y2.csv"
        write_matrix(y1, np.zeros((6, 2)))
        write_matrix(y2, np.arange(12.0).reshape(6, 2))
        assert run("estimate", "--y1", y1, "--y2", y2,
                   "--estimator", "aloa") == 2

    def test_overflowing_input_is_numerical_failure(self, tmp_path, capfd):
        """Exit 2, and the failure line is all that reaches stderr: no raw
        numpy RuntimeWarning, with its source paths, ahead of it."""
        inst = tmp_path / "inst"
        assert run("gen", "--n", 6, "--sigma", 0.1, "--seed", 5, "--out", inst) == 0
        for name in ("y1.csv", "y2.csv"):
            write_matrix(tmp_path / name, read_matrix(inst / name) * 1e200)
        capfd.readouterr()
        for estimator in ("alta:c1", "alta:c2", "alta:c3", "alta:c4", "aloa", "brute"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run("estimate", "--y1", tmp_path / "y1.csv",
                           "--y2", tmp_path / "y2.csv", "--estimator", estimator)
            err = capfd.readouterr().err
            assert code == 2, estimator
            assert [str(w.message) for w in caught] == [], estimator
            assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


class TestSweep:
    ARGS = ("sweep", "--sweep", "noise", "--grid", "0.05,0.3", "--n", 12,
            "--trials", 4, "--seed", 9, "--estimator", "alta:c3,aloa",
            "--init", "random")

    def test_rerun_is_byte_identical_outside_timing(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(*self.ARGS, "--out", a) == 0
        assert run(*self.ARGS, "--out", b) == 0
        capsys.readouterr()
        assert records_without_timing(a) == records_without_timing(b)
        assert Path(a).read_text() != ""
        sa = a.with_suffix(".summary.csv").read_text()
        sb = b.with_suffix(".summary.csv").read_text()
        assert sa == sb
        assert sa.splitlines()[1] == (
            "axis,grid_index,grid_value,estimator,trials,failures,mean_procrustes,"
            "q25_procrustes,median_procrustes,q75_procrustes,mean_quadratic,mean_hamming")
        lines = Path(a).read_text().splitlines()
        assert lines[0].startswith("# schema:")
        assert lines[1] == (
            "axis,grid_index,grid_value,estimator,trial,procrustes_loss,quadratic_loss,"
            "hamming,objective,iterations,converged,failed,wall_ms")
        assert len(lines) == 2 + 2 * 4 * 2

    def test_parallel_workers_match_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        par = tmp_path / "par.csv"
        assert run(*self.ARGS, "--out", serial) == 0
        assert run(*self.ARGS, "--workers", 2, "--out", par) == 0
        capsys.readouterr()
        assert records_without_timing(serial) == records_without_timing(par)
        assert serial.with_suffix(".summary.csv").read_text() == \
            par.with_suffix(".summary.csv").read_text()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_trial_raises_and_cancels_unstarted(self, workers, monkeypatch):
        """The first trial raises; run_sweep raises that exception, and the
        trials that had not started when it failed never run."""
        started = []

        class TrialFailed(Exception):
            pass

        def trial(cfg, gi, ti, *point):
            started.append((gi, ti))
            if len(started) == 1:
                raise TrialFailed(f"trial {gi}, {ti}")
            time.sleep(0.01)
            return []

        monkeypatch.setattr(cli, "_run_single_trial", trial)
        cfg = cli.ExperimentConfig(axis="noise", grid=[0.1, 0.2], n=12, p=2, sigma=0.1,
                                   theta=60.0, trials=20, seed=0, workers=workers)
        with pytest.raises(TrialFailed, match="^trial 0, 0$"):
            cli.run_sweep(cfg)
        assert started[0] == (0, 0)
        assert len(started) < 40

    def test_numerical_failures_become_records(self, tmp_path, capsys):
        """sigma = 1e154 is a valid noise level whose observations overflow
        every residual in the caller's units: alta and aloa fail, and each
        failure is a record with empty loss cells and an empty objective,
        since a failed trial has no estimate to score; brute force still
        finishes."""
        out = tmp_path / "huge.csv"
        assert run("sweep", "--sweep", "noise", "--grid", "1e154", "--n", 8, "--trials", 2,
                   "--estimator", "alta,aloa,brute", "--out", out) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        records = [dict(zip(header, line.split(","))) for line in lines[2:]]
        assert [r["estimator"] for r in records] == ["aloa"] * 2 + ["alta_c3"] * 2 + ["brute"] * 2
        for r in records:
            if r["estimator"] == "brute":
                assert r["failed"] == ""
                assert math.isfinite(float(r["objective"]))
            else:
                assert r["failed"] == "numericalfailure"
                assert (r["iterations"], r["converged"], r["objective"]) == ("0", "0", "")
                assert (r["procrustes_loss"], r["quadratic_loss"], r["hamming"]) == ("", "", "")
        summary = out.with_suffix(".summary.csv").read_text().splitlines()
        columns = summary[1].split(",")
        failures = {row["estimator"]: row["failures"]
                    for row in (dict(zip(columns, line.split(","))) for line in summary[2:])}
        assert failures == {"aloa": "2", "alta_c3": "2", "brute": "0"}

    @pytest.mark.parametrize("name, value, message", [
        ("grid", [], "grid must be nonempty"),
        ("workers", 0, "workers must be >= 1"),
        ("p", 0, "p must be >= 1"),
    ])
    def test_config_checks_its_sizes(self, name, value, message):
        kwargs = dict(axis="noise", grid=[0.1], n=12, p=2, sigma=0.1, theta=60.0,
                      trials=1, seed=0)
        kwargs[name] = value
        with pytest.raises(ContractViolation, match=f"^{message}$"):
            cli.ExperimentConfig(**kwargs)

    def test_summary_reads_each_record_a_bounded_number_of_times(self):
        """summarize reads sorted records in one pass: its key reads grow with
        the record count, not with the record count times the group count."""
        reads = 0

        class Counting(dict):
            def __getitem__(self, key):
                nonlocal reads
                reads += 1
                return super().__getitem__(key)

        # a sweep's sorted records: 12 grid points, 3 estimators, 4 trials;
        # aloa fails every trial at odd grid points
        records = []
        for gi in range(12):
            for label in ("aloa", "alta_c3", "brute"):
                for ti in range(4):
                    failed = label == "aloa" and gi % 2 == 1
                    loss = None if failed else 0.1 * ti
                    records.append(Counting(
                        axis="noise", grid_index=gi, grid_value=0.1 * (gi + 1),
                        estimator=label, trial=ti, procrustes_loss=loss,
                        quadratic_loss=loss, hamming=None if failed else ti,
                        objective=loss, iterations=0 if failed else 3, converged=not failed,
                        failed="numericalfailure" if failed else "", wall_ms="0.100"))
        rows = cli.summarize(records)
        assert len(rows) == 36
        assert [(row["grid_index"], row["estimator"]) for row in rows[:3]] == [
            (0, "aloa"), (0, "alta_c3"), (0, "brute")]
        assert (rows[3]["failures"], rows[3]["mean_procrustes"]) == (4, None)
        assert reads <= 10 * len(records)

    def test_scipy_is_bound_before_the_first_trial(self, tmp_path, capsys, monkeypatch):
        """A sweep that assigns binds scipy's assignment and cdist before its
        first trial, so no trial's wall_ms counts loading them; a brute-only
        sweep binds neither."""
        seen = []
        trial = cli._run_single_trial

        def watched(*args):
            seen.append((lap._linear_sum_assignment is not None, estimators._cdist is not None))
            return trial(*args)

        monkeypatch.setattr(cli, "_run_single_trial", watched)
        for estimator, bound in (("brute", False), ("alta,aloa", True)):
            monkeypatch.setattr(lap, "_linear_sum_assignment", None)
            monkeypatch.setattr(estimators, "_cdist", None)
            seen.clear()
            assert run("sweep", "--sweep", "noise", "--grid", "0.1", "--n", 6, "--trials", 2,
                       "--estimator", estimator, "--out", tmp_path / "r.csv") == 0
            assert seen == [(bound, bound)] * 2
        capsys.readouterr()

    def test_failed_trials_are_left_out_of_the_losses(self, tmp_path, capsys, monkeypatch):
        """aloa fails every trial and alta_c3 its first: their loss cells stay
        empty, the summary averages the finished trials only and leaves its
        cells empty where none finished, the stdout line counts the failures,
        and the chart has no point where no trial finished."""
        real = cli._run_estimator
        failed = []

        def flaky(label, y1, y2, init):
            if label == "aloa" or (label == "alta_c3" and not failed):
                failed.append(label)
                raise NumericalFailure("injected")
            return real(label, y1, y2, init)

        monkeypatch.setattr(cli, "_run_estimator", flaky)
        out = tmp_path / "r.csv"
        assert run("sweep", "--sweep", "noise", "--grid", "0.1,0.3", "--n", 12, "--trials", 3,
                   "--seed", 4, "--estimator", "alta,aloa", "--init", "random", "--svg",
                   "--out", out) == 0
        stdout = capsys.readouterr().out.splitlines()

        def table(path):
            lines = path.read_text().splitlines()
            return [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]

        losses = ("procrustes_loss", "quadratic_loss", "hamming")
        records = table(out)
        for r in records:
            unfinished = r["estimator"] == "aloa" or (r["grid_index"], r["trial"]) == ("0", "0")
            assert (r["failed"] == "numericalfailure") == unfinished
            assert all((r[key] == "") == unfinished for key in losses)
        summary = {(row["grid_index"], row["estimator"]): row
                   for row in table(out.with_suffix(".summary.csv"))}
        stats = ("mean_procrustes", "q25_procrustes", "median_procrustes", "q75_procrustes",
                 "mean_quadratic", "mean_hamming")
        for gi in ("0", "1"):
            row = summary[gi, "aloa"]
            assert (row["trials"], row["failures"]) == ("3", "3")
            assert all(row[key] == "" for key in stats)
            done = [r for r in records if r["estimator"] == "alta_c3" and r["grid_index"] == gi
                    and not r["failed"]]
            row = summary[gi, "alta_c3"]
            assert (len(done), row["failures"]) == ((2, "1") if gi == "0" else (3, "0"))
            for stat, key in (("mean_procrustes", "procrustes_loss"),
                              ("mean_quadratic", "quadratic_loss"), ("mean_hamming", "hamming")):
                want = float(np.mean([float(r[key]) for r in done]))
                assert float(row[stat]) == want
        lines = [line for line in stdout if line.startswith("noise=")]
        assert lines[0] == "noise=0.1 aloa: mean=n/a median=n/a failures=3"
        assert lines[1].startswith("noise=0.1 alta_c3: mean=") and lines[1].endswith(" failures=1")
        assert lines[3].startswith("noise=0.3 alta_c3: mean=") and "failures" not in lines[3]
        svg = out.with_suffix(".svg").read_text()
        assert svg.count("<circle") == 2 and svg.count("<polyline") == 2

    def test_each_grid_point_factors_its_covariance_once(self, tmp_path, capsys, monkeypatch):
        """A sweep of G points and T trials factors G covariances, not G x T."""
        real = model._noise_factor
        calls = []

        def counting(cov):
            calls.append(cov.shape)
            return real(cov)

        # both bindings: generate_observations' and the sweep's own
        monkeypatch.setattr(model, "_noise_factor", counting)
        monkeypatch.setattr(cli, "_noise_factor", counting)
        assert run("sweep", "--sweep", "noise", "--grid", "0.1,0.2,0.3", "--n", 12,
                   "--trials", 4, "--estimator", "aloa", "--out", tmp_path / "r.csv") == 0
        capsys.readouterr()
        assert calls == [(2, 2)] * 3

    def test_svg_written_with_one_line_per_estimator(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run(*self.ARGS, "--svg", "--out", out) == 0
        capsys.readouterr()
        svg = out.with_suffix(".svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "alta_c3" in svg and "aloa" in svg

    def test_one_point_svg_puts_its_tick_at_the_centre(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run("sweep", "--sweep", "noise", "--grid", 0.1, "--n", 12, "--trials", 1,
                   "--svg", "--out", out) == 0
        capsys.readouterr()
        svg = out.with_suffix(".svg").read_text()
        assert svg.count('x1="345.0"') == 1
        assert '<line x1="345.0" y1="370" x2="345.0" y2="374" stroke="black"/>' in svg

    def test_shuffle_axis_runs_and_zero_fraction_stays_at_truth(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--sweep", "shuffle", "--grid", "0,0.5",
                   "--n", 16, "--sigma", 0, "--trials", 3, "--seed", 2,
                   "--estimator", "alta:c4", "--out", out) == 0
        capsys.readouterr()
        summary = out.with_suffix(".summary.csv").read_text().splitlines()
        first = summary[2].split(",")
        assert first[2] == "0"
        assert float(first[6]) <= 1e-12

    def test_c4_curve_flatter_than_c3_at_large_shuffle_fractions(self):
        from tlsperm.cli import ExperimentConfig, run_sweep
        cfg = ExperimentConfig(axis="shuffle", grid=[0.5, 0.75, 1.0], n=60,
                               p=2, sigma=0.2, theta=60.0, trials=10,
                               seed=3001, estimators=["alta_c3", "alta_c4"])
        _, summary = run_sweep(cfg)
        curves = {}
        for label in ("alta_c3", "alta_c4"):
            pts = sorted((r["grid_index"], r["mean_procrustes"])
                         for r in summary if r["estimator"] == label)
            curves[label] = [v for _, v in pts]
        slope_c3 = curves["alta_c3"][-1] - curves["alta_c3"][0]
        slope_c4 = curves["alta_c4"][-1] - curves["alta_c4"][0]
        assert slope_c4 < slope_c3

    @pytest.mark.parametrize("axis", cli.SWEEP_AXES)
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_grid_value_is_contract_violation(self, axis, bad):
        with pytest.raises(ContractViolation, match=f"^grid value {bad} is not finite$"):
            cli.ExperimentConfig(axis=axis, grid=[bad], n=12, p=2, sigma=0.1,
                                 theta=60.0, trials=1, seed=0)

    def test_snr_axis_and_shared_design_rerun_deterministically(self, tmp_path, capsys):
        args = ("sweep", "--sweep", "snr", "--grid", "8,16", "--sigma", 0.4,
                "--trials", 3, "--seed", 4, "--estimator", "alta",
                "--fresh-design", "false")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        capsys.readouterr()
        assert records_without_timing(a) == records_without_timing(b)

    def test_shuffle_point_is_noise_point_with_partial_start(self, tmp_path, capsys):
        """A shuffle fraction g starts from a shuffle of the top round(g * n)
        rows: the records match a noise sweep at the same sigma started from
        partial=round(g * n)."""
        common = ("--n", 12, "--trials", 3, "--seed", 6, "--estimator", "alta:c3,aloa")
        shuffled = tmp_path / "shuffle.csv"
        noise = tmp_path / "noise.csv"
        assert run("sweep", "--sweep", "shuffle", "--grid", 0.5, "--sigma", 0.2, *common,
                   "--out", shuffled) == 0
        assert run("sweep", "--sweep", "noise", "--grid", 0.2, "--init", "partial=6",
                   *common, "--out", noise) == 0
        capsys.readouterr()

        def without_axis_grid_and_timing(path):
            rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
            return [[row[1], *row[3:-1]] for row in rows]

        records = without_axis_grid_and_timing(shuffled)
        assert len(records) == 2 * 3
        assert records == without_axis_grid_and_timing(noise)

    def test_start_sizes_checked_before_any_estimator_runs(self, tmp_path, capsys,
                                                         monkeypatch):
        """partial=K is checked against every grid point's n before the first
        trial; with a non-finite angle as well, the angle's message wins."""
        def no_solve(*args):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(cli, "_run_estimator", no_solve)
        out = tmp_path / "r.csv"
        argv = ("sweep", "--sweep", "n", "--grid", "600,8", "--init", "partial=100",
                "--trials", 3, "--estimator", "alta:c3,aloa", "--out", out)
        assert run(*argv) == 1
        assert capsys.readouterr().err == "error: partial shuffle size 100 exceeds n=8\n"
        assert run(*argv, "--theta", "inf") == 1
        assert capsys.readouterr().err == "error: rotation angle must be finite, got inf\n"
        assert not out.exists()

    def test_out_paths_checked_before_any_trial(self, tmp_path, capsys, monkeypatch):
        """An output path that cannot be written, that the chart would
        overwrite, or whose derived summary or chart path is a directory, is a
        usage error before any estimator runs; so is a refused option, and
        neither leaves a file or directory behind."""
        def no_solve(*args):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(cli, "_run_estimator", no_solve)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        (tmp_path / "s" / "r.summary.csv").mkdir(parents=True)
        (tmp_path / "v" / "r.svg").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        svg = tmp_path / "r.svg"
        deep = tmp_path / "nd" / "deep" / "r.csv"
        point = ("sweep", "--sweep", "noise", "--grid", 0.1, "--n", 12)
        cases = [
            (("--out", afile / "r.csv"), f"[Errno 17] File exists: '{afile}'"),
            (("--out", svg, "--svg"), f"--out {svg} is also the --svg chart path"),
            (("--out", tmp_path), f"--out {tmp_path} is a directory"),
            (("--out", tmp_path / "s" / "r.csv"),
             f"{tmp_path / 's' / 'r.summary.csv'} is a directory"),
            (("--out", tmp_path / "v" / "r.csv", "--svg"),
             f"{tmp_path / 'v' / 'r.svg'} is a directory"),
            (("--out", deep, "--trials", 0), "trials must be >= 1"),
            (("--out", deep, "--theta", "inf"), "rotation angle must be finite, got inf"),
        ]
        for extra, message in cases:
            assert run(*point, "--trials", 1, *extra) == 1, extra
            captured = capsys.readouterr()
            assert captured.out == "", extra
            assert captured.err == f"error: {message}\n", extra
        assert afile.read_text() == "keep\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv", [
        ("estimate", "--n", 12), ("bruteforce", "--n", 6), ("bound", "--n", 50),
        ("lemma", "--kind", "tracemax", "--trials", 3)],
        ids=["estimate", "bruteforce", "bound", "lemma"])
    def test_directory_out_refused_before_any_work(self, argv, tmp_path, capsys,
                                                   monkeypatch):
        """Every command that writes one file refuses a directory as --out, as
        sweep does, before it draws, solves or runs a suite."""
        def no_work(*args, **kwargs):
            raise AssertionError("the command started its work")

        for name in ("generate_design", "_run_estimator", "brute_force_tls",
                     "recovery_bound", "run_lemma_suite"):
            monkeypatch.setattr(cli, name, no_work)
        assert run(*argv, "--out", tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {tmp_path} is a directory\n"

    def test_sigma_checked_against_p_on_noise_axis(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        assert run("gen", "--n", 6, "--out", inst) == 0
        capsys.readouterr()
        out = tmp_path / "r.csv"
        assert run("sweep", "--sweep", "noise", "--grid", "0.1", "--n", 12, "--p", 3,
                   "--sigma", inst / "sigma.csv", "--trials", 1, "--out", out) == 1
        assert capsys.readouterr().err == "error: covariance must be 3x3, got (2, 2)\n"
        assert not out.exists()

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("sweep", "--sweep", "frequency", "--grid", "1",
                   "--out", out) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "error: argument --sweep: invalid choice: 'frequency'")
        for command in (("estimate",), ("sweep", "--sweep", "noise", "--grid", "0.1")):
            assert run(*command, "--cost", "c1", "--out", out) == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                "error: unrecognized arguments: --cost c1")
        from tlsperm.cli import ExperimentConfig, run_sweep
        with pytest.raises(ContractViolation, match="^unknown sweep axis 'frequency'$"):
            run_sweep(ExperimentConfig(axis="frequency", grid=[1.0], n=12, p=2, sigma=0.1,
                                       theta=60.0, trials=1, seed=0))
        # labels, not specs: the alta_cK spelling is not re-parsed
        with pytest.raises(ContractViolation, match="^estimators must be labels from"):
            run_sweep(ExperimentConfig(axis="noise", grid=[0.1], n=12, p=2, sigma=0.1,
                                       theta=60.0, trials=1, seed=0, estimators=["alta_c9"]))
        # permutation specs, sweep axes, non-finite grids, angles and noise
        # levels, p < 1 and unusable paths, for every command they reach
        inst = tmp_path / "inst"
        assert run("gen", "--n", 6, "--seed", 1, "--out", inst) == 0
        capsys.readouterr()
        cell, binary = tmp_path / "cell.csv", tmp_path / "binary.csv"
        cell.write_text("2,2\n1,x\n3,4\n")
        binary.write_bytes(bytes(range(256)))
        tiny = tmp_path / "tiny.csv"  # indefinite at any scale, 1e-13 included
        tiny.write_text("2,2\n1e-13,0\n0,-1e-13\n")
        sweep = ("sweep", "--out", out, "--sweep")
        spec_errors = [
            (("estimate", "--estimator", "alta,aloa"),
             "estimate takes one estimator spec, got 'alta,aloa'"),
            (("estimate", "--estimator", "alta:c9"),
             "unknown cost kind 'c9' in estimator spec 'alta:c9'"),
            ((*sweep, "noise", "--grid", "0.1", "--estimator", "alta_c1"),
             "unknown estimator spec 'alta_c1'"),
            (("estimate", "--y1", cell, "--y2", cell),
             f"{cell}: could not convert string to float: 'x'"),
            (("estimate", "--y1", binary, "--y2", binary), f"{binary}: not a text matrix file"),
            (("estimate", "--y1", inst / "y1.csv", "--y2", inst / "y2.csv",
              "--truth-perm", binary), f"{binary}: not a text permutation file"),
            ((*sweep, "noise", "--grid", "0.1;0.2"), "bad grid '0.1;0.2'"),
            ((*sweep, "noise", "--grid", "0.1", "--estimator", "newton"),
             "unknown estimator spec 'newton'"),
            ((*sweep, "noise", "--grid", "0.1", "--estimator", ","),
             "unknown estimator spec ''"),
            ((*sweep, "n", "--grid", "10,12", "--estimator", "brute"),
             "brute estimator needs n <= 9 at every grid point"),
            ((*sweep, "noise", "--grid", "0.1", "--trials", 0), "trials must be >= 1"),
            ((*sweep, "shuffle", "--grid", "1.5"), "shuffle fractions must lie in [0, 1]"),
            ((*sweep, "noise", "--grid", "-1"), "noise levels must be nonnegative"),
            ((*sweep, "n", "--grid", "6.5"), "grid value 6.5 is not a sample count >= 2p"),
            ((*sweep, "shuffle", "--grid", "0.5", "--n", 3), "need n >= 2p, got n=3, p=2"),
            ((*sweep, "n", "--grid", "8", "--sigma", -1),
             "scalar noise level must be nonnegative"),
            (("estimate", "--theta", "inf"), "rotation angle must be finite, got inf"),
            ((*sweep, "noise", "--grid", "0.1", "--n", 12, "--theta", "inf"),
             "rotation angle must be finite, got inf"),
            (("estimate", "--sigma", "inf"), "covariance contains NaN or Inf entries"),
            (("bound", "--sigma", "1e200"), "covariance contains NaN or Inf entries"),
            (("bound", "--n", 50, "--sigma", tiny), "covariance must be positive semidefinite"),
            ((*sweep, "n", "--grid", "8", "--sigma", "inf"),
             "covariance contains NaN or Inf entries"),
            ((*sweep, "noise", "--grid", "1e200", "--n", 12),
             "covariance contains NaN or Inf entries"),
            (("estimate", "--y1", inst / "y1.csv", "--y2", inst / "y2.csv",
              "--init", "truth"), "--init truth needs a known true permutation"),
            # truth files only score files, and x only with the permutation; they
            # are refused before any read or draw
            (("estimate", "--n", 12, "--truth-x", tmp_path / "missing.csv",
              "--truth-perm", tmp_path / "missing.txt"),
             "--truth-x and --truth-perm need --y1 and --y2"),
            (("estimate", "--truth-perm", inst / "pi_star.txt"),
             "--truth-x and --truth-perm need --y1 and --y2"),
            (("estimate", "--y1", inst / "y1.csv", "--y2", inst / "y2.csv",
              "--truth-x", inst / "x.csv"), "--truth-x needs --truth-perm"),
            (("estimate", "--n", 12, "--init", "partial=99"),
             "partial shuffle size 99 exceeds n=12"),
            (("sweep", "--sweep", "noise", "--grid", "0.1", "--n", 12,
              "--init", "partial=99", "--out", out), "partial shuffle size 99 exceeds n=12"),
            (("gen", "--perm", "partial=-1", "--out", inst),
             "partial shuffle size must be nonnegative"),
            (("estimate", "--init", "bogus"), "unknown init spec 'bogus'"),
            (("sweep", "--sweep", "shuffle", "--grid", "0.5", "--init", "bogus",
              "--out", out), "unknown init spec 'bogus'"),
            (("estimate", "--init", "partial=x"), "bad init spec 'partial=x'"),
            (("sweep", "--sweep", "n", "--grid", "nan", "--out", out), "bad grid 'nan'"),
            (("sweep", "--sweep", "n", "--grid", "inf", "--out", out), "bad grid 'inf'"),
            (("sweep", "--sweep", "n", "--grid", "1e400", "--out", out), "bad grid '1e400'"),
            (("sweep", "--sweep", "snr", "--grid", "8,inf", "--out", out), "bad grid '8,inf'"),
            (("sweep", "--sweep", "noise", "--grid", "0.1,nan", "--out", out),
             "bad grid '0.1,nan'"),
            (("bound", "--eta", "nan"), "bad grid 'nan'"),
            (("bound", "--eta", ","), "grid must be nonempty"),
            ((*sweep, "noise", "--grid", ","), "grid must be nonempty"),
            (("bound", "--c", "nan"), "eta and c must be positive"),
            # the covariance is checked before the bound's own options
            (("bound", "--c", "nan", "--sigma", -1), "scalar noise level must be nonnegative"),
            # an empty --out names the working directory, as it does for sweep
            (("lemma", "--kind", "tracemax", "--trials", 3, "--out", ""),
             "--out . is a directory"),
            (("estimate", "--p", -1), "p must be >= 1"),
            (("gen", "--p", -1, "--out", inst), "p must be >= 1"),
            (("gen", "--out", inst / "y1.csv"), f"[Errno 17] File exists: '{inst / 'y1.csv'}'"),
            (("estimate", "--y1", inst, "--y2", inst / "y2.csv"),
             f"[Errno 21] Is a directory: '{inst}'"),
        ]
        for argv, message in spec_errors:
            assert run(*argv) == 1, argv
            assert capsys.readouterr().err == f"error: {message}\n", argv


class TestBound:
    def test_reference_value_lands_in_csv(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert run("bound", "--eta", 1, "--out", out) == 0
        assert "prob>=" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: tlsperm-bound-v1"
        assert lines[1] == "n,p,eta,c,snr,a_n,bound,prob_statement,prob_derivation,noiseless"
        row = lines[2].split(",")
        assert row[0] == "300" and row[1] == "2"
        assert float(row[6]) == pytest.approx(5.7204, rel=1e-3)
        assert row[9] == "0"

    def test_bound_grows_with_eta(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert run("bound", "--eta", "0.5,1,2", "--n", 100, "--out", out) == 0
        vals = [float(line.split(",")[6])
                for line in out.read_text().splitlines()[2:]]
        assert vals[0] < vals[1] < vals[2]

    def test_noiseless_row_flagged(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert run("bound", "--eta", 1, "--sigma", 0, "--n", 50,
                   "--out", out) == 0
        row = out.read_text().splitlines()[2].split(",")
        assert float(row[6]) == 0.0
        assert row[9] == "1"


class TestBruteforceCommand:
    def test_noiseless_instance_recovered(self, capsys):
        assert run("bruteforce", "--n", 6, "--sigma", 0, "--perm", "random",
                   "--seed", 7) == 0
        fields = stdout_fields(capsys)
        assert fields["hamming"] == "0"
        assert fields["permutations_tried"] == "720"
        assert (float(fields["objective_at_estimate"])
                <= float(fields["objective_at_truth"]) + 1e-15)

    def test_overflowing_objective_at_truth_is_numerical_failure(self, capsys):
        """At sigma 1e154 brute force finishes in its frame, but the residual
        at the truth overflows in the caller's units: exit 2, one line, no
        inf printed and no numpy warning (warnings are errors here)."""
        assert run("bruteforce", "--n", 8, "--sigma", "1e154", "--seed", 0) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: objective overflows in the units of the inputs\n")

    def test_limit_enforced(self, capsys):
        assert run("bruteforce", "--n", 10) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: brute force refused for n=10 > limit=9\n"


class TestLemmaCommand:
    def test_procrustes_suite_clean(self, tmp_path, capsys):
        out = tmp_path / "lemma.csv"
        assert run("lemma", "--kind", "procrustes", "--trials", 25,
                   "--out", out) == 0
        assert "violations=0" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: tlsperm-lemma-v1"
        assert lines[1] == "kind,trial,n,p,lhs,rhs,violation"
        assert len(lines) == 2 + 25
        assert all(line.split(",")[6] == "0" for line in lines[2:])

    def test_tracemax_suite_clean(self, capsys):
        assert run("lemma", "--kind", "tracemax", "--trials", 10) == 0
        assert "violations=0" in capsys.readouterr().out

    def test_eigtail_suite_clean(self, capsys):
        assert run("lemma", "--kind", "eigtail", "--trials", 30,
                   "--n", 2000, "--eps", 0.5) == 0
        assert "violations=0" in capsys.readouterr().out

    def test_usage_errors(self):
        assert run("lemma") == 1
        assert run("lemma", "--kind", "fermat") == 1
        assert run("lemma", "--kind", "procrustes", "--trials", 0) == 1
        assert run("lemma", "--kind", "eigtail", "--p", -1) == 1
        assert run("lemma", "--kind", "eigtail", "--p", 0) == 1
        assert run("lemma", "--kind", "eigtail", "--n", -5) == 1
        # the eigtail options are checked on every kind
        assert run("lemma", "--kind", "procrustes", "--trials", 3, "--n", -5) == 1
        assert run("lemma", "--kind", "tracemax", "--trials", 3, "--eps", -1, "--p", 0) == 1

    def test_violation_exits_3(self, capsys, monkeypatch):
        """A check that reports lhs above rhs is counted, printed and ends the
        command with exit code 3."""
        monkeypatch.setattr(evaluation, "procrustes_residual_gap", lambda x, perm: (1.0, 0.0))
        assert run("lemma", "--kind", "procrustes", "--trials", 1) == 3
        assert capsys.readouterr().out == (
            "kind=procrustes trials=1 violations=1 worst_gap=1\n")

    @pytest.mark.parametrize("kind", ["bogus", "eigtails"])
    def test_unknown_suite_kind_is_rejected(self, kind):
        with pytest.raises(ContractViolation, match=f"^unknown suite kind '{kind}'$"):
            evaluation.run_lemma_suite(kind, 1, 0)


class TestReadme:
    def test_library_example_runs(self, tmp_path):
        """README's Library block is the documented import surface: it runs
        as written, in a fresh interpreter, against this checkout's package."""
        section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        proc = fresh_python(["-W", "error", "-c", block], tmp_path)
        assert proc.returncode == 0, proc.stderr


class TestColdStart:
    """scipy.optimize and scipy.spatial load at the first assignment or cost
    build, not with the package; checked in fresh interpreters, since the
    test process has loaded both long before."""

    LAZY = ("scipy.optimize", "scipy.spatial")
    NO_ASSIGNMENT = [
        ["gen", "--n", "8", "--out", "inst"],
        ["bound", "--n", "50", "--eta", "1"],
        ["bruteforce", "--n", "5"],
        ["lemma", "--kind", "procrustes", "--trials", "3"],
        ["lemma", "--kind", "tracemax", "--trials", "3"],
        ["lemma", "--kind", "eigtail", "--trials", "3", "--n", "200"],
        ["estimate", "--estimator", "brute", "--n", "5"],
        ["sweep", "--sweep", "noise", "--grid", "0.1", "--n", "5", "--trials", "2",
         "--estimator", "brute", "--out", "brute.csv"],
    ]
    ALTA = ["estimate", "--estimator", "alta", "--n", "30", "--init", "random"]
    PROBE = """
import sys
import tlsperm, tlsperm.cli
LAZY, NO_ASSIGNMENT, ALTA = {args!r}
loaded = lambda: [m for m in LAZY if m in sys.modules]
assert loaded() == [], loaded()
for argv in NO_ASSIGNMENT:
    assert tlsperm.cli.main(argv) == 0, argv
    assert loaded() == [], (argv, loaded())
print("== alta", flush=True)
assert tlsperm.cli.main(ALTA) == 0
assert loaded() == list(LAZY), loaded()
"""

    def test_only_an_assignment_loads_optimize_and_spatial(self, tmp_path, capsys):
        probe = self.PROBE.format(args=(self.LAZY, self.NO_ASSIGNMENT, self.ALTA))
        proc = fresh_python(["-c", probe], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert run(*self.ALTA) == 0
        assert proc.stdout.split("== alta\n", 1)[1] == capsys.readouterr().out

    def test_first_assignment_on_two_threads_matches_serial(self, tmp_path):
        """A fresh process's first sweep binds scipy before its trials, then
        runs them on two pool threads; records and summary match a fresh
        serial run."""
        main_only = ("import sys; from tlsperm.cli import main; "
                     "assert 'scipy.optimize' not in sys.modules; "
                     "sys.exit(main(sys.argv[1:]))")
        out = {}
        for workers in (1, 2):
            out[workers] = tmp_path / f"w{workers}.csv"
            argv = [str(a) for a in TestSweep.ARGS] + [
                "--workers", str(workers), "--out", str(out[workers])]
            proc = fresh_python(["-c", main_only, *argv], tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert records_without_timing(out[1]) == records_without_timing(out[2])
        assert out[1].with_suffix(".summary.csv").read_text() == \
            out[2].with_suffix(".summary.csv").read_text()


class TestClosedStdout:
    """A reader that has gone (`tlsperm ... | head -0`) ends a command with
    exit 1 and nothing on stderr, buffered or not; output files are written."""

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("argv", [
        ["lemma", "--kind", "procrustes", "--trials", "5"],
        ["bound", "--n", "50"],
        ["estimate", "--estimator", "brute", "--n", "5"],
        ["sweep", "--sweep", "noise", "--grid", "0.1", "--n", "6", "--trials", "2",
         "--out", "s.csv"],
    ], ids=lambda argv: argv[0])
    def test_quiet_exit_1(self, tmp_path, argv, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = fresh_python(["-m", "tlsperm.cli", *argv], tmp_path, stdout=write_end,
                                stderr=subprocess.PIPE,
                                env={"PYTHONUNBUFFERED": "" if buffered else "1"})
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")
        if argv[0] == "sweep":
            assert (tmp_path / "s.csv").is_file()
            assert (tmp_path / "s.summary.csv").is_file()
