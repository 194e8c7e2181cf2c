"""Command-line front end: file formats round-trip exactly, subcommands obey
their exit-code contract, and sweeps rerun byte-identically once the timing
column is stripped."""
from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from tlsperm.cli import main
from tlsperm.errors import ContractViolation
from tlsperm.matio import (
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
            "rows.csv": "2,2\n1,2\n",
            "cols.csv": "1,3\n1,2\n",
            "tok.csv": "1,2\n1,zap\n",
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises((ContractViolation, ValueError)):
                read_matrix(path)

    def test_bad_permutation_file_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\nx\n")
        with pytest.raises(ContractViolation):
            read_permutation(path)
        path.write_text("0\n2\n")
        with pytest.raises(ContractViolation):
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

    def test_missing_sigma_file_is_usage_error(self, tmp_path):
        assert run("gen", "--n", 6, "--sigma", tmp_path / "nope.csv",
                   "--out", tmp_path / "inst") == 1


class TestEstimate:
    def test_generated_instance_reports_losses(self, tmp_path, capsys):
        perm_out = tmp_path / "perm.txt"
        assert run("estimate", "--n", 10, "--sigma", 0.05, "--seed", 3,
                   "--estimator", "alta", "--cost", "c3", "--out", perm_out) == 0
        fields = stdout_fields(capsys)
        assert fields["estimator"] == "alta_c3"
        assert float(fields["objective"]) >= 0.0
        assert "procrustes_loss" in fields
        assert read_permutation(perm_out).size == 10

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

    def test_lone_y1_is_usage_error(self, tmp_path):
        y1 = tmp_path / "y1.csv"
        write_matrix(y1, np.eye(4))
        assert run("estimate", "--y1", y1) == 1

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
        for estimator in (("alta", "--cost", "c1"), ("alta", "--cost", "c2"),
                          ("alta", "--cost", "c3"), ("alta", "--cost", "c4"),
                          ("aloa",), ("brute",)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run("estimate", "--y1", tmp_path / "y1.csv",
                           "--y2", tmp_path / "y2.csv", "--estimator", *estimator)
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

    def test_svg_written_with_one_line_per_estimator(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run(*self.ARGS, "--svg", "--out", out) == 0
        capsys.readouterr()
        svg = out.with_suffix(".svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "alta_c3" in svg and "aloa" in svg

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

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("sweep", "--sweep", "frequency", "--grid", "1",
                   "--out", out) == 1
        assert run("sweep", "--sweep", "noise", "--grid", "0.1;0.2",
                   "--out", out) == 1
        assert run("sweep", "--sweep", "noise", "--grid", "0.1",
                   "--estimator", "newton", "--out", out) == 1
        assert run("sweep", "--sweep", "n", "--grid", "10,12",
                   "--estimator", "brute", "--out", out) == 1
        assert run("sweep", "--sweep", "noise", "--grid", "0.1",
                   "--trials", 0, "--out", out) == 1
        # permutation specs, non-finite grids and p < 1, for every command
        # they reach
        inst = tmp_path / "inst"
        assert run("gen", "--n", 6, "--seed", 1, "--out", inst) == 0
        capsys.readouterr()
        spec_errors = [
            (("estimate", "--y1", inst / "y1.csv", "--y2", inst / "y2.csv",
              "--init", "truth"), "--init truth needs a known true permutation"),
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
            (("bound", "--c", "nan"), "eta and c must be positive"),
            (("estimate", "--p", -1), "p must be >= 1"),
            (("gen", "--p", -1, "--out", inst), "p must be >= 1"),
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

    def test_limit_enforced(self):
        assert run("bruteforce", "--n", 10) == 1


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
