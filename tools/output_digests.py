"""Hash every artifact of a fixed set of tlsperm commands, for byte-identity checks.

Runs each command through ``python3 -m tlsperm.cli`` with the package taken
from ``--src`` (default: this checkout's ``src``), each in its own directory
under a fresh temporary directory, with one BLAS thread, ``os.cpu_count()``
commands at a time. Its artifacts are the command's stdout, stderr and exit
code, and every file in its directory afterwards: what it wrote and any fixed
input it started from. Sweep records are hashed without their last (wall_ms)
column.

The manifest opens with ``#`` lines naming the Python, numpy and scipy
versions and the BLAS each of numpy and scipy was built against, then holds
one sorted ``name sha256`` line per artifact. It goes to stdout, or to FILE
with ``--write FILE``. ``--check FILE`` runs every command and prints the name
of each artifact that is ``changed``, ``missing`` (in FILE, not produced) or
``extra`` (produced, not in FILE); it exits 1 if there is one, and 0 if every
artifact matches. When FILE's header names other versions than the running
ones, it prints ``unverifiable`` and exits 2 without running anything, since
other library builds may round otherwise.

    python3 tools/output_digests.py --check tools/output_digests.txt
    python3 tools/output_digests.py --write tools/output_digests.txt

Standard library only; a run takes 38-52 s on a 2-vCPU machine (Python 3.11,
numpy 2.4, scipy 1.17), against 75 s for the same commands run one at a time.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

RECORDS_SCHEMA = "# schema: tlsperm-sweep-v1"
SHUFFLE_GRID = "0,0.25,0.5,0.75,1"
ALL_ALTA = "alta:c1,alta:c2,alta:c3,alta:c4,aloa"

# Each command is a list of argv steps run in one directory, with outputs at
# relative paths there; its artifacts are the last step's streams and exit
# code, and every file any step wrote or INPUTS put there.
SWEEPS = {
    "crit9": ["--sweep", "noise", "--grid", "0.1,0.3", "--n", "12", "--trials", "5",
              "--seed", "33", "--estimator", "alta:c3,aloa", "--init", "random"],
    "sweep-n60-seed7": ["--sweep", "shuffle", "--grid", SHUFFLE_GRID, "--n", "60",
                        "--estimator", ALL_ALTA, "--workers", "1", "--trials", "24",
                        "--seed", "7"],
    "snr-workers2": ["--sweep", "snr", "--grid", "20,40,80", "--sigma", "0.3",
                     "--trials", "6", "--seed", "3", "--estimator", "alta:c4,aloa",
                     "--workers", "2", "--fresh-design", "false"],
    "n-axis-brute": ["--sweep", "n", "--grid", "6,7", "--sigma", "0.1", "--trials", "3",
                     "--seed", "5", "--estimator", "alta,aloa,brute", "--init", "partial=5",
                     "--svg"],
    "p3": ["--sweep", "noise", "--grid", "0.05,0.2", "--n", "30", "--p", "3",
           "--trials", "5", "--seed", "11", "--estimator", "alta:c2,aloa", "--init", "random"],
    "init-identity": ["--sweep", "noise", "--grid", "0.1,0.3", "--n", "12", "--trials", "4",
                      "--seed", "21", "--estimator", "alta,aloa", "--init", "identity"],
    # a finite noise level whose observations overflow: alta and aloa failures
    # become records, brute force finishes
    "noise-1e154": ["--sweep", "noise", "--grid", "1e154", "--n", "8", "--trials", "2",
                    "--estimator", "alta,aloa,brute"],
    # every trial finishes at 0.1 and alta's and aloa's all fail at 1e154, so
    # summary groups without a finished trial sit between groups with all of them
    "noise-mixed": ["--sweep", "noise", "--grid", "0.1,1e154", "--n", "8", "--trials", "2",
                    "--estimator", "alta,aloa,brute", "--init", "random", "--svg"],
}
# a covariance matrix from cov.csv on the sized axes; the snr grid puts a scale
# of 2 on the second point
for _axis, _grid in (("snr", "40,20"), ("n", "8,12")):
    for _cov, _p in (("rank1-cov", "2"), ("p3-cov", "3")):
        SWEEPS[f"{_axis}-{_cov}"] = ["--sweep", _axis, "--grid", _grid, "--p", _p,
                                     "--sigma", "cov.csv", "--trials", "3", "--seed", "5",
                                     "--estimator", "alta,aloa"]
GEN_A = ["gen", "--n", "10", "--sigma", "0.1", "--perm", "random", "--seed", "7", "--out", "A"]
GEN_B = ["gen", "--n", "8", "--sigma", "0.1", "--perm", "random", "--seed", "8", "--out", "B"]
FILE_ROUTE = ["estimate", "--y1", "A/y1.csv", "--y2", "A/y2.csv"]
USAGE_ERRORS = [
    ["sweep", "--sweep", "frequency", "--grid", "1"],
    ["sweep", "--sweep", "noise", "--grid", "0.1;0.2"],
    ["sweep", "--sweep", "noise", "--grid", "0.1", "--estimator", "newton"],
    ["sweep", "--sweep", "n", "--grid", "10,12", "--estimator", "brute"],
    ["sweep", "--sweep", "noise", "--grid", "0.1", "--trials", "0"],
    ["sweep", "--sweep", "noise", "--grid", "0.1", "--workers", "0"],
    ["sweep", "--sweep", "shuffle", "--grid", "1.5"],
    ["sweep", "--sweep", "noise", "--grid", "-1"],
    ["sweep", "--sweep", "n", "--grid", "6.5"],
    ["sweep", "--sweep", "shuffle", "--grid", "0.5", "--n", "3"],
    ["sweep", "--sweep", "n", "--grid", "8", "--sigma", "-1"],
    ["sweep", "--sweep", "noise", "--grid", "0.1", "--n", "12", "--init", "partial=99"],
    ["sweep", "--sweep", "shuffle", "--grid", "0.5", "--init", "bogus"],
    ["sweep", "--sweep", "noise", "--grid", "0.1", "--p", "0"],
    ["sweep", "--sweep", "snr", "--grid", "8,inf"],
    ["sweep", "--sweep", "noise", "--grid", "1e200", "--n", "12", "--trials", "1"],
    ["sweep", "--sweep", "noise", "--grid", "0.1", "--n", "12", "--theta", "inf"],
    ["sweep", "--sweep", "n", "--grid", "600,8", "--init", "partial=100", "--trials", "3",
     "--estimator", "alta:c3,aloa"],
    ["sweep", "--sweep", "n", "--grid", "600,8", "--init", "partial=100", "--trials", "3",
     "--estimator", "alta:c3,aloa", "--theta", "inf"],
    ["estimate", "--init", "truth", "--y1", "missing.csv"],
    ["estimate", "--n", "12", "--init", "partial=99"],
    ["estimate", "--init", "bogus"],
    ["estimate", "--p", "-1"],
    ["estimate", "--theta", "inf"],
    ["estimate", "--sigma", "inf"],
    ["estimate", "--p", "3", "--theta", "inf"],
    ["gen", "--perm", "partial=-1", "--out", "inst"],
    ["gen", "--sigma", "missing.csv", "--out", "inst"],
    ["bound", "--eta", "nan"],
    ["bound", "--c", "nan"],
    ["bound", "--sigma", "1e200"],
    ["bruteforce", "--n", "10"],
    ["lemma", "--kind", "procrustes", "--trials", "0"],
    ["lemma", "--kind", "eigtail", "--n", "-5"],
    ["sweep", "--sweep", "noise", "--grid", "0.1", "--estimator", ","],
    ["estimate", "--estimator", "alta,aloa"],
    ["estimate", "--estimator", "alta:c9"],
    ["estimate", "--cost", "c1"],
    ["sweep", "--sweep", "noise", "--grid", "0.1", "--estimator", "alta_c1"],
    ["lemma", "--kind", "procrustes", "--trials", "3", "--n", "-5"],
    ["lemma", "--kind", "tracemax", "--trials", "3", "--eps", "-1", "--p", "0"],
    ["estimate", "--n", "12", "--truth-x", "missing.csv", "--truth-perm", "missing.txt"],
]
SWEEP_POINT = ["sweep", "--sweep", "noise", "--grid", "0.1", "--n", "12", "--trials", "1"]

COMMANDS: dict[str, list[list[str]]] = {
    f"sweep-{name}": [["sweep", *argv, "--out", "records.csv"]] for name, argv in SWEEPS.items()
}
for _est in ("alta:c1", "alta:c2", "alta:c3", "alta:c4", "aloa"):
    for _init in ("truth", "identity", "random", "partial=5"):
        COMMANDS[f"estimate-{_est.replace(':', '-')}-{_init}"] = [[
            "estimate", "--n", "20", "--sigma", "0.1", "--seed", "4",
            "--estimator", _est, "--init", _init]]
COMMANDS.update({
    "estimate-brute": [["estimate", "--n", "7", "--sigma", "0.1", "--estimator", "brute"]],
    "estimate-out": [["estimate", "--n", "30", "--seed", "9", "--out", "perm.txt"]],
    "estimate-file-identity": [GEN_A, FILE_ROUTE + [
        "--truth-x", "A/x.csv", "--truth-perm", "A/pi_star.txt", "--init", "identity"]],
    "estimate-file-aloa-out": [GEN_A, FILE_ROUTE + ["--estimator", "aloa", "--out", "perm.txt"]],
    "gen-random": [GEN_A],
    "gen-partial-p3": [["gen", "--n", "12", "--p", "3", "--perm", "partial=4", "--out", "inst"]],
    "gen-truth": [["gen", "--n", "8", "--perm", "truth", "--seed", "2", "--out", "inst"]],
    "gen-identity": [["gen", "--n", "8", "--perm", "identity", "--seed", "2", "--out", "inst"]],
    "gen-p3-cov": [["gen", "--n", "12", "--p", "3", "--sigma", "cov.csv", "--perm", "random",
                    "--seed", "6", "--out", "inst"]],
    "gen-rank1-cov": [["gen", "--n", "10", "--sigma", "cov.csv", "--perm", "random",
                       "--seed", "6", "--out", "inst"]],
    "bruteforce": [["bruteforce", "--n", "7", "--sigma", "0.1", "--perm", "random",
                    "--seed", "2", "--out", "perm.txt"]],
    "bruteforce-n8": [["bruteforce", "--n", "8", "--sigma", "0.1", "--perm", "random",
                       "--seed", "3"]],
    "bruteforce-noiseless": [["bruteforce", "--n", "6", "--sigma", "0"]],
    "bruteforce-partial": [["bruteforce", "--n", "6", "--sigma", "0.1", "--perm", "partial=3",
                            "--seed", "4"]],
    # p = 3 and p = 1: three-term and one-term residual sums, and mixing at p != 2
    "bruteforce-p3": [["bruteforce", "--n", "6", "--p", "3", "--sigma", "0.1", "--perm", "random",
                       "--seed", "4"]],
    "bruteforce-p1": [["bruteforce", "--n", "5", "--p", "1", "--sigma", "0.1", "--perm", "random",
                       "--seed", "4"]],
    "bound": [["bound", "--out", "bound.csv"]],
    "bound-sigma0": [["bound", "--sigma", "0", "--n", "50", "--eta", "1"]],
    "bound-p3-cov": [["bound", "--p", "3", "--sigma", "cov.csv"]],
    # sigma^2 = 1e308 is finite: the bound overflows (exit 2), the instance does
    # not, and estimation on it overflows (exit 2)
    "bound-sigma1e154": [["bound", "--n", "50", "--sigma", "1e154"]],
    "bound-p3-sigma1e154": [["bound", "--n", "50", "--p", "3", "--sigma", "1e154"]],
    "gen-p3-sigma1e154": [["gen", "--n", "12", "--p", "3", "--sigma", "1e154", "--out", "inst"]],
    "estimate-p3-sigma1e154": [["estimate", "--n", "12", "--p", "3", "--sigma", "1e154"]],
    # the residual at the truth overflows, though brute force's own search does not
    "bruteforce-sigma1e154": [["bruteforce", "--n", "8", "--sigma", "1e154", "--seed", "0"]],
    "usage-gen-asymmetric-1e200-cov": [["gen", "--sigma", "cov.csv", "--out", "inst"]],
    "lemma-procrustes": [["lemma", "--kind", "procrustes", "--trials", "50",
                          "--out", "lemma.csv"]],
    "lemma-tracemax": [["lemma", "--kind", "tracemax", "--trials", "10"]],
    "lemma-eigtail": [["lemma", "--kind", "eigtail", "--trials", "30"]],
    "usage-truth-x-shape": [GEN_A, GEN_B, FILE_ROUTE + [
        "--truth-x", "B/x.csv", "--truth-perm", "A/pi_star.txt"]],
    "usage-truth-perm-length": [GEN_A, GEN_B, FILE_ROUTE + [
        "--truth-x", "A/x.csv", "--truth-perm", "B/pi_star.txt"]],
    "usage-init-truth-file": [GEN_A, FILE_ROUTE + ["--init", "truth"]],
    "usage-noise-axis-sigma-p3": [GEN_B, ["sweep", "--sweep", "noise", "--grid", "0.1",
                                          "--n", "12", "--p", "3", "--sigma", "B/sigma.csv",
                                          "--trials", "2", "--out", "records.csv"]],
    "usage-sweep-out-under-file": [GEN_A, SWEEP_POINT + ["--out", "A/y1.csv/r.csv"]],
    "usage-sweep-out-is-svg": [SWEEP_POINT + ["--out", "r.svg", "--svg"]],
    "usage-sweep-out-is-dir": [SWEEP_POINT + ["--out", "."]],
    "usage-gen-out-is-file": [GEN_A, ["gen", "--out", "A/y1.csv"]],
    "usage-estimate-dir-input": [GEN_A, ["estimate", "--y1", "A", "--y2", "A/y2.csv"]],
    "usage-estimate-bad-cell": [["estimate", "--y1", "cell.csv", "--y2", "cell.csv"]],
    "usage-estimate-binary": [["estimate", "--y1", "binary.csv", "--y2", "binary.csv"]],
    "usage-estimate-binary-perm": [GEN_A, FILE_ROUTE + ["--truth-perm", "binary.txt"]],
    "usage-sweep-summary-is-dir": [["gen", "--n", "6", "--out", "r.summary.csv"],
                                   SWEEP_POINT + ["--out", "r.csv"]],
    "usage-sweep-svg-is-dir": [["gen", "--n", "6", "--out", "r.svg"],
                               SWEEP_POINT + ["--out", "r.csv", "--svg"]],
})
# files a command's directory holds before its first step
INPUTS = {
    "usage-estimate-bad-cell": {"cell.csv": b"2,2\n1,x\n3,4\n"},
    "usage-estimate-binary": {"binary.csv": bytes(range(256))},
    "usage-estimate-binary-perm": {"binary.txt": bytes(range(256))},
}


def matrix_file(rows, exponent: int) -> bytes:
    """A matrix CSV of small integers times 10**exponent, written exactly."""
    lines = [f"{len(rows)},{len(rows[0])}"]
    lines += [",".join(f"{v}e{exponent}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def power_of_two_file(rows, k: int) -> bytes:
    """A matrix CSV of small integers times 2**k, written exactly (repr
    round-trips every float, subnormals included)."""
    lines = [f"{len(rows)},{len(rows[0])}"]
    lines += [",".join(repr(math.ldexp(v, k)) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# A 7 x 2 pair of small integers, written at a chosen power of ten.
PAIR_Y1 = [(3, 1), (-2, 4), (5, -1), (1, 2), (-4, -3), (2, 5), (0, -2)]
PAIR_Y2 = [(1, -3), (4, 2), (-2, 5), (3, 3), (-1, -4), (5, 0), (2, -2)]
# Huge but finite inputs. At 1e200 every residual overflows, so brute force
# and alta end in a numerical failure. At 1e308 even sums of a few entries
# overflow; the entries are still valid.
HUGE = {
    "1e200": {"y1.csv": matrix_file(PAIR_Y1, 200), "y2.csv": matrix_file(PAIR_Y2, 200)},
    "1e308": {"y1.csv": matrix_file([(1,), (-1.5,), (1.25,), (1.75,), (-0.5,), (1.5,),
                                     (0.75,)], 308),
              "y2.csv": matrix_file([(-0.5,), (1,), (1.75,), (1.25,), (0.75,), (-1.5,),
                                     (1.5,)], 308)},
}
# a fixed anisotropic covariance for p = 3; it is positive definite, so the
# noise draw factors it by Cholesky
INPUTS["bound-p3-cov"] = {"cov.csv": matrix_file([(9, 2, 0), (2, 4, 1), (0, 1, 1)], -2)}
INPUTS["gen-p3-cov"] = INPUTS["bound-p3-cov"]
# a nonzero rank-1 covariance for p = 2, [2, 1]^T [2, 1] written exactly: Cholesky
# meets an exact zero pivot, so the noise draw takes the eigendecomposition route
INPUTS["gen-rank1-cov"] = {"cov.csv": matrix_file([(4, 2), (2, 1)], 0)}
# [[1, 0], [0.1, 1]] times 1e200: asymmetric at any scale, so a usage error
INPUTS["usage-gen-asymmetric-1e200-cov"] = {"cov.csv": matrix_file([(1, 0), (0.1, 1)], 200)}
for _axis in ("snr", "n"):
    INPUTS[f"sweep-{_axis}-rank1-cov"] = INPUTS["gen-rank1-cov"]
    INPUTS[f"sweep-{_axis}-p3-cov"] = INPUTS["bound-p3-cov"]
# covariances near 1e-13: indefinite, asymmetric, and a valid diagonal one
TINY = {"indefinite": matrix_file([(1, 0), (0, -1)], -13),
        "asymmetric": matrix_file([(1, 0), (1, 1)], -13),
        "diagonal": matrix_file([(1, 0), (0, 2)], -13)}
for _name, _cov in TINY.items():
    COMMANDS[f"gen-tiny-{_name}-cov"] = [["gen", "--n", "8", "--sigma", "cov.csv",
                                          "--out", "inst"]]
    COMMANDS[f"bound-tiny-{_name}-cov"] = [["bound", "--n", "50", "--sigma", "cov.csv"]]
    INPUTS[f"gen-tiny-{_name}-cov"] = INPUTS[f"bound-tiny-{_name}-cov"] = {"cov.csv": _cov}
for _scale, _files in HUGE.items():
    for _est in ("brute", "alta"):
        COMMANDS[f"huge-{_scale}-{_est}"] = [[
            "estimate", "--y1", "y1.csv", "--y2", "y2.csv", "--estimator", _est]]
        INPUTS[f"huge-{_scale}-{_est}"] = _files
# the same pair at common scales whose squares underflow (1e-170, 1e-300) and at
# scale 1: an estimate that does not depend on a common scale writes one
# permutation for all three
for _exp in (-170, -300, 0):
    for _est in ("brute", "alta", "aloa"):
        COMMANDS[f"scaled-1e{_exp}-{_est}"] = [[
            "estimate", "--y1", "y1.csv", "--y2", "y2.csv", "--estimator", _est,
            "--out", "perm.txt"]]
        INPUTS[f"scaled-1e{_exp}-{_est}"] = {"y1.csv": matrix_file(PAIR_Y1, _exp),
                                               "y2.csv": matrix_file(PAIR_Y2, _exp)}
# a rank-1 y1 (its second column twice its first): alta's first fit is
# degenerate, so its objective is that fit's residual, and aloa refuses the
# design as rank deficient
RANK1 = {"y1.csv": matrix_file([(1, 2), (2, 4), (-1, -2), (3, 6), (0, 0), (-2, -4), (1, 2)], 0),
         "y2.csv": matrix_file([(3, 1), (-2, 4), (5, -1), (1, 2), (-4, -3), (2, 5), (0, -2)], 0)}
for _est in ("alta", "aloa"):
    COMMANDS[f"rank1-y1-{_est}"] = [[
        "estimate", "--y1", "y1.csv", "--y2", "y2.csv", "--estimator", _est]]
    INPUTS[f"rank1-y1-{_est}"] = RANK1
# y1 scaled alone (1pK names 2^K), a relative scale the frame keeps: a column
# proportional to y2 at 1e-200 (alta's first fit is degenerate, so c4 builds no
# cost from r_hat near 1e200), 2^1030 below y2 (subnormal in the frame; aloa
# fits by projection), and 2^40 below (x_hat is about 1e-12 of the stack, so
# alta's rank rule stops it)
COLUMN = [row[:1] for row in PAIR_Y2]
RELATIVE = {
    "c4-1e-200": ("alta:c4", matrix_file(COLUMN, -200), matrix_file(COLUMN, 0)),
    "aloa-1p-1030": ("aloa", power_of_two_file(PAIR_Y1, -1030), matrix_file(PAIR_Y2, 0)),
    "c3-1p-40": ("alta:c3", power_of_two_file(PAIR_Y1, -40), matrix_file(PAIR_Y2, 0)),
}
for _name, (_est, _y1, _y2) in RELATIVE.items():
    COMMANDS[f"relative-{_name}"] = [[
        "estimate", "--y1", "y1.csv", "--y2", "y2.csv", "--estimator", _est,
        "--out", "perm.txt"]]
    INPUTS[f"relative-{_name}"] = {"y1.csv": _y1, "y2.csv": _y2}
# a noiseless pair with every row of y1 twice, y2 = y1[pi] rotated by 90 degrees,
# all small integers: swapping two equal rows ties exactly, so an assignment
# has several optima and the estimate records which one the solver picks
TIED_ROWS = PAIR_Y1[:6] * 2
TIED_PI = [7, 2, 10, 0, 5, 11, 3, 8, 1, 6, 9, 4]
TIES = {"y1.csv": matrix_file(TIED_ROWS, 0),
        "y2.csv": matrix_file([(TIED_ROWS[i][1], -TIED_ROWS[i][0]) for i in TIED_PI], 0)}
for _est in ALL_ALTA.split(","):
    for _seed in ("1", "2"):
        _name = f"ties-{_est.replace(':', '-')}-seed{_seed}"
        COMMANDS[_name] = [[
            "estimate", "--y1", "y1.csv", "--y2", "y2.csv", "--estimator", _est,
            "--init", "random", "--seed", _seed, "--out", "perm.txt"]]
        INPUTS[_name] = TIES
for _i, _argv in enumerate(USAGE_ERRORS):
    _out = ["--out", "records.csv"] if _argv[0] == "sweep" else []
    COMMANDS[f"usage-{_i:02d}-{_argv[0]}"] = [_argv + _out]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if data.startswith(RECORDS_SCHEMA.encode()):
        lines = data.decode().splitlines()
        data = "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()
    return sha256(data)


def run_command(name: str, cwd: Path, env: dict) -> dict[str, str]:
    """Run command name's steps in env in the new directory cwd; return
    {artifact name: digest}."""
    cwd.mkdir()
    for fname, data in INPUTS.get(name, {}).items():
        (cwd / fname).write_bytes(data)
    for argv in COMMANDS[name]:
        proc = subprocess.run([sys.executable, "-m", "tlsperm.cli", *argv], cwd=cwd,
                              env=env, capture_output=True, timeout=600)
    out = {f"{name}.stdout": sha256(proc.stdout), f"{name}.stderr": sha256(proc.stderr),
           f"{name}.exit": sha256(str(proc.returncode).encode())}
    out.update((f"{name}/{path.relative_to(cwd)}", file_digest(path))
               for path in sorted(cwd.rglob("*")) if path.is_file())
    return out


def run_all(env: dict) -> dict[str, str]:
    """Run every command in env, each in its own directory under a fresh
    temporary one, on os.cpu_count() threads; return {artifact name: digest}."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="tlsperm-digests-") as tmp, \
            ThreadPoolExecutor(os.cpu_count()) as pool:
        for part in pool.map(lambda name: run_command(name, Path(tmp) / name, env), COMMANDS):
            out.update(part)
    return out


# the running versions, printed by the interpreter the commands run in
VERSIONS = """\
import platform, numpy, scipy
print(f"# python {platform.python_version()}")
print(f"# numpy {numpy.__version__}")
print(f"# scipy {scipy.__version__}")
for lib in (numpy, scipy):
    blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# {lib.__name__} blas {blas['name']} {blas.get('version', 'unknown')}")
"""


def header(env: dict) -> list[str]:
    """The manifest's version lines, for the interpreter and packages in env."""
    proc = subprocess.run([sys.executable, "-c", VERSIONS], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.splitlines()


def read_manifest(path: Path) -> tuple[list[str], dict[str, str]]:
    """(header lines, {name: digest}) of a manifest file."""
    lines = path.read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    digests = dict(line.split(" ") for line in lines if line and not line.startswith("#"))
    return head, digests


def check(path: Path, env: dict) -> int:
    """Print what differs between the manifest at path and a run; the exit code."""
    want_head, want = read_manifest(path)
    head = header(env)
    if head != want_head:
        print(f"unverifiable: {path} was written under other versions")
        for line in sorted(set(want_head) ^ set(head)):
            print(f"  {'manifest' if line in want_head else 'running '} {line[2:]}")
        return 2
    got = run_all(env)
    faults = [f"changed {name}" for name in sorted(want.keys() & got.keys())
              if want[name] != got[name]]
    faults += [f"missing {name}" for name in sorted(want.keys() - got.keys())]
    faults += [f"extra {name}" for name in sorted(got.keys() - want.keys())]
    for line in faults:
        print(line)
    print(f"{len(faults)} of {len(want.keys() | got.keys())} artifacts differ")
    return 1 if faults else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the tlsperm package")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", type=Path, metavar="FILE", help="write the manifest to FILE")
    mode.add_argument("--check", type=Path, metavar="FILE", help="compare against FILE")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "tlsperm" / "cli.py").is_file():
        parser.error(f"no tlsperm package under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", LC_ALL="C")
    if args.check:
        return check(args.check, env)
    digests = run_all(env)
    text = "\n".join(header(env) + [f"{name} {digests[name]}" for name in sorted(digests)])
    text += "\n"
    if args.write:
        args.write.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
