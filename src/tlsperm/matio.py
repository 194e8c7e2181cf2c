"""File formats for matrices and permutations.

Matrix CSV: first line ``rows,cols``, then one data row per line. Floats are
written with repr-level precision so a write/read round trip is exact.
Permutation files: one index per line.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ContractViolation
from .linalg import as_matrix
from .model import as_permutation


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def write_matrix(path, a) -> None:
    arr = as_matrix(a, "matrix")
    lines = [f"{arr.shape[0]},{arr.shape[1]}"]
    for row in arr:
        lines.append(",".join(format_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    try:
        lines = Path(path).read_text().strip().splitlines()
    except ValueError as exc:  # bytes that do not decode as text
        raise ContractViolation(f"{path}: not a text matrix file") from exc
    if not lines:
        raise ContractViolation(f"{path}: empty matrix file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ContractViolation(f"{path}: first line must be 'rows,cols'")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ContractViolation(f"{path}: bad header {lines[0]!r}") from exc
    if len(lines) - 1 != rows:
        raise ContractViolation(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    data = []
    for line in lines[1:]:
        toks = line.split(",")
        if len(toks) != cols:
            raise ContractViolation(f"{path}: row with {len(toks)} entries, expected {cols}")
        try:
            data.append([float(t) for t in toks])
        except ValueError as exc:
            raise ContractViolation(f"{path}: {exc}") from exc
    return as_matrix(np.array(data), f"{path} contents")


def write_permutation(path, perm) -> None:
    p = as_permutation(perm)
    Path(path).write_text("\n".join(str(int(i)) for i in p) + "\n")


def read_permutation(path) -> np.ndarray:
    try:
        lines = Path(path).read_text().split()
    except ValueError as exc:  # bytes that do not decode as text
        raise ContractViolation(f"{path}: not a text permutation file") from exc
    try:
        vals = np.array([int(t) for t in lines], dtype=np.intp)
    except ValueError as exc:
        raise ContractViolation(f"{path}: permutation entries must be integers") from exc
    return as_permutation(vals)
