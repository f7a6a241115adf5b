"""File formats for the benchmark CLI.

Dense matrices: UTF-8 CSV with a ``n=<count>`` header row, then n rows of n
comma-separated decimals.  Sparse triplets: a ``triplet n=<n> buckets=<m>``
header, then ``bucket,element,score`` lines.  Set systems: a JSON object
with ``n``, ``universe``, ``weights``, ``sets`` and optional ``clusters`` /
``probs`` (whose presence selects the clustered / probabilistic class).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core import InputError
from ..functions import (
    ClusteredSetCoverData,
    ProbabilisticSetCoverData,
    SetCoverData,
)


def load_dense_matrix(path) -> np.ndarray:
    """Read and validate an n-by-n dense CSV matrix."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines = [ln.strip() for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise InputError(f"{path}: expected a 'n=<count>' header row")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise InputError(f"{path}: bad header {lines[0]!r}") from None
    if len(lines) - 1 != n:
        raise InputError(f"{path}: header says {n} rows, file has {len(lines) - 1}")
    out = np.empty((n, n))
    for i, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != n:
            raise InputError(f"{path}: row {i} has {len(cells)} cells, expected {n}")
        try:
            row = np.asarray([float(c) for c in cells])
        except ValueError:
            raise InputError(f"{path}: non-numeric cell in row {i}") from None
        if not np.all(np.isfinite(row)):
            raise InputError(f"{path}: non-finite value in row {i}")
        out[i] = row
    return out


def save_dense_matrix(path, matrix: np.ndarray) -> None:
    """Write a matrix in the dense CSV format (17 significant digits)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("dense format stores square matrices only")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={m.shape[0]}\n")
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_sparse_triplets(path):
    """Read ``bucket,element,score`` triplets; returns (n, buckets, triplets)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines = [ln.strip() for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("triplet"):
        raise InputError(f"{path}: expected a 'triplet n=<n> buckets=<m>' header")
    header = dict(
        part.split("=", 1) for part in lines[0].split()[1:] if "=" in part
    )
    try:
        n = int(header["n"])
        buckets = int(header["buckets"])
    except (KeyError, ValueError):
        raise InputError(f"{path}: bad triplet header {lines[0]!r}") from None
    triplets = []
    for i, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != 3:
            raise InputError(f"{path}: triplet line {i} needs 3 cells")
        try:
            b, e, v = int(cells[0]), int(cells[1]), float(cells[2])
        except ValueError:
            raise InputError(f"{path}: bad triplet on line {i}") from None
        if not 0 <= b < buckets or not 0 <= e < n or not np.isfinite(v):
            raise InputError(f"{path}: triplet out of range on line {i}")
        triplets.append((b, e, v))
    return n, buckets, triplets


def save_sparse_triplets(path, n: int, buckets: int, triplets) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"triplet n={n} buckets={buckets}\n")
        for b, e, v in triplets:
            fh.write(f"{int(b)},{int(e)},{repr(float(v))}\n")


def _count(path, payload: dict, key: str) -> int:
    try:
        return int(payload[key])
    except (TypeError, ValueError):
        raise InputError(f"{path}: {key!r} must be an integer, got {payload[key]!r}") from None


def _floats(path, payload: dict, key: str):
    """``payload[key]`` as a float array, None when the key is absent."""
    if payload.get(key) is None:
        return None
    try:
        return np.asarray(payload[key], dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{path}: {key!r} must hold numbers only") from None


def load_set_system(path):
    """Read a JSON set system; returns the matching coverage data object.

    A ``probs`` key selects the probabilistic class, ``clusters`` the
    clustered class, otherwise plain set cover.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: set system must be a JSON object")
    if "probs" in payload:
        weights = _floats(path, payload, "weights")
        return ProbabilisticSetCoverData(_floats(path, payload, "probs"), weights)
    for key in ("n", "universe", "sets"):
        if key not in payload:
            raise InputError(f"{path}: set system is missing {key!r}")
    n = _count(path, payload, "n")
    sets = payload["sets"]
    if not isinstance(sets, list):
        raise InputError(f"{path}: 'sets' must be a list, got {type(sets).__name__}")
    if len(sets) != n:
        raise InputError(f"{path}: 'n' is {n} but {len(sets)} sets are listed")
    universe = _count(path, payload, "universe")
    weights = _floats(path, payload, "weights")
    if "clusters" in payload:
        return ClusteredSetCoverData(
            sets=sets, universe=universe, clusters=payload["clusters"], weights=weights
        )
    return SetCoverData(sets=sets, universe=universe, weights=weights)


def save_set_system(path, data) -> None:
    payload: dict = {}
    if isinstance(data, ProbabilisticSetCoverData):
        payload = {
            "n": data.n,
            "universe": data.universe,
            "weights": data.weights.tolist(),
            "sets": [[] for _ in range(data.n)],
            "probs": data.probs.tolist(),
        }
    elif isinstance(data, ClusteredSetCoverData):
        payload = {
            "n": data.n,
            "universe": data.base.universe,
            "weights": data.weights.tolist(),
            "sets": [data.base.item_slice(j).tolist() for j in range(data.n)],
            "clusters": [list(map(int, c)) for c in data.clusters],
        }
    elif isinstance(data, SetCoverData):
        payload = {
            "n": data.n,
            "universe": data.universe,
            "weights": data.weights.tolist(),
            "sets": [data.item_slice(j).tolist() for j in range(data.n)],
        }
    else:
        raise InputError(f"cannot serialize {type(data).__name__} as a set system")
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
