"""Datasets for the stability experiments: synthetic generator and CSV.

A Dataset is a labeled sample matrix plus, when the generating process
is known, a sampler that can draw fresh records.  Neighboring datasets
(the objects uniform stability quantifies over) come from make_neighbor,
which either resamples one record from the process or flips its label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .optimizers import SectorBounds

__all__ = [
    "Dataset",
    "synthetic_dataset",
    "ingest_csv",
    "subset_rows",
    "subsample",
    "neighbor_record",
    "make_neighbor",
    "effective_sector",
]

Sampler = Callable[[np.random.Generator], tuple[np.ndarray, float]]


@dataclass
class Dataset:
    """Feature matrix x (n x d), labels y in {-1, +1}, optional sampler."""

    x: np.ndarray
    y: np.ndarray
    name: str = "dataset"
    sampler: Sampler | None = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("label count does not match sample count")
        labels = set(np.unique(self.y))
        if not labels <= {-1.0, 1.0}:
            raise ValueError(f"labels must be +/-1, got {sorted(labels)}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def draw_record(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Fresh record from the process, or a bootstrap row for data
        whose generator is unknown."""
        if self.sampler is not None:
            return self.sampler(rng)
        i = int(rng.integers(0, self.n))
        return self.x[i].copy(), float(self.y[i])


def synthetic_dataset(n: int, dim: int, separation: float = 1.0, seed: int = 0) -> Dataset:
    """Two-cluster Gaussian data with labels +/-1.

    Labels are fair coin flips; features are standard normal with the
    first coordinate shifted by separation * label.  The returned
    dataset carries a sampler drawing further records from the same
    process, one record per call, in the same label-then-features order.
    """
    if n < 1 or dim < 1:
        raise ValueError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
    if not np.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = rng.normal(size=(n, dim))
    x[:, 0] += separation * y

    def draw(r: np.random.Generator) -> tuple[np.ndarray, float]:
        label = 1.0 if r.random() < 0.5 else -1.0
        row = r.normal(size=dim)
        row[0] += separation * label
        return row, label

    return Dataset(x=x, y=y, name="synthetic", sampler=draw)


def ingest_csv(path: str | Path) -> Dataset:
    """Load a labeled CSV: header row, numeric cells, label last.

    Labels may be {0, 1} or {-1, +1} and are mapped to +/-1.  Features
    are standardized column-wise to mean 0 and unit variance;
    zero-variance columns become all zeros.

    Raises:
        OSError: a path that cannot be read (missing file, a directory).
        ValueError: non-numeric cells, bad labels, or single-class data.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: need a header row with >= 2 columns")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    x, y = table[:, :-1], table[:, -1]
    labels = set(np.unique(y))
    if labels <= {0.0, 1.0}:
        y = np.where(y > 0.5, 1.0, -1.0)
    elif not labels <= {-1.0, 1.0}:
        raise ValueError(f"{path}: labels must be 0/1 or -1/+1, got {sorted(labels)}")
    if np.unique(y).size < 2:
        raise ValueError(f"{path}: need both classes present")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    scale = np.where(std > 0.0, std, 1.0)
    x = (x - mean) / scale
    x[:, std == 0.0] = 0.0
    return Dataset(x=x, y=y, name=path.stem)


def subset_rows(data: Dataset, n: int, rng: np.random.Generator) -> np.ndarray:
    """Row ids of a uniform subset of n records, drawn without replacement."""
    if not (1 <= n <= data.n):
        raise ValueError(f"subset size must lie in [1, {data.n}], got {n}")
    return rng.choice(data.n, n, replace=False)


def subsample(data: Dataset, n: int, rng: np.random.Generator) -> Dataset:
    """Uniform subset of n records without replacement."""
    sel = subset_rows(data, n, rng)
    return Dataset(
        x=data.x[sel], y=data.y[sel], name=f"{data.name}[n={n}]", sampler=data.sampler
    )


def neighbor_record(
    data: Dataset, j: int, mode: str, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """The record that replaces record j in a neighbor of data.

    mode "resample" draws a fresh record (process sampler when
    available, bootstrap row otherwise); mode "flip" keeps the features
    and negates the label.
    """
    if not (0 <= j < data.n):
        raise ValueError(f"record index must lie in [0, {data.n}), got {j}")
    if mode == "resample":
        return data.draw_record(rng)
    if mode == "flip":
        return data.x[j].copy(), float(-data.y[j])
    raise ValueError(f"unknown neighbor mode {mode!r}")


def make_neighbor(
    data: Dataset, j: int, mode: str, rng: np.random.Generator
) -> Dataset:
    """Dataset differing from data in record j only (see neighbor_record)."""
    row, label = neighbor_record(data, j, mode, rng)
    x = data.x.copy()
    y = data.y.copy()
    x[j] = row
    y[j] = label
    return Dataset(x=x, y=y, name=f"{data.name}~{j}", sampler=data.sampler)


def effective_sector(data: Dataset, lam: float) -> SectorBounds:
    """Curvature sector of the regularized logistic objective on data.

    The per-sample Hessian is s(1-s) x x^T + lam I with s(1-s) <= 1/4,
    so the spectrum lives in [lam, lam + max_i ||x_i||^2 / 4].  The
    returned sector also carries a gradient-norm figure G: the max of
    per-sample gradient norms over a probe grid of weight vectors drawn
    with seed 0: the origin plus 8 random unit vectors.  That is an
    estimate for bound tables, not a certificate.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"regularization lambda_reg must be positive and finite, got {lam}")
    beta = lam + 0.25 * float(np.sum(data.x**2, axis=1).max())
    raw = np.random.default_rng(0).normal(size=(8, data.dim))
    ws = np.zeros((9, data.dim))
    ws[1:] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    worst = 0.0
    for w in ws:
        margins = data.y * (data.x @ w)
        s = 1.0 / (1.0 + np.exp(np.clip(margins, -500.0, 500.0)))
        grads = -(data.y * s)[:, None] * data.x + lam * w
        worst = max(worst, float(np.sqrt((grads**2).sum(axis=1)).max()))
    return SectorBounds(gamma=lam, beta=beta, grad_bound=worst)
