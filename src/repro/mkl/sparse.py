"""Sparse BLAS: CSR matrices, SpMV, and the RGG workload generator.

The paper accelerates ``mkl_scsrgemv`` and evaluates it on ``rgg`` (a
random geometric graph) from the UF Sparse Matrix Collection. The
collection isn't available offline, so :func:`random_geometric_graph`
generates the same structural class — uniform points in the unit square
connected within a radius — with cell-binned neighbour search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SparseError(Exception):
    """Raised on malformed CSR structures."""


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row matrix (0-based indices).

    Attributes:
        indptr: row pointers, length rows+1.
        indices: column index per stored value.
        data: stored values (float32).
        shape: (rows, cols).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def __post_init__(self) -> None:
        rows, _ = self.shape
        if len(self.indptr) != rows + 1:
            raise SparseError("indptr length must be rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise SparseError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise SparseError("indices and data length mismatch")
        if len(self.indices) and (self.indices.min() < 0
                                  or self.indices.max() >= self.shape[1]):
            raise SparseError("column index out of range")

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def avg_row_nnz(self) -> float:
        return self.nnz / self.rows if self.rows else 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        for r in range(self.rows):
            lo, hi = self.indptr[r], self.indptr[r + 1]
            out[r, self.indices[lo:hi]] = self.data[lo:hi]
        return out


def scsrgemv(a: CsrMatrix, x: np.ndarray, y: np.ndarray) -> None:
    """y := A x for CSR A (mkl_scsrgemv, 0-based variant).

    Implemented as gather + segmented reduction (``np.add.reduceat``),
    which mirrors how a real SpMV kernel streams ``data``/``indices``
    while gathering from ``x``.
    """
    rows, cols = a.shape
    if len(x) < cols or len(y) < rows:
        raise SparseError("vector operands too small")
    products = (a.data * x[a.indices]).astype(np.float64)
    # segmented sum via prefix sums: exact for empty rows, unlike reduceat
    prefix = np.zeros(a.nnz + 1, dtype=np.float64)
    np.cumsum(products, out=prefix[1:])
    y[:rows] = (prefix[a.indptr[1:]] - prefix[a.indptr[:-1]]).astype(
        y.dtype)


def random_geometric_graph(n: int, radius: float = None,
                           seed: int = 0) -> CsrMatrix:
    """Build the adjacency matrix of a random geometric graph in CSR form.

    Points are uniform in the unit square; an edge joins points closer
    than ``radius`` (default chosen to give the connectivity regime of
    the UF ``rgg`` matrices, ~15 neighbours per vertex). Neighbour
    search is cell-binned so generation is near-linear in ``n``: with
    the points sorted by cell, the candidates of each point are the runs
    of that order lying in its 3x3 block of cells.
    """
    rng = np.random.default_rng(seed)
    if radius is None:
        radius = np.sqrt(15.0 / (np.pi * n))
    pts = rng.random((n, 2))
    cells = np.floor(pts / radius).astype(np.int64)
    # one integer id per cell; the spare columns keep the dy = -1/+1
    # neighbours of the edge columns from aliasing into the next row
    width = int(cells[:, 1].max()) + 3 if n else 3
    cell_id = (cells[:, 0] + 1) * width + cells[:, 1] + 1
    order = np.argsort(cell_id)
    sorted_ids = cell_id[order]
    xs, ys = pts[:, 0], pts[:, 1]
    r2 = radius * radius
    edges = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            target = sorted_ids + (dx * width + dy)
            lo = np.searchsorted(sorted_ids, target, side="left")
            counts = np.searchsorted(sorted_ids, target, side="right") - lo
            i = np.repeat(order, counts)
            starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
            j = order[starts + np.arange(starts.size)]
            # the same float operations as the reference's
            # np.sum((pts[j] - pts[i]) ** 2, axis=1)
            ex = xs[j] - xs[i]
            ey = ys[j] - ys[i]
            hit = (ex * ex + ey * ey < r2) & (i != j)
            edges.append(i[hit] * n + j[hit])
    # each (row, col) pair occurs once, so sorting row * n + col orders
    # the rows and the columns within each row
    pairs = np.sort(np.concatenate(edges))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
    indices = pairs % n
    data = rng.random(len(indices)).astype(np.float32)
    return CsrMatrix(indptr=indptr, indices=indices, data=data,
                     shape=(n, n))


def spmv_flops(a: CsrMatrix) -> float:
    """2 flops per stored nonzero."""
    return 2.0 * a.nnz
