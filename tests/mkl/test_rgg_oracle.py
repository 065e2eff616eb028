"""The vectorized random geometric graph against the per-row loop.

``reference_rgg`` is the cell-dictionary, one-row-at-a-time generator
the library used before its pair search was vectorized. Both consume
the generator in the same order and compute every squared distance
with the same float operations, so the CSR arrays must be equal in
value and dtype, not merely close.
"""

import numpy as np
import pytest

from repro.mkl.sparse import random_geometric_graph


def reference_rgg(n, radius=None, seed=0):
    """(indptr, indices, data) from the per-row cell-binned loop."""
    rng = np.random.default_rng(seed)
    if radius is None:
        radius = np.sqrt(15.0 / (np.pi * n))
    pts = rng.random((n, 2))
    grid = {}
    cells = np.floor(pts / radius).astype(np.int64)
    for i, (cx, cy) in enumerate(cells):
        grid.setdefault((cx, cy), []).append(i)
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols_per_row = []
    r2 = radius * radius
    for i in range(n):
        cx, cy = cells[i]
        neigh = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neigh.extend(grid.get((cx + dx, cy + dy), ()))
        cand = np.array([j for j in neigh if j != i], dtype=np.int64)
        if len(cand):
            d2 = np.sum((pts[cand] - pts[i]) ** 2, axis=1)
            hit = np.sort(cand[d2 < r2])
        else:
            hit = cand
        cols_per_row.append(hit)
        indptr[i + 1] = indptr[i] + len(hit)
    indices = (np.concatenate(cols_per_row) if n
               else np.zeros(0, dtype=np.int64))
    data = rng.random(len(indices)).astype(np.float32)
    return indptr, indices, data


def assert_same_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n,seed", [(16384, 11), (5000, 3), (1000, 0),
                                    (37, 5), (1, 0)])
def test_matches_per_row_loop(n, seed):
    g = random_geometric_graph(n, seed=seed)
    assert g.shape == (n, n)
    assert_same_arrays((g.indptr, g.indices, g.data),
                       reference_rgg(n, seed=seed))


@pytest.mark.parametrize("radius", [0.05, 0.3, 1.5])
def test_matches_per_row_loop_at_explicit_radius(radius):
    g = random_geometric_graph(300, radius=radius, seed=9)
    assert_same_arrays((g.indptr, g.indices, g.data),
                       reference_rgg(300, radius=radius, seed=9))


def test_empty_graph():
    g = random_geometric_graph(0, radius=0.1, seed=2)
    assert_same_arrays((g.indptr, g.indices, g.data),
                       reference_rgg(0, radius=0.1, seed=2))
    assert g.nnz == 0
    with pytest.raises(ZeroDivisionError):
        reference_rgg(0)
    with pytest.raises(ZeroDivisionError):
        random_geometric_graph(0)
