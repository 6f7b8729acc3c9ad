"""Hot numeric kernels, vectorized in NumPy.

``BACKEND`` names the implementation; it stays because run headers report
it next to the numpy version, so timings from different builds do not get
compared as if they ran the same code.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "segment_sqnorms", "fwht"]

BACKEND = "numpy"


def segment_sqnorms(g: np.ndarray, k: int, columns: bool = False) -> np.ndarray:
    """Sums of squares of ``g`` over the subsets of its last axis.

    The subsets are consecutive blocks of ``k`` coordinates (the last block
    may be shorter) or, with ``columns``, the columns of the last axis viewed
    row-major as a matrix with ``k`` rows. Leading axes (one per replica)
    are kept, so a ``(..., d)`` input gives ``(..., c)``.
    """
    sq = g * g
    if k == 1:  # singleton subsets; a reduction over length-1 axes is slow
        return sq
    lead, d = sq.shape[:-1], sq.shape[-1]
    if columns:
        return sq.reshape(lead + (k, -1)).sum(axis=-2)
    full = d - d % k
    out = sq[..., :full].reshape(lead + (-1, k)).sum(axis=-1)
    if full < d:
        out = np.concatenate([out, sq[..., full:].sum(axis=-1, keepdims=True)],
                             axis=-1)
    return out


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0 (length must be 2**p).

    Each butterfly stage views the array as (blocks, 2, h, ...) and combines
    the two halves of every block; the input is not modified.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    h = 1
    while h < n:
        v = a.reshape(n // (2 * h), 2, h, *a.shape[1:])
        x, y = v[:, 0], v[:, 1]
        s = x + y
        np.subtract(x, y, out=y)
        x[...] = s
        h *= 2
    return a
