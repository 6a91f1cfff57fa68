"""Numpy oracle for the band layout: crop a half spectrum to the band, pad it back.

Built from the layout's definition (``alphaflow.spectral``'s docstring),
not from ``Grid``'s own index tables, so tests can hold the package
against ``np.fft`` independently.
"""

import numpy as np


def band_rows(n):
    """Full-axis positions of the rows 0..c, -c..-1 of a non-last axis, c = n // 3."""
    c = n // 3
    return np.r_[0:c + 1, n - c:n]


def crop(grid, half):
    """The band of a half spectrum (any leading axes)."""
    out = half[..., : grid.n // 3 + 1]
    for ax in grid.spatial_axes[:-1]:
        out = np.take(out, band_rows(grid.n), axis=ax)
    return out


def pad(grid, hat):
    """The zero-padded half spectrum of a band (any leading axes)."""
    n = grid.n
    lead = hat.shape[: hat.ndim - grid.dim]
    half = np.zeros(lead + (n,) * (grid.dim - 1) + (n // 2 + 1,), dtype=complex)
    index = np.ix_(*([band_rows(n)] * (grid.dim - 1) + [np.arange(n // 3 + 1)]))
    half[(Ellipsis,) + index] = hat
    return half
