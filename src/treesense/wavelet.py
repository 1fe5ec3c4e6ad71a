"""Orthonormal 2-d Haar transform and direct wavelet sensing.

The detail coefficients form three quadtrees (one per orientation subband,
degree 4); direct sensing lays them out as one BFS-ordered array and runs
the same traversal engine as the dictionary-based procedure over it, with
the scaling coefficient and the coarsest details always measured.
"""

from __future__ import annotations

import numpy as np

from .sensing import _scatter, _traverse

__all__ = [
    "haar2",
    "ihaar2",
    "wavelet_sense",
    "wavelet_reconstruct",
]


def _check_side(side):
    if side < 1 or side & (side - 1):
        raise ValueError(f"side must be a power of two, got {side}")


def haar2(img):
    """Full orthonormal 2-d Haar analysis of a square power-of-two image."""
    img = np.asarray(img, dtype=float)
    side = img.shape[0]
    if img.shape != (side, side):
        raise ValueError("image must be square")
    _check_side(side)
    out = img.copy()
    s = side
    while s > 1:
        b = out[:s, :s]
        a00, a01 = b[0::2, 0::2].copy(), b[0::2, 1::2].copy()
        a10, a11 = b[1::2, 0::2].copy(), b[1::2, 1::2].copy()
        h = s // 2
        out[:h, :h] = (a00 + a01 + a10 + a11) / 2
        out[:h, h:s] = (a00 - a01 + a10 - a11) / 2
        out[h:s, :h] = (a00 + a01 - a10 - a11) / 2
        out[h:s, h:s] = (a00 - a01 - a10 + a11) / 2
        s = h
    return out


def ihaar2(coeffs):
    """Inverse of haar2, of a (side, side) array or of each of a (..., side, side) stack."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim < 2 or coeffs.shape[-1] != coeffs.shape[-2]:
        raise ValueError("coefficient array must be square")
    side = coeffs.shape[-1]
    _check_side(side)
    out = coeffs.copy()
    s = 1
    while s < side:
        t = 2 * s
        a = out[..., :s, :s].copy()
        h = out[..., :s, s:t].copy()
        v = out[..., s:t, :s].copy()
        d = out[..., s:t, s:t].copy()
        out[..., 0:t:2, 0:t:2] = (a + h + v + d) / 2
        out[..., 0:t:2, 1:t:2] = (a - h + v - d) / 2
        out[..., 1:t:2, 0:t:2] = (a + h - v - d) / 2
        out[..., 1:t:2, 1:t:2] = (a - h - v + d) / 2
        s = t
    return out


def _sensing_order(side):
    """Flat row-major index into the side x side Haar array of each position
    of the sensing layout: the scaling coefficient, then the details level
    by level, band-major (horizontal, vertical, diagonal) and in Morton order
    within a band.  The detail at (2i + di, 2j + dj) of a band is then child
    2*di + dj of the one at (i, j), and the children of position i >= 1 are
    positions 4i .. 4i + 3."""
    order = [np.zeros(1, dtype=np.int64)]
    s = 1
    while s < side:
        q = np.arange(s * s)
        i, j = np.zeros_like(q), np.zeros_like(q)
        for b in range(s.bit_length() - 1):
            i |= ((q >> (2 * b + 1)) & 1) << b
            j |= ((q >> (2 * b)) & 1) << b
        order += [i * side + s + j, (s + i) * side + j, (s + i) * side + s + j]
        s *= 2
    return np.concatenate(order)


def wavelet_sense(image, cfg, rng):
    """Direct wavelet sensing: threshold traversal over the Haar quadtrees.

    The scaling coefficient and the three coarsest details are always
    measured; descent into finer details is gated by the significance test.
    cfg is one SensingConfig, or a list of T, one per session; rng is one
    generator or a list of T.  With either list the image is sensed in T
    sessions, one transform and one traversal for all of them, session t
    under cfg[t] drawing from rng[t] what a one-session call on them draws
    (a list of each must hold as many).  Returns a SessionBatch of those
    sessions whose node ids are flat row-major indices into the coefficient
    array.
    """
    c = haar2(image)
    side = c.shape[0]
    order = _sensing_order(side)
    c = c.ravel()[order]
    trials = next((len(v) for v in (cfg, rng) if isinstance(v, (list, tuple))), 1)
    batch = _traverse(lambda t, i: c[i], side * side, 4, 0, np.arange(min(4, side * side)),
                      trials, cfg, rng)
    batch.node = order[batch.node]
    return batch


def wavelet_reconstruct(batch, side, beta):
    """Inverse transforms (T, side, side) of each session's significant
    measured coefficients / beta (one value, or one per session), as one
    stacked ihaar2; node ids must lie in 0..side² - 1."""
    return ihaar2(_scatter(batch, beta, side * side, 0).reshape(len(batch.m), side, side))
