"""Energy-fair comparison reconstructions: Lasso on random projections,
model-based CoSaMP with tree projection, and PCA."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .sensing import _synthesize
from .tree import tree_project_batch

__all__ = [
    "gaussian_ensemble",
    "lasso_solve",
    "model_cosamp",
    "PcaModel",
    "pca_fit",
    "pca_reconstruct",
]

logger = logging.getLogger(__name__)


def gaussian_ensemble(m, n, budget, seed):
    """(m, n) Gaussian test matrix of total energy budget: m iid Gaussian rows,
    each rescaled to norm sqrt(budget/m)."""
    if m < 1 or not 0 < budget < math.inf:
        raise ValueError("need m >= 1 and budget > 0")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n))
    row_norms = np.linalg.norm(G, axis=1, keepdims=True)
    return G * (np.sqrt(budget / m) / row_norms)


def _stack(A, Y):
    """A (B, m, p) and Y (B, m, q) as finite float arrays, or a ValueError
    (naming y for Y where an entry is not finite)."""
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if A.ndim != 3 or Y.ndim != 3 or Y.shape[:2] != A.shape[:2]:
        raise ValueError(f"A {A.shape} and Y {Y.shape} do not match: need A (B, m, p) "
                         f"with Y (B, m, q)")
    for name, arr in (("A", A), ("y", Y)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    return A, Y


# Columns are solved in blocks of at most this many bytes per (B, q_b, p)
# float64 iterate, so that a block's dozen working arrays stay near a core's
# L2 (2 MB on the 2-vCPU host measured in BENCH_14.json).
_BLOCK_BYTES = 1 << 18


def lasso_solve(A, Y, lam, max_iters=500, tol=1e-10):
    """Monotone FISTA (MFISTA, Beck & Teboulle 2009) with backtracking, for a
    stack of independent Lasso problems.

    Minimizes 0.5||y - A alpha||^2 + lam*||alpha||_1 for each column y of
    Y[b] with the matrix A[b].  A is a (B, m, p) stack and Y is (B, m, q);
    one problem takes A[None] and Y[None].  lam is a positive scalar or one
    weight per (stack, column) pair, (B, q).  The result is (B, p, q).

    The iteration runs in coefficient space, on b = A^T y and K = A^T A: one
    K-apply per trial step, with K formed once when p <= 2m and applied as
    (D A^T) A otherwise.  Columns are solved in blocks of _BLOCK_BYTES per
    iterate.  Each (stack, column) pair has its own step size 1/L (starting
    at L = 1, doubled until the backtracking test holds) and its own
    stopping test, after which it is frozen and takes no part in the
    backtracking, so solving a stack equals solving its problems one at a
    time, up to rounding.  Zero rows appended to A and y change neither the objective
    nor the gradient.  One INFO log line counts the pairs stopped at
    max_iters and gives the median and largest relative duality gap of the
    returned pairs.

    A zero entry of the result is +0.0.  A, y and lam that are not finite
    raise a ValueError naming the argument.
    """
    A, Y = _stack(A, Y)
    B, m, p = A.shape
    q = Y.shape[2]
    lam = np.asarray(lam, dtype=float)
    if lam.shape not in ((), (B, q)):
        raise ValueError(f"lam must be a scalar or have shape {(B, q)}, got {lam.shape}")
    if not np.all((lam > 0) & (lam < np.inf)):
        raise ValueError("lam must be positive and finite")
    lam = np.broadcast_to(lam, (B, q))

    # coefficients are held as rows, (B, q, p), so every per-column reduction
    # runs over the last axis, and K (symmetric) applies to rows D as D K
    At = A.transpose(0, 2, 1)
    b = Y.transpose(0, 2, 1) @ A
    yy = (Y**2).sum(axis=1)
    if p <= 2 * m:
        K = At @ A
        apply_K = lambda D: D @ K   # noqa: E731
    else:
        apply_K = lambda D: (D @ At) @ A   # noqa: E731
    out = np.empty((B, q, p))
    gap = np.empty((B, q))
    capped = 0
    for cols in np.array_split(np.arange(q), max(1, -(-q * B * p * 8 // _BLOCK_BYTES))):
        (X, GX), running = _mfista(apply_K, b[:, cols], lam[:, cols], max_iters, tol)
        out[:, cols] = X
        gap[:, cols] = _relative_gap(X, GX, b[:, cols], yy[:, cols], lam[:, cols])
        capped += running.sum()
    # np.median imports numpy.ma on its first call (about 15 ms), so the
    # summary is worked out only when it is logged
    if q and logger.isEnabledFor(logging.INFO):
        logger.info("lasso_solve: %d of %d columns stopped at max_iters=%d; relative "
                    "duality gap median %.3g, max %.3g", capped, B * q, max_iters,
                    np.median(gap), gap.max())
    return out.transpose(0, 2, 1)


def _dot(U, V):
    """Row-wise dot products of two (..., p) arrays."""
    return (U[..., None, :] @ V[..., :, None])[..., 0, 0]


def _mfista(apply_K, b, lam, max_iters, tol):
    """MFISTA on f(x) + lam|x|_1, f(x) = ||y||^2/2 - x.b + x.Kx/2, for
    (B, q, p) coefficient rows b and (B, q) weights lam, where apply_K(D)
    is D K.  Each point travels with its gradient Kx - b as a pair
    (2, B, q, p): the momentum step is an affine combination, so the same
    combination of gradients is the new point's gradient, and none is
    recomputed.  The kept, trial and momentum pairs are buffers reused
    across iterations (a kept trial swaps with the old kept pair), and are
    reallocated only when columns are dropped.  Returns the kept pairs
    (X, KX - b) and which (stack, column) pairs were still running at
    max_iters."""
    B, q, p = b.shape
    out = np.empty((2, B, q, p))
    cols = np.arange(q)   # columns live in some stack; the arrays below hold only these
    live = np.ones((B, q), dtype=bool)
    XP = np.stack([np.zeros((B, q, p)), -b])
    ZP = XP.copy()
    WP, EP, (V, D) = (np.empty_like(XP) for _ in range(3))
    l1_X = max_X = np.zeros((B, q))   # |X|_1 and max|X| of the kept iterates
    L = np.ones((B, q))
    t_mom = 1.0
    stale = True   # L or the columns changed: re-form the arrays read off them
    for _ in range(max_iters):
        Z, GZ = ZP
        W, GW = WP
        while True:
            if stale:   # full-size operands: a broadcast one costs twice as much
                L_p, hi = (np.repeat(a[..., None], p, axis=2) for a in (L, lam / L))
                lo, lam2, stale = -hi, -2.0 * lam, False
            # W = V - clip(V, -lam/L, lam/L), V = Z - GZ/L: V soft-thresholded
            # at lam/L, with +0.0 where |V| <= lam/L
            np.divide(GZ, L_p, out=V)
            np.subtract(Z, V, out=V)
            np.maximum(V, lo, out=W)
            np.minimum(W, hi, out=W)
            np.subtract(V, W, out=W)
            np.subtract(W, Z, out=D)
            KD = apply_K(D)
            # f is quadratic, so f(W) <= f(Z) + GZ.D + L|D|^2/2 is D.KD <= L|D|^2
            ok = (_dot(D, KD) <= L * _dot(D, D)) | ~live
            if ok.all():
                break
            L, stale = np.where(ok, L, 2.0 * L), True
            if np.any(L > 1e18):
                raise RuntimeError("lasso step size underflow: problem badly scaled")
        np.add(GZ, KD, out=GW)
        # monotone: the kept iterate X never increases the objective, while
        # the momentum point Z tracks the accelerated step W; a frozen pair
        # keeps X and restarts Z from it.  f(W) - f(X) is read as
        # E.(GW + GX)/2, E = W - X, which does not cancel against ||y||^2/2;
        # the test E.(GW + GX) <= -2 lam (|W|_1 - |X|_1) decides as
        # E.(GW + GX)/2 + lam (|W|_1 - |X|_1) <= 0 does: scaling by 2 is
        # exact barring underflow, and a rounded sum has the exact sum's sign
        np.subtract(WP, XP, out=EP)
        E = EP[0]
        np.abs(W, out=V)
        l1_W, max_W = V.sum(axis=2), V.max(axis=2)
        better = (_dot(E, np.add(GW, XP[1], out=D)) <= lam2 * (l1_W - l1_X)) & live
        t_next = (1 + math.sqrt(1 + 4 * t_mom**2)) / 2
        # Z = X_new + (t/t_next)(W - X_new) + ((t-1)/t_next)(X_new - X) is
        # X_new + c (W - X): c = (t-1)/t_next where W is kept, t/t_next
        # where X is, and 0 for a frozen pair
        if better.all():   # every pair keeps its trial step: swap the buffers
            XP, WP = WP, XP
            l1_X, max_X, c = l1_W, max_W, (t_mom - 1) / t_next
        else:
            np.copyto(XP, WP, where=better[..., None])
            l1_X, max_X = np.where(better, l1_W, l1_X), np.where(better, max_W, max_X)
            c = np.where(better, (t_mom - 1) / t_next, np.where(live, t_mom / t_next, 0.0))
            c = c[..., None]
        np.add(np.multiply(EP, c, out=ZP), XP, out=ZP)
        t_mom = t_next
        live &= np.abs(E, out=V).max(axis=2) >= tol * (1.0 + max_X)
        run = live.any(axis=0)
        if not run.all():
            out[:, :, cols[~run]] = XP[:, :, ~run]
            cols, XP, ZP = cols[run], XP[:, :, run], ZP[:, :, run]
            live, lam, L, l1_X, max_X = (a[:, run] for a in (live, lam, L, l1_X, max_X))
            WP, EP, (V, D) = (np.empty_like(XP) for _ in range(3))
            stale = True
        if not len(cols):
            break
    out[:, :, cols] = XP
    running = np.zeros((B, q), dtype=bool)
    running[:, cols] = live
    return out, running


def _relative_gap(X, GX, b, yy, lam):
    """Duality gap over the primal objective of each (B, q) pair at X, from
    the dual point theta = r / max(1, |A^T r|_inf / lam), r = y - A x, with
    gradient GX = KX - b and yy = ||y||^2.  A^T r is -GX and |r|^2 is
    yy - x.b + x.GX, so no product is needed."""
    xb = _dot(X, b)
    rr = yy - xb + _dot(X, GX)
    primal = 0.5 * rr + lam * np.abs(X).sum(axis=2)
    s = lam / np.maximum(lam, np.abs(GX).max(axis=2))
    dual = s * (yy - xb) - 0.5 * s**2 * rr
    return np.divide(primal - dual, primal, out=np.zeros_like(primal), where=primal > 0)


# A least-squares problem is solved on its normal equations only when the
# Gram matrix there has 1-norm condition number at most this, so that
# squaring the condition number costs at most half of float64's 16 digits;
# any other problem goes to lstsq.
_GRAM_COND_MAX = 1e8


def _least_squares(As, ys):
    """Least-squares coefficients (G, s) of G problems of one shape, As
    (G, n, s) and ys (G, n): minimum-norm where s > n, as lstsq gives them.

    One batched np.linalg.solve serves the group: (A^T A) b = A^T y when
    s <= n, and b = A^T (A A^T)^-1 y when s > n.  It solves for the
    Gram matrix's inverse beside the right-hand side, and a problem whose
    Gram matrix has 1-norm condition number above _GRAM_COND_MAX, or whose
    coefficients are not finite, is solved by lstsq instead.  A singular
    Gram matrix makes the batched solve raise, and then each problem is
    solved on its own.  Every step works on each problem's own (n, s)
    arrays, so a problem's coefficients do not depend on its group."""
    G, n, s = As.shape
    At = As.transpose(0, 2, 1)
    wide = s > n
    gram = As @ At if wide else At @ As
    rhs = ys[:, :, None] if wide else At @ ys[:, :, None]
    eye = np.broadcast_to(np.eye(gram.shape[1]), gram.shape)
    try:
        sol = np.linalg.solve(gram, np.concatenate([rhs, eye], axis=2))
    except np.linalg.LinAlgError:
        if G == 1:
            return np.linalg.lstsq(As[0], ys[0], rcond=None)[0][None]
        return np.concatenate([_least_squares(As[i:i + 1], ys[i:i + 1]) for i in range(G)])
    b = (At @ sol[:, :, :1])[:, :, 0] if wide else sol[:, :, 0]
    # the Gram matrix is symmetric: its 1-norm is its largest row sum
    cond = np.abs(gram).sum(axis=2).max(axis=1) * np.abs(sol[:, :, 1:]).sum(axis=2).max(axis=1)
    for i in np.flatnonzero(~(cond <= _GRAM_COND_MAX) | ~np.isfinite(b).all(axis=1)):
        b[i] = np.linalg.lstsq(As[i], ys[i], rcond=None)[0]
    return b


def model_cosamp(A, Y, k, tree, iters=20, tol=1e-6):
    """CoSaMP with the best-k-term steps replaced by tree projection, for a
    stack of independent problems.

    Both the proxy-support enlargement (size 2k) and the final pruning
    (size k) project onto rooted-connected supports, so every returned
    vector is tree-sparse.  A and Y follow lasso_solve: a (B, m, p) stack
    with (B, m, q) right-hand sides; the result is (B, p, q).

    Each (stack, column) problem stops on its own, once its residual norm
    falls below tol * ||y|| or stalls, or after iters rounds (at once if
    y = 0); a stopped problem is frozen and left out of later projections,
    and one INFO log line counts the problems per stop reason.  A or Y that
    is not finite raises a ValueError naming it (y for Y).  A round's
    proxies and residuals are one product over the stack, and its
    projections one batch over the running problems.  Its least squares
    run on each problem's own rows, up to the last one where A or y is
    nonzero: the running problems are grouped by that row count and by the
    size of their merged support, and each group is one _least_squares
    call (normal equations, with lstsq for an ill-conditioned problem).
    Padded rows add only zero terms, so a zero-padded stack returns what
    its unpadded problems would, bit for bit.
    """
    A, Y = _stack(A, Y)
    B, M, p = A.shape
    if k > p:
        raise ValueError("k must be <= p")

    used = (A != 0).any(axis=2)[:, :, None] | (Y != 0)
    rows = (used * np.arange(1, M + 1)[:, None]).max(axis=1, initial=0)
    Yt = Y.transpose(0, 2, 1)
    ynorm = np.linalg.norm(Yt, axis=2)
    x, r, prev = np.zeros((B, Y.shape[2], p)), Yt, np.inf
    # stop reason per (stack, column) problem: 0 still running (at the end:
    # hit iters), 1 residual below tol * ||y||, 2 stalled residual, 3 y = 0
    reason = np.where(ynorm == 0, 3, 0)
    for _ in range(iters):
        live = np.nonzero(reason == 0)
        if not len(live[0]):
            break
        merged = tree_project_batch((r @ A)[live], tree, min(2 * k, p))[1] | (x[live] != 0)
        size = merged.sum(axis=1)
        keys, group = np.unique(rows[live] * (p + 1) + size, return_inverse=True)
        b = np.zeros((len(size), p))
        for g, key in enumerate(keys.tolist()):
            n, s = divmod(key, p + 1)
            if not s:   # an empty merged support keeps b = 0
                continue
            members = np.flatnonzero(group == g)
            cols = np.nonzero(merged[members])[1].reshape(len(members), s)
            stack, col = live[0][members], live[1][members]
            As = np.take_along_axis(A[stack, :n], cols[:, None, :], axis=2)
            b[members[:, None], cols] = _least_squares(As, Yt[stack, col, :n])
        x[live] = tree_project_batch(b, tree, k)[0]
        r = Yt - x @ A.transpose(0, 2, 1)
        rnorm = np.linalg.norm(r, axis=2)
        stop = np.where(rnorm < tol * ynorm, 1, np.where(rnorm >= prev * (1 - 1e-9), 2, 0))
        reason, prev = np.where(reason == 0, stop, reason), rnorm
    counts = np.bincount(reason.ravel(), minlength=4)
    logger.info("model_cosamp: of %d problems, %d met tol, %d stalled, %d stopped "
                "at iters=%d, %d had y = 0", reason.size, counts[1], counts[2],
                counts[0], iters, counts[3])
    return x.transpose(0, 2, 1)


@dataclass(frozen=True)
class PcaModel:
    """Principal directions (orthonormal) up to the numerical rank, and the training mean."""

    components: np.ndarray
    mean: np.ndarray


def pca_fit(training):
    """Principal directions of the centered training matrix: those whose
    singular value exceeds 1e-12 times the largest (or 1e-300)."""
    U, s = np.linalg.svd(training.data, full_matrices=False)[:2]
    rank = np.count_nonzero(s > 1e-12 * max(s[0], 1e-300))
    return PcaModel(components=U[:, :rank].copy(), mean=training.mean.copy())


def pca_reconstruct(model, x, budget, noise):
    """Reconstructions (T, n) of x from its projections onto the first
    r = noise.shape[1] principal directions, one per row of the (T, r) noise.

    Each projection is scaled by sqrt(budget/r) and row t adds noise[t] to
    them; the reconstruction divides the observations back by the scale and
    adds the mean.  budget must be positive and finite, and r at most the
    model's component count.
    """
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")
    noise = np.asarray(noise, dtype=float)
    rank = model.components.shape[1]
    if noise.ndim != 2 or not 1 <= noise.shape[1] <= rank:
        raise ValueError(f"noise of shape {noise.shape} does not fit a model of "
                         f"{rank} components: need (T, r) with r in 1..{rank}")
    r = noise.shape[1]
    U, scale = model.components[:, :r], np.sqrt(budget / r)
    y = scale * (U.T @ (np.asarray(x, dtype=float) - model.mean)) + noise
    return model.mean + _synthesize(U, y / scale)
