"""Energy-fair comparison reconstructions: Lasso on random projections,
model-based CoSaMP with tree projection, and PCA."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

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
    if m < 1 or budget <= 0:
        raise ValueError("need m >= 1 and budget > 0")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n))
    row_norms = np.linalg.norm(G, axis=1, keepdims=True)
    return G * (np.sqrt(budget / m) / row_norms)


def _as_stack(A, y):
    """(A, Y, stacked, single): A as a (B, m, p) stack and y as (B, m, q),
    from one (m, p) matrix with y (m,) or (m, q), or from a stack."""
    A = np.asarray(A, dtype=float)
    Y = np.asarray(y, dtype=float)
    shapes = f"A {A.shape} and y {Y.shape}"
    stacked, single = A.ndim == 3, Y.ndim == 1
    if A.ndim == 2 and Y.ndim in (1, 2):
        A, Y = A[None], Y.reshape(1, len(Y), -1)
    if A.ndim != 3 or Y.ndim != 3 or Y.shape[:2] != A.shape[:2]:
        raise ValueError(f"{shapes} do not match: need A (m, p) with y (m,) or "
                         f"(m, q), or A (B, m, p) with y (B, m, q)")
    return A, Y, stacked, single


def _from_stack(out, stacked, single):
    """A (B, p, q) result in the shape of the input y."""
    if stacked:
        return out
    return out[0, :, 0] if single else out[0]


def lasso_solve(A, y, lam, max_iters=500, tol=1e-10):
    """Monotone FISTA (MFISTA, Beck & Teboulle 2009) with backtracking, for a
    stack of independent Lasso problems.

    Minimizes 0.5||y - A alpha||^2 + lam*||alpha||_1.  A is one (m, p)
    matrix, with y a vector or an (m, q) matrix of right-hand sides sharing
    it, or a stack (B, m, p) with y of shape (B, m, q).  lam is a scalar, one
    positive weight per column (q,) or, for a stack, one per (stack, column)
    pair (B, q).  The result is (p,), (p, q) or (B, p, q) to match y.

    Each (stack, column) pair has its own step size 1/L (starting at L = 1,
    doubled until the backtracking test holds) and its own stopping test,
    after which it is frozen and takes no part in the backtracking, so a
    stacked solve equals its one-problem solves up to rounding.  Zero rows
    appended to A and y change neither the objective nor the gradient.
    """
    A, Y, stacked, single = _as_stack(A, y)
    B, m, p = A.shape
    q = Y.shape[2]
    lam = np.asarray(lam, dtype=float)
    lam_shapes = [(), (q,)] + [(B, q)] * stacked
    if lam.shape not in lam_shapes:
        raise ValueError(f"lam must have a shape in {lam_shapes}, got {lam.shape}")
    if not np.all(lam > 0):
        raise ValueError("lam must be positive")
    lam = np.broadcast_to(lam, (B, q))

    # iterates are held column-contiguous, (B, q, p), and residuals (B, q, m),
    # so every per-column reduction runs over the last axis
    At = A.transpose(0, 2, 1)
    Y = Y.transpose(0, 2, 1)
    out = np.zeros((B, q, p))
    cols = np.arange(q)   # columns live in some stack; the arrays below hold only these
    live = np.ones((B, q), dtype=bool)
    X = np.zeros((B, q, p))
    Z = X.copy()
    best_obj = 0.5 * (Y**2).sum(axis=2)   # objective at X = 0
    L = np.ones((B, q))
    t_mom = 1.0
    for _ in range(max_iters):
        R = Z @ At - Y
        G = R @ A
        fz = 0.5 * (R**2).sum(axis=2)
        while True:
            W = Z - G / L[..., None]
            W = np.sign(W) * np.maximum(np.abs(W) - (lam / L)[..., None], 0.0)
            diff = W - Z
            quad = fz + (G * diff).sum(axis=2) + 0.5 * L * (diff**2).sum(axis=2)
            fw = 0.5 * ((Y - W @ At) ** 2).sum(axis=2)
            ok = (fw <= quad + 1e-12 * np.abs(quad)) | ~live
            if ok.all():
                break
            L = np.where(ok, L, 2.0 * L)
            if np.any(L > 1e18):
                raise RuntimeError("lasso step size underflow: problem badly scaled")
        # monotone: the kept iterate X never increases the objective, while
        # the momentum point Z tracks the accelerated step W; a frozen pair
        # keeps X and restarts Z from it
        cand_obj = fw + lam * np.abs(W).sum(axis=2)
        better = (cand_obj <= best_obj) & live
        X_new = np.where(better[..., None], W, X)
        best_obj = np.where(better, cand_obj, best_obj)
        t_next = (1 + np.sqrt(1 + 4 * t_mom**2)) / 2
        Z = X_new + (t_mom / t_next) * (W - X_new) + ((t_mom - 1) / t_next) * (X_new - X)
        if not live.all():
            Z = np.where(live[..., None], Z, X_new)
        step = np.abs(W - X).max(axis=2)
        X, t_mom = X_new, t_next
        live &= step >= tol * (1.0 + np.abs(X).max(axis=2))
        run = live.any(axis=0)
        if not run.all():
            out[:, cols[~run]] = X[:, ~run]
            cols, live, X, Z, Y = cols[run], live[:, run], X[:, run], Z[:, run], Y[:, run]
            best_obj, lam, L = best_obj[:, run], lam[:, run], L[:, run]
        if not len(cols):
            break
    out[:, cols] = X
    logger.info("lasso_solve: %d of %d columns stopped at max_iters=%d",
                live.sum(), B * q, max_iters)
    return _from_stack(out.transpose(0, 2, 1), stacked, single)


def model_cosamp(A, y, k, tree, iters=20, tol=1e-6):
    """CoSaMP with the best-k-term steps replaced by tree projection, for a
    stack of independent problems.

    Both the proxy-support enlargement (size 2k) and the final pruning
    (size k) project onto rooted-connected supports, so every returned
    vector is tree-sparse.  A and y follow lasso_solve: one (m, p) matrix
    with y (m,) or (m, q), or a stack (B, m, p) with y (B, m, q); the result
    is (p,), (p, q) or (B, p, q) to match y.

    Each (stack, column) problem stops on its own, once its residual norm
    falls below tol * ||y|| or stalls, or after iters rounds (at once if
    y = 0); a stopped problem is frozen and left out of later projections,
    and one INFO log line counts the problems per stop reason.  The
    projections of one round run as one batch over the running problems.  A problem's products and least-squares solves use only its
    rows up to the last one where A or y is nonzero, so a zero-padded stack
    returns what its unpadded problems would, bit for bit.
    """
    A, Y, stacked, single = _as_stack(A, y)
    B, M, p = A.shape
    q = Y.shape[2]
    if k > p:
        raise ValueError("k must be <= p")

    used = (A != 0).any(axis=2)[:, :, None] | (Y != 0)
    rows = np.where(used.any(axis=1), M - used[:, ::-1].argmax(axis=1), 0)
    probs = [(b, c) for b in range(B) for c in range(q)]
    As = [A[b, :rows[b, c]] for b, c in probs]
    ys = [np.ascontiguousarray(Y[b, :rows[b, c], c]) for b, c in probs]
    ynorm = np.array([np.linalg.norm(v) for v in ys])
    x = np.zeros((len(probs), p))
    r = [v.copy() for v in ys]
    prev = np.full(len(probs), np.inf)
    # stop reason per problem: 0 still running (at the end: hit iters),
    # 1 residual below tol * ||y||, 2 stalled residual, 3 y = 0
    reason = np.where(ynorm == 0, 3, 0)
    live = np.flatnonzero(ynorm > 0)
    for _ in range(iters):
        if not len(live):
            break
        proxy = np.array([As[i].T @ r[i] for i in live])
        enlarged = tree_project_batch(proxy, tree, min(2 * k, p))[1]
        b = np.zeros((len(live), p))
        for row, i in enumerate(live):
            cols = np.flatnonzero(enlarged[row] | (x[i] != 0))
            b[row, cols] = np.linalg.lstsq(As[i][:, cols], ys[i], rcond=None)[0]
        x[live] = tree_project_batch(b, tree, k)[0]
        for i in live:
            r[i] = ys[i] - As[i] @ x[i]
            rnorm = np.linalg.norm(r[i])
            if rnorm < tol * ynorm[i]:
                reason[i] = 1
            elif rnorm >= prev[i] * (1 - 1e-9):
                reason[i] = 2
            prev[i] = rnorm
        live = live[reason[live] == 0]
    counts = np.bincount(reason, minlength=4)
    logger.info("model_cosamp: of %d problems, %d met tol, %d stalled, %d stopped "
                "at iters=%d, %d had y = 0", len(probs), counts[1], counts[2],
                counts[0], iters, counts[3])
    return _from_stack(x.reshape(B, q, p).transpose(0, 2, 1), stacked, single)


@dataclass(frozen=True)
class PcaModel:
    """Top-r principal directions (orthonormal) and the training mean."""

    components: np.ndarray
    mean: np.ndarray


def pca_fit(training, r, svd=None):
    """Top-r principal directions of the centered training matrix.  svd may
    pass (U, s) of np.linalg.svd(training.data, full_matrices=False), so that
    fits at several r slice one decomposition."""
    X = training.data
    if r < 0 or r > min(X.shape):
        raise ValueError("r must be in 0..min(n, q)")
    U, s = svd if svd is not None else np.linalg.svd(X, full_matrices=False)[:2]
    if r > 0 and s[r - 1] <= 1e-12 * max(s[0], 1e-300):
        raise ValueError("r exceeds the numerical rank of the training data")
    return PcaModel(components=U[:, :r].copy(), mean=training.mean.copy())


def pca_reconstruct(model, x, budget, rng, noise_std=1.0):
    """Reconstruct from r scaled principal-component projections.

    Each projection is scaled by sqrt(budget/r) and corrupted by the same
    additive Gaussian noise model as the adaptive arm; the reconstruction
    divides the observations back by the scale and adds the mean.
    """
    r = model.components.shape[1]
    if r == 0:
        return model.mean.copy()
    scale = np.sqrt(budget / r)
    proj = model.components.T @ (np.asarray(x, dtype=float) - model.mean)
    y = scale * proj
    if noise_std > 0:
        y = y + noise_std * rng.standard_normal(r)
    return model.mean + model.components @ (y / scale)
