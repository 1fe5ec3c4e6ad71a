"""Energy-fair comparison reconstructions: Lasso on random projections,
model-based CoSaMP with tree projection, and PCA."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .tree import tree_project

__all__ = [
    "RandomProjectionEnsemble",
    "gaussian_ensemble",
    "lasso_solve",
    "model_cosamp",
    "PcaModel",
    "pca_fit",
    "pca_reconstruct",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RandomProjectionEnsemble:
    """m x n Gaussian test matrix with rows scaled so the total energy is budget."""

    matrix: np.ndarray
    budget: float
    seed: int


def gaussian_ensemble(m, n, budget, seed):
    """Draw m iid Gaussian rows and rescale each to norm sqrt(budget/m)."""
    if m < 1 or budget <= 0:
        raise ValueError("need m >= 1 and budget > 0")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n))
    row_norms = np.linalg.norm(G, axis=1, keepdims=True)
    G = G * (np.sqrt(budget / m) / row_norms)
    return RandomProjectionEnsemble(matrix=G, budget=float(budget), seed=seed)


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
    A = np.asarray(A, dtype=float)
    Y = np.asarray(y, dtype=float)
    shapes = f"A {A.shape} and y {Y.shape}"
    stacked, single = A.ndim == 3, Y.ndim == 1
    if A.ndim == 2 and Y.ndim in (1, 2):
        A, Y = A[None], Y.reshape(1, len(Y), -1)
    if A.ndim != 3 or Y.ndim != 3 or Y.shape[:2] != A.shape[:2]:
        raise ValueError(f"{shapes} do not match: need A (m, p) with y (m,) or "
                         f"(m, q), or A (B, m, p) with y (B, m, q)")
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
    out = out.transpose(0, 2, 1)
    if stacked:
        return out
    return out[0, :, 0] if single else out[0]


def model_cosamp(A, y, k, tree, iters=20, tol=1e-6):
    """CoSaMP with the best-k-term steps replaced by tree projection.

    Both the proxy-support enlargement (size 2k) and the final pruning
    (size k) project onto rooted-connected supports, so the returned vector
    is always tree-sparse.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    p = A.shape[1]
    if k > p:
        raise ValueError("k must be <= p")

    x = np.zeros(p)
    r = y.copy()
    ynorm = np.linalg.norm(y)
    if ynorm == 0:
        return x
    prev = np.inf
    for _ in range(iters):
        proxy = A.T @ r
        enlarged = tree_project(proxy, tree, min(2 * k, p))
        omega = sorted(enlarged.support | {i + 1 for i in np.flatnonzero(x)})
        cols = [i - 1 for i in omega]
        b_sub, *_ = np.linalg.lstsq(A[:, cols], y, rcond=None)
        b = np.zeros(p)
        b[cols] = b_sub
        x = tree_project(b, tree, k).values
        r = y - A @ x
        rnorm = np.linalg.norm(r)
        if rnorm < tol * ynorm or rnorm >= prev * (1 - 1e-9):
            break
        prev = rnorm
    return x


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
