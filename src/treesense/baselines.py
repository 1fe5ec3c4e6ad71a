"""Energy-fair comparison reconstructions: Lasso on random projections,
model-based CoSaMP with tree projection, and PCA."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import tree_project

__all__ = [
    "RandomProjectionEnsemble",
    "gaussian_ensemble",
    "lasso_solve",
    "lasso_reconstruct",
    "model_cosamp",
    "PcaModel",
    "pca_fit",
    "pca_reconstruct",
]


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
    """Accelerated proximal gradient (monotone, backtracking) for the Lasso.

    Minimizes 0.5||y - A alpha||^2 + lam*||alpha||_1.  y may be a vector or an
    (m, q) matrix of independent right-hand sides sharing A; lam is a scalar
    or one positive weight per column.  Each column has its own step size
    1/L (starting at L = 1, doubled until the backtracking test holds) and
    its own stopping test, after which it is frozen, so a batched solve
    equals its column-by-column solves.
    """
    A = np.asarray(A, dtype=float)
    single = np.ndim(y) == 1
    Y = np.asarray(y, dtype=float)
    if single:
        Y = Y[:, None]
    if Y.shape[0] != A.shape[0]:
        raise ValueError("measurement count does not match ensemble rows")
    p, q = A.shape[1], Y.shape[1]
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        lam = np.full(q, lam)
    elif lam.shape != (q,):
        raise ValueError(f"lam must be a scalar or have one entry per column ({q})")
    if not np.all(lam > 0):
        raise ValueError("lam must be positive")

    out = np.zeros((p, q))
    cols = np.arange(q)   # columns still iterating; the arrays below hold only these
    X = np.zeros((p, q))
    X_prev = X.copy()
    Z = X.copy()
    best_obj = 0.5 * (Y**2).sum(axis=0)   # objective at X = 0
    L = np.ones(q)
    t_mom = 1.0
    for _ in range(max_iters):
        R = A @ Z - Y
        G = A.T @ R
        fz = 0.5 * (R**2).sum(axis=0)
        while True:
            W = Z - G / L
            W = np.sign(W) * np.maximum(np.abs(W) - lam / L, 0.0)
            diff = W - Z
            quad = fz + (G * diff).sum(axis=0) + 0.5 * L * (diff**2).sum(axis=0)
            fw = 0.5 * ((Y - A @ W) ** 2).sum(axis=0)
            ok = fw <= quad + 1e-12 * np.abs(quad)
            if ok.all():
                break
            L = np.where(ok, L, 2.0 * L)
            if np.any(L > 1e18):
                raise RuntimeError("lasso step size underflow: problem badly scaled")
        # monotone variant: the kept iterate never increases the objective,
        # but momentum keeps tracking the accelerated point
        cand_obj = fw + lam * np.abs(W).sum(axis=0)
        better = cand_obj <= best_obj
        X_new = np.where(better, W, X)
        obj_new = np.where(better, cand_obj, best_obj)
        t_next = (1 + np.sqrt(1 + 4 * t_mom**2)) / 2
        Z = X_new + (t_mom / t_next) * (W - X_new) \
            + ((t_mom - 1) / t_next) * (X_new - X_prev)
        step = np.abs(W - X_prev).max(axis=0)
        X_prev, X, best_obj, t_mom = X, X_new, obj_new, t_next
        done = step < tol * (1.0 + np.abs(X).max(axis=0))
        if done.any():
            out[:, cols[done]] = X[:, done]
            run = ~done
            cols, X, X_prev, Z, Y = cols[run], X[:, run], X_prev[:, run], Z[:, run], Y[:, run]
            best_obj, lam, L = best_obj[run], lam[run], L[run]
            if not len(cols):
                break
    out[:, cols] = X
    return out[:, 0] if single else out


def lasso_reconstruct(ensemble, y, lam, dictionary=None, max_iters=500, tol=1e-10):
    """Lasso coefficients plus signal reconstruction x_hat = D alpha_hat.

    dictionary=None senses coefficients directly (identity synthesis).
    """
    Phi = ensemble.matrix if isinstance(ensemble, RandomProjectionEnsemble) else np.asarray(ensemble)
    A = Phi if dictionary is None else Phi @ dictionary.atoms
    alpha = lasso_solve(A, y, lam, max_iters=max_iters, tol=tol)
    x_hat = alpha if dictionary is None else dictionary.atoms @ alpha
    return alpha, x_hat


def model_cosamp(A, y, k, tree, iters=20, tol=1e-6, projection_mode=None):
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
    if projection_mode is None:
        projection_mode = "exact" if p <= 1023 else "greedy"

    x = np.zeros(p)
    r = y.copy()
    ynorm = np.linalg.norm(y)
    if ynorm == 0:
        return x
    prev = np.inf
    for _ in range(iters):
        proxy = A.T @ r
        enlarged = tree_project(proxy, tree, min(2 * k, p), mode=projection_mode)
        omega = sorted(enlarged.support | {i + 1 for i in np.flatnonzero(x)})
        cols = [i - 1 for i in omega]
        b_sub, *_ = np.linalg.lstsq(A[:, cols], y, rcond=None)
        b = np.zeros(p)
        b[cols] = b_sub
        x = tree_project(b, tree, k, mode=projection_mode).values
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


def pca_fit(training, r):
    """Top-r principal directions of the centered training matrix."""
    X = training.data
    if r < 0 or r > min(X.shape):
        raise ValueError("r must be in 0..min(n, q)")
    U, s, _ = np.linalg.svd(X, full_matrices=False)
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
