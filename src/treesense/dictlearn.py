"""Orthonormal dictionary learning with tree-structured sparse coefficients.

Alternating minimization of

    sum_i 0.5*||x_i - D a_i||^2 + lam * Omega(a_i),   s.t.  D^T D = I,

where Omega is the hierarchical group penalty over node-plus-descendants
groups.  With orthonormal D the coding step is an exact proximal step, and
the dictionary step is an orthogonal Procrustes problem.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .tree import TreeTopology, groups_of, make_tree

__all__ = [
    "Dictionary",
    "TrainingSet",
    "LearnConfig",
    "tree_group_penalty",
    "tree_prox",
    "sparse_code",
    "update_dictionary",
    "learn",
    "learn_objective",
    "save_dictionary",
    "load_dictionary",
]

logger = logging.getLogger(__name__)

ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class Dictionary:
    """n x p matrix of orthonormal atoms, atom i attached to tree node i."""

    atoms: np.ndarray
    tree: TreeTopology

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        n, p = atoms.shape
        if p != self.tree.p:
            raise ValueError(f"atom count {p} does not match tree with p={self.tree.p}")
        if p > n:
            raise ValueError("orthonormal columns require p <= n")
        gram_err = np.max(np.abs(atoms.T @ atoms - np.eye(p)))
        if gram_err > ORTHO_TOL:
            raise ValueError(f"columns not orthonormal (max Gram deviation {gram_err:.2e})")


@dataclass(frozen=True)
class TrainingSet:
    """Centered n x q training matrix plus the removed column mean."""

    data: np.ndarray
    mean: np.ndarray

    @classmethod
    def from_raw(cls, X):
        X = np.asarray(X, dtype=float)
        mean = X.mean(axis=1)
        return cls(data=X - mean[:, None], mean=mean)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def q(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class LearnConfig:
    lam: float
    group_norm: str = "l2"
    outer_iters: int = 30
    tol: float = 1e-6

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.group_norm not in ("l2", "linf"):
            raise ValueError("group_norm must be 'l2' or 'linf'")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")


def tree_group_penalty(a, groups, norm="l2"):
    """Hierarchical penalty: sum over groups of weight * norm(a restricted to g).

    a is a length-p vector (returns a scalar) or a (p, q) matrix (returns the
    q column penalties).  A group's energy (l2) or maximum (linf) combines its
    node's with its child groups', one level at a time from the deepest.
    """
    if norm not in ("l2", "linf"):
        raise ValueError("norm must be 'l2' or 'linf'")
    w, tree = groups.node_weights(), groups.tree
    a = np.asarray(a, dtype=float)
    cols = a.reshape(a.shape[0], -1)
    agg = cols * cols if norm == "l2" else np.abs(cols)
    combine = np.add if norm == "l2" else np.maximum
    starts = tree.level_starts
    for lvl in reversed(range(tree.depth - 1)):
        lo, hi = starts[lvl], starts[lvl + 1]
        kids = agg[hi:starts[lvl + 2]].reshape(hi - lo, tree.d, -1)
        combine(agg[lo:hi], combine.reduce(kids, axis=1), out=agg[lo:hi])
    out = w @ (np.sqrt(agg) if norm == "l2" else agg)
    return out[0] if a.ndim == 1 else out


def _project_l1_ball(v, radius):
    """Euclidean projection of v onto the l1 ball of the given radius."""
    if radius <= 0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(u) + 1) > css - radius)[0][-1]
    theta = (css[rho] - radius) / (rho + 1)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def tree_prox(v, groups, threshold, norm="l2"):
    """Exact prox of threshold * Omega at v for laminar (tree) groups.

    Composes the single-group prox operators deepest group first (Jenatton
    et al., JMLR 2011); accepts a vector or a (p, q) matrix of columns.  l2
    runs a level at a time: a group's energy is its node's plus scale^2 *
    each child group's, and an entry's final scale is the product of its
    node's and its ancestors'.  linf projects one group at a time.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if norm not in ("l2", "linf"):
        raise ValueError("norm must be 'l2' or 'linf'")
    t = threshold * groups.node_weights()
    U = np.array(v, dtype=float)
    cols = U.reshape(U.shape[0], -1)
    if norm == "linf":
        for g, r in zip(groups.groups, groups.roots):
            idx = np.asarray(g) - 1
            for c in range(cols.shape[1]):
                cols[idx, c] -= _project_l1_ball(cols[idx, c], t[r - 1])
        return U

    tree, starts = groups.tree, groups.tree.level_starts
    scale = np.empty_like(cols)
    shrunk = np.empty_like(cols)   # group energy after the group's own step
    for lvl in reversed(range(tree.depth)):
        lo, hi = starts[lvl], starts[lvl + 1]
        energy = cols[lo:hi] ** 2
        if lvl + 1 < tree.depth:
            energy += shrunk[hi:starts[lvl + 2]].reshape(hi - lo, tree.d, -1).sum(axis=1)
        norms, tl = np.sqrt(energy), t[lo:hi, None]
        s = np.where(norms > tl, 1.0 - tl / np.where(norms > 0, norms, 1.0), 0.0)
        scale[lo:hi], shrunk[lo:hi] = s, s * s * energy
    for lvl in range(1, tree.depth):   # multiply each parent's scale down
        scale[starts[lvl]:starts[lvl + 1]] *= np.repeat(scale[starts[lvl - 1]:starts[lvl]], tree.d, axis=0)
    cols *= scale
    return U


def sparse_code(training, dictionary, groups, cfg):
    """Code every training column against the dictionary.

    With orthonormal D, 0.5 * ||x - D a||^2 equals 0.5 * ||D^T x - a||^2 plus
    a constant, so the codes are exactly tree_prox(D^T X, lam): one prox.
    """
    X = training.data if isinstance(training, TrainingSet) else np.asarray(training, dtype=float)
    D = dictionary.atoms
    gram_err = np.max(np.abs(D.T @ D - np.eye(D.shape[1])))
    if gram_err > ORTHO_TOL:
        raise ValueError("sparse_code requires an orthonormal dictionary")
    return tree_prox(D.T @ X, groups, cfg.lam, cfg.group_norm)


def update_dictionary(training, A):
    """Orthogonal Procrustes dictionary step: argmin ||X - DA||_F s.t. D^T D = I.

    Solved via the reduced SVD of X A^T.  Rank deficiency is completed
    deterministically by the SVD's remaining singular vectors (logged).
    """
    X = training.data if isinstance(training, TrainingSet) else np.asarray(training, dtype=float)
    A = np.asarray(A, dtype=float)
    M = X @ A.T
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s[0] == 0 or s[-1] < 1e-12 * s[0]:
        logger.info("X A^T is rank-deficient; null directions completed deterministically")
    return U @ Vt


def learn_objective(X, D, A, groups, lam, norm="l2"):
    """Value of the learning objective at (D, A)."""
    resid = 0.5 * np.sum((X - D @ A) ** 2)
    return resid + lam * float(np.sum(tree_group_penalty(A, groups, norm)))


def _init_atoms(training, p, rng):
    """Orthonormalize p randomly chosen centered training columns (with
    Gaussian fill-in when the selection is rank deficient)."""
    X = training.data
    n, q = X.shape
    cols = rng.permutation(q)[:p]
    B = X[:, cols].copy()
    if B.shape[1] < p:
        B = np.hstack([B, rng.standard_normal((n, p - B.shape[1]))])
    # Gaussian perturbation guards against duplicate/zero training columns
    B = B + 1e-8 * np.linalg.norm(B, ord="fro") / np.sqrt(B.size) * rng.standard_normal(B.shape)
    Q, R = np.linalg.qr(B)
    Q = Q * np.sign(np.where(np.diag(R) == 0, 1.0, np.diag(R)))
    if np.max(np.abs(Q.T @ Q - np.eye(p))) > ORTHO_TOL:
        Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return Q


def learn(training, tree, cfg, rng, init=None, weights=None):
    """Alternating minimization for the tree-structured orthonormal dictionary.

    Returns (Dictionary, A, history) where history holds the objective after
    each alternation; the sequence is nonincreasing.
    """
    X = training.data
    n, q = X.shape
    if tree.p > n:
        raise ValueError("p > n: orthonormal dictionary impossible")
    if q < 1:
        raise ValueError("empty training set")
    groups = groups_of(tree, weights)
    D = _init_atoms(training, tree.p, rng) if init is None else np.asarray(init, dtype=float)

    history = []
    for _ in range(cfg.outer_iters):
        A = sparse_code(training, Dictionary(atoms=D, tree=tree), groups, cfg)
        obj = learn_objective(X, D, A, groups, cfg.lam, cfg.group_norm)
        history.append(obj)
        if len(history) >= 2:
            prev = history[-2]
            if abs(prev - obj) < cfg.tol * max(abs(prev), 1.0):
                break
        D = update_dictionary(training, A)
    return Dictionary(atoms=D, tree=tree), A, history


# ---------------------------------------------------------------------------
# Binary container: magic "LASR", version u16, n/p/d/L u32 (all little
# endian), column mean as n f64, atoms column-major as n*p f64.
# ---------------------------------------------------------------------------

_MAGIC = b"LASR"
_HEADER = struct.Struct("<4sHIIII")
_VERSION = 1


def save_dictionary(path, dictionary, mean=None):
    """Persist a dictionary (and optional column mean) to the binary container."""
    atoms = dictionary.atoms
    n, p = atoms.shape
    tree = dictionary.tree
    mean = np.zeros(n) if mean is None else np.asarray(mean, dtype=float)
    if mean.shape != (n,):
        raise ValueError("mean length must match atom dimension")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, n, p, tree.d, tree.depth))
        f.write(mean.astype("<f8").tobytes())
        f.write(np.asfortranarray(atoms).astype("<f8").tobytes(order="F"))


def load_dictionary(path):
    """Load (Dictionary, mean) from the binary container.  A truncated file,
    trailing bytes or an inconsistent header raise ValueError naming the path."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        if len(raw) < _HEADER.size:
            raise ValueError(f"truncated header: {len(raw)} bytes, need {_HEADER.size}")
        magic, version, n, p, d, L = _HEADER.unpack_from(raw)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version}")
        if len(raw) != _HEADER.size + 8 * n * (1 + p):
            raise ValueError(f"file size {len(raw)} bytes does not match n={n}, p={p}")
        tree = make_tree(d, L)
        if tree.p != p:
            raise ValueError("container p inconsistent with (d, L)")
        body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
        atoms = body[n:].reshape((n, p), order="F").copy()
        return Dictionary(atoms=atoms, tree=tree), body[:n].copy()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
