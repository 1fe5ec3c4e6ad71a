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

from .tree import TreeTopology, make_tree

__all__ = [
    "Dictionary",
    "TrainingSet",
    "LearnConfig",
    "tree_group_penalty",
    "tree_prox",
    "update_dictionary",
    "initial_dictionary",
    "learn",
    "learn_objective",
    "save_dictionary",
    "load_dictionary",
]

logger = logging.getLogger(__name__)

ORTHO_TOL = 1e-8


@dataclass(frozen=True, eq=False)
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
        with np.errstate(over="ignore", invalid="ignore"):   # huge atoms: an inf deviation
            gram_err = np.max(np.abs(atoms.T @ atoms - np.eye(p)))
        if not gram_err <= ORTHO_TOL:   # a nan entry makes gram_err nan
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
    outer_iters: int = 30
    tol: float = 1e-6

    def __post_init__(self):
        if not self.lam > 0:   # rejects nan too
            raise ValueError("lam must be positive")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")


def _columns(a, tree):
    """a, a length-p vector or a (p, q) matrix, as a (p, q) view."""
    if a.ndim not in (1, 2) or a.shape[0] != tree.p:
        raise ValueError(f"expected shape ({tree.p},) or ({tree.p}, q), got {a.shape}")
    return a.reshape(tree.p, -1)


def tree_group_penalty(a, tree, norm="l2"):
    """Hierarchical penalty: sum over groups of norm(a restricted to g), one
    group per node (the node and its descendants).

    a is a length-p vector (returns a scalar) or a (p, q) matrix (returns the
    q column penalties).  A group's energy (l2) or maximum (linf) combines its
    node's with its child groups', one level at a time from the deepest.
    """
    if norm not in ("l2", "linf"):
        raise ValueError("norm must be 'l2' or 'linf'")
    a = np.asarray(a, dtype=float)
    cols = _columns(a, tree)
    agg = cols * cols if norm == "l2" else np.abs(cols)
    combine = np.add if norm == "l2" else np.maximum
    starts = tree.level_starts
    for lvl in reversed(range(tree.depth - 1)):
        lo, hi = starts[lvl], starts[lvl + 1]
        kids = agg[hi:starts[lvl + 2]].reshape(hi - lo, tree.d, -1)
        combine(agg[lo:hi], combine.reduce(kids, axis=1), out=agg[lo:hi])
    out = (np.sqrt(agg) if norm == "l2" else agg).sum(axis=0)
    return out[0] if a.ndim == 1 else out


def _l1_projection(V, radius):
    """Euclidean projection of each V[r, c, :] onto the l1 ball of radius
    radius > 0, by one batched sort."""
    a = np.abs(V)
    u = np.sort(a)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    hit = u * np.arange(1, u.shape[-1] + 1) > css - radius
    rho = u.shape[-1] - 1 - np.argmax(hit[..., ::-1], axis=-1)   # the last hit
    theta = (np.take_along_axis(css, rho[..., None], -1)[..., 0] - radius) / (rho + 1)
    return np.where((a.sum(axis=-1) <= radius)[..., None], V,
                    np.sign(V) * np.maximum(a - theta[..., None], 0.0))


def tree_prox(v, tree, threshold, norm="l2"):
    """Exact prox of threshold * Omega at v for the tree's groups.

    Composes the one-group prox operators deepest group first (Jenatton
    et al., JMLR 2011); accepts a vector or a (p, q) matrix of columns.  Both
    norms run a level at a time, since the groups of one level are disjoint.
    l2: a group's energy is its node's plus scale^2 * each child group's, and
    an entry's final scale is the product of its node's and its ancestors'.
    linf: each group loses its projection onto the l1 ball of radius
    threshold, with a level's groups gathered as one array.
    """
    if not threshold >= 0:   # rejects nan too
        raise ValueError("threshold must be nonnegative")
    if norm not in ("l2", "linf"):
        raise ValueError("norm must be 'l2' or 'linf'")
    U = np.array(v, dtype=float)
    cols = _columns(U, tree)
    q, starts = cols.shape[1], tree.level_starts
    if norm == "linf":
        if threshold == 0:   # every group's l1 ball is {0}
            return U
        for lvl in reversed(range(tree.depth)):
            lo, hi = starts[lvl], starts[lvl + 1]
            spans = list(zip(starts[lvl:-1], starts[lvl + 1:]))   # this level and every deeper one
            # G[r, c] is group r's column c, contiguous, so its sum and sort see
            # the same values in the same order as they would for one group
            G = np.concatenate([cols[s:e].reshape(hi - lo, -1, q) for s, e in spans],
                               axis=1).transpose(0, 2, 1).copy()
            out = (G - _l1_projection(G, threshold)).transpose(0, 2, 1)
            ends = np.cumsum([e - s for s, e in spans]) // (hi - lo)
            for (s, e), block in zip(spans, np.split(out, ends[:-1], axis=1)):
                cols[s:e] = block.reshape(-1, q)
        return U

    scale = np.empty_like(cols)
    shrunk = np.empty_like(cols)   # group energy after the group's own step
    for lvl in reversed(range(tree.depth)):
        lo, hi = starts[lvl], starts[lvl + 1]
        energy = cols[lo:hi] ** 2
        if lvl + 1 < tree.depth:
            energy += shrunk[hi:starts[lvl + 2]].reshape(hi - lo, tree.d, -1).sum(axis=1)
        norms = np.sqrt(energy)
        s = np.where(norms > threshold, 1.0 - threshold / np.where(norms > 0, norms, 1.0), 0.0)
        scale[lo:hi], shrunk[lo:hi] = s, s * s * energy
    for lvl in range(1, tree.depth):   # multiply each parent's scale down
        scale[starts[lvl]:starts[lvl + 1]] *= np.repeat(scale[starts[lvl - 1]:starts[lvl]], tree.d, axis=0)
    cols *= scale
    return U


def update_dictionary(X, A):
    """Orthogonal Procrustes dictionary step: argmin ||X - DA||_F s.t. D^T D = I.

    Solved via the reduced SVD of X A^T.  When X A^T is rank-deficient
    (logged) the minimizer is not unique: the null directions are the SVD's
    remaining singular vectors, which move with rounding (ROADMAP item 4).
    """
    M = np.asarray(X, dtype=float) @ np.asarray(A, dtype=float).T
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s[0] == 0 or s[-1] < 1e-12 * s[0]:
        logger.info("X A^T is rank-deficient; null directions are not unique and move with rounding")
    return U @ Vt


def learn_objective(X, D, A, tree, lam):
    """Value of the learning objective at (D, A), with the l2 penalty."""
    resid = 0.5 * np.sum((X - D @ A) ** 2)
    return resid + lam * float(np.sum(tree_group_penalty(A, tree)))


def initial_dictionary(training, tree, rng):
    """learn's starting Dictionary: tree.p randomly chosen centered training
    columns, slightly perturbed and orthonormalized by QR (Gaussian columns
    fill in when there are fewer than tree.p)."""
    X = training.data
    (n, q), p = X.shape, tree.p
    if p > n:
        raise ValueError("p > n: orthonormal dictionary impossible")
    if q < 1:
        raise ValueError("empty training set")
    cols = rng.permutation(q)[:p]
    B = X[:, cols].copy()
    if B.shape[1] < p:
        B = np.hstack([B, rng.standard_normal((n, p - B.shape[1]))])
    # Gaussian perturbation guards against duplicate/zero training columns
    B = B + 1e-8 * np.linalg.norm(B, ord="fro") / np.sqrt(B.size) * rng.standard_normal(B.shape)
    Q, R = np.linalg.qr(B)
    Q = Q * np.sign(np.where(np.diag(R) == 0, 1.0, np.diag(R)))
    return Dictionary(atoms=Q, tree=tree)


def learn(training, init, cfg):
    """Alternating minimization for the tree-structured orthonormal dictionary,
    starting from the Dictionary init (initial_dictionary draws one).

    Returns (Dictionary, A, history) where history holds the objective after
    each alternation; the sequence is nonincreasing.  Alternation t codes
    A_t against D_t, records the objective of (D_t, A_t), then fits D_{t+1}
    to A_t.  Which pair is returned depends on how the loop stops: on `tol`
    it returns D_t with A_t, the pair history[-1] belongs to; after
    `outer_iters` alternations it returns D_{t+1} with A_t, and history[-1]
    is the objective of A_t with the previous dictionary D_t (D_{t+1} fits
    A_t at least as well).
    """
    X, D, tree = training.data, init.atoms, init.tree
    # D stays orthonormal (QR, then Procrustes), so coding is one prox of D^T X
    history = []
    for _ in range(cfg.outer_iters):
        A = tree_prox(D.T @ X, tree, cfg.lam)
        obj = learn_objective(X, D, A, tree, cfg.lam)
        history.append(obj)
        if len(history) >= 2:
            prev = history[-2]
            if abs(prev - obj) < cfg.tol * max(abs(prev), 1.0):
                break
        D = update_dictionary(X, A)
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
    if not np.isfinite(mean).all():
        raise ValueError("column mean is not finite")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, n, p, tree.d, tree.depth))
        f.write(mean.astype("<f8").tobytes())
        f.write(np.asfortranarray(atoms).astype("<f8").tobytes(order="F"))


def load_dictionary(path):
    """Load (Dictionary, mean) from the binary container.  A truncated file,
    trailing bytes, an inconsistent header, atoms that are not orthonormal
    and a mean that is not finite raise ValueError naming the path."""
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
        if not np.isfinite(body[:n]).all():
            raise ValueError("column mean is not finite")
        return Dictionary(atoms=atoms, tree=tree), body[:n].copy()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
