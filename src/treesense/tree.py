"""Balanced d-ary coefficient trees and tree-sparse vectors.

Nodes are indexed 1..p in heap order: the root is 1 and the children of node
i are d*(i-1)+2 .. d*i+1 (those that are <= p).  A vector is tree-sparse when
its nonzero entries form a rooted connected subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TreeTopology",
    "make_tree",
    "random_tree_sparse",
    "random_tree_sparse_batch",
    "is_tree_sparse",
    "tree_project_batch",
]

_MAX_NODES = 2**62


@dataclass(frozen=True)
class TreeTopology:
    """Complete balanced rooted tree of degree d with p nodes and L levels."""

    p: int
    d: int
    depth: int

    def parent(self, i):
        """Parent index of node i (root has no parent)."""
        if i < 2 or i > self.p:
            raise ValueError(f"node {i} has no parent in a tree with p={self.p}")
        return (i - 2) // self.d + 1

    def children(self, i):
        """Child indices of node i (empty tuple at the deepest level)."""
        if i < 1 or i > self.p:
            raise ValueError(f"node {i} out of range 1..{self.p}")
        lo = self.d * (i - 1) + 2
        hi = min(self.d * i + 1, self.p)
        return tuple(range(lo, hi + 1))

    @property
    def level_starts(self):
        """0-based offsets where levels 0..L-1 start, then p: level l is the
        slice [starts[l], starts[l+1]), its children a reshape(-1, d) of l+1."""
        return [(self.d**lvl - 1) // (self.d - 1) for lvl in range(self.depth + 1)]

    @property
    def n_internal(self):
        """Number of nodes that have a full set of d children."""
        return (self.p - 1) // self.d


def make_tree(d, L):
    """Build the complete balanced tree of degree d with L levels.

    The node count is p = (d^L - 1)/(d - 1).
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    # p >= 2^L - 1, so deeper trees overflow for every d; checked before d**L
    p = (d**L - 1) // (d - 1) if L < _MAX_NODES.bit_length() else _MAX_NODES + 1
    if p > _MAX_NODES:
        raise ValueError(f"tree with d={d}, L={L} overflows the index range")
    return TreeTopology(p=p, d=d, depth=L)


def _generators(rng, rows):
    """(generator, rows it draws for) pairs, in row order: [(rng, rows)] for
    one generator, which all rows draw from in turn, or [(rng[t], 1)] for a
    list or tuple of one generator per row.  Anything that is not a list or
    tuple, duck-typed generators included, is one generator."""
    if not isinstance(rng, (list, tuple)):
        return [(rng, rows)]
    if len(rng) != rows:
        raise ValueError(f"{len(rng)} generators for {rows} rows: pass one generator, "
                         "or a list of one per row")
    return [(g, 1) for g in rng]


def random_tree_sparse_batch(tree, k, amp_min, amp_max, rng, trials, max_depth=None):
    """Draw `trials` random k-tree-sparse vectors at once, in sparse form.

    Returns (nodes, values), both (trials, k): row t holds the support of
    vector t in the order it was grown, root first, and the values there.
    Each support is grown from the root by repeatedly adding a uniformly
    chosen boundary node, row t's step s picking entry floor(u[s-1, t] * len)
    of its boundary list from a (k - 1, trials) block of uniforms;
    magnitudes are uniform on [amp_min, amp_max] with random signs.
    rng is one generator, which draws the block with rng.random((k - 1,
    trials)), then all magnitudes, then all signs, or a list of `trials`
    generators, where row t draws on rng[t] what a one-row call on it draws.
    max_depth restricts growth to nodes at depth < max_depth (useful to keep
    the support off the leaf level, where nodes have no children to test).
    """
    if not 1 <= k <= tree.p:
        raise ValueError(f"k must be in 1..{tree.p}, got {k}")
    if amp_min <= 0 or amp_max < amp_min:
        raise ValueError("need 0 < amp_min <= amp_max")

    # nodes at depth < max_depth are exactly 1..(d^max_depth - 1)/(d - 1):
    # whole levels, so node j has all d children there (j <= inner) or none
    d, last = tree.d, tree.p
    if max_depth is not None:
        last = min(last, (d ** max(max_depth, 0) - 1) // (d - 1))
    if k > max(last, 1):
        raise ValueError("cannot grow a connected support of size "
                         f"{k} under the depth restriction")
    inner = (last - 1) // d
    gens = _generators(rng, trials)   # the empty entries keep an empty list's shapes
    u = np.hstack([g.random((k - 1, n)) for g, n in gens] + [np.empty((k - 1, 0))])
    mags = np.vstack([g.uniform(amp_min, amp_max, size=(n, k)) for g, n in gens]
                     + [np.empty((0, k))])
    signs = np.vstack([g.choice([-1.0, 1.0], size=(n, k)) for g, n in gens]
                      + [np.empty((0, k))])
    nodes = np.ones((k, trials), dtype=np.int64)   # step s's nodes are row s
    # boundary[t, :end[t] - starts[t]] is row t's boundary list: each step
    # swaps its last entry into the picked slot and appends the new node's
    # children.  A row that does not grow gets them too, past its end, where
    # the next steps overwrite them: no list grows past d + (k - 1)(d - 1) entries
    width = d + (k - 1) * (d - 1)
    boundary = np.zeros((trials, width), dtype=np.int64)
    boundary[:, :d] = np.arange(2, d + 2)
    flat, starts = boundary.reshape(-1), np.arange(trials) * width
    end = starts + d * (inner >= 1)
    # the pick is floor(u * len) < len: u is a multiple of 2**-53 below 1,
    # and (1 - 2**-53) * n rounds to a double below n for every n < 2**53
    for step in range(1, k):
        at = starts + (u[step - 1] * (end - starts)).astype(np.int64)
        nodes[step] = j = flat[at]
        end -= 1
        flat[at] = flat[end]
        first = d * j - d + 2
        for c in range(d):   # one child per offset: cheaper than a (trials, d) scatter
            flat[end + c] = first + c
        end += d * (j <= inner)
    return nodes.T, signs * mags


def random_tree_sparse(tree, k, amp_min, amp_max, rng, max_depth=None):
    """Draw a random k-tree-sparse vector: random_tree_sparse_batch with
    one trial, as a dense length-p array, nonzero exactly on its support."""
    nodes, vals = random_tree_sparse_batch(tree, k, amp_min, amp_max, rng, 1, max_depth)
    values = np.zeros(tree.p)
    values[nodes[0] - 1] = vals[0]
    return values


def is_tree_sparse(v, tree, tol=0.0):
    """True iff the entries with |v[i]| > tol of a length-p vector v form a
    rooted connected set."""
    v = np.asarray(v, dtype=float)
    if v.shape != (tree.p,):
        raise ValueError(f"expected v of shape ({tree.p},), got {v.shape}")
    present = np.abs(v) > tol
    nodes = np.flatnonzero(present[1:]) + 2     # the non-root entries, 1-based
    return bool(present[(nodes - 2) // tree.d].all())   # each one's parent


def _knapsack_tables(V, tree, k):
    """Bottom-up DP, one level at a time: best captured energy per (node,
    subtree-size) budget, for every row of V at once.

    Returns (E, split), lists indexed by level.  A level's nodes of all rows
    share one leading axis, row-major: index i * n + r is row i's r-th node
    of a level of n nodes, so the children of index R are the next level's
    d*R .. d*R + d - 1.  E[lvl][R, b] is the max energy of a connected
    subtree rooted at R using exactly b nodes (b = 1..cap; column 0 is
    -inf).  split[lvl][j - 1][R, t], for j = 1..d-1, is the number of nodes
    child j gets when R's first j + 1 children share t nodes: the smallest s
    whose energy is within 1e-9 * (1 + best) of the best.  All nodes of a
    level have tables of the same length, so merging child j into its
    parents is one max-plus product over the whole level and every row.
    Child 0 merges into the empty table g = [0], so its product is its own
    table and its split is s = t: neither is computed, and the backtrack
    gives child 0 whatever its later siblings leave.
    """
    w = V * V
    starts, d = tree.level_starts, tree.d
    E, split = [None] * tree.depth, [[] for _ in range(tree.depth)]
    for lvl in reversed(range(tree.depth)):
        lo, hi = starts[lvl], starts[lvl + 1]
        n = len(V) * (hi - lo)
        g = np.zeros((n, 1))   # g[R, t]: best energy using t nodes among merged children
        if lvl + 1 < tree.depth:
            # F[R, j, s]: allocate exactly s nodes to child j (s=0 -> skip it)
            lf = E[lvl + 1].shape[1]
            F = E[lvl + 1].reshape(n, d, lf).copy()
            F[:, :, 0] = 0.0
            g = F[:, 0, :min(k, lf)]   # child 0 merged into g = [0]
            for j in range(1, d):
                lg = g.shape[1]   # <= cap + 1, since cap + 1 = min(k, lg + lf - 1)
                cap = min(k - 1, lg + lf - 2)
                # gpad[R, lf-1+t] = g[R, t], -inf outside; the view's [R, s, t]
                # is gpad[R, lf-1-s+t] = g[R, t-s], in bounds for s < lf, t <= cap
                # (an ndarray on gpad's buffer: at these sizes as_strided's
                # per-call overhead is about as large as the product itself)
                gpad = np.full((n, cap + lf), -np.inf)
                gpad[:, lf - 1:lf - 1 + lg] = g
                s_row, s_col = gpad.strides
                shifted = np.ndarray((n, lf, cap + 1), float, gpad, (lf - 1) * s_col,
                                     (s_row, -s_col, s_col))
                both = shifted + F[:, j, :, None]
                g = both.max(axis=1)
                # g is finite and >= 0; the -inf sums give +inf gaps, never chosen
                gap = np.subtract(g[:, None], both, out=both)
                split[lvl].append(np.argmax(gap <= 1e-9 * (1 + g[:, None]), axis=1))
        cap = min(k, g.shape[1])
        Ei = np.full((n, cap + 1), -np.inf)
        Ei[:, 1:] = w[:, lo:hi].reshape(n, 1) + g[:, :cap]
        E[lvl] = Ei
    return E, split


def tree_project_batch(V, tree, k):
    """Project every row of V, shape (B, p), onto the vectors with
    rooted-connected support <= k.

    Returns (values, support), both (B, p); support is a bool mask and
    values is V on it, 0 elsewhere.  Each row maximizes its captured energy
    sum(v[i]^2) by a bottom-up dynamic program run one tree level at a time,
    over all rows at once; a row's result does not depend on the others.
    Of the budgets attaining the max, the smallest is backtracked, and
    zero-valued nodes with no retained descendant are then dropped.  B may
    be 0, giving two (0, p) arrays.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != tree.p:
        raise ValueError(f"expected V of shape (B, {tree.p}), got {V.shape}")
    if not 1 <= k <= tree.p:
        raise ValueError(f"k must be in 1..{tree.p}, got {k}")

    E, split = _knapsack_tables(V, tree, k)
    root = E[0][:, 1:]
    best = root.max(axis=1, keepdims=True)   # >= root, and >= 0
    # prefer the smallest budget attaining the max (avoids zero padding)
    b_star = 1 + np.argmax(best - root <= 1e-12 * (1 + best), axis=1)
    support = np.zeros(V.shape, dtype=bool)
    starts, d = tree.level_starts, tree.d
    # top down over every row: R holds a level's chosen nodes (row-major, as
    # in the tables) and rem what each one's subtree spends; each splits its
    # rem - 1 over its children from the last, as recorded
    R, rem = np.arange(len(V)), b_star
    for lvl in range(tree.depth):
        rows, cols = np.divmod(R, starts[lvl + 1] - starts[lvl])
        support[rows, starts[lvl] + cols] = True
        rem = rem - 1
        alloc = np.zeros((len(R), d), dtype=np.int64)   # a leaf's splits are 0
        if lvl + 1 < tree.depth:
            for j in reversed(range(1, d)):
                alloc[:, j] = split[lvl][j - 1][R, rem]
                rem -= alloc[:, j]
            alloc[:, 0] = rem   # child 0 takes what its later siblings left
        chosen = alloc > 0
        R, rem = (d * R[:, None] + np.arange(d))[chosen], alloc[chosen]
    # rooted-connected closure of the nonzeros, if a zero was chosen: bottom
    # up, a node stays if its value is nonzero or one of its children stayed
    if (support & (V == 0)).any():
        for lvl in reversed(range(tree.depth)):
            lo, hi = starts[lvl], starts[lvl + 1]
            keep = V[:, lo:hi] != 0
            if lvl + 1 < tree.depth:
                keep |= support[:, hi:starts[lvl + 2]].reshape(len(V), hi - lo, d).any(axis=2)
            support[:, lo:hi] &= keep
    return np.where(support, V, 0.0), support
