"""Balanced d-ary coefficient trees, hierarchical groups, and tree-sparse vectors.

Nodes are indexed 1..p in heap order: the root is 1 and the children of node
i are d*(i-1)+2 .. d*i+1 (those that are <= p).  A vector is tree-sparse when
its nonzero entries form a rooted connected subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TreeTopology",
    "GroupSet",
    "TreeSparseVector",
    "make_tree",
    "groups_of",
    "random_tree_sparse",
    "is_tree_sparse",
    "tree_project",
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

    def node_depth(self, i):
        """Depth of node i, root at depth 0."""
        depth = 0
        while i > 1:
            i = (i - 2) // self.d + 1
            depth += 1
        return depth

    def descendants(self, i):
        """All strict descendants of node i, in increasing index order."""
        out, level = [], self.children(i)
        while level:   # a node's descendants on one level are contiguous
            out.extend(level)
            level = range(self.d * (level[0] - 1) + 2, min(self.d * level[-1] + 1, self.p) + 1)
        return out

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


@dataclass(frozen=True)
class GroupSet:
    """Hierarchical groups g_i = {i} union descendants(i), deepest-first.

    The ordering (decreasing node depth, ties by index) makes sequential
    per-group proximal steps exact for this laminar family.
    """

    roots: tuple          # defining node of each group, in group order
    groups: tuple         # tuple of int tuples, aligned with roots
    weights: np.ndarray   # nonnegative weight per group
    tree: TreeTopology | None = None   # the tree the groups are defined on

    def __len__(self):
        return len(self.groups)

    def node_weights(self):
        """Group weights in heap (node) order; raises ValueError unless the set
        carries its tree and lists its groups in groups_of's deepest-first order."""
        if self.tree is None or tuple(self.roots) != _deepest_first(self.tree):
            raise ValueError("group list is not ordered deepest-first on its tree")
        w = np.empty(self.tree.p)
        w[np.asarray(self.roots) - 1] = self.weights
        return w


def _deepest_first(tree):
    """Node indices level by level from the deepest, by index within a level."""
    s = tree.level_starts
    return tuple(i for lvl in reversed(range(tree.depth)) for i in range(s[lvl] + 1, s[lvl + 1] + 1))


def groups_of(tree, weights=None):
    """Group set of the hierarchical penalty: one group per node.

    weights may be a length-p array (aligned with group order) or None for
    all-ones.
    """
    p = tree.p
    order = _deepest_first(tree)
    groups = tuple(tuple([i] + tree.descendants(i)) for i in order)
    if weights is None:
        w = np.ones(p)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (p,):
            raise ValueError(f"weights must have length {p}")
        if np.any(w < 0):
            raise ValueError("group weights must be nonnegative")
    return GroupSet(roots=order, groups=groups, weights=w, tree=tree)


@dataclass(frozen=True)
class TreeSparseVector:
    """Length-p vector whose support is a rooted connected subtree.

    support may retain nodes whose value is exactly zero when they are
    ancestors of nonzero nodes (can arise from projection of adversarial
    inputs); values are always zero outside support.
    """

    values: np.ndarray
    support: frozenset

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        nz = {int(i) + 1 for i in np.flatnonzero(v)}
        if not nz <= self.support:
            raise ValueError("values are nonzero outside the declared support")

    @property
    def k(self):
        return len(self.support)

    @property
    def alpha_min(self):
        if not self.support:
            return np.inf
        return min(abs(self.values[i - 1]) for i in self.support)

    @classmethod
    def from_values(cls, values, tree, tol=0.0):
        v = np.asarray(values, dtype=float)
        if v.shape != (tree.p,):
            raise ValueError(f"expected length-{tree.p} vector")
        if not is_tree_sparse(v, tree, tol=tol):
            raise ValueError("nonzero pattern is not rooted-connected")
        return cls(values=v, support=frozenset(int(i) + 1 for i in np.flatnonzero(np.abs(v) > tol)))


def random_tree_sparse(tree, k, amp_min, amp_max, rng, max_depth=None):
    """Draw a random k-tree-sparse vector.

    The support is grown from the root by repeatedly adding a uniformly
    chosen boundary node; magnitudes are uniform on [amp_min, amp_max] with
    random signs.  max_depth restricts growth to nodes at depth < max_depth
    (useful to keep the support off the leaf level, where nodes have no
    children to test).
    """
    if not 1 <= k <= tree.p:
        raise ValueError(f"k must be in 1..{tree.p}, got {k}")
    if amp_min <= 0 or amp_max < amp_min:
        raise ValueError("need 0 < amp_min <= amp_max")

    support = [1]
    in_support = {1}
    boundary = [c for c in tree.children(1)
                if max_depth is None or tree.node_depth(c) < max_depth]
    while len(support) < k:
        if not boundary:
            raise ValueError("cannot grow a connected support of size "
                             f"{k} under the depth restriction")
        j = boundary.pop(rng.integers(len(boundary)))
        support.append(j)
        in_support.add(j)
        boundary.extend(c for c in tree.children(j)
                        if max_depth is None or tree.node_depth(c) < max_depth)

    values = np.zeros(tree.p)
    mags = rng.uniform(amp_min, amp_max, size=k)
    signs = rng.choice([-1.0, 1.0], size=k)
    for idx, node in enumerate(support):
        values[node - 1] = signs[idx] * mags[idx]
    return TreeSparseVector(values=values, support=frozenset(support))


def is_tree_sparse(v, tree, tol=0.0):
    """True iff the entries with |v[i]| > tol form a rooted connected set."""
    v = np.asarray(v, dtype=float)
    nz = np.flatnonzero(np.abs(v) > tol) + 1
    present = set(int(i) for i in nz)
    for i in present:
        if i != 1 and (i - 2) // tree.d + 1 not in present:
            return False
    return True


def _knapsack_tables(v, tree, k):
    """Bottom-up DP: best captured energy per (node, subtree-size) budget.

    Returns (E, prefix) where E[i] is indexed by b = 1..cap and holds the max
    energy of a connected subtree rooted at node i using exactly b nodes, and
    prefix[i] holds the per-child knapsack prefix tables for backtracking.
    """
    NEG = -np.inf
    w = v * v
    E = {}
    prefix = {}
    for i in range(tree.p, 0, -1):
        cs = tree.children(i)
        g = np.zeros(1)  # g[t]: best energy using t nodes among processed children
        tables = [g]
        for c in cs:
            Ec = E[c]
            # F[b]: allocate exactly b nodes to child c's subtree (b=0 -> skip it)
            F = np.concatenate(([0.0], Ec[1:]))
            cap = min(k - 1, len(g) - 1 + len(F) - 1)
            g_new = np.full(cap + 1, NEG)
            for t in range(cap + 1):
                lo = max(0, t - (len(F) - 1))
                hi = min(t, len(g) - 1)
                g_new[t] = np.max(g[lo:hi + 1] + F[t - hi:t - lo + 1][::-1])
            g = g_new
            tables.append(g)
        cap = min(k, len(g))
        Ei = np.full(cap + 1, NEG)
        Ei[1:cap + 1] = w[i - 1] + g[:cap]
        E[i] = Ei
        prefix[i] = (cs, tables)
    return E, prefix


def _backtrack(E, prefix, node, budget, out):
    """Recover the subtree achieving E[node][budget]."""
    out.append(node)
    rem = budget - 1
    cs, tables = prefix[node]
    for j in range(len(cs), 0, -1):
        c = cs[j - 1]
        Ec = E[c]
        F = np.concatenate(([0.0], Ec[1:]))
        g_prev, g_cur = tables[j - 1], tables[j]
        target = g_cur[rem]
        # find the child allocation consistent with the combined table
        for s in range(min(rem, len(F) - 1) + 1):
            t = rem - s
            if t < len(g_prev) and np.isclose(g_prev[t] + F[s], target, rtol=0, atol=1e-9 * (1 + abs(target))):
                if s >= 1:
                    _backtrack(E, prefix, c, s, out)
                rem = t
                break
        else:  # pragma: no cover - defensive
            raise AssertionError("DP backtracking failed")


def _prune_zero_fringe(values, tree, support):
    """Drop support nodes whose value is zero and whose retained descendants
    are all zero (rooted-connected closure of the nonzeros)."""
    keep = set(support)
    changed = True
    while changed:
        changed = False
        for i in sorted(keep, reverse=True):
            if values[i - 1] == 0 and not any(c in keep for c in tree.children(i)):
                keep.remove(i)
                changed = True
    return keep


def tree_project(v, tree, k, mode="exact"):
    """Project v onto the set of vectors with rooted-connected support <= k.

    mode="exact" maximizes captured energy sum(v[i]^2) over all rooted
    connected supports of size <= k via bottom-up dynamic programming;
    mode="greedy" repeatedly adds the boundary node of largest amplitude.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (tree.p,):
        raise ValueError(f"expected length-{tree.p} vector")
    if not 1 <= k <= tree.p:
        raise ValueError(f"k must be in 1..{tree.p}, got {k}")

    if mode == "exact":
        E, prefix = _knapsack_tables(v, tree, k)
        root_table = E[1]
        budgets = np.arange(len(root_table))
        best_energy = np.max(root_table[1:])
        # prefer the smallest budget attaining the max (avoids zero padding)
        b_star = int(budgets[1:][np.isclose(root_table[1:], best_energy, rtol=0, atol=1e-12 * (1 + abs(best_energy)))][0])
        chosen = []
        _backtrack(E, prefix, 1, b_star, chosen)
    elif mode == "greedy":
        chosen = [1]
        in_sup = {1}
        boundary = list(tree.children(1))
        while len(chosen) < k and boundary:
            j = max(boundary, key=lambda i: (abs(v[i - 1]), -i))
            boundary.remove(j)
            chosen.append(j)
            in_sup.add(j)
            boundary.extend(tree.children(j))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    keep = _prune_zero_fringe(v, tree, chosen)
    out = np.zeros(tree.p)
    for i in keep:
        out[i - 1] = v[i - 1]
    return TreeSparseVector(values=out, support=frozenset(keep))
