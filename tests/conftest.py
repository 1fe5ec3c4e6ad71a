"""Shared independent oracles for the test suite.

These deliberately avoid the library's own algorithms: subtree enumeration
is exhaustive recursion, the lasso oracle is exact coordinate descent, the
group list is built by walking parents, the traversal, support-grower and
tree-sparsity references are the scalar loops the library's array engines
replaced, and the prox oracle (in test_prox) is a convex solver.

Hypothesis runs with random examples by default; HYPOTHESIS_PROFILE=ci
selects a derandomized profile without deadlines.
"""

import os
from collections import deque

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def enumerate_rooted_subtrees(tree, k):
    """All rooted connected subsets of {1..p} with size <= k (exhaustive)."""
    results = set()

    def grow(sup, boundary):
        results.add(frozenset(sup))
        if len(sup) == k:
            return
        for i, b in enumerate(boundary):
            nb = boundary[i + 1:] + list(tree.children(b))
            grow(sup | {b}, nb)

    grow({1}, list(tree.children(1)))
    return results


def best_subtree_energy(tree, v, k):
    """Max captured energy over all rooted connected supports of size <= k."""
    return max(sum(v[i - 1] ** 2 for i in s)
               for s in enumerate_rooted_subtrees(tree, k))


def group_list(groups):
    """(g_i, weight of g_i) for every node i of a GroupSet, deepest first and
    by index within a depth.  g_i = {i} and its descendants, in increasing
    order, found by walking each node's parents (j > 1 has parent
    (j - 2) // d + 1)."""
    p, d = groups.tree.p, groups.tree.d
    members = {i: [] for i in range(1, p + 1)}
    depth = {}
    for j in range(1, p + 1):
        i, depth[j] = j, 0
        members[i].append(j)
        while i > 1:
            i = (i - 2) // d + 1
            members[i].append(j)
            depth[j] += 1
    order = sorted(members, key=lambda i: (-depth[i], i))
    return [(tuple(members[i]), groups.weights[i - 1]) for i in order]


def reference_is_tree_sparse(v, tree, tol=0.0):
    """True iff every entry with |v[i]| > tol other than the root has its
    parent among those entries: a set loop over the nonzero nodes."""
    present = set(int(i) for i in np.flatnonzero(np.abs(v) > tol) + 1)
    return all(i == 1 or (i - 2) // tree.d + 1 in present for i in present)


def cd_lasso(A, y, lam, sweeps=20000, tol=1e-12):
    """Exact cyclic coordinate descent for 0.5||y - Ax||^2 + lam*||x||_1."""
    p = A.shape[1]
    x = np.zeros(p)
    col_sq = (A**2).sum(axis=0)
    r = y - A @ x
    for _ in range(sweeps):
        delta = 0.0
        for i in range(p):
            if col_sq[i] == 0:
                continue
            z = A[:, i] @ r + col_sq[i] * x[i]
            new = np.sign(z) * max(abs(z) - lam, 0.0) / col_sq[i]
            if new != x[i]:
                r += A[:, i] * (x[i] - new)
                delta = max(delta, abs(new - x[i]))
                x[i] = new
        if delta < tol:
            break
    return x


def reference_traversal(project, children_of, roots, cfg, rng):
    """Scalar threshold traversal: a FIFO queue, one project(j) callback and
    one scalar rng.standard_normal() per measurement.  Returns the measured
    nodes, their observations and significance flags (lists, in order), the
    energy spent and the truncated flag."""
    sched = deque(roots)
    nodes, ys, sigs = [], [], []
    energy, cost, truncated = 0.0, cfg.beta**2, False
    seen = set(roots)
    while sched:
        if cfg.budget is not None and energy + cost > cfg.budget * (1 + 1e-12):
            truncated = True
            break
        j = sched.popleft()
        y = cfg.beta * project(j)
        if cfg.noise_std > 0:
            y += cfg.noise_std * rng.standard_normal()
        significant = abs(y) >= cfg.tau
        nodes.append(j)
        ys.append(float(y))
        sigs.append(bool(significant))
        energy += cost
        if significant:
            for c in children_of(j):
                if c not in seen:
                    seen.add(c)
                    sched.append(c)
    return nodes, ys, sigs, energy, truncated


def reference_random_tree_sparse(tree, k, amp_min, amp_max, rng, max_depth=None):
    """Scalar support grower: (values, support) of one k-tree-sparse vector,
    the support grown from the root by popping a uniformly chosen entry of a
    boundary list and appending the new node's children."""
    d, last = tree.d, tree.p
    if max_depth is not None:
        last = min(last, (d ** max(max_depth, 0) - 1) // (d - 1))
    support, boundary = [1], list(range(2, min(d + 1, last) + 1))
    while len(support) < k:
        j = boundary.pop(rng.integers(len(boundary)))
        support.append(j)
        boundary.extend(range(d * (j - 1) + 2, min(d * j + 1, last) + 1))
    values = np.zeros(tree.p)
    mags = rng.uniform(amp_min, amp_max, size=k)
    signs = rng.choice([-1.0, 1.0], size=k)
    for idx, node in enumerate(support):
        values[node - 1] = signs[idx] * mags[idx]
    return values, frozenset(support)


def _flat(band, s, i, j, side):
    # band 0 = scaling, 1 = horizontal, 2 = vertical, 3 = diagonal detail
    if band == 0:
        return 0
    if band == 1:
        r, c = i, s + j
    elif band == 2:
        r, c = s + i, j
    else:
        r, c = s + i, s + j
    return r * side + c


def reference_quadtree(side):
    """(roots, children map) of the Haar quadtrees of a side x side image, in
    flat row-major coefficient indices: the scaling coefficient and the three
    coarsest details are roots, and each detail has the four details of its
    band one scale finer below it."""
    children = {0: ()}
    for band in (1, 2, 3):
        s = 1
        while s <= side // 2:
            for i in range(s):
                for j in range(s):
                    node = _flat(band, s, i, j, side)
                    if 2 * s <= side // 2:
                        kids = tuple(_flat(band, 2 * s, 2 * i + di, 2 * j + dj, side)
                                     for di in (0, 1) for dj in (0, 1))
                    else:
                        kids = ()
                    children[node] = kids
            s *= 2
    roots = [0] if side == 1 else [0] + [_flat(b, 1, 0, 0, side) for b in (1, 2, 3)]
    return roots, children


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
