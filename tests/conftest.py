"""Shared independent oracles for the test suite.

These deliberately avoid the library's own algorithms: subtree enumeration
is exhaustive recursion, the lasso oracle is exact coordinate descent, the
group list is built by walking parents, the traversal, support-grower and
tree-sparsity references are the scalar loops the library's array engines
replaced, the projection reference is a per-node DP, the CSV reference
writes one row dict at a time, and the prox oracle (in test_prox) is a
convex solver.

Hypothesis runs with random examples by default; HYPOTHESIS_PROFILE=ci
selects a derandomized profile without deadlines.
"""

import csv
import operator
import os
from collections import deque

import numpy as np
import pytest
from hypothesis import settings

from treesense import CSV_FIELDS

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


def _reference_tables(v, tree, k):
    w = v * v
    E, prefix = {}, {}
    for i in range(tree.p, 0, -1):
        cs = tree.children(i)
        g = np.zeros(1)
        tables = [g]
        for c in cs:
            F = np.concatenate(([0.0], E[c][1:]))
            cap = min(k - 1, len(g) - 1 + len(F) - 1)
            g_new = np.full(cap + 1, -np.inf)
            for t in range(cap + 1):
                lo = max(0, t - (len(F) - 1))
                hi = min(t, len(g) - 1)
                g_new[t] = np.max(g[lo:hi + 1] + F[t - hi:t - lo + 1][::-1])
            g = g_new
            tables.append(g)
        cap = min(k, len(g))
        Ei = np.full(cap + 1, -np.inf)
        Ei[1:cap + 1] = w[i - 1] + g[:cap]
        E[i], prefix[i] = Ei, (cs, tables)
    return E, prefix


def _reference_backtrack(E, prefix, node, budget, out):
    out.append(node)
    rem = budget - 1
    cs, tables = prefix[node]
    for j in range(len(cs), 0, -1):
        F = np.concatenate(([0.0], E[cs[j - 1]][1:]))
        g_prev, target = tables[j - 1], tables[j][rem]
        for s in range(min(rem, len(F) - 1) + 1):
            t = rem - s
            if t < len(g_prev) and np.isclose(g_prev[t] + F[s], target, rtol=0,
                                              atol=1e-9 * (1 + abs(target))):
                if s >= 1:
                    _reference_backtrack(E, prefix, cs[j - 1], s, out)
                rem = t
                break
        else:
            raise AssertionError("reference backtracking failed")


def reference_project(v, tree, k):
    """(support, values) of the exact tree projection by a per-node DP: one
    knapsack merge per node and budget, then a recursive backtrack that
    re-finds each split with np.isclose (the smallest budget and the
    smallest child allocation win ties), then the zero-fringe closure."""
    E, prefix = _reference_tables(v, tree, k)
    root = E[1][1:]
    best = np.max(root)
    b_star = 1 + int(np.flatnonzero(np.isclose(root, best, rtol=0,
                                               atol=1e-12 * (1 + abs(best))))[0])
    chosen = []
    _reference_backtrack(E, prefix, 1, b_star, chosen)
    keep = set(chosen)
    changed = True
    while changed:
        changed = False
        for i in sorted(keep, reverse=True):
            if v[i - 1] == 0 and not any(c in keep for c in tree.children(i)):
                keep.remove(i)
                changed = True
    values = np.zeros(tree.p)
    for i in keep:
        values[i - 1] = v[i - 1]
    return frozenset(keep), values


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


def reference_random_tree_sparse_batch(tree, k, amp_min, amp_max, rng, trials,
                                       max_depth=None):
    """(nodes, values) of `trials` k-tree-sparse vectors grown as Python
    lists: one rng.integers call per step over the rows' boundary lengths,
    then each row pops its pick and appends the new node's children."""
    d, last = tree.d, tree.p
    if max_depth is not None:
        last = min(last, (d ** max(max_depth, 0) - 1) // (d - 1))
    supports = [[1] for _ in range(trials)]
    boundaries = [list(range(2, min(d + 1, last) + 1)) for _ in range(trials)]
    for _ in range(1, k):
        picks = rng.integers(0, [len(boundary) for boundary in boundaries])
        for support, boundary, pick in zip(supports, boundaries, picks.tolist()):
            j = boundary.pop(pick)
            support.append(j)
            boundary.extend(range(d * (j - 1) + 2, min(d * j + 1, last) + 1))
    mags = rng.uniform(amp_min, amp_max, size=(trials, k))
    signs = rng.choice([-1.0, 1.0], size=(trials, k))
    return np.array(supports).reshape(trials, k), signs * mags


def reference_write_csv(path, rows):
    """One line per row dict keyed by CSV_FIELDS.  The columns that hold
    floats, R, tau, snr_db and energy_spent, are written with 12 significant
    digits; the csv module writes None and "" as an empty field and every
    other value with str()."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(
            (method, f"{R:.12g}" if isinstance(R, float) else R,
             f"{tau:.12g}" if isinstance(tau, float) else tau, m, trial,
             f"{snr:.12g}" if isinstance(snr, float) else snr, exact, support_exact,
             f"{energy:.12g}" if isinstance(energy, float) else energy, wall_time, note)
            for (method, R, tau, m, trial, snr, exact, support_exact, energy,
                 wall_time, note) in map(operator.itemgetter(*CSV_FIELDS), rows))


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
