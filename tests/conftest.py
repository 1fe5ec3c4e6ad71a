"""Shared independent oracles for the test suite.

These deliberately avoid the library's own algorithms: subtree enumeration
is exhaustive recursion, the lasso oracle is exact coordinate descent, the
Lasso kernel reference is the solver's earlier MFISTA loop, kept verbatim,
the group list is built by walking parents, the traversal and tree-sparsity
references are the scalar loops the library's array engines replaced, the
support growers are list loops and their law is pushed forward set by set,
the projection reference is a per-node DP, the CSV references write one row
dict at a time or a table through csv.writer, and the prox oracle (in
test_prox) is a convex solver.

Hypothesis runs with random examples by default; HYPOTHESIS_PROFILE=ci
selects a derandomized profile without deadlines.
"""

import csv
import functools
import itertools
import math
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


@functools.lru_cache(maxsize=None)
def subtree_incidence(tree, k):
    """The 0/1 matrix (read-only) with one row per rooted connected subset of
    size <= k, from enumerate_rooted_subtrees, and one column per node:
    enumerated once per (tree, k)."""
    subsets = enumerate_rooted_subtrees(tree, k)
    incidence = np.zeros((len(subsets), tree.p))
    for row, s in enumerate(subsets):
        incidence[row, [i - 1 for i in s]] = 1.0
    incidence.flags.writeable = False
    return incidence


def best_subtree_energy(tree, v, k):
    """Max captured energy over all rooted connected supports of size <= k."""
    return float(np.max(subtree_incidence(tree, k) @ np.square(v)))


def group_list(tree):
    """The group g_i of every node i of the tree, deepest first and by index
    within a depth.  g_i = {i} and its descendants, in increasing order,
    found by walking each node's parents (j > 1 has parent (j - 2) // d + 1)."""
    p, d = tree.p, tree.d
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
    return [tuple(members[i]) for i in order]


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


# treesense.baselines' MFISTA kernel as it was before it reused buffers and
# soft-thresholded in clip form, kept verbatim: lasso_solve with
# baselines._mfista swapped for reference_mfista must return the same values


def _dot(U, V):
    """Row-wise dot products of two (..., p) arrays."""
    return (U[..., None, :] @ V[..., :, None])[..., 0, 0]


def reference_mfista(apply_K, b, lam, max_iters, tol):
    """MFISTA on f(x) + lam|x|_1, f(x) = ||y||^2/2 - x.b + x.Kx/2, for
    (B, q, p) coefficient rows b and (B, q) weights lam, where apply_K(D)
    is D K.  Each point travels with its gradient Kx - b as a pair
    (2, B, q, p): the momentum step is an affine combination, so the same
    combination of gradients is the new point's gradient, and none is
    recomputed.  Returns the kept pairs (X, KX - b) and which (stack,
    column) pairs were still running at max_iters."""
    B, q, p = b.shape
    out = np.empty((2, B, q, p))
    cols = np.arange(q)   # columns live in some stack; the arrays below hold only these
    live = np.ones((B, q), dtype=bool)
    XP = ZP = np.stack([np.zeros((B, q, p)), -b])
    l1_X = max_X = np.zeros((B, q))   # |X|_1 and max|X| of the kept iterates
    L = np.ones((B, q))
    t_mom = 1.0
    for _ in range(max_iters):
        Z, GZ = ZP
        WP = np.empty_like(ZP)
        W, GW = WP
        while True:
            # W = Z - GZ/L soft-thresholded at lam/L
            V = Z - GZ / L[..., None]
            np.abs(V, out=W)
            W -= (lam / L)[..., None]
            np.copysign(np.maximum(W, 0.0, out=W), V, out=W)
            D = W - Z
            KD = apply_K(D)
            # f is quadratic, so f(W) <= f(Z) + GZ.D + L|D|^2/2 is D.KD <= L|D|^2
            ok = (_dot(D, KD) <= L * _dot(D, D)) | ~live
            if ok.all():
                break
            L = np.where(ok, L, 2.0 * L)
            if np.any(L > 1e18):
                raise RuntimeError("lasso step size underflow: problem badly scaled")
        np.add(GZ, KD, out=GW)
        # monotone: the kept iterate X never increases the objective, while
        # the momentum point Z tracks the accelerated step W; a frozen pair
        # keeps X and restarts Z from it.  f(W) - f(X) is read as
        # E.(GW + GX)/2, E = W - X, which does not cancel against ||y||^2/2
        EP = WP - XP
        E = EP[0]
        abs_W = np.abs(W)
        l1_W, max_W = abs_W.sum(axis=2), abs_W.max(axis=2)
        better = (0.5 * _dot(E, GW + XP[1]) + lam * (l1_W - l1_X) <= 0) & live
        t_next = (1 + math.sqrt(1 + 4 * t_mom**2)) / 2
        # Z = X_new + (t/t_next)(W - X_new) + ((t-1)/t_next)(X_new - X) is
        # X_new + c (W - X): c = (t-1)/t_next where W is kept, t/t_next
        # where X is, and 0 for a frozen pair
        if better.all():   # the common case
            XP, l1_X, max_X, c = WP, l1_W, max_W, (t_mom - 1) / t_next
        else:
            XP = np.where(better[..., None], WP, XP)
            l1_X, max_X = np.where(better, l1_W, l1_X), np.where(better, max_W, max_X)
            c = np.where(better, (t_mom - 1) / t_next, np.where(live, t_mom / t_next, 0.0))
            c = c[..., None]
        ZP = XP + c * EP
        t_mom = t_next
        live &= np.abs(E).max(axis=2) >= tol * (1.0 + max_X)
        run = live.any(axis=0)
        if not run.all():
            out[:, :, cols[~run]] = XP[:, :, ~run]
            cols, XP, ZP = cols[run], XP[:, :, run], ZP[:, :, run]
            live, lam, L, l1_X, max_X = (a[:, run] for a in (live, lam, L, l1_X, max_X))
        if not len(cols):
            break
    out[:, :, cols] = XP
    running = np.zeros((B, q), dtype=bool)
    running[:, cols] = live
    return out, running


def significant_set(batch):
    """The support estimate of a sensing batch: its significant node ids."""
    return set(batch.node[batch.significant].tolist())


def significant_sets(batch):
    """The support estimate of each session of a sensing batch, a list of T
    sets of significant node ids."""
    sets = [set() for _ in range(len(batch.m))]
    sig = batch.significant
    for t, node in zip(batch.trial[sig].tolist(), batch.node[sig].tolist()):
        sets[t].add(node)
    return sets


def support_of(vec):
    """The support of a dense length-p vector: its nonzero node ids."""
    return set((np.flatnonzero(vec) + 1).tolist())


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


def _children_within(j, d, last):
    return range(d * (j - 1) + 2, min(d * j + 1, last) + 1)


def _last_node(tree, max_depth):
    d, last = tree.d, tree.p
    if max_depth is not None:
        last = min(last, (d ** max(max_depth, 0) - 1) // (d - 1))
    return last


def _signed_values(tree, support, mags, signs):
    values = np.zeros(tree.p)
    for idx, node in enumerate(support):
        values[node - 1] = signs[idx] * mags[idx]
    return values


def reference_random_tree_sparse(tree, k, amp_min, amp_max, rng, max_depth=None):
    """Scalar support grower: (values, support) of one k-tree-sparse vector.
    The support is grown from the root by k - 1 steps over a boundary list,
    with the k - 1 uniforms drawn as one rng.random block: step s picks
    entry floor(u_s * len), moves the list's last entry into that slot,
    drops the last slot and appends the new node's children."""
    d, last = tree.d, _last_node(tree, max_depth)
    support, boundary = [1], list(_children_within(1, d, last))
    for u in rng.random(k - 1).tolist():
        pick = int(u * len(boundary))
        j = boundary[pick]
        boundary[pick] = boundary[-1]
        boundary.pop()
        support.append(j)
        boundary.extend(_children_within(j, d, last))
    mags = rng.uniform(amp_min, amp_max, size=k)
    signs = rng.choice([-1.0, 1.0], size=k)
    return _signed_values(tree, support, mags, signs), frozenset(support)


def reference_random_tree_sparse_batch(tree, k, amp_min, amp_max, rng, trials,
                                       max_depth=None):
    """(nodes, values) of `trials` k-tree-sparse vectors grown as Python
    lists: one rng.random((k - 1, trials)) block of uniforms, then at each
    step every row takes its uniform's entry, swaps its last boundary entry
    into that slot and appends the new node's children."""
    d, last = tree.d, _last_node(tree, max_depth)
    supports = [[1] for _ in range(trials)]
    boundaries = [list(_children_within(1, d, last)) for _ in range(trials)]
    for row in rng.random((k - 1, trials)).tolist():
        for support, boundary, u in zip(supports, boundaries, row):
            pick = int(u * len(boundary))
            support.append(boundary[pick])
            boundary[pick] = boundary[-1]
            boundary.pop()
            boundary.extend(_children_within(support[-1], d, last))
    mags = rng.uniform(amp_min, amp_max, size=(trials, k))
    signs = rng.choice([-1.0, 1.0], size=(trials, k))
    return np.array(supports).reshape(trials, k), signs * mags


def popping_random_tree_sparse(tree, k, amp_min, amp_max, rng):
    """(values, support) of one k-tree-sparse vector by the grower rule
    treesense used before its swap-remove grower: each step draws
    rng.integers(len) and pops that boundary entry, keeping the later ones
    in order.  It draws a different stream from the same law, so test data
    sets drawn with it keep their values."""
    support, boundary = [1], list(_children_within(1, tree.d, tree.p))
    while len(support) < k:
        j = boundary.pop(rng.integers(len(boundary)))
        support.append(j)
        boundary.extend(_children_within(j, tree.d, tree.p))
    mags = rng.uniform(amp_min, amp_max, size=k)
    signs = rng.choice([-1.0, 1.0], size=k)
    return _signed_values(tree, support, mags, signs), frozenset(support)


def uniform_growth_law(tree, k, max_depth=None):
    """{support: probability} of the k-node supports grown from the root by
    adding a uniformly chosen boundary node k - 1 times, found by pushing
    each set's probability forward over its boundary, set by set."""
    d, last = tree.d, _last_node(tree, max_depth)
    law = {frozenset([1]): 1.0}
    for _ in range(k - 1):
        nxt = {}
        for sup, prob in law.items():
            boundary = [c for j in sup for c in _children_within(j, d, last) if c not in sup]
            for c in boundary:
                grown = sup | {c}
                nxt[grown] = nxt.get(grown, 0.0) + prob / len(boundary)
        law = nxt
    return law


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


def _reference_cells(column, n):
    """A table entry's n cells, as write_csv formatted them before it wrote
    its own fields: a float as 12 significant digits, anything else as the
    csv module writes it (None and "" empty, str() otherwise)."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        # one format per distinct bit pattern (so -0.0 stays apart from 0.0)
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        return np.array(_reference_cells(bits.view(np.float64).tolist(), n),
                        object)[inverse].tolist()
    if isinstance(column, np.ndarray):   # integers, bools or strings
        return column.tolist()
    if not isinstance(column, list):
        return itertools.repeat(_reference_cells([column], 1)[0], n)
    return [f"{v:.12g}" if isinstance(v, float) else v for v in column]


def reference_table_csv(path, table):
    """write_csv's table form written through csv.writer, one row at a time.
    Before Python 3.13 the csv module leaves a field holding a carriage
    return unquoted, so only tables without one are written as write_csv
    writes them."""
    n = max(len(col) for col in table.values() if isinstance(col, (list, np.ndarray)))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(zip(*(_reference_cells(table[name], n) for name in CSV_FIELDS),
                             strict=True))
    return n


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
