"""Shared independent oracles for the test suite.

These deliberately avoid the library's own algorithms: subtree enumeration
is exhaustive recursion, the lasso oracle is exact coordinate descent, the
Lasso kernel reference is the solver's earlier MFISTA loop, kept verbatim,
the group list is built by walking parents, the traversal and tree-sparsity
references are the scalar loops the library's array engines replaced, the
support growers are list loops and their law is pushed forward set by set,
the projection reference is a per-node DP, the model-CoSaMP reference solves
one problem at a time with lstsq and that DP, the CSV references write one row
dict at a time or a table through csv.writer, and the prox oracle (in
test_prox) is a KKT / duality-gap certificate built from per-group duals.

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

from treesense import (CSV_FIELDS, SensingConfig, SessionBatch, TrainingSet,
                       adaptive_sense_coeffs, allocate_beta, box_downscale, pca_fit,
                       pca_reconstruct, read_pgm, reconstruct_from_outcome, snr_db,
                       wavelet_reconstruct, wavelet_sense)
from treesense.harness import _extend, _random_projection_arms, _trial_noise, _trial_rngs
from treesense.sensing import _synthesize

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


def reference_model_cosamp(A, y, k, tree, iters=20, tol=1e-6):
    """(x, reason, rounds) of one model-based CoSaMP problem, A (m, p) and y
    (m,): Needell & Tropp's Algorithm 1 (ACHA 2009) with both best-term
    steps replaced by reference_project, as in Baraniuk et al.'s
    model-based CS.  Each round merges the 2k-node projection of the proxy
    A^T r with the nonzeros of x, solves least squares on the merged
    columns with lstsq and keeps the k-node projection of that solution.
    reason is 1 once |r| < tol |y|, 2 once |r| stops falling by a relative
    1e-9, 0 after iters rounds and 3 (after 0 rounds) for y = 0."""
    p = A.shape[1]
    x, r, prev = np.zeros(p), y, math.inf
    if not np.linalg.norm(y) > 0:
        return x, 3, 0
    for rounds in range(1, iters + 1):
        omega = reference_project(r @ A, tree, min(2 * k, p))[0]
        merged = sorted(omega | set((np.flatnonzero(x) + 1).tolist()))
        cols = np.array(merged) - 1
        b = np.zeros(p)
        b[cols] = np.linalg.lstsq(A[:, cols], y, rcond=None)[0]
        x = reference_project(b, tree, k)[1]
        r = y - A @ x
        rnorm = np.linalg.norm(r)
        if rnorm < tol * np.linalg.norm(y):
            return x, 1, rounds
        if rnorm >= prev * (1 - 1e-9):
            return x, 2, rounds
        prev = rnorm
    return x, 0, iters


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


def session(batch, t):
    """Session t of a SessionBatch, as a one-session batch."""
    keep = batch.trial == t
    return SessionBatch(trial=np.zeros(keep.sum(), dtype=batch.trial.dtype),
                        node=batch.node[keep], y=batch.y[keep],
                        significant=batch.significant[keep], m=batch.m[t:t + 1],
                        energy_spent=batch.energy_spent[t:t + 1],
                        truncated=batch.truncated[t:t + 1])


def assert_session_is(batch, t, one):
    """Session t of batch equals the one-session batch one, bit for bit."""
    mine = batch.trial == t
    for name in ("node", "y", "significant"):
        assert getattr(batch, name)[mine].tobytes() == getattr(one, name).tobytes()
    for name in ("m", "energy_spent", "truncated"):
        assert getattr(batch, name)[t:t + 1].tobytes() == getattr(one, name).tobytes()


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


def reference_load_corpus(path, target_side):
    """load_corpus one file at a time: read, rescale and flatten each image
    column-major, stack the columns and center."""
    names = sorted(f for f in os.listdir(path) if f.lower().endswith(".pgm"))
    cols = []
    for name in names:
        full = os.path.join(path, name)
        img = read_pgm(full)   # its errors name the path
        try:
            img = box_downscale(img, target_side)
        except ValueError as exc:
            raise ValueError(f"{full}: {exc}") from exc
        cols.append(img.flatten(order="F"))
    if not cols:
        raise ValueError(f"no PGM images found in {path}")
    return TrainingSet.from_raw(np.column_stack(cols))


def reference_sense_signal(cfg, dictionary, dict_mean, x, sig_idx=0, note=""):
    """sense_signal with one sensing call and one reconstruction per (budget,
    tau) cell, each of the cell's trials on its own generator."""
    k = cfg.sparsity_for(dictionary.tree.p)
    x = np.asarray(x, dtype=float)
    if x.shape != (dictionary.atoms.shape[0],):
        raise ValueError(f"signal of {x.size} entries does not match the dictionary's "
                         f"atoms of dimension {dictionary.atoms.shape[0]}")
    c = dictionary.atoms.T @ (x - dict_mean)
    rows = np.broadcast_to(c, (cfg.trials, len(c)))
    table = {name: [] for name in CSV_FIELDS}
    for b, R in enumerate(cfg.budgets):
        beta = allocate_beta(R, dictionary.tree.d, k)
        for tau_idx, tau in enumerate(cfg.taus):
            sense_cfg = SensingConfig(beta=beta, tau=tau, noise_std=cfg.noise_std, budget=R)
            batch = adaptive_sense_coeffs(rows, dictionary.tree, sense_cfg,
                                          _trial_rngs(cfg, 1, b, sig_idx, tau_idx))
            x_hat = reconstruct_from_outcome(batch, dictionary, beta, dict_mean)
            _extend(table, "adaptive", R, tau, batch.m, range(cfg.trials),
                    snr_db(x, x_hat), batch.energy_spent, note)
    return table


def reference_compare_methods(cfg, training, dictionary, dict_mean):
    """compare_methods with its adaptive arm from reference_sense_signal and
    one wavelet_sense call and one reconstruction per (budget, signal, tau)
    cell."""
    n = dictionary.atoms.shape[0]
    tree = dictionary.tree
    k = cfg.sparsity_for(tree.p)
    measurements = [int(m) for m in
                    cfg.measurements or (tree.p // 4, tree.p // 2, tree.p)]
    note = "in-sample" if cfg.in_sample else "held-out"

    table = {name: [] for name in CSV_FIELDS}
    if not cfg.budgets:
        return table
    test_matrix = training.data[:, :cfg.test_signals] + training.mean[:, None]
    n_test = test_matrix.shape[1]

    side = int(round(math.sqrt(n)))
    is_image = side * side == n and side >= 2 and not (side & (side - 1))

    pca = pca_fit(training)
    rand_arms = _random_projection_arms(cfg, dictionary, dict_mean, test_matrix,
                                        measurements, k)
    # adaptive dictionary sensing at each threshold, per signal budget-major
    adaptive = [reference_sense_signal(cfg, dictionary, dict_mean, test_matrix[:, sig_idx],
                                       sig_idx, f"{note};signal={sig_idx}")
                for sig_idx in range(n_test)]
    per_budget = len(cfg.taus) * cfg.trials
    trials = range(cfg.trials)
    for b, R in enumerate(cfg.budgets):
        beta_w = math.sqrt(R / (3 * k + 1))   # wavelet arm: nominal m = 3k+1
        for sig_idx in range(n_test):
            x = test_matrix[:, sig_idx]
            tag = f"{note};signal={sig_idx}"
            for name, column in adaptive[sig_idx].items():
                table[name] += column[b * per_budget:(b + 1) * per_budget]

            for m in measurements:
                # PCA at matched measurement count, up to the training data's rank
                if m <= pca.components.shape[1]:
                    x_hat = pca_reconstruct(pca, x, R, _trial_noise(cfg, m, 2, b, sig_idx, m))
                    _extend(table, "pca", R, "", m, trials, snr_db(x, x_hat), R, tag)

                # Lasso and model-CoSaMP rows, alternating per trial (one ensemble per (R, m))
                alphas, cosamp = rand_arms[m]
                cols = slice(sig_idx * cfg.trials, (sig_idx + 1) * cfg.trials)
                coef = np.stack([alphas[b, :, cols], cosamp[b, :, cols]], axis=2)
                x_hat = dict_mean + _synthesize(dictionary.atoms, coef.reshape(tree.p, -1).T)
                _extend(table, ["lasso", "model-cosamp"] * cfg.trials, R, "", m,
                        np.repeat(trials, 2), snr_db(x, x_hat), R, tag)

            # direct wavelet sensing (image signals only)
            if is_image:
                img = x.reshape((side, side), order="F")
                for tau_idx, tau_w in enumerate((0.0, 0.5)):
                    sense_cfg = SensingConfig(beta=beta_w, tau=tau_w,
                                              noise_std=cfg.noise_std, budget=R)
                    batch = wavelet_sense(img, sense_cfg,
                                          _trial_rngs(cfg, 5, b, sig_idx, tau_idx))
                    rec = wavelet_reconstruct(batch, side, beta_w)
                    x_hat = rec.transpose(0, 2, 1).reshape(cfg.trials, n)   # column-major
                    _extend(table, "wavelet", R, tau_w, batch.m, trials, snr_db(x, x_hat),
                            batch.energy_spent, tag)
    return table


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
