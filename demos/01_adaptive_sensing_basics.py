"""Walk through one adaptive acquisition session on a tree-sparse signal.

Shows the heap-ordered tree layout, the threshold traversal, the dk+1
measurement law in the noiseless case, and the analytic failure bound in the
noisy case.
"""

import numpy as np

from treesense import (SensingConfig, adaptive_sense_coeffs, allocate_beta, failure_bound,
                       make_tree, min_amplitude, random_tree_sparse, random_tree_sparse_batch,
                       tree_sparse_rows)


def support_of(v):
    """Node ids (1-based, heap order) of the nonzero coefficients."""
    return set((np.flatnonzero(v) + 1).tolist())


rng = np.random.default_rng(0)

d, L, k = 2, 6, 8
tree = make_tree(d, L)
print(f"binary tree of depth {L}: p = {tree.p} nodes")
print(f"children of node 3: {tree.children(3)}; parent of 12: {tree.parent(12)}")

# A tree-sparse signal: a length-p coefficient array whose nonzeros form a
# rooted connected subtree.
vec = random_tree_sparse(tree, k, amp_min=1.0, amp_max=2.0, rng=rng,
                         max_depth=L - 1)
print(f"\nplanted support ({k} nodes): {sorted(support_of(vec))}")

# Noiseless session: each node measurement is exact, so the traversal stops
# after measuring the support plus its boundary -- exactly dk+1 measurements.
cfg = SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)
out = adaptive_sense_coeffs(vec, tree, cfg, rng)   # a one-session batch
found = set(out.node[out.significant].tolist())
print(f"noiseless session: m = {out.m[0]} (predicted {d * k + 1}), "
      f"recovered support correct: {found == support_of(vec)}")

# Noisy session under an energy budget R: beta spreads the budget over the
# (d+1)k measurements a correct session needs, and the threshold tau trades
# false alarms against misses.
R = 3 * (d + 1) * k
beta = allocate_beta(R, d, k)
alpha = min_amplitude(c1=1.0, a=0.5, d=d, k=k, beta=beta)
tau = 0.5 * beta * alpha
print(f"\nbudget R = {R}: beta = {beta:.3f}, "
      f"recoverable amplitude >= {alpha:.3f}, tau = {tau:.3f}")
print(f"analytic failure bound: {failure_bound(beta, tau, alpha, k, d):.4g}")

# Many sessions run in one call: row t of the (trials, p) coefficients is
# one signal, and session t of the batch senses it (batch.trial says which).
trials = 2000
nodes, values = random_tree_sparse_batch(tree, k, alpha, alpha, rng, trials,
                                         max_depth=L - 1)
batch = adaptive_sense_coeffs(tree_sparse_rows(tree, nodes, values), tree,
                              SensingConfig(beta=beta, tau=tau, noise_std=1.0), rng)
found = [set() for _ in range(trials)]
for t, node in zip(batch.trial[batch.significant], batch.node[batch.significant]):
    found[t].add(int(node))
fails = sum(f != set(row) for f, row in zip(found, nodes.tolist()))
print(f"empirical failure rate over {trials} trials: {fails / trials:.4g}")
