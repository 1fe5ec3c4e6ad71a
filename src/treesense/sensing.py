"""Sequential adaptive acquisition of tree-sparse signals.

Measurements project the signal onto scaled dictionary atoms, starting at the
root of the coefficient tree and descending into a node's children only when
the measured value passes a significance threshold.

One engine runs the traversal over a coefficient array laid out in BFS order,
for any number of independent sessions at once: each tree level is one step
of a fixed number of array operations, whatever the number of sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SensingConfig",
    "SessionBatch",
    "allocate_beta",
    "adaptive_sense",
    "adaptive_sense_coeffs",
    "adaptive_sense_batch",
    "reconstruct_from_outcome",
    "two_stage_estimate",
    "two_stage_estimate_coeffs",
]


@dataclass(frozen=True)
class SensingConfig:
    """Parameters of one acquisition session.

    beta scales every test vector (so each measurement costs beta^2 of the
    energy budget), tau is the significance threshold on the raw measurement,
    and budget is the total sensing energy (None = unbounded).
    """

    beta: float
    tau: float
    noise_std: float = 1.0
    budget: float | None = None

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.tau >= 0:
            raise ValueError("tau must be nonnegative")
        if not self.noise_std >= 0:
            raise ValueError("noise_std must be nonnegative")
        if self.budget is not None and not self.budget > 0:
            raise ValueError("budget must be positive or None")


@dataclass
class SessionBatch:
    """Measurements of T independent sessions, the result of every sensing
    call (the one-vector calls return T = 1).

    trial, node, y and significant hold one entry per measurement, tree
    level by tree level and, within a level, by trial and then by node, so
    the entries of one trial are in the order that session took them.  m,
    energy_spent and truncated hold one entry per trial; truncated is True
    when the session stopped because the next measurement would have passed
    the energy budget, rather than because its frontier ran empty.
    """

    trial: np.ndarray
    node: np.ndarray
    y: np.ndarray
    significant: np.ndarray
    m: np.ndarray
    energy_spent: np.ndarray
    truncated: np.ndarray


def allocate_beta(budget_R, d, k):
    """Per-measurement scale that spends budget_R over (d+1)k measurements."""
    if budget_R <= 0 or d <= 0 or k <= 0:
        raise ValueError("budget_R, d, and k must all be positive")
    return math.sqrt(budget_R / ((d + 1) * k))


def _traverse(coeff, n, d, shift, roots, trials, cfg, rng):
    """The threshold traversal of `trials` sessions, one tree level per step.

    Positions 0..n-1 are in BFS order: the children of position i are
    d*i + shift .. d*i + shift + d - 1, when those lie after i and below n.
    Every session starts from the positions `roots`; coeff(t, i) returns the
    noiseless coefficients at positions i of trials t.  The frontier is a
    flat list of (trial, position) pairs sorted by trial, then position,
    which within a trial is the order a FIFO queue would measure them in.
    Noise is one block per level, drawn in frontier order, so a single
    session draws exactly the values of one scalar draw per measurement.
    Returns a SessionBatch whose nodes are positions.
    """
    # The energy meter starts at 0 and adds cost once per measurement, and a
    # session stops before the meter would pass the budget.  accumulate adds
    # in the same sequence, so its sums are the meter's, bit for bit.
    cost = cfg.beta**2
    limit = n
    if cfg.budget is not None:
        # the rounding of the sums is far below the 1e-6 margin
        spent = np.cumsum(np.full(int(min(n, cfg.budget / cost * (1 + 1e-6) + 2)), cost))
        limit = int(np.count_nonzero(spent <= cfg.budget * (1 + 1e-12)))
    roots = np.asarray(roots)
    t = np.repeat(np.arange(trials), len(roots))
    i = np.tile(roots, trials)
    m = np.zeros(trials, dtype=np.int64)
    truncated = np.zeros(trials, dtype=bool)
    levels = []
    while True:
        counts = np.bincount(t, minlength=trials)
        if (m + counts).max(initial=0) > limit:
            # a session measures its frontier in order until it reaches limit
            rank = m[t] + np.arange(len(t)) - (np.cumsum(counts) - counts)[t]
            keep = rank < limit
            truncated[t[~keep]] = True
            t, i = t[keep], i[keep]
            counts = np.minimum(counts, limit - m)
        y = cfg.beta * coeff(t, i)
        if cfg.noise_std > 0:
            y += cfg.noise_std * rng.standard_normal(len(t))
        sig = np.abs(y) >= cfg.tau
        levels.append((t, i, y, sig))
        m += counts
        first = d * i + shift
        grow = sig & (first > i) & (first + d <= n)
        t = np.repeat(t[grow], d)
        i = (first[grow, None] + np.arange(d)).ravel()
        if not len(t):
            break
    trial, node, y, sig = map(np.concatenate, zip(*levels))
    meter = np.cumsum(np.r_[0.0, np.full(m.max(initial=0), cost)])
    return SessionBatch(trial=trial, node=node, y=y, significant=sig, m=m,
                        energy_spent=meter[m], truncated=truncated)


def _coeffs(alpha, tree):
    a = np.asarray(alpha, dtype=float)
    if a.shape != (tree.p,):
        raise ValueError(f"expected length-{tree.p} coefficient vector")
    return a


def adaptive_sense(signal, dictionary, cfg, rng):
    """Run the threshold-traversal acquisition of signal against dictionary.

    Returns a one-session SessionBatch: the measured node ids, observations
    and significance flags, in the order taken; the support estimate is the
    significant nodes.
    """
    x = np.asarray(signal, dtype=float)
    atoms = dictionary.atoms
    if atoms.shape[0] != x.shape[0]:
        raise ValueError("signal dimension does not match dictionary atoms")
    return adaptive_sense_coeffs(atoms.T @ x, dictionary.tree, cfg, rng)


def adaptive_sense_coeffs(alpha, tree, cfg, rng):
    """Same traversal, sensing a coefficient vector directly (identity dictionary)."""
    alpha = _coeffs(alpha, tree)
    return adaptive_sense_batch(np.arange(1, tree.p + 1)[None], alpha[None], tree, cfg, rng)


def adaptive_sense_batch(nodes, values, tree, cfg, rng):
    """Sense T coefficient vectors at once, each in its own session.

    nodes and values are (T, k): vector t is values[t] at the distinct
    integer node ids nodes[t], each in 1..p, and zero elsewhere; anything
    else raises ValueError.  Returns a SessionBatch with node ids.  A
    session draws the same noise, value for value, as a one-vector call on
    its dense vector.  The coefficients are looked up through a slot map of
    T * p entries of the smallest signed integer type that holds -k (one
    byte each up to k = 128), so a batch holds O(T * p) bytes besides its
    measurements.
    """
    nodes = np.asarray(nodes)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 2 or nodes.shape != values.shape:
        raise ValueError("nodes and values must be (T, k) arrays of one shape")
    (trials, k), p = nodes.shape, tree.p
    if nodes.size and nodes.dtype.kind not in "iu":
        raise ValueError(f"node ids must be integers, got dtype {nodes.dtype}")
    if nodes.size and not (nodes.min() >= 1 and nodes.max() <= p):
        raise ValueError(f"node ids must be in 1..{p}")
    # slot[t * p + i] is the column of node i + 1 in row t, or -1, which
    # reads the zero column appended to the values
    rows, cols, index = np.arange(trials)[:, None], np.arange(k), nodes.astype(np.intp) - 1
    slot = np.full((trials, p), -1, dtype=np.min_scalar_type(-max(k, 1)))
    slot[rows, index] = cols
    if (slot[rows, index] != cols).any():
        raise ValueError("node ids must be distinct within a row")
    slot = slot.reshape(-1)
    padded = np.zeros((trials, k + 1))
    padded[:, :k] = values

    def coeff(t, i):
        return padded[t, slot[t * p + i]]

    batch = _traverse(coeff, p, tree.d, 1, [0], trials, cfg, rng)
    batch.node += 1
    return batch


def reconstruct_from_outcome(batch, dictionary, beta, mean_offset=None):
    """Weighted-atom reconstruction from a one-session SessionBatch.

    Only atoms whose measurement passed the threshold contribute; each weight
    is the observation divided by beta, which unbiases the scaled measurement.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    if len(batch.m) != 1:
        raise ValueError(f"expected a batch of one session, got {len(batch.m)}")
    sig = batch.significant
    x_hat = dictionary.atoms[:, batch.node[sig] - 1] @ (batch.y[sig] / beta)
    return x_hat if mean_offset is None else np.asarray(mean_offset, dtype=float) + x_hat


def two_stage_estimate(signal, dictionary, total_budget, k, rng, alpha_min, noise_std=1.0):
    """Support recovery followed by re-measurement of the recovered support.

    Stage 1 runs the threshold traversal, with threshold beta_1 * alpha_min / 2,
    on half of total_budget; stage 2 spends the other half equally on one
    fresh measurement per recovered index: len(S_hat) * beta_2^2 = R/2.
    Returns (estimate, batch): the rescaled stage-2 observations at S_hat
    and zero elsewhere (all zero when S_hat is empty), and stage 1's session.
    """
    x = np.asarray(signal, dtype=float)
    return two_stage_estimate_coeffs(dictionary.atoms.T @ x, dictionary.tree, total_budget,
                                     k, rng, alpha_min, noise_std)


def two_stage_estimate_coeffs(alpha, tree, total_budget, k, rng, alpha_min, noise_std=1.0):
    """Coefficient-domain variant of two_stage_estimate."""
    c = _coeffs(alpha, tree)
    # Half the budget finds the support and half re-measures it: criterion
    # 3's 2k^2 sigma^2 / R error prediction assumes this split.
    if total_budget <= 0:
        raise ValueError("total_budget must be positive")
    half = 0.5 * total_budget
    beta1 = allocate_beta(half, tree.d, k)
    cfg = SensingConfig(beta=beta1, tau=0.5 * beta1 * alpha_min, noise_std=noise_std,
                        budget=half)
    batch = adaptive_sense_coeffs(c, tree, cfg, rng)

    estimate = np.zeros(tree.p)
    s_hat = np.sort(batch.node[batch.significant]) - 1
    if len(s_hat):
        beta2 = math.sqrt(half / len(s_hat))
        y2 = beta2 * c[s_hat]
        if noise_std > 0:
            y2 += noise_std * rng.standard_normal(len(s_hat))
        estimate[s_hat] = y2 / beta2
    return estimate, batch
