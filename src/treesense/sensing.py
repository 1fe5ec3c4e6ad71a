"""Sequential adaptive acquisition of tree-sparse signals.

Measurements project the signal onto scaled dictionary atoms, starting at the
root of the coefficient tree and descending into a node's children only when
the measured value passes a significance threshold.

One engine runs the traversal over a coefficient array laid out in BFS order,
for any number of independent sessions at once: each tree level is one step
of a fixed number of array operations, whatever the number of sessions.
Every call that draws noise takes rng as one generator, which all sessions
draw from in turn, or as a list of one generator per session, on which
session t makes exactly the draws a one-session call on rng[t] makes.  The
sensing calls take cfg likewise, as one SensingConfig or as a list of one
per session, and the reconstructions take beta as one value or one per
session, so sessions of different budgets and thresholds run in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import _generators

__all__ = [
    "SensingConfig",
    "SessionBatch",
    "allocate_beta",
    "adaptive_sense_coeffs",
    "reconstruct_from_outcome",
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
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be nonnegative and finite, got {self.tau}")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be nonnegative and finite, got {self.noise_std}")
        if self.budget is not None and not self.budget > 0:
            raise ValueError("budget must be positive or None")


@dataclass
class SessionBatch:
    """Measurements of T independent sessions, the result of every sensing
    call: T is the number of coefficient rows sensed, or, for wavelet_sense,
    the length of whichever of cfg and rng is a list (1 when neither is).

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
    if not (budget_R > 0 and d > 0 and k > 0):
        raise ValueError("budget_R, d, and k must all be positive")
    return math.sqrt(budget_R / ((d + 1) * k))


def _meter(beta, budget, n):
    """(meter, limit) of sessions at this beta and budget over at most n
    measurements: meter[j] is the energy of j measurements, added up one
    cost at a time from 0 (0.0 + cost is exact), its rounding far below the
    1e-6 margin of its length; a session stops after limit measurements,
    before the meter would pass the budget."""
    cost, budget = beta**2, math.inf if budget is None else budget
    meter = np.full(int(min(n, budget / cost * (1 + 1e-6) + 2)) + 1, cost)
    meter[0] = 0.0
    meter = meter.cumsum()
    return meter, int(np.count_nonzero(meter[1:] <= budget * (1 + 1e-12)))


def _session_params(cfg, trials, n):
    """beta, tau, noise_std and limit of every session, as arrays of one
    entry per session, and each session's meter: meters[start[t] + j] is
    session t's energy after j measurements.  cfg is one config for all
    sessions or a list or tuple of one per session; each distinct config
    has its own meter, so a session spends what a one-session call on its
    config does."""
    if isinstance(cfg, (list, tuple)):
        if len(cfg) != trials:
            raise ValueError(f"{len(cfg)} configs for {trials} sessions: pass one config, "
                             "or a list of one per session")
        index = {}
        which = np.array([index.setdefault(c, len(index)) for c in cfg], dtype=np.int64)
        configs = list(index)
    else:
        configs, which = [cfg], np.zeros(trials, dtype=np.int64)
    meters = [_meter(c.beta, c.budget, n) for c in configs]
    start = np.cumsum([0] + [len(meter) for meter, _ in meters])[:-1]
    beta, tau, noise_std = np.array([(c.beta, c.tau, c.noise_std)
                                     for c in configs]).reshape(-1, 3).T
    limit = np.array([limit for _, limit in meters], dtype=np.int64)
    return (beta[which], tau[which], noise_std[which], limit[which],
            np.concatenate([np.empty(0)] + [meter for meter, _ in meters]), start[which])


def _traverse(coeff, n, d, shift, roots, trials, cfg, rng):
    """The threshold traversal of `trials` sessions, one tree level per step.

    Positions 0..n-1 are in BFS order: the children of position i are
    d*i + shift .. d*i + shift + d - 1, when those lie after i and below n.
    With shift >= 1 they always lie after i, as in heap order, so only
    shift = 0 tests it: there position 0 (the quadtrees' scaling
    coefficient) would be its own first child, and it has none.
    Every session starts from the positions `roots`; coeff(t, i) returns the
    noiseless coefficients at positions i of trials t.  cfg is one
    SensingConfig, which every session uses, or a list of one per session,
    each with its own beta, tau, noise_std and budget; rng is one generator
    or a list of one per session (_generators).  The frontier is a flat
    list of (trial, position) pairs sorted by trial, then position, which
    within a trial is the order a FIFO queue would measure them in.  Noise
    is drawn level by level, in frontier order, by _normals, so one session
    draws exactly the values of one scalar draw per measurement, and a
    session whose noise_std is 0 draws nothing and adds -0.0, which leaves
    its values as they are.  Returns a SessionBatch whose nodes are
    positions.
    """
    gens = _generators(rng, trials)
    beta, tau, noise_std, limit, meters, start = _session_params(cfg, trials, n)
    loud = noise_std > 0
    roots = np.asarray(roots)
    t = np.repeat(np.arange(trials), len(roots))
    i = np.tile(roots, trials)
    m = np.zeros(trials, dtype=np.int64)
    truncated = np.zeros(trials, dtype=bool)
    levels = []
    while True:
        counts = np.bincount(t, minlength=trials)
        if (m + counts > limit).any():
            # a session measures its frontier in order until it reaches limit
            rank = m[t] + np.arange(len(t)) - (np.cumsum(counts) - counts)[t]
            keep = rank < limit[t]
            truncated[t[~keep]] = True
            t, i = t[keep], i[keep]
            counts = np.minimum(counts, limit - m)
        y = beta[t] * coeff(t, i)
        if loud.any():
            y += noise_std[t] * _normals(gens, counts, loud)
        sig = np.abs(y) >= tau[t]
        levels.append((t, i, y, sig))
        m += counts
        first = d * i + shift
        grow = sig & (first + d <= n)
        if shift < 1:
            grow &= first > i
        t = np.repeat(t[grow], d)
        i = (first[grow, None] + np.arange(d)).ravel()
        if not len(t):
            break
    trial, node, y, sig = map(np.concatenate, zip(*levels))
    return SessionBatch(trial=trial, node=node, y=y, significant=sig, m=m,
                        energy_spent=meters[start + m], truncated=truncated)


def _normals(gens, counts, loud=True):
    """counts[t] values for each row t, in row order, as one array, from
    _generators' (generator, rows) pairs gens: standard normals for each row
    where loud (one bool, or one per row) holds, and -0.0 for each other
    row, which draws nothing and leaves any value it is added to as it is,
    bit for bit.  A single pair makes one draw for all its loud rows; else
    each loud row with a nonzero count draws on its own generator."""
    loud = np.broadcast_to(loud, counts.shape)
    if len(gens) == 1:
        z = gens[0][0].standard_normal(int(counts[loud].sum()))
        if loud.all():
            return z
        out = np.full(int(counts.sum()), -0.0)
        out[np.repeat(loud, counts)] = z
        return out
    rows = np.flatnonzero(counts).tolist()
    return np.concatenate([np.empty(0)] + [gens[r][0].standard_normal(n) if loud[r]
                                           else np.full(n, -0.0)
                                           for r, n in zip(rows, counts[rows].tolist())])


def _coeffs(alpha, tree):
    """alpha as (T, p) rows; a length-p vector is one row."""
    a = np.asarray(alpha, dtype=float)
    if a.shape[-1:] != (tree.p,) or a.ndim > 2:
        raise ValueError(f"expected a length-{tree.p} coefficient vector or (T, {tree.p}) "
                         f"rows, got shape {a.shape}")
    return a.reshape(-1, tree.p)


def _sense_tree(coeff, tree, trials, cfg, rng):
    """The threshold traversal of `trials` sessions from the root of tree,
    where coeff(t, i) returns the coefficients at 0-based nodes i of trials
    t; returns a SessionBatch with node ids 1..p."""
    batch = _traverse(coeff, tree.p, tree.d, 1, [0], trials, cfg, rng)
    batch.node += 1
    return batch


def adaptive_sense_coeffs(alpha, tree, cfg, rng):
    """Run the threshold traversal of a length-p coefficient vector alpha (a
    signal x sensed against an orthonormal dictionary D has alpha = Dᵀx),
    with one generator, or of each row of (T, p) coefficients alpha, with a
    list of T generators (or one that all rows share).  cfg is one
    SensingConfig, or a list of T, row t sensed under cfg[t].  Returns a
    T-session SessionBatch (T = 1 for a vector) with node ids; the support
    estimates are its significant nodes."""
    alpha = _coeffs(alpha, tree)
    return _sense_tree(lambda t, i: alpha[t, i], tree, len(alpha), cfg, rng)


def _scatter(batch, beta, size, first):
    """(T, size): each session's significant observations / beta at its node
    ids, which must all lie in first..first + size - 1, and zero elsewhere;
    beta is one value, or one per session."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape not in ((), (len(batch.m),)):
        raise ValueError(f"{beta.size} betas for {len(batch.m)} sessions: pass one beta, "
                         "or one per session")
    beta = np.broadcast_to(beta, batch.m.shape)
    if not np.all(beta > 0):
        raise ValueError("beta must be positive")
    node = batch.node
    if len(node) and not first <= node.min() <= node.max() < first + size:
        raise ValueError(f"the batch's node ids {node.min()}..{node.max()} do not fit "
                         f"the {size} ids {first}..{first + size - 1} it fills")
    sig = batch.significant
    out = np.zeros((len(batch.m), size))
    t = batch.trial[sig]
    out[t, node[sig] - first] = batch.y[sig] / beta[t]
    return out


def _synthesize(atoms, rows):
    """(T, n): atoms @ rows[t] for each row of rows (T, p), as T stacked
    vector-matrix products, so that each row rounds as a one-row product
    does (one (T, p) @ (p, n) product rounds differently)."""
    return np.matmul(rows[:, None, :], atoms.T)[:, 0]


def reconstruct_from_outcome(batch, dictionary, beta, mean_offset=None):
    """Weighted-atom reconstructions (T, n) of a T-session SessionBatch with
    node ids in 1..p.  Only atoms whose measurement passed the threshold
    contribute; each weight is the observation divided by beta (one value,
    or one per session), which unbiases the scaled measurement.  Session
    t's row is the one a one-session batch of it gives, bit for bit."""
    x_hat = _synthesize(dictionary.atoms, _scatter(batch, beta, dictionary.atoms.shape[1], 1))
    return x_hat if mean_offset is None else np.asarray(mean_offset, dtype=float) + x_hat


def two_stage_estimate_coeffs(alpha, tree, total_budget, k, rng, alpha_min, noise_std=1.0):
    """Support recovery followed by re-measurement of the recovered support,
    on a length-p coefficient vector alpha (Dᵀx for a signal x) with one
    generator, or on each row of (T, p) coefficients alpha with a list of T
    generators (or one that all rows share).

    Stage 1 runs the threshold traversal, with threshold beta_1 * alpha_min / 2,
    on half of total_budget; stage 2 spends the other half equally on one
    fresh measurement per recovered index: len(S_hat) * beta_2^2 = R/2,
    drawing its noise after stage 1 from the same generator.  Returns
    (estimate, batch): the rescaled stage-2 observations at S_hat and zero
    elsewhere (all zero when S_hat is empty), shaped as alpha, and stage 1's
    sessions.
    """
    c = _coeffs(alpha, tree)
    # Half the budget finds the support and half re-measures it: criterion
    # 3's 2k^2 sigma^2 / R error prediction assumes this split.
    if not 0 < total_budget < math.inf:
        raise ValueError(f"total_budget must be positive and finite, got {total_budget}")
    if not 0 <= alpha_min < math.inf:
        raise ValueError(f"alpha_min must be nonnegative and finite, got {alpha_min}")
    half = 0.5 * total_budget
    beta1 = allocate_beta(half, tree.d, k)
    cfg = SensingConfig(beta=beta1, tau=0.5 * beta1 * alpha_min, noise_std=noise_std,
                        budget=half)
    batch = adaptive_sense_coeffs(c, tree, cfg, rng)

    # each row's S_hat, in node order
    found = np.zeros(c.shape, dtype=bool)
    found[batch.trial[batch.significant], batch.node[batch.significant] - 1] = True
    trial, s_hat = np.nonzero(found)
    sizes = np.bincount(trial, minlength=len(c))
    estimate = np.zeros(c.shape)
    if len(s_hat):
        beta2 = np.sqrt(half / sizes[trial])
        y2 = beta2 * c[trial, s_hat]
        if noise_std > 0:
            y2 += noise_std * _normals(_generators(rng, len(c)), sizes)
        estimate[trial, s_hat] = y2 / beta2
    return estimate.reshape(np.shape(alpha)), batch
