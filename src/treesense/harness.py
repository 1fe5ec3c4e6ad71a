"""Experiment orchestration: corpus ingestion, Monte Carlo support-recovery
verification, energy-fair method comparison sweeps, and CSV emission."""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .baselines import gaussian_ensemble, lasso_solve, model_cosamp, pca_fit, pca_reconstruct
from .bounds import failure_bound, min_amplitude
from .dictlearn import Dictionary, TrainingSet, groups_of, tree_prox
from .sensing import (SensingConfig, adaptive_sense, adaptive_sense_batch,
                      allocate_beta, reconstruct_from_outcome)
from .tree import make_tree, random_tree_sparse, random_tree_sparse_batch
from .wavelet import wavelet_reconstruct, wavelet_sense

__all__ = [
    "CSV_FIELDS",
    "ExperimentConfig",
    "snr_db",
    "read_pgm",
    "write_pgm",
    "box_downscale",
    "load_corpus",
    "synthetic_corpus",
    "lambda_for_sparsity",
    "verify_theorem",
    "sense_signal",
    "compare_methods",
    "as_table",
    "write_csv",
    "write_manifest",
]

CSV_FIELDS = ["method", "R", "tau", "m", "trial", "snr_db", "exact",
              "support_exact", "energy_spent", "wall_time", "note"]


def snr_db(x, x_hat):
    """Reconstruction SNR in decibels; +inf signals an exact reconstruction
    (written to CSV via the `exact` sentinel column, never as a number)."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    sig = float(np.sum(x**2))
    if sig == 0:
        raise ValueError("reference signal has zero energy")
    err = float(np.sum((x_hat - x) ** 2))
    if err == 0:
        return math.inf
    return 10.0 * math.log10(sig / err)


# ---------------------------------------------------------------------------
# PGM (P5) ingestion
# ---------------------------------------------------------------------------

# One header field and the separator before it.  A '#' comment must run to
# the end of its line, so that a failed match cannot back into it.
_PGM_FIELD = re.compile(rb"(?:\s|#[^\r\n]*(?:[\r\n]|\Z))+([^\s#]+)")


def _parse_pgm_header(raw):
    """Width, height, maxval and raster offset of a P5 file: after the magic,
    three whitespace-separated decimal fields, then exactly one whitespace byte."""
    values, pos = [], 2
    for _ in range(3):
        m = _PGM_FIELD.match(raw, pos)
        if m is None:
            raise ValueError("truncated PGM header (or fields not separated)")
        if not m.group(1).isdigit():
            raise ValueError(f"non-integer PGM header field {m.group(1)[:16]!r}")
        values.append(int(m.group(1)))
        pos = m.end()
    if not raw[pos:pos + 1].isspace():
        raise ValueError("PGM header does not end in a whitespace byte")
    return (*values, pos + 1)


def read_pgm(path):
    """Binary (P5) grayscale PGM, 8- or 16-bit, mapped to [0, 1].  The raster
    must run exactly to the end of the file; a malformed file raises ValueError
    naming the path."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {raw[:2]!r})")
    try:
        width, height, maxval, start = _parse_pgm_header(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: invalid PGM size {width}x{height}")
    if maxval <= 0 or maxval >= 65536:
        raise ValueError(f"{path}: invalid maxval {maxval}")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    size, found = width * height * dtype.itemsize, len(raw) - start
    if found != size:
        raise ValueError(f"{path}: {found} bytes of pixel data, expected {size}")
    pixels = np.frombuffer(raw, dtype=dtype, offset=start)
    return pixels.reshape(height, width).astype(float) / maxval


def write_pgm(path, img):
    """Write a [0, 1] float image as an 8-bit binary PGM."""
    img = np.asarray(img, dtype=float)
    pix = np.clip(np.rint(img * 255), 0, 255).astype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(pix.tobytes())


def box_downscale(img, target_side):
    """Box-filter rescale: each output pixel is the mean of an equal block."""
    side = img.shape[0]
    if img.shape != (side, side):
        raise ValueError("image must be square")
    if side % target_side:
        raise ValueError(f"side {side} not divisible by target {target_side}")
    b = side // target_side
    return img.reshape(target_side, b, target_side, b).mean(axis=(1, 3))


def load_corpus(path, target_side):
    """Load every .pgm in a directory, rescale, flatten column-major, center.

    Returns a TrainingSet whose data matrix is target_side^2 x (image count).
    """
    names = sorted(f for f in os.listdir(path) if f.lower().endswith(".pgm"))
    cols = []
    for name in names:
        full = os.path.join(path, name)
        try:
            img = read_pgm(full)
            img = box_downscale(img, target_side)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        cols.append(img.flatten(order="F"))
    if not cols:
        raise ValueError(f"no PGM images found in {path}")
    return TrainingSet.from_raw(np.column_stack(cols))


def synthetic_corpus(q, side, tree, k, rng, amp=1.0):
    """Generate a corpus of side x side images from a planted dictionary.

    Each image is 0.5 plus D alpha with alpha tree-sparse (amplitudes
    decaying by 0.6 per tree level, mimicking multiresolution energy decay).
    Returns (raw n x q image matrix, planted Dictionary, coefficient matrix).
    """
    n = side * side
    if tree.p > n:
        raise ValueError("tree too large for the image dimension")
    Q, _ = np.linalg.qr(rng.standard_normal((n, tree.p)))
    planted = Dictionary(atoms=Q, tree=tree)
    depth = np.searchsorted(tree.level_starts, np.arange(tree.p), side="right") - 1
    decay = np.array([0.6**lvl for lvl in range(tree.depth)])[depth]
    nodes, values = random_tree_sparse_batch(tree, k, 0.5 * amp, amp, rng, q)
    A = np.zeros((tree.p, q))
    A[nodes.T - 1, np.arange(q)] = values.T * decay[nodes.T - 1]
    return 0.5 + Q @ A, planted, A


def lambda_for_sparsity(training, dictionary, target_k):
    """The l2 penalty weight at which coded columns average ~target_k
    nonzeros (sparsity is set through lam, not an explicit k): 40 geometric
    bisection steps over [1e-6, 2 max|D^T X|].  The codes at lam are learn's,
    tree_prox(D^T X, lam), with D^T X formed once."""
    groups = groups_of(dictionary.tree)
    C = dictionary.atoms.T @ training.data
    lo, hi = 1e-6, 2.0 * float(np.max(np.abs(C))) + 1e-12
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        A = tree_prox(C, groups, mid)
        if np.mean(np.sum(np.abs(A) > 1e-12, axis=0)) > target_k:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# Experiment configuration and CSV emission
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Every option of every mode.  A config-file key or CLI flag is a field
    name other than mode, which the CLI sets to the subcommand; its value is
    parsed by the field's annotated type."""

    mode: str = "verify-theorem"
    d: int = 2
    L: int = 6
    k: tuple[int, ...] = (15,)
    c1: float = 1.0
    a: float = 0.5
    budgets: tuple = ()
    taus: tuple = (0.0,)
    measurements: tuple[int, ...] = ()
    noise_std: float = 1.0
    trials: int = 100
    seed: int = 0
    out: str = "results.csv"
    corpus: str | None = None
    dict_path: str | None = None
    target_side: int = 128
    lam: float | None = None
    target_sparsity: int | None = None
    test_signals: int = 2
    in_sample: bool = True

    def sparsity_for(self, p):
        """target_sparsity, by default max(2, p // 4), checked against a
        tree of p nodes."""
        k = max(2, p // 4) if self.target_sparsity is None else self.target_sparsity
        if not 1 <= k <= p:
            raise ValueError(f"config key 'target_sparsity': {k} is not in 1..{p}, "
                             "the tree's node count")
        return k


def _parse_list(val):
    return tuple(float(x) if "." in x or "e" in x.lower() else int(x)
                 for x in val.split(",") if x.strip())


def _parse_int_list(val):
    return tuple(int(x) for x in val.split(",") if x.strip())


def _parse_bool(val):
    word = val.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {val!r}")
    return word in ("1", "true", "yes")


_PARSE_TYPE = {"tuple": _parse_list, "tuple[int, ...]": _parse_int_list, "int": int,
               "float": float, "str": str, "bool": _parse_bool}
# each field's parser, read off its annotation string: "float | None" -> float
_PARSERS = {f.name: _PARSE_TYPE[f.type.split(" |")[0]] for f in fields(ExperimentConfig)
            if f.name != "mode"}
# the keys that count something, so must be at least 1 (each entry of a list)
_COUNTS = ("trials", "test_signals", "target_side", "target_sparsity", "k", "measurements")


def parse_config_file(path):
    """Line-based key=value config; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def apply_config(cfg, kv):
    """Apply string key=value overrides onto an ExperimentConfig.  An unknown
    key, a value that does not parse, a float that is not finite, a count
    (_COUNTS) below 1 or a budget that is not positive raises ValueError
    naming the key."""
    for key, val in kv.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            value = _PARSERS[key](val)
            entries = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in entries if isinstance(v, float)):
                raise ValueError(f"must be finite, got {val}")
            if key in _COUNTS and min(entries, default=1) < 1:
                raise ValueError(f"must be at least 1, got {val}")
            if key == "budgets" and not all(v > 0 for v in entries):
                raise ValueError(f"must be positive, got {val}")
            setattr(cfg, key, value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return cfg


def _row(method, R, tau, m, trial, snr=None, support_exact=None,
         energy=None, note=""):
    exact = ""
    snr_out = snr
    if snr is not None and math.isinf(snr):
        exact, snr_out = 1, None
    elif snr is not None:
        exact = 0
    return {"method": method, "R": R, "tau": tau, "m": m, "trial": trial,
            "snr_db": snr_out, "exact": exact, "support_exact": support_exact,
            "energy_spent": energy, "wall_time": "", "note": note}


def as_table(rows):
    """The table form of a list of row dicts: each CSV field's column."""
    return {name: [row[name] for row in rows] for name in CSV_FIELDS}


def _cells(column, n):
    """A table entry's n cells: a float as 12 significant digits, anything
    else as the csv module writes it (None and "" empty, str() otherwise)."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        # one format per distinct bit pattern (so -0.0 stays apart from 0.0)
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        return np.array(_cells(bits.view(np.float64).tolist(), n), object)[inverse].tolist()
    if isinstance(column, np.ndarray):   # integers, bools or strings
        return column.tolist()
    if not isinstance(column, list):
        return itertools.repeat(_cells([column], 1)[0], n)
    return [f"{v:.12g}" if isinstance(v, float) else v for v in column]


def write_csv(path, table):
    """Write a table, which maps each of CSV_FIELDS to a column (a list or a
    1-D array, one entry per row) or to a scalar every row shares; returns
    the row count."""
    n = max(len(col) for col in table.values() if isinstance(col, (list, np.ndarray)))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(zip(*(_cells(table[name], n) for name in CSV_FIELDS), strict=True))
    return n


def write_manifest(path, cfg, summaries=()):
    with open(path, "w") as f:
        f.write(f"treesense version {__version__}\n")
        for field in fields(cfg):
            f.write(f"{field.name} = {getattr(cfg, field.name)}\n")
        for line in summaries:
            f.write(line + "\n")


# ---------------------------------------------------------------------------
# verify-theorem mode
# ---------------------------------------------------------------------------

# Trials per sensing batch in verify-theorem: a batch's arrays grow with its
# trial count, and its slot map and membership mask with trials * p entries
# (one byte each while k <= 128), so blocks of at most this many trials, and
# at most 2**18 // p, keep a cell's working memory bounded.
_VERIFY_BLOCK = 256


def _support_errors(batch, nodes, p):
    """Per trial: false alarms |S_hat - S| and misses |S - S_hat|, where S_hat
    is the batch's significant nodes and S = nodes[t].  A support node that
    was never measured is a miss."""
    trials, k = nodes.shape
    member = np.zeros((trials, p + 1), dtype=bool)
    member[np.arange(trials)[:, None], nodes] = True
    t_sig = batch.trial[batch.significant]
    hit = member[t_sig, batch.node[batch.significant]]
    return (np.bincount(t_sig[~hit], minlength=trials),
            k - np.bincount(t_sig[hit], minlength=trials))


def _verify_cell(tree, k, R, beta, alpha, tau, cfg, cell):
    """Columns (one entry per trial) and summary line of one (k, R) cell.
    Its trials are drawn from one generator, in batches of up to
    min(_VERIFY_BLOCK, 2**18 // p) trials."""
    rng = np.random.default_rng([cfg.seed, cell])
    sense_cfg = SensingConfig(beta=beta, tau=tau, noise_std=cfg.noise_std, budget=R)
    block = max(1, min(_VERIFY_BLOCK, 2**18 // tree.p))
    per_trial = []
    for start in range(0, cfg.trials, block):
        nodes, values = random_tree_sparse_batch(
            tree, k, alpha, alpha, rng, min(block, cfg.trials - start),
            max_depth=cfg.L - 1)
        batch = adaptive_sense_batch(nodes, values, tree, sense_cfg, rng)
        per_trial.append((batch.m, batch.energy_spent, batch.truncated,
                          *_support_errors(batch, nodes, tree.p)))
    m, energy, truncated, false_alarms, misses = map(np.concatenate, zip(*per_trial))
    exact = (false_alarms == 0) & (misses == 0)
    bound = failure_bound(beta, tau, alpha, k, cfg.d)
    summary = (f"cell k={k} R={R:g}: "
               f"failure_rate={int(cfg.trials - exact.sum()) / cfg.trials:.6g} "
               f"bound={bound:.6g} mean_m={np.mean(m):.6g} predicted_m={cfg.d * k + 1} "
               f"truncated_rate={np.mean(truncated):.6g} "
               f"false_alarms={np.mean(false_alarms):.6g} misses={np.mean(misses):.6g}")
    return {"R": np.full(cfg.trials, R), "tau": np.full(cfg.trials, tau), "m": m,
            "trial": np.arange(cfg.trials), "support_exact": exact.astype(np.int64),
            "energy_spent": energy, "note": np.full(cfg.trials, f"k={k}")}, summary


def verify_theorem(cfg):
    """Monte Carlo check of the support-recovery guarantee.

    For each (k, R) cell, signals are drawn at the amplitude threshold and
    acquired with the threshold traversal, the trials of a cell in batches
    drawn from one generator.  Returns write_csv's table, one row per trial,
    and per cell a summary line (empirical failure rate vs the union bound,
    mean m vs dk+1, the truncated share, and mean false alarms |S_hat - S|
    and misses |S - S_hat| per trial).  Supports are kept off the leaf
    level so every support node has d children to test.
    """
    if cfg.trials < 1:
        raise ValueError(f"trials must be at least 1, got {cfg.trials}")
    tree = make_tree(cfg.d, cfg.L)
    for k in cfg.k:
        if not 1 <= k <= tree.n_internal:
            raise ValueError(f"config key 'k': {k} is not in 1..{tree.n_internal}, the "
                             "tree's nodes above its leaf level")
    blocks, summaries = [], []
    # the default budget is the unit per-measurement scale, R = (d+1)k
    cells = [(k, R) for k in cfg.k for R in cfg.budgets or [float((cfg.d + 1) * k)]]
    for cell, (k, R) in enumerate(cells):
        beta = allocate_beta(R, cfg.d, k)
        alpha = min_amplitude(cfg.c1, cfg.a, cfg.d, k, beta)
        tau = cfg.a * beta * alpha
        columns, summary = _verify_cell(tree, k, R, beta, alpha, tau, cfg, cell)
        blocks.append(columns)
        summaries.append(summary)
    # every cell has cfg.trials rows, so ravel joins the cells' columns
    table = {name: np.ravel([block[name] for block in blocks])
             for name in ("R", "tau", "m", "trial", "support_exact", "energy_spent", "note")}
    return {**table, "method": "adaptive", "snr_db": None, "exact": "", "wall_time": ""}, summaries


# ---------------------------------------------------------------------------
# sense and compare modes
# ---------------------------------------------------------------------------

# Every generator of a sense or compare run is seeded by the run's seed, the
# arm's number and the cell's position in the sweep (budget index b, signal,
# tau index, trial; m is an exact integer key), so no two cells share a draw.

def sense_signal(cfg, dictionary, dict_mean, x, k, sig_idx=0, note=""):
    """Rows of the adaptive dictionary sessions of one signal x: one per
    budget, tau and trial of cfg, in that order.  Each session draws from
    its own generator, keyed [cfg.seed, 1, b, sig_idx, tau index, trial]."""
    rows = []
    for b, R in enumerate(cfg.budgets):
        beta = allocate_beta(R, dictionary.tree.d, k)
        for tau_idx, tau in enumerate(cfg.taus):
            sense_cfg = SensingConfig(beta=beta, tau=tau, noise_std=cfg.noise_std, budget=R)
            for trial in range(cfg.trials):
                rng = np.random.default_rng([cfg.seed, 1, b, sig_idx, tau_idx, trial])
                batch = adaptive_sense(x - dict_mean, dictionary, sense_cfg, rng)
                x_hat = reconstruct_from_outcome(batch, dictionary, beta, mean_offset=dict_mean)
                rows.append(_row("adaptive", R, tau, batch.m[0], trial, snr=snr_db(x, x_hat),
                                 energy=batch.energy_spent[0], note=note))
    return rows


def _random_projection_arms(cfg, dictionary, dict_mean, test_matrix, measurements, k):
    """Per distinct measurement count m: the Phi D stack (B, m, p), centred
    measurements (B, columns, m), Lasso coefficients (B, p, columns) and
    model-CoSaMP coefficients (B, p, columns) of every budget, one column
    per (signal, trial), signal-major.  Each (budget, m) ensemble, lambda
    probe and trial noise draw from their own generators, and only one
    ensemble is held at a time.  Every m's rows are zero-padded to the
    largest m, which changes neither a Lasso objective nor its gradient,
    and model_cosamp drops the padding itself, so the whole sweep is solved
    in three stacked calls: the lambda grids, the Lasso columns and the
    model-CoSaMP columns."""
    atoms, B, n_test = dictionary.atoms, len(cfg.budgets), test_matrix.shape[1]
    grid = np.array([0.001, 0.01, 0.05, 0.2])
    stacks, M, p = (len(measurements), B), max(measurements), atoms.shape[1]
    n_cols = n_test * cfg.trials
    A = np.zeros(stacks + (M, p))
    Y = np.zeros(stacks + (n_cols, M))
    probes, Y_grid = [], np.zeros(stacks + (M, len(grid)))
    lam_grid = np.empty(stacks + (len(grid),))
    for i, m in enumerate(measurements):
        for b, R in enumerate(cfg.budgets):
            phi = gaussian_ensemble(m, atoms.shape[0], R, seed=[cfg.seed, 6, b, m])
            A[i, b, :m] = phi @ atoms
            # lambda probe: one held-out synthetic tree-sparse signal
            rng = np.random.default_rng([cfg.seed, 3, b, m])
            x = atoms @ random_tree_sparse(dictionary.tree, k, 0.5, 1.0, rng).values
            y = phi @ x
            if cfg.noise_std > 0:
                y = y + cfg.noise_std * rng.standard_normal(m)
            probes.append(x)
            Y_grid[i, b, :m] = y[:, None]
            lam_grid[i, b] = grid * float(np.max(np.abs(A[i, b, :m].T @ y)))
            # the column mean is known to every reconstructor
            phi_mean = phi @ dict_mean
            for sig_idx in range(n_test):
                phi_x = phi @ test_matrix[:, sig_idx]
                for trial in range(cfg.trials):
                    rng = np.random.default_rng([cfg.seed, 4, b, sig_idx, m, trial])
                    y = phi_x
                    if cfg.noise_std > 0:
                        y = y + cfg.noise_std * rng.standard_normal(m)
                    Y[i, b, sig_idx * cfg.trials + trial, :m] = y - phi_mean
    # per (m, budget), the grid weight whose probe reconstruction has the best SNR
    A_flat, lam_grid = A.reshape(-1, M, p), lam_grid.reshape(-1, len(grid))
    alphas = lasso_solve(A_flat, Y_grid.reshape(-1, M, len(grid)), lam_grid, max_iters=200)
    lams = [lam[np.argmax([snr_db(x, atoms @ a) for a in alpha.T])]
            for x, lam, alpha in zip(probes, lam_grid, alphas)]
    Y_flat = Y.reshape(-1, n_cols, M).transpose(0, 2, 1)
    alphas = lasso_solve(A_flat, Y_flat, np.repeat(np.array(lams)[:, None], n_cols, axis=1),
                         max_iters=200).reshape(stacks + (p, n_cols))
    cosamp = model_cosamp(A_flat, Y_flat, k, dictionary.tree,
                          iters=15).reshape(stacks + (p, n_cols))
    return {m: (A[i, :, :m], Y[i, :, :, :m], alphas[i], cosamp[i])
            for i, m in enumerate(measurements)}


def compare_methods(cfg, training, dictionary, dict_mean):
    """Energy-fair SNR-vs-measurements sweep across all methods, of a
    dictionary and its column mean dict_mean.  The test signals are the
    first cfg.test_signals training columns.  Returns CSV rows.
    """
    n = dictionary.atoms.shape[0]
    if training.n != n:
        raise ValueError("corpus dimension does not match dictionary atoms")
    if cfg.test_signals > training.q:
        raise ValueError(f"config key 'test_signals': {cfg.test_signals} is more than "
                         f"the corpus's {training.q} signals")
    tree = dictionary.tree
    k = cfg.sparsity_for(tree.p)
    note = "in-sample" if cfg.in_sample else "held-out"

    if not cfg.budgets:
        return []
    test_matrix = training.data[:, :cfg.test_signals] + training.mean[:, None]
    n_test = test_matrix.shape[1]

    side = int(round(math.sqrt(n)))
    is_image = side * side == n and side >= 2 and not (side & (side - 1))

    measurements = [int(m) for m in
                    cfg.measurements or (tree.p // 4, tree.p // 2, tree.p)]
    distinct = list(dict.fromkeys(measurements))
    # per m; neither the PCA fit nor the arms' seeds depend on the signal
    pca_models = {}
    pca_ranks = [m for m in distinct if m <= min(training.n, training.q)]
    if pca_ranks:
        svd = np.linalg.svd(training.data, full_matrices=False)[:2]
        for m in pca_ranks:
            try:
                pca_models[m] = pca_fit(training, m, svd)
            except ValueError:
                pca_models[m] = None
    rand_arms = _random_projection_arms(cfg, dictionary, dict_mean, test_matrix,
                                        distinct, k)
    # adaptive dictionary sensing at each threshold, per signal budget-major
    adaptive = [sense_signal(cfg, dictionary, dict_mean, test_matrix[:, sig_idx], k,
                             sig_idx, f"{note};signal={sig_idx}") for sig_idx in range(n_test)]
    per_budget = len(cfg.taus) * cfg.trials
    rows = []
    for b, R in enumerate(cfg.budgets):
        beta_w = math.sqrt(R / (3 * k + 1))   # wavelet arm: nominal m = 3k+1
        for sig_idx in range(n_test):
            x = test_matrix[:, sig_idx]
            tag = f"{note};signal={sig_idx}"
            rows.extend(adaptive[sig_idx][b * per_budget:(b + 1) * per_budget])

            for m in measurements:
                # PCA at matched measurement count
                model = pca_models.get(m)
                if model is not None:
                    for trial in range(cfg.trials):
                        rng = np.random.default_rng([cfg.seed, 2, b, sig_idx, m, trial])
                        x_hat = pca_reconstruct(model, x, R, rng,
                                                noise_std=cfg.noise_std)
                        rows.append(_row("pca", R, "", m, trial,
                                         snr=snr_db(x, x_hat), energy=R, note=tag))

                # random-projection arms (shared ensemble per (R, m))
                alphas, cosamp = rand_arms[m][2:]
                for trial in range(cfg.trials):
                    col = sig_idx * cfg.trials + trial
                    x_lasso = dictionary.atoms @ alphas[b, :, col] + dict_mean
                    x_cos = dict_mean + dictionary.atoms @ cosamp[b, :, col]
                    rows.append(_row("lasso", R, "", m, trial,
                                     snr=snr_db(x, x_lasso), energy=R, note=tag))
                    rows.append(_row("model-cosamp", R, "", m, trial,
                                     snr=snr_db(x, x_cos), energy=R, note=tag))

            # direct wavelet sensing (image signals only)
            if is_image:
                img = x.reshape((side, side), order="F")
                for tau_idx, tau_w in enumerate((0.0, 0.5)):
                    sense_cfg = SensingConfig(beta=beta_w, tau=tau_w,
                                              noise_std=cfg.noise_std, budget=R)
                    for trial in range(cfg.trials):
                        rng = np.random.default_rng([cfg.seed, 5, b, sig_idx, tau_idx, trial])
                        batch = wavelet_sense(img, sense_cfg, rng)
                        rec = wavelet_reconstruct(batch, side, beta_w)
                        x_hat = rec.flatten(order="F")
                        rows.append(_row("wavelet", R, tau_w, batch.m[0], trial,
                                         snr=snr_db(x, x_hat),
                                         energy=batch.energy_spent[0], note=tag))
    return rows
