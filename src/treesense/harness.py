"""Experiment orchestration: corpus ingestion, Monte Carlo support-recovery
verification, energy-fair method comparison sweeps, and CSV emission."""

from __future__ import annotations

import csv
import logging
import math
import operator
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .baselines import gaussian_ensemble, lasso_solve, model_cosamp, pca_fit, pca_reconstruct
from .bounds import failure_bound, min_amplitude
from .dictlearn import (Dictionary, TrainingSet, LearnConfig, _orthonormal_atoms,
                        groups_of, tree_prox)
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
    "write_csv",
    "write_manifest",
]

logger = logging.getLogger(__name__)

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


def write_pgm(path, img, maxval=255):
    """Write a [0, 1] float image as an 8-bit binary PGM."""
    img = np.asarray(img, dtype=float)
    pix = np.clip(np.rint(img * maxval), 0, maxval).astype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode())
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


def synthetic_corpus(q, side, tree, k, rng, amp=1.0, depth_decay=0.6, base_level=0.5):
    """Generate a corpus of side x side images from a planted dictionary.

    Each image is base_level plus D alpha with alpha tree-sparse (amplitudes
    decaying with node depth, mimicking multiresolution energy decay).
    Returns (raw n x q image matrix, planted Dictionary, coefficient matrix).
    """
    n = side * side
    if tree.p > n:
        raise ValueError("tree too large for the image dimension")
    Q, _ = np.linalg.qr(rng.standard_normal((n, tree.p)))
    planted = Dictionary(atoms=Q, tree=tree)
    X = np.empty((n, q))
    A = np.zeros((tree.p, q))
    depth = np.searchsorted(tree.level_starts, np.arange(tree.p), side="right") - 1
    decay = np.array([depth_decay**lvl for lvl in range(tree.depth)])[depth]
    for i in range(q):
        a = random_tree_sparse(tree, k, 0.5 * amp, amp, rng).values * decay
        A[:, i] = a
        X[:, i] = base_level + Q @ a
    return X, planted, A


def lambda_for_sparsity(training, dictionary, tree, target_k, base_cfg=None,
                        lam_lo=1e-6, lam_hi=None, iters=40):
    """Bisection over the penalty weight so coded columns average ~target_k
    nonzeros (sparsity is set through lam, not an explicit k).  The codes at
    lam are sparse_code's, tree_prox(D^T X, lam), with D^T X formed once."""
    norm = (base_cfg or LearnConfig(lam=1.0)).group_norm
    groups = groups_of(tree)
    C = _orthonormal_atoms(dictionary).T @ training.data
    if lam_hi is None:
        lam_hi = 2.0 * float(np.max(np.abs(C))) + 1e-12

    def mean_support(lam):
        A = tree_prox(C, groups, lam, norm)
        return float(np.mean(np.sum(np.abs(A) > 1e-12, axis=0)))

    lo, hi = lam_lo, lam_hi
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if mean_support(mid) > target_k:
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
    k: tuple = (15,)
    c1: float = 1.0
    a: float = 0.5
    budgets: tuple = ()
    taus: tuple = (0.0,)
    measurements: tuple = ()
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


def _parse_list(val):
    return tuple(float(x) if "." in x or "e" in x.lower() else int(x)
                 for x in val.split(",") if x.strip())


def _parse_bool(val):
    word = val.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {val!r}")
    return word in ("1", "true", "yes")


_PARSE_TYPE = {"tuple": _parse_list, "int": int, "float": float, "str": str,
               "bool": _parse_bool}
# each field's parser, read off its annotation string: "float | None" -> float
_PARSERS = {f.name: _PARSE_TYPE[f.type.split(" |")[0]] for f in fields(ExperimentConfig)
            if f.name != "mode"}


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
    key, or a value that does not parse, raises ValueError naming the key."""
    for key, val in kv.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _PARSERS[key](val))
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


def write_csv(path, rows):
    """One line per row dict (keyed by CSV_FIELDS, as _row builds them).  The
    columns that hold floats, R, tau, snr_db and energy_spent, are written
    with 12 significant digits; the csv module writes None and "" as an empty
    field and every other value with str()."""
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
# trial count, so blocks of this size keep a cell's working memory bounded.
_VERIFY_BLOCK = 256


def _support_errors(batch, nodes, p):
    """Per trial: false alarms |S_hat - S| and misses |S - S_hat|, where S_hat
    is the batch's significant nodes and S = nodes[t].  A support node that
    was never measured is a miss."""
    trials, k = nodes.shape
    stride = p + 1
    truth = np.sort((np.arange(trials)[:, None] * stride + nodes).ravel())
    t_sig = batch.trial[batch.significant]
    found = t_sig * stride + batch.node[batch.significant]
    hit = truth[np.minimum(np.searchsorted(truth, found), len(truth) - 1)] == found
    return (np.bincount(t_sig[~hit], minlength=trials),
            k - np.bincount(t_sig[hit], minlength=trials))


def _verify_cell(tree, k, R, beta, alpha, tau, cfg, cell):
    """Rows and summary line of one (k, R) cell.  Its trials are drawn from
    one generator, in batches of up to _VERIFY_BLOCK trials."""
    rng = np.random.default_rng([cfg.seed, cell])
    sense_cfg = SensingConfig(beta=beta, tau=tau, noise_std=cfg.noise_std, budget=R)
    per_trial = []
    for start in range(0, cfg.trials, _VERIFY_BLOCK):
        nodes, values = random_tree_sparse_batch(
            tree, k, alpha, alpha, rng, min(_VERIFY_BLOCK, cfg.trials - start),
            max_depth=cfg.L - 1)
        batch = adaptive_sense_batch(nodes, values, tree, sense_cfg, rng)
        per_trial.append((batch.m, batch.energy_spent, batch.truncated,
                          *_support_errors(batch, nodes, tree.p)))
    m, energy, truncated, false_alarms, misses = map(np.concatenate, zip(*per_trial))
    exact = (false_alarms == 0) & (misses == 0)
    rows = [_row("adaptive", R, tau, mt, trial, support_exact=int(ok), energy=e,
                 note=f"k={k}")
            for trial, (mt, ok, e) in enumerate(zip(m.tolist(), exact.tolist(),
                                                    energy.tolist()))]
    bound = failure_bound(beta, tau, alpha, k, cfg.d)
    summary = (f"cell k={k} R={R:g}: "
               f"failure_rate={int(cfg.trials - exact.sum()) / cfg.trials:.6g} "
               f"bound={bound:.6g} mean_m={np.mean(m):.6g} predicted_m={cfg.d * k + 1} "
               f"truncated_rate={np.mean(truncated):.6g} "
               f"false_alarms={np.mean(false_alarms):.6g} misses={np.mean(misses):.6g}")
    return rows, summary


def verify_theorem(cfg):
    """Monte Carlo check of the support-recovery guarantee.

    For each (k, R) cell, signals are drawn at the amplitude threshold and
    acquired with the threshold traversal, the trials of a cell in batches
    drawn from one generator; emits one row per trial plus a per-cell
    summary (empirical failure rate vs the union bound, mean m vs dk+1, the
    truncated share, and mean false alarms |S_hat - S| and misses
    |S - S_hat| per trial).  Supports are kept off the leaf level so every
    support node has d children to test.
    """
    if cfg.trials < 1:
        raise ValueError(f"trials must be at least 1, got {cfg.trials}")
    tree = make_tree(cfg.d, cfg.L)
    rows, summaries = [], []
    if cfg.budgets:
        cells = [(k, R) for k in cfg.k for R in cfg.budgets]
    else:
        # default: unit per-measurement scale, R = (d+1)k
        cells = [(k, float((cfg.d + 1) * k)) for k in cfg.k]
    for cell, (k, R) in enumerate(cells):
        beta = allocate_beta(R, cfg.d, k)
        alpha = min_amplitude(cfg.c1, cfg.a, cfg.d, k, beta)
        tau = cfg.a * beta * alpha
        if tau >= beta * alpha:
            logger.warning("cell (k=%d, R=%g) skipped: tau >= beta*alpha_min", k, R)
            continue

        cell_rows, summary = _verify_cell(tree, k, R, beta, alpha, tau, cfg, cell)
        rows.extend(cell_rows)
        summaries.append(summary)
    return rows, summaries


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
                out = adaptive_sense(x - dict_mean, dictionary, sense_cfg, rng)
                x_hat = reconstruct_from_outcome(out, dictionary, beta, mean_offset=dict_mean)
                rows.append(_row("adaptive", R, tau, out.log.m, trial, snr=snr_db(x, x_hat),
                                 energy=out.log.energy_spent, note=note))
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


def compare_methods(cfg, training=None, dictionary=None, dict_mean=None):
    """Energy-fair SNR-vs-measurements sweep across all methods.

    training/dictionary may be passed directly (tests, synthetic runs) or
    loaded from cfg.corpus / cfg.dict_path by the CLI.  The test signals are
    the first cfg.test_signals training columns.  Returns CSV rows.
    """
    from .dictlearn import load_dictionary

    if dictionary is None:
        if cfg.dict_path is None:
            raise ValueError("compare mode requires a dictionary container")
        dictionary, dict_mean = load_dictionary(cfg.dict_path)
    if training is None:
        if cfg.corpus is None:
            raise ValueError("compare mode requires a corpus (or explicit data)")
        training = load_corpus(cfg.corpus, cfg.target_side)
    if dict_mean is None:
        dict_mean = training.mean
    n = dictionary.atoms.shape[0]
    if training.n != n:
        raise ValueError("corpus dimension does not match dictionary atoms")
    tree = dictionary.tree
    k = cfg.target_sparsity or max(2, tree.p // 4)
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
                        out = wavelet_sense(img, sense_cfg, rng)
                        rec = wavelet_reconstruct(out, side, beta_w)
                        x_hat = rec.flatten(order="F")
                        rows.append(_row("wavelet", R, tau_w, out.log.m, trial,
                                         snr=snr_db(x, x_hat),
                                         energy=out.log.energy_spent, note=tag))
    return rows
