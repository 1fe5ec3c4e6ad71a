"""Experiment orchestration: corpus ingestion, Monte Carlo support-recovery
verification, energy-fair method comparison sweeps, and CSV emission."""

from __future__ import annotations

import csv
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .baselines import gaussian_ensemble, lasso_reconstruct, model_cosamp, pca_fit, pca_reconstruct
from .bounds import failure_bound, min_amplitude
from .dictlearn import Dictionary, TrainingSet, LearnConfig, groups_of, sparse_code
from .sensing import (SensingConfig, adaptive_sense, adaptive_sense_coeffs,
                      allocate_beta, reconstruct_from_outcome)
from .tree import make_tree, random_tree_sparse
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

def _read_pgm_tokens(f, count):
    tokens = []
    while len(tokens) < count:
        line = f.readline()
        if not line:
            raise ValueError("truncated PGM header")
        line = line.split(b"#", 1)[0]
        tokens.extend(line.split())
    return tokens


def read_pgm(path):
    """Binary (P5) grayscale PGM, 8- or 16-bit, mapped to [0, 1]."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
        width, height, maxval = (int(t) for t in _read_pgm_tokens(f, 3))
        if maxval <= 0 or maxval >= 65536:
            raise ValueError(f"{path}: invalid maxval {maxval}")
        dtype = ">u2" if maxval > 255 else "u1"
        count = width * height
        raw = np.frombuffer(f.read(count * np.dtype(dtype).itemsize), dtype=dtype)
        if raw.size != count:
            raise ValueError(f"{path}: truncated pixel data")
    return raw.reshape(height, width).astype(float) / maxval


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
    for i in range(q):
        vec = random_tree_sparse(tree, k, 0.5 * amp, amp, rng)
        a = vec.values.copy()
        for node in vec.support:
            a[node - 1] *= depth_decay ** tree.node_depth(node)
        A[:, i] = a
        X[:, i] = base_level + Q @ a
    return X, planted, A


def lambda_for_sparsity(training, dictionary, tree, target_k, base_cfg=None,
                        lam_lo=1e-6, lam_hi=None, iters=40):
    """Bisection over the penalty weight so coded columns average ~target_k
    nonzeros (sparsity is set through lam, not an explicit k)."""
    base_cfg = base_cfg or LearnConfig(lam=1.0)
    groups = groups_of(tree)
    C = dictionary.atoms.T @ training.data
    if lam_hi is None:
        lam_hi = 2.0 * float(np.max(np.abs(C))) + 1e-12

    def mean_support(lam):
        cfg = LearnConfig(lam=lam, group_norm=base_cfg.group_norm,
                          outer_iters=1, tol=base_cfg.tol)
        A = sparse_code(training, dictionary, groups, cfg)
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
    workers: int = 1
    out: str = "results.csv"
    corpus: str | None = None
    dict_path: str | None = None
    target_side: int = 128
    lam: float | None = None
    target_sparsity: int | None = None
    split: float = 0.5
    test_signals: int = 2
    in_sample: bool = True
    extra: dict = field(default_factory=dict)


_LIST_FIELDS = {"k", "budgets", "taus", "measurements"}
_INT_FIELDS = {"d", "L", "trials", "seed", "workers", "target_side",
               "target_sparsity", "test_signals"}
_FLOAT_FIELDS = {"c1", "a", "noise_std", "lam", "split"}


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
    """Apply string key=value overrides onto an ExperimentConfig."""
    for key, val in kv.items():
        if key in _LIST_FIELDS:
            setattr(cfg, key, tuple(float(x) if "." in x or "e" in x.lower() else int(x)
                                    for x in val.split(",") if x.strip()))
        elif key in _INT_FIELDS:
            setattr(cfg, key, int(val))
        elif key in _FLOAT_FIELDS:
            setattr(cfg, key, float(val))
        elif key == "in_sample":
            cfg.in_sample = val.lower() in ("1", "true", "yes")
        elif hasattr(cfg, key):
            setattr(cfg, key, val)
        else:
            cfg.extra[key] = val
    return cfg


def _fmt(v):
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in rows:
            writer.writerow([_fmt(r.get(c)) for c in CSV_FIELDS])


def write_manifest(path, cfg, summaries=()):
    with open(path, "w") as f:
        f.write(f"treesense version {__version__}\n")
        for key in ("mode", "d", "L", "k", "c1", "a", "budgets", "taus",
                    "measurements", "noise_std", "trials", "seed", "workers",
                    "corpus", "dict_path", "target_side", "lam", "split",
                    "in_sample"):
            f.write(f"{key} = {getattr(cfg, key)}\n")
        for line in summaries:
            f.write(line + "\n")


def _run_trials(fn, n_trials, workers):
    """Map fn over trial indices; results ordered by trial index regardless
    of worker count, so output is deterministic."""
    if workers <= 1:
        return [fn(t) for t in range(n_trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_trials)))


# ---------------------------------------------------------------------------
# verify-theorem mode
# ---------------------------------------------------------------------------

def verify_theorem(cfg):
    """Monte Carlo check of the support-recovery guarantee.

    For each (k, R) cell, signals are drawn at the amplitude threshold and
    acquired with the threshold traversal; emits one row per trial plus a
    per-cell summary (empirical failure rate vs the union bound, mean m vs
    dk+1).  Supports are kept off the leaf level so every support node has d
    children to test.
    """
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

        def one(trial, k=k, R=R, beta=beta, alpha=alpha, tau=tau, cell=cell):
            rng = np.random.default_rng([cfg.seed, cell, trial])
            vec = random_tree_sparse(tree, k, alpha, alpha, rng,
                                     max_depth=cfg.L - 1)
            sense_cfg = SensingConfig(beta=beta, tau=tau,
                                      noise_std=cfg.noise_std, budget=R)
            out = adaptive_sense_coeffs(vec.values, tree, sense_cfg, rng)
            ok = int(out.support_estimate == vec.support)
            return _row("adaptive", R, tau, out.log.m, trial,
                        support_exact=ok, energy=out.log.energy_spent,
                        note=f"k={k}")

        cell_rows = _run_trials(one, cfg.trials, cfg.workers)
        rows.extend(cell_rows)
        fails = sum(1 for r in cell_rows if r["support_exact"] == 0)
        mean_m = np.mean([r["m"] for r in cell_rows])
        bound = failure_bound(beta, tau, alpha, k, cfg.d)
        summaries.append(
            f"cell k={k} R={R:g}: failure_rate={fails / cfg.trials:.6g} "
            f"bound={bound:.6g} mean_m={mean_m:.6g} predicted_m={cfg.d * k + 1}")
    return rows, summaries


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def _pick_lasso_lambda(phi_matrix, dictionary, noise_std, rng, k):
    """Small grid over penalty weights, scored by oracle SNR on one held-out
    synthetic tree-sparse signal."""
    tree = dictionary.tree
    probe = random_tree_sparse(tree, k, 0.5, 1.0, rng)
    x = dictionary.atoms @ probe.values
    y = phi_matrix @ x
    if noise_std > 0:
        y = y + noise_std * rng.standard_normal(len(y))
    A = phi_matrix @ dictionary.atoms
    base = float(np.max(np.abs(A.T @ y)))
    best_lam, best_snr = None, -np.inf
    for frac in (0.001, 0.01, 0.05, 0.2):
        lam = frac * base
        _, x_hat = lasso_reconstruct(phi_matrix, y, lam, dictionary,
                                     max_iters=200)
        s = snr_db(x, x_hat)
        if s > best_snr:
            best_lam, best_snr = lam, s
    return best_lam


def compare_methods(cfg, training=None, dictionary=None, dict_mean=None,
                    test_matrix=None):
    """Energy-fair SNR-vs-measurements sweep across all methods.

    training/dictionary may be passed directly (tests, synthetic runs) or
    loaded from cfg.corpus / cfg.dict_path by the CLI.  Returns CSV rows.
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

    if test_matrix is None:
        test_matrix = training.data[:, :cfg.test_signals] + training.mean[:, None]
    n_test = test_matrix.shape[1]

    side = int(round(math.sqrt(n)))
    is_image = side * side == n and side >= 2 and not (side & (side - 1))

    measurements = cfg.measurements or (tree.p // 4, tree.p // 2, tree.p)
    rows = []
    for R in cfg.budgets:
        beta = allocate_beta(R, tree.d, k)
        pca_models = {}
        for sig_idx in range(n_test):
            x = test_matrix[:, sig_idx]
            tag = f"{note};signal={sig_idx}"

            # adaptive dictionary sensing at each threshold
            for tau in cfg.taus:
                def one(trial, tau=tau, x=x, tag=tag, R=R, beta=beta):
                    rng = np.random.default_rng([cfg.seed, 1, int(R), sig_idx,
                                                 int(tau * 1e9), trial])
                    sense_cfg = SensingConfig(beta=beta, tau=tau,
                                              noise_std=cfg.noise_std, budget=R)
                    out = adaptive_sense(x - dict_mean, dictionary, sense_cfg, rng)
                    x_hat = reconstruct_from_outcome(out, dictionary, beta,
                                                     mean_offset=dict_mean)
                    return _row("adaptive", R, tau, out.log.m, trial,
                                snr=snr_db(x, x_hat),
                                energy=out.log.energy_spent, note=tag)
                rows.extend(_run_trials(one, cfg.trials, cfg.workers))

            for m in measurements:
                m = int(m)
                # PCA at matched measurement count
                if m <= min(training.n, training.q):
                    if m not in pca_models:
                        try:
                            pca_models[m] = pca_fit(training, m)
                        except ValueError:
                            pca_models[m] = None
                    model = pca_models[m]
                    if model is not None:
                        def one_pca(trial, m=m, model=model, x=x, tag=tag, R=R):
                            rng = np.random.default_rng([cfg.seed, 2, int(R),
                                                         sig_idx, m, trial])
                            x_hat = pca_reconstruct(model, x, R, rng,
                                                    noise_std=cfg.noise_std)
                            return _row("pca", R, "", m, trial,
                                        snr=snr_db(x, x_hat), energy=R, note=tag)
                        rows.extend(_run_trials(one_pca, cfg.trials, cfg.workers))

                # random-projection arms (shared ensemble per (R, m, signal))
                ens = gaussian_ensemble(m, n, R, seed=cfg.seed + 7919 * m + int(R))
                lam_rng = np.random.default_rng([cfg.seed, 3, int(R), m])
                lam = _pick_lasso_lambda(ens.matrix, dictionary, cfg.noise_std,
                                         lam_rng, k)
                A_cs = ens.matrix @ dictionary.atoms

                def one_rand(trial, m=m, ens=ens, lam=lam, A_cs=A_cs, x=x,
                             tag=tag, R=R):
                    rng = np.random.default_rng([cfg.seed, 4, int(R), sig_idx,
                                                 m, trial])
                    y = ens.matrix @ x
                    if cfg.noise_std > 0:
                        y = y + cfg.noise_std * rng.standard_normal(m)
                    # the column mean is known to every reconstructor
                    y_c = y - ens.matrix @ dict_mean
                    _, x_lasso = lasso_reconstruct(ens.matrix, y_c, lam,
                                                   dictionary, max_iters=200)
                    x_lasso = x_lasso + dict_mean
                    a_cos = model_cosamp(A_cs, y_c, k, tree, iters=15)
                    x_cos = dict_mean + dictionary.atoms @ a_cos
                    return (_row("lasso", R, "", m, trial,
                                 snr=snr_db(x, x_lasso), energy=R, note=tag),
                            _row("model-cosamp", R, "", m, trial,
                                 snr=snr_db(x, x_cos), energy=R, note=tag))
                for pair in _run_trials(one_rand, cfg.trials, cfg.workers):
                    rows.extend(pair)

            # direct wavelet sensing (image signals only)
            if is_image:
                img = x.reshape((side, side), order="F")
                for tau_w in (0.0, 0.5):
                    def one_wav(trial, tau_w=tau_w, img=img, x=x, tag=tag, R=R):
                        rng = np.random.default_rng([cfg.seed, 5, int(R),
                                                     sig_idx, int(tau_w * 1e9),
                                                     trial])
                        m_nominal = 3 * k + 1
                        beta_w = math.sqrt(R / m_nominal)
                        sense_cfg = SensingConfig(beta=beta_w, tau=tau_w,
                                                  noise_std=cfg.noise_std,
                                                  budget=R)
                        out = wavelet_sense(img, sense_cfg, rng)
                        rec = wavelet_reconstruct(out, side, beta_w)
                        x_hat = rec.flatten(order="F")
                        return _row("wavelet", R, tau_w, out.log.m, trial,
                                    snr=snr_db(x, x_hat),
                                    energy=out.log.energy_spent, note=tag)
                    rows.extend(_run_trials(one_wav, cfg.trials, cfg.workers))
    return rows
