"""Experiment orchestration: corpus ingestion, Monte Carlo support-recovery
verification, energy-fair method comparison sweeps, and CSV emission."""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .baselines import gaussian_ensemble, lasso_solve, model_cosamp, pca_fit, pca_reconstruct
from .bounds import failure_bound, min_amplitude
from .dictlearn import Dictionary, TrainingSet, tree_prox
from .sensing import (SensingConfig, _sense_tree, _synthesize, adaptive_sense_coeffs,
                      allocate_beta, reconstruct_from_outcome)
from .tree import make_tree, random_tree_sparse_batch, tree_sparse_rows
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

CSV_FIELDS = ["method", "R", "tau", "m", "trial", "snr_db", "exact",
              "support_exact", "energy_spent", "wall_time", "note"]


def snr_db(x, x_hat):
    """Reconstruction SNR in decibels of each row of x_hat (..., n) against x
    (n,), a float for one row; +inf signals an exact reconstruction (written
    to CSV via the `exact` sentinel column, never as a number)."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.ndim != 1 or x_hat.shape[-1:] != x.shape:
        raise ValueError(f"x_hat of shape {x_hat.shape} does not match x of shape "
                         f"{x.shape}: need x (n,) and x_hat (..., n)")
    sig = float(np.sum(x**2))
    if sig == 0:
        raise ValueError("reference signal has zero energy")
    err = np.sum((x_hat - x) ** 2, axis=-1)
    # math.log10 per row: np.log10 can differ from it in the last bit
    snr = [10.0 * math.log10(sig / e) if e else math.inf for e in np.ravel(err).tolist()]
    return snr[0] if err.ndim == 0 else np.reshape(snr, err.shape)


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
    Each file is read, checked and downscaled in name order, so an error
    names its path and the corpus is never held at full size; an image
    already target_side square is used as read.
    """
    names = sorted(f for f in os.listdir(path) if f.lower().endswith(".pgm"))
    if not names:
        raise ValueError(f"no PGM images found in {path}")
    # C-contiguous, as np.column_stack made it: the mean's rounding follows
    # the layout.  Pixel (i, j) of image c is X[j * target_side + i, c], so
    # each image is flattened column-major
    X = np.empty((target_side**2, len(names)))
    images = X.reshape(target_side, target_side, -1)
    for c, name in enumerate(names):
        full = os.path.join(path, name)
        img = read_pgm(full)   # its errors name the path
        if img.shape != (target_side, target_side):
            try:
                img = box_downscale(img, target_side)
            except ValueError as exc:
                raise ValueError(f"{full}: {exc}") from exc
        images[:, :, c] = img.T
    return TrainingSet.from_raw(X)


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
    A = np.ascontiguousarray(tree_sparse_rows(tree, nodes, values * decay[nodes - 1]).T)
    return 0.5 + Q @ A, planted, A


def lambda_for_sparsity(training, dictionary, target_k):
    """The l2 penalty weight at which coded columns average ~target_k
    nonzeros (sparsity is set through lam, not an explicit k): 40 geometric
    bisection steps over [1e-6, 2 max|D^T X|].  The codes at lam are learn's,
    tree_prox(D^T X, lam), with D^T X formed once."""
    C = dictionary.atoms.T @ training.data
    lo, hi = 1e-6, 2.0 * float(np.max(np.abs(C))) + 1e-12
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        A = tree_prox(C, dictionary.tree, mid)
        if np.mean(np.sum(np.abs(A) > 1e-12, axis=0)) > target_k:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# Experiment configuration and CSV emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Every option of every mode.  A config-file key or CLI flag is a field
    name other than mode, which the CLI sets to the subcommand; its value is
    parsed by the field's annotated type.  A config is frozen, and making
    one raises _check_value's ValueError, naming the key, for a bad field."""

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

    def __post_init__(self):
        for key in _PARSERS:
            value = getattr(self, key)
            if value is not None:
                _check_value(key, value, value)


def _number(text):
    """An int literal as int, anything else as float (nan and inf included)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_list(val):
    return tuple(_number(x) for x in val.split(",") if x.strip())


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
# the keys that scale or threshold a measurement, or seed a generator, so
# must not be negative
_NONNEGATIVE = ("noise_std", "taus", "seed")
# the keys that scale a measurement, a penalty or a bound, so must be positive
_POSITIVE = ("budgets", "lam", "c1")
# the lists that have no default, so must hold an entry (an empty budgets or
# measurements asks for the defaults)
_NONEMPTY = ("k", "taus")


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


def _check_value(key, value, text):
    """Raise ValueError naming key if value is an empty list of _NONEMPTY,
    holds a float that is not finite, a count (_COUNTS) below 1, a negative
    entry of _NONNEGATIVE, an entry of _POSITIVE that is not positive, an a
    outside (0, 1) or a repeated entry (the entries of a list key a run's
    rows, so a repeat writes one key twice); text shows the value in the
    message."""
    entries = value if isinstance(value, (tuple, list)) else (value,)
    if key in _NONEMPTY and not entries:
        reason = "must hold at least one entry"
    elif not all(math.isfinite(v) for v in entries if isinstance(v, float)):
        reason = f"must be finite, got {text}"
    elif key in _COUNTS and min(entries, default=1) < 1:
        reason = f"must be at least 1, got {text}"
    elif key in _NONNEGATIVE and min(entries, default=0) < 0:
        reason = f"must be nonnegative, got {text}"
    elif key in _POSITIVE and not all(v > 0 for v in entries):
        reason = f"must be positive, got {text}"
    elif key == "a" and not 0 < value < 1:
        reason = f"must lie in (0, 1), got {text}"
    elif len(set(entries)) < len(entries):
        reason = f"{value} repeats an entry"
    else:
        return
    raise ValueError(f"config key {key!r}: {reason}")


def apply_config(cfg, kv):
    """A new config: cfg with string key=value overrides.  An unknown key, a
    value that does not parse or one that _check_value rejects raises
    ValueError naming the key."""
    values = {}
    for key, val in kv.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
        _check_value(key, values[key], val)
    return replace(cfg, **values)


# a field that holds one of these is quoted, its quotes doubled
_QUOTE = re.compile(r'[,"\n\r]')


def _fields(entries):
    """The CSV fields of a list of entries: a float with 12 significant
    digits, NaN empty, anything else as str() writes it, quoted if it holds
    , " \\n or \\r."""
    texts = [(f"{v:.12g}" if v == v else "") if isinstance(v, float) else str(v) for v in entries]
    if _QUOTE.search("".join(texts)):
        texts = ['"' + t.replace('"', '""') + '"' if _QUOTE.search(t) else t for t in texts]
    return texts


def _column(name, column, n):
    """A table entry's n fields, each formatted once: an array one distinct
    value at a time (a float64 array by bit pattern, so -0.0 stays apart
    from 0.0), a scalar once for every row.  A list or tuple raises
    ValueError naming the field."""
    if isinstance(column, (list, tuple)):
        raise ValueError(f"CSV field {name!r} is a {type(column).__name__}, not an array")
    if not isinstance(column, np.ndarray):
        return _fields([column]) * n
    by_bits = column.dtype == np.float64
    keys, inverse = np.unique(column.view(np.int64) if by_bits else column, return_inverse=True)
    values = keys.view(np.float64) if by_bits else keys
    return np.array(_fields(values.tolist()), object)[inverse].tolist()


def write_csv(path, table):
    """Write a table, which maps each of CSV_FIELDS to a 1-D array, one entry
    per row, or to a scalar every row shares; returns the row count.  NaN is
    written as an empty field.  Columns of unequal length raise ValueError."""
    n = max(len(col) for col in table.values() if isinstance(col, (list, tuple, np.ndarray)))
    rows = zip(*(_column(name, table[name], n) for name in CSV_FIELDS), strict=True)
    text = "\n".join([",".join(CSV_FIELDS), *map(",".join, rows), ""])
    with open(path, "w", newline="") as f:
        f.write(text)
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
# trial count, and its map of signs with trials * (S + 1) entries of one
# byte each (S as in _verify_cell), so blocks of at most this many trials,
# and at most 2**18 // (S + 1), keep a cell's working memory bounded.
_VERIFY_BLOCK = 2048


def _sense_block(nodes, values, alpha, tree, cfg, rng, reach):
    """Sense and score one block of verify-theorem's draws (nodes, values),
    every value of which is +alpha or -alpha and every node at most reach:
    (m, energy_spent, truncated, false alarms |S_hat - S|, misses
    |S - S_hat|), one entry per trial, where S_hat is a session's
    significant nodes and S = nodes[t].  One (trials, reach + 1) byte map
    of the values' signs gives both the coefficients, alpha times the sign,
    and the support; its last column stays zero, and every node past reach
    reads it.  Both read the map through its flat index
    t * (reach + 1) + min(i, reach), one 1-D gather each.  A support node
    that was never measured is a miss."""
    trials, k = nodes.shape
    sign = np.zeros((trials, reach + 1), dtype=np.int8)
    sign[np.arange(trials)[:, None], nodes - 1] = np.sign(values)
    flat = sign.ravel()
    batch = _sense_tree(lambda t, i: alpha * flat[t * (reach + 1) + np.minimum(i, reach)],
                        tree, trials, cfg, rng)
    t_sig = batch.trial[batch.significant]
    at = np.minimum(batch.node[batch.significant] - 1, reach)
    hit = flat[t_sig * (reach + 1) + at] != 0
    return (batch.m, batch.energy_spent, batch.truncated,
            np.bincount(t_sig[~hit], minlength=trials),
            k - np.bincount(t_sig[hit], minlength=trials))


def _verify_cell(tree, k, R, beta, alpha, tau, cfg, cell):
    """Columns (one entry per trial) and summary line of one (k, R) cell.
    Its trials are drawn from one generator, in batches of up to
    min(_VERIFY_BLOCK, 2**18 // (S + 1)) trials, where S = (d^min(k, L - 1)
    - 1) / (d - 1) is the largest node id a support can hold: grown from
    the root with max_depth = L - 1, its nodes lie at depth below k and
    below L - 1, and the nodes at depth below D are 1..(d^D - 1) / (d - 1)."""
    rng = np.random.default_rng([cfg.seed, cell])
    sense_cfg = SensingConfig(beta=beta, tau=tau, noise_std=cfg.noise_std, budget=R)
    reach = (cfg.d ** min(k, cfg.L - 1) - 1) // (cfg.d - 1)
    block = max(1, min(_VERIFY_BLOCK, 2**18 // (reach + 1)))
    per_trial = []
    for start in range(0, cfg.trials, block):
        nodes, values = random_tree_sparse_batch(
            tree, k, alpha, alpha, rng, min(block, cfg.trials - start),
            max_depth=cfg.L - 1)
        per_trial.append(_sense_block(nodes, values, alpha, tree, sense_cfg, rng, reach))
    m, energy, truncated, false_alarms, misses = map(np.concatenate, zip(*per_trial))
    exact = (false_alarms == 0) & (misses == 0)
    bound = failure_bound(beta, tau, alpha, k, cfg.d)
    summary = (f"cell k={k} R={R:g}: "
               f"failure_rate={int(cfg.trials - exact.sum()) / cfg.trials:.6g} "
               f"bound={bound:.6g} mean_m={np.mean(m):.6g} predicted_m={cfg.d * k + 1} "
               f"truncated_rate={np.mean(truncated):.6g} "
               f"false_alarms={np.mean(false_alarms):.6g} misses={np.mean(misses):.6g}")
    return {"R": np.full(cfg.trials, float(R)), "tau": np.full(cfg.trials, tau), "m": m,
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
    tree = make_tree(cfg.d, cfg.L)
    for k in cfg.k:
        if not 2 <= k <= tree.n_internal:
            raise ValueError(f"config key 'k': {k} is not in 2..{tree.n_internal}: the "
                             "failure bound needs k >= 2, and the tree has "
                             f"{tree.n_internal} nodes above its leaf level")
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
    table = {name: np.ravel([block[name] for block in blocks]) if name in blocks[0] else math.nan
             for name in CSV_FIELDS}
    return {**table, "method": "adaptive"}, summaries


# ---------------------------------------------------------------------------
# sense and compare modes
# ---------------------------------------------------------------------------

# Every generator of a sense or compare run is seeded by the run's seed, the
# arm's number and the cell's position in the sweep (budget index b, signal,
# tau index, trial; m is an exact integer key), so no two cells share a draw.

def _trial_rngs(cfg, *key):
    """One generator per trial of cfg, keyed [cfg.seed, *key, trial]."""
    return [np.random.default_rng([cfg.seed, *key, trial]) for trial in range(cfg.trials)]


def _trial_noise(cfg, m, *key):
    """(cfg.trials, m): noise_std times trial t's m standard normals from its
    own generator, keyed [cfg.seed, *key, t]; zeros, drawing nothing, unless noise_std > 0."""
    if not cfg.noise_std > 0:
        return np.zeros((cfg.trials, m))
    return cfg.noise_std * np.array([g.standard_normal(m) for g in _trial_rngs(cfg, *key)])


# The dtype of each array column of a sense or compare table, in _rows' argument order
_DTYPES = {"method": np.str_, "R": np.float64, "tau": np.float64, "m": np.int64,
           "trial": np.int64, "snr_db": np.float64, "exact": np.int64,
           "energy_spent": np.float64, "note": np.str_}


def _rows(method, R, tau, m, trial, snr, energy, note):
    """A block of rows, one per entry of the SNR array snr, where +inf marks
    an exact reconstruction (exact=1, NaN snr_db); each other argument holds
    one entry per row or a value all rows share (NaN for none)."""
    exact = np.isinf(snr)
    cells = (method, R, tau, m, trial, np.where(exact, math.nan, snr), exact, energy, note)
    columns = [np.asarray(v, dtype) for dtype, v in zip(_DTYPES.values(), cells, strict=True)]
    return {name: c if c.ndim else c.repeat(len(snr)) for name, c in zip(_DTYPES, columns)}


def _join(blocks):
    """write_csv's table of blocks of _rows in row order, NaN support_exact and wall_time."""
    return {name: np.concatenate([np.empty(0, _DTYPES[name]), *(b[name] for b in blocks)])
            if name in _DTYPES else math.nan for name in CSV_FIELDS}


# The sessions of one signal's arm are sensed and reconstructed together, in
# chunks: a chunk's arrays grow with its sessions times the signal's length
# n, so a chunk holds at most max(cfg.trials, _SESSION_ENTRIES // n)
# sessions, never fewer than one (budget, tau) cell.
_SESSION_ENTRIES = 2**16


def _arm_sessions(cfg, arm, sig_idx, betas, taus, n):
    """One signal's arm in chunks of sessions, in the table's row order
    (budget, then tau, then trial): per chunk, each session's SensingConfig,
    its generator keyed [cfg.seed, arm, b, sig_idx, tau index, trial], its
    beta (an array), and its R, tau and trial column entries.  betas holds
    one beta per budget of cfg."""
    cells = [(SensingConfig(beta=beta, tau=tau, noise_std=cfg.noise_std, budget=R),
              [cfg.seed, arm, b, sig_idx, tau_idx])
             for b, (R, beta) in enumerate(zip(cfg.budgets, betas))
             for tau_idx, tau in enumerate(taus)]
    sessions = [(config, key, trial) for config, key in cells for trial in range(cfg.trials)]
    size = max(cfg.trials, _SESSION_ENTRIES // n)
    for start in range(0, len(sessions), size):
        configs, keys, trials = zip(*sessions[start:start + size])
        yield (list(configs), [np.random.default_rng([*key, t]) for key, t in zip(keys, trials)],
               np.array([c.beta for c in configs]), [c.budget for c in configs],
               [c.tau for c in configs], list(trials))


def sense_signal(cfg, dictionary, dict_mean, x, sig_idx=0, note=""):
    """write_csv's table of the adaptive dictionary sessions of one signal
    x: a row per budget, tau and trial of cfg, in that order, each budget
    allocated for cfg.sparsity_for(p) support nodes.  Each session draws
    from its own generator, keyed [cfg.seed, 1, b, sig_idx, tau index,
    trial], and every session senses the coefficients c = Dᵀ(x - dict_mean),
    so the sessions, each under its own budget and tau, are sensed in one
    call per chunk (_arm_sessions) and reconstructed in another."""
    k = cfg.sparsity_for(dictionary.tree.p)
    x = np.asarray(x, dtype=float)
    if x.shape != (dictionary.atoms.shape[0],):
        raise ValueError(f"signal of {x.size} entries does not match the dictionary's "
                         f"atoms of dimension {dictionary.atoms.shape[0]}")
    c = dictionary.atoms.T @ (x - dict_mean)
    betas = [allocate_beta(R, dictionary.tree.d, k) for R in cfg.budgets]
    blocks = []
    for configs, rngs, beta, R, tau, trial in _arm_sessions(cfg, 1, sig_idx, betas, cfg.taus,
                                                            len(x)):
        batch = adaptive_sense_coeffs(np.broadcast_to(c, (len(configs), len(c))),
                                      dictionary.tree, configs, rngs)
        x_hat = reconstruct_from_outcome(batch, dictionary, beta, dict_mean)
        blocks.append(_rows("adaptive", R, tau, batch.m, trial, snr_db(x, x_hat),
                            batch.energy_spent, note))
    return _join(blocks)


def _wavelet_arm(cfg, x, side, k, sig_idx, note):
    """write_csv's table of the direct wavelet sessions of one image signal
    x (flattened column-major): a row per budget, tau in (0, 0.5) and trial,
    in that order, each budget spread over a nominal m = 3k + 1
    measurements.  Each session draws from its own generator, keyed
    [cfg.seed, 5, b, sig_idx, tau index, trial]; the sessions are sensed in
    one wavelet_sense call per chunk (_arm_sessions) and reconstructed in one
    stacked inverse."""
    betas = [math.sqrt(R / (3 * k + 1)) for R in cfg.budgets]
    img = x.reshape((side, side), order="F")
    blocks = []
    for configs, rngs, beta, R, tau, trial in _arm_sessions(cfg, 5, sig_idx, betas, (0.0, 0.5),
                                                            len(x)):
        batch = wavelet_sense(img, configs, rngs)
        rec = wavelet_reconstruct(batch, side, beta)
        x_hat = rec.transpose(0, 2, 1).reshape(len(configs), side * side)   # column-major
        blocks.append(_rows("wavelet", R, tau, batch.m, trial, snr_db(x, x_hat),
                            batch.energy_spent, note))
    return _join(blocks)


def _random_projection_arms(cfg, dictionary, dict_mean, test_matrix, measurements, k):
    """Per measurement count m: the Lasso coefficients (B, p, columns) and
    model-CoSaMP coefficients (B, p, columns) of every budget, one column
    per (signal, trial), signal-major.  Each (budget, m) ensemble, lambda
    probe and trial noise draw from their own generators, and only one
    ensemble is held at a time.  The probes' supports are grown in one
    random_tree_sparse_batch call on the list of their generators, which
    draws on each what a one-probe call draws, so each probe's noise comes
    next from the same stream.  Every m's rows are zero-padded to the
    largest m, which changes neither a Lasso objective nor its gradient,
    and each model_cosamp least-squares solve uses its problem's own rows,
    so the whole sweep is solved in three calls on the stack: the lambda
    grids, the Lasso columns and the model-CoSaMP columns."""
    atoms, B, n_test = dictionary.atoms, len(cfg.budgets), test_matrix.shape[1]
    grid = np.array([0.001, 0.01, 0.05, 0.2])
    stacks, M, p = (len(measurements), B), max(measurements), atoms.shape[1]
    n_cols = n_test * cfg.trials
    A = np.zeros(stacks + (M, p))
    Y = np.zeros(stacks + (n_cols, M))
    probes, Y_grid = [], np.zeros(stacks + (M, len(grid)))
    lam_grid = np.empty(stacks + (len(grid),))
    # lambda probes: one held-out synthetic tree-sparse signal per (m,
    # budget), all grown in one call, each on its own generator
    rngs = [np.random.default_rng([cfg.seed, 3, b, m]) for m in measurements for b in range(B)]
    codes = tree_sparse_rows(dictionary.tree, *random_tree_sparse_batch(
        dictionary.tree, k, 0.5, 1.0, rngs, len(rngs)))
    for i, m in enumerate(measurements):
        for b, R in enumerate(cfg.budgets):
            phi = gaussian_ensemble(m, atoms.shape[0], R, seed=[cfg.seed, 6, b, m])
            A[i, b, :m] = phi @ atoms
            rng = rngs[i * B + b]
            x = atoms @ codes[i * B + b]
            y = phi @ x
            if cfg.noise_std > 0:
                y = y + cfg.noise_std * rng.standard_normal(m)
            probes.append(x)
            Y_grid[i, b, :m] = y[:, None]
            lam_grid[i, b] = grid * float(np.max(np.abs(A[i, b, :m].T @ y)))
            # the column mean is known to every reconstructor
            phi_mean = phi @ dict_mean
            for sig_idx in range(n_test):
                y = phi @ test_matrix[:, sig_idx] + _trial_noise(cfg, m, 4, b, sig_idx, m)
                Y[i, b, sig_idx * cfg.trials:(sig_idx + 1) * cfg.trials, :m] = y - phi_mean
    # per (m, budget), the grid weight whose probe reconstruction has the best SNR
    A_flat, lam_grid = A.reshape(-1, M, p), lam_grid.reshape(-1, len(grid))
    alphas = lasso_solve(A_flat, Y_grid.reshape(-1, M, len(grid)), lam_grid, max_iters=200)
    lams = [lam[np.argmax(snr_db(x, _synthesize(atoms, alpha.T)))]
            for x, lam, alpha in zip(probes, lam_grid, alphas)]
    Y_flat = Y.reshape(-1, n_cols, M).transpose(0, 2, 1)
    alphas = lasso_solve(A_flat, Y_flat, np.repeat(np.array(lams)[:, None], n_cols, axis=1),
                         max_iters=200).reshape(stacks + (p, n_cols))
    cosamp = model_cosamp(A_flat, Y_flat, k, dictionary.tree,
                          iters=15).reshape(stacks + (p, n_cols))
    return {m: (alphas[i], cosamp[i]) for i, m in enumerate(measurements)}


def compare_methods(cfg, training, dictionary, dict_mean):
    """Energy-fair SNR-vs-measurements sweep across all methods, of a
    dictionary and its column mean dict_mean.  The test signals are the
    first cfg.test_signals training columns.  Returns write_csv's table.
    """
    n = dictionary.atoms.shape[0]
    if training.n != n:
        raise ValueError("corpus dimension does not match dictionary atoms")
    if cfg.test_signals > training.q:
        raise ValueError(f"config key 'test_signals': {cfg.test_signals} is more than "
                         f"the corpus's {training.q} signals")
    tree = dictionary.tree
    k = cfg.sparsity_for(tree.p)
    measurements = [int(m) for m in
                    cfg.measurements or (tree.p // 4, tree.p // 2, tree.p)]
    if min(measurements) < 1:
        raise ValueError(f"config key 'measurements': {tuple(measurements)} holds a count "
                         "below 1 (with no measurements given, the counts are p // 4, "
                         f"p // 2 and p, for the dictionary's p = {tree.p})")
    note = "in-sample" if cfg.in_sample else "held-out"

    if not cfg.budgets:
        return _join([])
    test_matrix = training.data[:, :cfg.test_signals] + training.mean[:, None]
    n_test = test_matrix.shape[1]

    side = int(round(math.sqrt(n)))
    is_image = side * side == n and side >= 2 and not (side & (side - 1))

    pca = pca_fit(training)
    rand_arms = _random_projection_arms(cfg, dictionary, dict_mean, test_matrix,
                                        measurements, k)
    # adaptive dictionary and direct wavelet sensing, each a table per
    # signal, budget-major, sliced per budget below
    tags = [f"{note};signal={sig_idx}" for sig_idx in range(n_test)]
    adaptive = [sense_signal(cfg, dictionary, dict_mean, test_matrix[:, sig_idx], sig_idx, tag)
                for sig_idx, tag in enumerate(tags)]
    wavelet = [_wavelet_arm(cfg, test_matrix[:, sig_idx], side, k, sig_idx, tag)
               for sig_idx, tag in enumerate(tags)] if is_image else []
    trials, blocks = np.arange(cfg.trials), []

    def budget_block(arm, b, rows):   # budget b's rows of a budget-major arm table
        return {name: arm[name][b * rows:(b + 1) * rows] for name in _DTYPES}

    for b, R in enumerate(cfg.budgets):
        for sig_idx, tag in enumerate(tags):
            x = test_matrix[:, sig_idx]
            blocks.append(budget_block(adaptive[sig_idx], b, len(cfg.taus) * cfg.trials))

            for m in measurements:
                # PCA at matched measurement count, up to the training data's rank
                if m <= pca.components.shape[1]:
                    x_hat = pca_reconstruct(pca, x, R, _trial_noise(cfg, m, 2, b, sig_idx, m))
                    blocks.append(_rows("pca", R, math.nan, m, trials, snr_db(x, x_hat), R, tag))

                # Lasso and model-CoSaMP rows, alternating per trial (one ensemble per (R, m))
                alphas, cosamp = rand_arms[m]
                cols = slice(sig_idx * cfg.trials, (sig_idx + 1) * cfg.trials)
                coef = np.stack([alphas[b, :, cols], cosamp[b, :, cols]], axis=2)
                x_hat = dict_mean + _synthesize(dictionary.atoms, coef.reshape(tree.p, -1).T)
                blocks.append(_rows(["lasso", "model-cosamp"] * cfg.trials, R, math.nan, m,
                                    np.repeat(trials, 2), snr_db(x, x_hat), R, tag))

            # direct wavelet sensing (image signals only)
            if is_image:
                blocks.append(budget_block(wavelet[sig_idx], b, 2 * cfg.trials))
    return _join(blocks)
