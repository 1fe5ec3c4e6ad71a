"""The three benchmark workloads: their inputs, their CLI job and their checks.

Each workload is one `treesense` CLI job of fixed size.  Inputs are made
here from the workload seed with numpy and the stdlib only: no treesense
RNG helper is called, so a change to a library random stream cannot change
the inputs of a workload.  An "op" is the unit of work whose count a job
fixes: a Monte Carlo trial, a training image, or a reconstruction row.
"""

import csv
import math
import os

import numpy as np

from formats import read_csv_rows, read_lasr, write_lasr, write_pgm16

CSV_FIELDS = ["method", "R", "tau", "m", "trial", "snr_db", "exact",
              "support_exact", "energy_spent", "wall_time", "note"]
ENERGY_RTOL = 1e-9


def children(i, d, p):
    """Heap-order children of node i in a d-ary tree with p nodes."""
    return list(range(d * (i - 1) + 2, min(d * i + 1, p) + 1))


def node_depth(i, d):
    depth = 0
    while i > 1:
        i = (i - 2) // d + 1
        depth += 1
    return depth


def grow_support(rng, d, p, k):
    """Rooted connected support of k nodes, grown from the root by adding a
    uniformly chosen boundary node at each step."""
    support, boundary = [1], children(1, d, p)
    while len(support) < k:
        j = boundary.pop(int(rng.integers(len(boundary))))
        support.append(j)
        boundary.extend(children(j, d, p))
    return support


def planted_corpus(directory, rng, side, d, L, q, k, amp, decay=0.6):
    """Write q side x side 16-bit PGM images x = 0.5 + Q a to directory.

    Q is a random orthonormal n x p dictionary and each a is tree-sparse
    with k nonzeros whose magnitudes decay with depth.  Returns (Q, X) with
    X the n x q matrix of the quantized pixels, flattened column-major as
    the CLI flattens them.
    """
    n, p = side * side, (d**L - 1) // (d - 1)
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    os.makedirs(directory)
    X = np.empty((n, q))
    for i in range(q):
        a = np.zeros(p)
        for node in grow_support(rng, d, p, k):
            mag = amp * rng.uniform(0.5, 1.0) * decay ** node_depth(node, d)
            a[node - 1] = mag if rng.random() < 0.5 else -mag
        img = (0.5 + Q @ a).reshape((side, side), order="F")
        X[:, i] = write_pgm16(os.path.join(directory, f"img{i:04d}.pgm"), img).flatten(order="F")
    return Q, X


def _float(text):
    return float(text) if text else math.nan


def _csv(out_dir, name, problems):
    """Rows of an output CSV, or None (with a problem noted) if unreadable."""
    try:
        with open(os.path.join(out_dir, name), "rb") as f:
            header, rows = read_csv_rows(f.read())
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        problems.append(f"{name}: {exc}")
        return None
    if header != CSV_FIELDS:
        problems.append(f"{name}: header {header} is not the CSV schema")
        return None
    return rows


def _check_budget(rows, problems):
    over = sum(1 for r in rows
               if not _float(r["energy_spent"]) <= float(r["R"]) * (1 + ENERGY_RTOL))
    if over:
        problems.append(f"{over} rows spend more than R")


def _rows(data):
    return read_csv_rows(data)[1] if data else []


def _sensing(d, sessions, m_over_dk1):
    """Sensing counters read from the CSV rows of (m, k) sessions.  Each
    measurement costs R/((d+1)k), so a session is truncated (the budget left
    no room for one more measurement) exactly when m >= (d+1)k."""
    return {"sessions": len(sessions),
            "measurements": sum(m for m, _ in sessions),
            "truncated": sum(m >= (d + 1) * k for m, k in sessions),
            "m_over_dk1": m_over_dk1}


class VerifyMC:
    """Threshold-traversal Monte Carlo: `verify-theorem` at L=10."""

    name = "verify-mc"
    D, L, K = 2, 10, (7, 15, 31)
    C1, A = 1.0, 0.5
    outputs = ("vt.csv",)

    def __init__(self, tiny=False):
        self.trials = 20 if tiny else 1500

    @property
    def ops(self):
        return self.trials * len(self.K)

    def make_inputs(self, directory, seed):
        os.makedirs(directory)
        return {}

    def argv(self, inputs, seed, out_dir):
        return ["verify-theorem", "--d", str(self.D), "--L", str(self.L),
                "--k", ",".join(map(str, self.K)), "--trials", str(self.trials),
                "--seed", str(seed), "--out", os.path.join(out_dir, "vt.csv")]

    def expected_cell(self, k):
        """(R, tau, union failure bound) of the cell for k, computed from the
        paper's formulas independently of treesense.bounds."""
        d, c1, a = self.D, self.C1, self.A
        R = float((d + 1) * k)
        beta = math.sqrt(R / ((d + 1) * k))
        fa = math.sqrt((2 * math.log((d - 1) * k + 1) + 2 * c1 * math.log(k)
                        + 2 * math.log(2)) / (beta**2 * a**2))
        miss = math.sqrt((2 * (1 + c1) * math.log(k) + 2 * math.log(2))
                         / (beta**2 * (1 - a)**2))
        alpha = max(fa, miss)
        tau = a * beta * alpha
        bound = ((d - 1) * k + 1) * math.exp(-tau**2 / 2) \
            + k * math.exp(-(beta * alpha - tau)**2 / 2)
        return R, tau, min(bound, 1.0)

    def check(self, out_dir):
        problems = []
        rows = _csv(out_dir, "vt.csv", problems)
        if rows is None:
            return problems
        if len(rows) != self.ops:
            problems.append(f"{len(rows)} rows, expected {self.ops}")
        _check_budget(rows, problems)
        for cell, k in enumerate(self.K):
            cell_rows = rows[cell * self.trials:(cell + 1) * self.trials]
            if [r["note"] for r in cell_rows] != [f"k={k}"] * self.trials \
                    or [r["trial"] for r in cell_rows] != list(map(str, range(self.trials))):
                problems.append(f"cell k={k}: rows missing or out of order")
                continue
            R, tau, bound = self.expected_cell(k)
            if any(float(r["R"]) != R or not math.isclose(float(r["tau"]), tau, rel_tol=1e-9)
                   for r in cell_rows):
                problems.append(f"cell k={k}: R or tau differ from R={R:g}, tau={tau:.9g}")
            fail_rate = sum(r["support_exact"] != "1" for r in cell_rows) / self.trials
            se = math.sqrt(bound * (1 - bound) / self.trials)
            if fail_rate > bound + 3 * se:
                problems.append(f"cell k={k}: failure rate {fail_rate:.4g} above "
                                f"bound {bound:.4g} + 3 s.e.")
            m = np.array([int(r["m"]) for r in cell_rows])
            ideal = self.D * k + 1
            if abs(m.mean() - ideal) > 0.02 * ideal + 3 * m.std() / math.sqrt(self.trials):
                problems.append(f"cell k={k}: mean m {m.mean():.4g} not within 2% "
                                f"+ 3 s.e. of dk+1={ideal}")
        return problems

    def sensing(self, outputs):
        sessions = [(int(r["m"]), int(r["note"][2:])) for r in _rows(outputs["vt.csv"])]
        return _sensing(self.D, sessions,
                        sum(m / (self.D * k + 1) for m, k in sessions) / max(len(sessions), 1))


class LearnPlanted:
    """Dictionary learning on a planted p=63 corpus with the default lambda search."""

    name = "learn-planted"
    SIDE, D, L, Q, K = 8, 2, 6, 64, 10
    outputs = ("dict.lasr",)

    ops = Q

    def __init__(self, tiny=False):
        # the tiny job codes the corpus downscaled to 4x4 on a 15-atom tree
        # with a fixed lambda, so it skips the lambda search
        self.tiny = tiny
        self.side, self.levels = (4, 4) if tiny else (self.SIDE, self.L)

    def make_inputs(self, directory, seed):
        rng = np.random.default_rng([seed, 2])
        corpus = os.path.join(directory, "corpus")
        planted_corpus(corpus, rng, self.SIDE, self.D, self.L, self.Q, self.K, amp=1.0)
        return {"corpus": corpus}

    def argv(self, inputs, seed, out_dir):
        size = ["--lam", "0.05"] if self.tiny else ["--target-sparsity", str(self.K)]
        return ["learn", "--corpus", inputs["corpus"], "--d", str(self.D),
                "--L", str(self.levels), "--target-side", str(self.side), *size,
                "--seed", str(seed), "--dict-path", os.path.join(out_dir, "dict.lasr")]

    def check(self, out_dir):
        try:
            with open(os.path.join(out_dir, "dict.lasr"), "rb") as f:
                n, p, d, L, mean, atoms = read_lasr(f.read())
        except (OSError, ValueError) as exc:
            return [f"dict.lasr: {exc}"]
        problems = []
        want = (self.side**2, (self.D**self.levels - 1) // (self.D - 1), self.D, self.levels)
        if (n, p, d, L) != want:
            return [f"dict.lasr header (n, p, d, L)={(n, p, d, L)}, expected {want}"]
        gram_err = float(np.max(np.abs(atoms.T @ atoms - np.eye(p))))
        if not gram_err <= 1e-8:
            problems.append(f"atoms not orthonormal: max Gram deviation {gram_err:.3g}")
        if not np.all(np.isfinite(mean)):
            problems.append("mean is not finite")
        return problems

    def sensing(self, outputs):
        return _sensing(self.D, [], 0.0)


class CompareSweep:
    """Energy-fair sweep (adaptive, PCA, Lasso, model-CoSaMP, wavelet) on a
    planted p=127 dictionary over 16x16 images."""

    name = "compare-sweep"
    SIDE, D, L, Q, K = 16, 2, 7, 200, 15
    outputs = ("cmp.csv",)
    RANDOM_ARMS, WAVELET_TAUS = 2, 2  # lasso + model-cosamp; wavelet taus 0, 0.5

    def __init__(self, tiny=False):
        if tiny:
            self.budgets, self.taus, self.trials, self.signals = (256,), (0, 0.5), 1, 1
        else:
            self.budgets, self.taus, self.trials, self.signals = (256, 32, 8), (0, 0.5, 1), 1, 2

    @property
    def ops(self):
        p = (self.D**self.L - 1) // (self.D - 1)
        measurements = (p // 4, p // 2, p)
        pca = sum(m <= min(self.SIDE**2, self.Q) for m in measurements)
        per_cell = len(self.taus) + pca + self.RANDOM_ARMS * len(measurements) + self.WAVELET_TAUS
        return len(self.budgets) * self.signals * self.trials * per_cell

    def make_inputs(self, directory, seed):
        rng = np.random.default_rng([seed, 3])
        corpus = os.path.join(directory, "corpus")
        Q, X = planted_corpus(corpus, rng, self.SIDE, self.D, self.L, self.Q, self.K, amp=2.0)
        lasr = os.path.join(directory, "planted.lasr")
        write_lasr(lasr, Q, X.mean(axis=1), self.D, self.L)
        return {"corpus": corpus, "dict": lasr}

    def argv(self, inputs, seed, out_dir):
        return ["compare", "--dict-path", inputs["dict"], "--corpus", inputs["corpus"],
                "--target-side", str(self.SIDE),
                "--budgets", ",".join(map(str, self.budgets)),
                "--taus", ",".join(map(str, self.taus)),
                "--trials", str(self.trials), "--test-signals", str(self.signals),
                "--target-sparsity", str(self.K), "--seed", str(seed),
                "--out", os.path.join(out_dir, "cmp.csv")]

    def check(self, out_dir):
        problems = []
        rows = _csv(out_dir, "cmp.csv", problems)
        if rows is None:
            return problems
        if len(rows) != self.ops:
            problems.append(f"{len(rows)} rows, expected {self.ops}")
        bad_snr = sum(1 for r in rows
                      if not (math.isfinite(_float(r["snr_db"])) or r["exact"] == "1"))
        if bad_snr:
            problems.append(f"{bad_snr} rows with neither a finite SNR nor exact=1")
        _check_budget(rows, problems)
        top = max(self.budgets)
        snr = {method: [s for r in rows if r["method"] == method and float(r["R"]) == top
                        and math.isfinite(s := _float(r["snr_db"]))]
               for method in ("adaptive", "lasso")}
        if not (snr["adaptive"] and snr["lasso"]
                and np.mean(snr["adaptive"]) > np.mean(snr["lasso"])):
            problems.append(f"at R={top} mean adaptive SNR does not beat mean Lasso SNR")
        return problems

    def sensing(self, outputs):
        # the true supports of the test images are not in the CSV, so there
        # is no m/(dk+1) here; k is the target sparsity that sets beta
        return _sensing(self.D, [(int(r["m"]), self.K) for r in _rows(outputs["cmp.csv"])
                                 if r["method"] == "adaptive"], 0.0)


WORKLOADS = {w.name: w for w in (VerifyMC, LearnPlanted, CompareSweep)}


def check_output(workload, out_dir):
    """Problems with a job's output; a field that does not parse is one."""
    try:
        return workload.check(out_dir)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc!r}"]
