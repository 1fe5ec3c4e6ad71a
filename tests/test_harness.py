import csv
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from treesense import (CSV_FIELDS, Dictionary, ExperimentConfig, TrainingSet,
                       box_downscale, compare_methods, harness, lambda_for_sparsity,
                       lasso_solve, load_corpus, make_tree, model_cosamp, read_pgm, snr_db,
                       synthetic_corpus, verify_theorem, write_csv, write_manifest, write_pgm)
from treesense.harness import (_random_projection_arms, _row, apply_config, as_table,
                               parse_config_file)

from conftest import reference_write_csv


def test_snr_values():
    x = np.ones(4)
    assert snr_db(x, np.zeros(4)) == pytest.approx(0.0)
    x_hat = x + np.full(4, 0.1)  # error energy = ||x||^2 / 100
    assert snr_db(x, x_hat) == pytest.approx(20.0)
    assert math.isinf(snr_db(x, x))
    with pytest.raises(ValueError):
        snr_db(np.zeros(3), np.ones(3))


def test_pgm_roundtrip(tmp_path, rng):
    img = rng.uniform(0, 1, (12, 16))
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (12, 16)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_16bit_and_comments(tmp_path):
    path = tmp_path / "b.pgm"
    pixels = (np.arange(6) * 1000).astype(">u2")
    path.write_bytes(b"P5\n# a comment\n3 2\n65535\n" + pixels.tobytes())
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img[0, 1] == pytest.approx(1000 / 65535)


def test_pgm_rejects_malformed(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        read_pgm(p)
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))  # truncated
    with pytest.raises(ValueError):
        read_pgm(p)


@pytest.mark.parametrize("content,reason", [
    (b"P5\n4 4\n", "truncated PGM header"),
    (b"P5\n4 x4\n255\n" + bytes(16), "non-integer"),
    (b"P5\n4 4\n25.5\n" + bytes(16), "non-integer"),
    (b"P5\n0 4\n255\n" + bytes(16), "invalid PGM size 0x4"),
    (b"P5\n4 0\n255\n" + bytes(16), "invalid PGM size 4x0"),
    (b"P54 4 255\n" + bytes(16), "fields not separated"),
    # the raster must run exactly to the end of the file
    (b"P5\n2 2\n255 junk\n" + bytes(4), "9 bytes of pixel data, expected 4"),
    (b"P5\n2 2\n255\n" + bytes(5), "5 bytes of pixel data, expected 4"),
    (b"P5\n2 2\n65535\n" + bytes(7), "7 bytes of pixel data, expected 8"),
])
def test_pgm_header_errors_name_the_path(tmp_path, content, reason):
    p = tmp_path / "bad.pgm"
    p.write_bytes(content)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: .*{reason}"):
        read_pgm(p)


def test_pgm_header_may_end_in_one_space(tmp_path):
    p = tmp_path / "space.pgm"
    p.write_bytes(b"P5 2 2 255 " + bytes([10, 32, 35, 255]))  # pixels look like header bytes
    assert read_pgm(p).tolist() == [[10 / 255, 32 / 255], [35 / 255, 1.0]]


def test_box_downscale_is_block_mean(rng):
    img = rng.uniform(0, 1, (8, 8))
    small = box_downscale(img, 4)
    assert small[0, 0] == pytest.approx(img[:2, :2].mean())
    assert small[3, 2] == pytest.approx(img[6:8, 4:6].mean())
    with pytest.raises(ValueError):
        box_downscale(img, 3)


def test_load_corpus(tmp_path, rng):
    for i in range(5):
        write_pgm(tmp_path / f"im{i}.pgm", rng.uniform(0, 1, (16, 16)))
    tr = load_corpus(tmp_path, 8)
    assert tr.data.shape == (64, 5)
    assert np.max(np.abs(tr.data.sum(axis=1))) < 1e-9


def test_load_corpus_empty_dir(tmp_path):
    with pytest.raises(ValueError):
        load_corpus(tmp_path, 8)


def test_load_corpus_constant_image(tmp_path):
    write_pgm(tmp_path / "c.pgm", np.full((8, 8), 0.5))
    tr = load_corpus(tmp_path, 8)
    assert np.allclose(tr.data, 0.0)


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("d = 3\nk = 3,7   # two cells\ntrials=50\nnoise_std=0.5\n")
    cfg = apply_config(ExperimentConfig(), parse_config_file(cfg_file))
    assert cfg.d == 3 and cfg.k == (3, 7) and cfg.trials == 50
    assert cfg.noise_std == 0.5


@pytest.mark.parametrize("line,reason", [
    ("workers = 2", "unknown config key 'workers'"),
    ("trails = 10", "unknown config key 'trails'"),
    ("split = 0.5", "unknown config key 'split'"),
    ("trials = ten", "config key 'trials': invalid literal"),
    ("k = 3,x", "config key 'k': invalid literal"),
    ("noise_std = loud", "config key 'noise_std': could not convert"),
    ("in_sample = ture", "config key 'in_sample'"),
    ("mode = compare", "unknown config key 'mode'"),
    ("k = 7.5", "config key 'k': invalid literal"),
    ("k = 3,7.0", "config key 'k': invalid literal"),
    ("measurements = 31.5", "config key 'measurements': invalid literal"),
    ("trials = 0", "config key 'trials': must be at least 1, got 0"),
    ("trials = -2", "config key 'trials': must be at least 1, got -2"),
    ("test_signals = 0", "config key 'test_signals': must be at least 1, got 0"),
    ("target_side = 0", "config key 'target_side': must be at least 1, got 0"),
    ("target_sparsity = 0", "config key 'target_sparsity': must be at least 1, got 0"),
    ("target_sparsity = -3", "config key 'target_sparsity': must be at least 1, got -3"),
    ("k = 7,0", "config key 'k': must be at least 1, got 7,0"),
    ("measurements = 0", "config key 'measurements': must be at least 1, got 0"),
    ("measurements = 6,-1", "config key 'measurements': must be at least 1, got 6,-1"),
    ("budgets = 0", "config key 'budgets': must be positive, got 0"),
    ("budgets = 64,-3.5", "config key 'budgets': must be positive, got 64,-3.5"),
    ("noise_std = nan", "config key 'noise_std': must be finite, got nan"),
    ("lam = nan", "config key 'lam': must be finite, got nan"),
    ("c1 = inf", "config key 'c1': must be finite, got inf"),
    ("a = -inf", "config key 'a': must be finite, got -inf"),
    ("taus = 0,1e400", "config key 'taus': must be finite, got 0,1e400"),
    ("budgets = 1e400", "config key 'budgets': must be finite, got 1e400"),
])
def test_config_errors_name_the_key(tmp_path, line, reason):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"d = 3\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}"):
        apply_config(ExperimentConfig(), parse_config_file(cfg_file))


def test_config_values_take_the_field_types():
    cfg = apply_config(ExperimentConfig(), {"budgets": "64,16.5", "lam": "0.05",
                                            "corpus": "imgs", "in_sample": "no"})
    assert cfg.budgets == (64, 16.5) and cfg.lam == 0.05 and cfg.corpus == "imgs"
    assert cfg.in_sample is False


def test_manifest_lists_every_field(tmp_path):
    cfg = ExperimentConfig(k=(3, 7), lam=0.05)
    write_manifest(tmp_path / "m.txt", cfg, ["cell summary"])
    lines = (tmp_path / "m.txt").read_text().splitlines()
    assert lines[0].startswith("treesense version ") and lines[-1] == "cell summary"
    assert lines[1:-1] == [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]


def test_verify_theorem_noiseless_cells():
    cfg = ExperimentConfig(d=2, L=5, k=(3, 5), noise_std=0.0, trials=50, seed=1)
    table, summaries = verify_theorem(cfg)
    assert len(table["m"]) == 100  # one row per (cell, trial)
    k = np.array([int(note.split("=")[1]) for note in table["note"]])
    assert np.array_equal(table["m"], 2 * k + 1)
    assert np.all(table["support_exact"] == 1)
    assert len(summaries) == 2


def test_verify_theorem_block_memory_is_bounded():
    # p = 65,535: a block's slot map and membership mask hold trials * p
    # bytes each, so 24 trials in one block would peak at 1.6 MB; blocks of
    # 2**18 // p = 4 trials keep one 256 KiB map alive at a time
    cfg = ExperimentConfig(d=2, L=16, k=(7,), trials=24, seed=3)
    verify_theorem(replace(cfg, L=4, trials=1))   # imports stay out of the peak
    tracemalloc.start()
    try:
        table, _ = verify_theorem(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table["m"]) == 24
    assert peak <= 2**19, peak


def test_verify_theorem_rejects_no_trials():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_theorem(ExperimentConfig(d=2, L=4, k=(3,), trials=0))


def _summary_fields(line):
    return {key: float(val) for key, val in re.findall(r"(\w+)=([-\d.e+]+)", line)}


def test_verify_theorem_traversal_statistics():
    # noiseless: no truncation, false alarm or miss in any cell
    cfg = ExperimentConfig(d=2, L=5, k=(3, 5), noise_std=0.0, trials=50, seed=1)
    for line in verify_theorem(cfg)[1]:
        stats = _summary_fields(line)
        assert stats["truncated_rate"] == stats["false_alarms"] == stats["misses"] == 0
    # heavy noise: sessions run into the budget R = (d+1)k.  A cut session
    # spent all of it; a session whose queue ran empty at its last affordable
    # measurement also has m = (d+1)k but was not cut, and is rare
    cfg = ExperimentConfig(d=2, L=6, k=(3, 7), noise_std=50.0, trials=200, seed=4)
    table, summaries = verify_theorem(cfg)
    for k, line in zip(cfg.k, summaries):
        stats = _summary_fields(line)
        m = table["m"][table["note"] == f"k={k}"]
        at_budget = np.sum(m == 3 * k) / len(m)
        assert at_budget > 0.5
        assert at_budget - 0.01 <= stats["truncated_rate"] <= at_budget
        assert stats["false_alarms"] > 0


def test_csv_schema_and_determinism(tmp_path):
    cfg = ExperimentConfig(d=2, L=4, k=(3,), trials=30, seed=5,
                           out=str(tmp_path / "r1.csv"))
    rows, _ = verify_theorem(cfg)
    write_csv(cfg.out, rows)
    cfg2 = ExperimentConfig(d=2, L=4, k=(3,), trials=30, seed=5,
                            out=str(tmp_path / "r2.csv"))
    rows2, _ = verify_theorem(cfg2)
    write_csv(cfg2.out, rows2)
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    with open(cfg.out) as f:
        parsed = list(csv.DictReader(f))
    assert list(parsed[0].keys()) == CSV_FIELDS
    for row in parsed:
        assert float(row["energy_spent"]) <= float(row["R"]) * (1 + 1e-9)
        assert row["support_exact"] in ("0", "1")


def test_write_csv_field_formatting(tmp_path):
    rows = [
        _row("adaptive", 256.0, 0.5, 7, 0, snr=math.inf, energy=1 / 3, note="k=3"),
        _row("lasso", 32, "", 63, 1, snr=-4.25, energy=np.float64(32.0), note="a,b"),
        _row("adaptive", np.float64(8.0), 0, 3, 2, snr=np.float64(1 / 7), support_exact=1),
        _row("pca", 1e-20, "", 12, 3, snr=2.0 / 3.0, energy=123456789012345.0),
    ]
    write_csv(tmp_path / "f.csv", as_table(rows))
    assert (tmp_path / "f.csv").read_text() == (
        "method,R,tau,m,trial,snr_db,exact,support_exact,energy_spent,wall_time,note\n"
        "adaptive,256,0.5,7,0,,1,,0.333333333333,,k=3\n"
        'lasso,32,,63,1,-4.25,0,,32,,"a,b"\n'
        "adaptive,8,0,3,2,0.142857142857,0,1,,,\n"
        "pca,1e-20,,12,3,0.666666666667,0,,1.23456789012e+14,,\n")


def test_write_csv_matches_reference_writer(tmp_path, rng):
    # 300 trials per cell cross the 256-trial sensing block; the reference
    # writes the same values one row dict at a time
    table, _ = verify_theorem(ExperimentConfig(d=2, L=6, k=(3, 7), budgets=(21, 30.5),
                                               trials=300, seed=8))
    n = write_csv(tmp_path / "vt.csv", table)
    columns = {name: col.tolist() if isinstance(col, np.ndarray) else [col] * n
               for name, col in table.items()}
    reference_write_csv(tmp_path / "vt_ref.csv",
                        [dict(zip(columns, row)) for row in zip(*columns.values())])
    assert n == 4 * 300
    assert (tmp_path / "vt.csv").read_bytes() == (tmp_path / "vt_ref.csv").read_bytes()

    tree = make_tree(2, 4)
    X, planted, _ = synthetic_corpus(20, 8, tree, 4, rng)
    cfg = ExperimentConfig(mode="compare", budgets=(64.0, 16), taus=(0.0, 0.5),
                           measurements=(4, 8), trials=2, seed=5, test_signals=2,
                           target_sparsity=4)
    tr = TrainingSet.from_raw(X)
    rows = compare_methods(cfg, training=tr, dictionary=planted, dict_mean=tr.mean)
    assert write_csv(tmp_path / "cmp.csv", as_table(rows)) == len(rows)
    reference_write_csv(tmp_path / "cmp_ref.csv", rows)
    assert (tmp_path / "cmp.csv").read_bytes() == (tmp_path / "cmp_ref.csv").read_bytes()


def test_synthetic_corpus_shapes(rng):
    tree = make_tree(2, 5)
    X, planted, A = synthetic_corpus(12, 16, tree, 8, rng)
    assert X.shape == (256, 12)
    assert planted.atoms.shape == (256, 31)
    for i in range(12):
        from treesense import is_tree_sparse
        assert is_tree_sparse(A[:, i], tree)


def test_lambda_for_sparsity_targets(rng):
    tree = make_tree(2, 4)
    X, planted, _ = synthetic_corpus(60, 8, tree, 10, rng)
    tr = TrainingSet.from_raw(X)
    lam = lambda_for_sparsity(tr, planted, target_k=6)
    from treesense import groups_of, tree_prox
    A = tree_prox(planted.atoms.T @ tr.data, groups_of(tree), lam)
    mean_k = np.mean(np.sum(np.abs(A) > 1e-12, axis=0))
    assert 3 <= mean_k <= 10


def test_compare_methods_schema_and_energy(rng):
    tree = make_tree(2, 5)
    X, planted, _ = synthetic_corpus(30, 16, tree, 8, rng, amp=1.0)
    tr = TrainingSet.from_raw(X)
    cfg = ExperimentConfig(mode="compare", budgets=(256.0,), taus=(0.0, 0.5),
                           measurements=(8, 16), trials=2, seed=3,
                           test_signals=1, target_sparsity=8)
    rows = compare_methods(cfg, training=tr, dictionary=planted,
                           dict_mean=np.full(256, 0.5))
    methods = {r["method"] for r in rows}
    assert methods == {"adaptive", "pca", "lasso", "model-cosamp", "wavelet"}
    for r in rows:
        if r["energy_spent"] not in (None, ""):
            assert r["energy_spent"] <= r["R"] * (1 + 1e-9)


def test_compare_generators_never_share_a_draw(rng, monkeypatch):
    # budgets 32.25 and 32.75 have the same integer part; seeds built from
    # int(R) gave both budgets' cells the same noise and ensemble
    tree = make_tree(2, 4)
    X, planted, _ = synthetic_corpus(20, 8, tree, 4, rng)
    tr = TrainingSet.from_raw(X)
    cfg = ExperimentConfig(mode="compare", budgets=(32.25, 32.75), taus=(0.0, 0.5),
                           measurements=(4, 8), trials=2, seed=5, test_signals=2,
                           target_sparsity=4)
    first_draws, default_rng = [], np.random.default_rng

    def recording_rng(seed=None):
        first_draws.append(tuple(default_rng(seed).random(2)))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    rows = compare_methods(cfg, training=tr, dictionary=planted, dict_mean=tr.mean)
    # one generator per row (model-CoSaMP reuses the Lasso's measurements),
    # plus a lambda probe and an ensemble per (budget, m)
    assert len(first_draws) == sum(r["method"] != "model-cosamp" for r in rows) + 2 * 4
    assert len(set(first_draws)) == len(first_draws)


def test_random_projection_arms_match_per_m_lasso_solves(rng, monkeypatch):
    # every m is zero-padded to the largest and solved in one stacked call;
    # each m's coefficients must equal its own unpadded solve.  At the
    # harness's 200 iterations and tol=1e-10 the monotone and stop tests run
    # at rounding level, where the padded products' rounding can flip them
    # (seen up to 5e-9 on other data); test_baselines checks the padding
    # itself to 1e-12 with a loose tol
    tree = make_tree(2, 5)
    X, planted, _ = synthetic_corpus(30, 16, tree, 8, rng, amp=1.0)
    tr = TrainingSet.from_raw(X)
    cfg = ExperimentConfig(mode="compare", budgets=(256.0, 32.0), measurements=(8, 20),
                           trials=2, seed=3, test_signals=2, target_sparsity=8)
    calls = []

    def recording_solve(A, y, lam, **kw):
        calls.append(np.array(lam))
        return lasso_solve(A, y, lam, **kw)

    monkeypatch.setattr(harness, "lasso_solve", recording_solve)
    arms = _random_projection_arms(cfg, planted, tr.mean,
                                   tr.data[:, :2] + tr.mean[:, None], [8, 20], 8)
    assert len(calls) == 2
    lams = calls[1].reshape(2, 2, -1)
    for i, m in enumerate((8, 20)):
        A, Y, alphas, cosamp = arms[m]
        assert A.shape == (2, m, tree.p) and Y.shape == (2, 4, m)
        assert alphas.shape == cosamp.shape == (2, tree.p, 4)
        for b in range(2):
            own = lasso_solve(A[b], Y[b].T, lams[i, b], max_iters=200)
            assert np.max(np.abs(alphas[b] - own)) <= 1e-6
            # model-CoSaMP drops the padding itself: bit for bit
            for col in range(4):
                own = model_cosamp(A[b], Y[b, col], 8, tree, iters=15)
                assert cosamp[b, :, col].tobytes() == own.tobytes()


def test_compare_rejects_dimension_mismatch(rng):
    tree = make_tree(2, 3)
    Q, _ = np.linalg.qr(rng.standard_normal((16, tree.p)))
    d = Dictionary(atoms=Q, tree=tree)
    tr = TrainingSet.from_raw(rng.standard_normal((25, 4)))
    cfg = ExperimentConfig(mode="compare", budgets=(16.0,))
    with pytest.raises(ValueError):
        compare_methods(cfg, training=tr, dictionary=d, dict_mean=tr.mean)
