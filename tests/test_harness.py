import csv
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesense import (CSV_FIELDS, Dictionary, ExperimentConfig, SensingConfig, TrainingSet,
                       adaptive_sense_coeffs, allocate_beta, box_downscale, compare_methods,
                       harness, lambda_for_sparsity, lasso_solve, load_corpus, make_tree,
                       min_amplitude, model_cosamp, random_tree_sparse_batch, read_pgm,
                       snr_db, synthetic_corpus, verify_theorem, write_csv, write_manifest,
                       write_pgm)
from treesense.harness import (_extend, _random_projection_arms, apply_config,
                               parse_config_file)

from conftest import reference_table_csv, reference_write_csv, significant_sets


def test_snr_values():
    x = np.ones(4)
    assert snr_db(x, np.zeros(4)) == pytest.approx(0.0)
    x_hat = x + np.full(4, 0.1)  # error energy = ||x||^2 / 100
    assert snr_db(x, x_hat) == pytest.approx(20.0)
    assert math.isinf(snr_db(x, x))
    with pytest.raises(ValueError):
        snr_db(np.zeros(3), np.ones(3))


def test_snr_scores_each_row(rng):
    x = rng.standard_normal(30)
    x_hat = x + rng.standard_normal((2, 4, 30)) * np.array([0, 1e-3, 0.5, 2.0])[:, None]
    snr = snr_db(x, x_hat)
    assert snr.shape == (2, 4)
    for i in range(2):
        for j in range(4):
            assert snr[i, j] == snr_db(x, x_hat[i, j])   # row sums as the 1-D sums, bit for bit
    assert math.isinf(snr[0, 0]) and math.isinf(snr[1, 0])
    assert isinstance(snr_db(x, x_hat[0, 1]), float)
    assert snr_db(x, x_hat[:, 1]).shape == (2,) and snr_db(x, x_hat[:1, 1]).shape == (1,)


@pytest.mark.parametrize("x_hat_shape", [(1,), (3,), (2, 3), (4, 1), ()])
def test_snr_rejects_rows_of_another_length(x_hat_shape):
    # a (1,) x_hat used to broadcast against x and score 0 dB
    with pytest.raises(ValueError, match=re.escape(f"x_hat of shape {x_hat_shape} does not "
                                                   "match x of shape (4,)")):
        snr_db(np.ones(4), np.zeros(x_hat_shape))


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


@pytest.mark.parametrize("name,raw,problem", [
    ("a.pgm", b"P5\n2 2\n255\n\x00\x00", "2 bytes of pixel data, expected 4"),
    ("b.pgm", b"P5\n4 2\n255\n" + bytes(8), "image must be square"),
], ids=["malformed", "non_square"])
def test_load_corpus_names_a_bad_file_once(tmp_path, name, raw, problem):
    write_pgm(tmp_path / "good.pgm", np.zeros((4, 4)))
    (tmp_path / name).write_bytes(raw)
    with pytest.raises(ValueError) as info:
        load_corpus(tmp_path, 2)
    assert str(info.value) == f"{tmp_path / name}: {problem}"
    assert str(info.value).count(name) == 1


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
    ("budgets = nan", "config key 'budgets': must be finite, got nan"),
    ("taus = inf", "config key 'taus': must be finite, got inf"),
    ("noise_std = -1", "config key 'noise_std': must be nonnegative, got -1"),
    ("taus = 0,-0.5", "config key 'taus': must be nonnegative, got 0,-0.5"),
    ("seed = -1", "config key 'seed': must be nonnegative, got -1"),
    ("k =", "config key 'k': must hold at least one entry"),
    ("taus = ,", "config key 'taus': must hold at least one entry"),
    ("lam = 0", "config key 'lam': must be positive, got 0"),
    ("lam = -1", "config key 'lam': must be positive, got -1"),
    ("c1 = 0", "config key 'c1': must be positive, got 0"),
    ("a = 1", "config key 'a': must lie in (0, 1), got 1"),
])
def test_config_errors_name_the_key(tmp_path, line, reason):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"d = 3\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}"):
        apply_config(ExperimentConfig(), parse_config_file(cfg_file))


@pytest.mark.parametrize("make,message", [
    (lambda: ExperimentConfig(trials=0), "config key 'trials': must be at least 1, got 0"),
    (lambda: replace(ExperimentConfig(), k=(3, 3)), "config key 'k': (3, 3) repeats an entry"),
], ids=["made", "replaced"])
def test_a_config_checks_its_fields_when_it_is_made(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_a_config_is_frozen_and_apply_config_returns_a_new_one():
    cfg = ExperimentConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.trials = 5
    assert apply_config(cfg, {"trials": "5"}).trials == 5
    assert cfg == ExperimentConfig()


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
    # p = 65,535, but a block's map of signs holds trials * (S + 1) bytes, S
    # the largest node id a support can reach.  k = 7 has S = 127 and maps
    # 128 bytes per trial, so its 24 trials fit one block.  k = 15 has the
    # widest map, S = 32,767: 24 trials in one block would peak at 786 KB
    # (and a map of p columns at 1.6 MB); blocks of 2**18 // (S + 1) = 8
    # trials keep one 256 KiB map alive at a time
    verify_theorem(ExperimentConfig(d=2, L=4, k=(3,), trials=1))   # imports stay out of the peak
    for k in (7, 15):
        cfg = ExperimentConfig(d=2, L=16, k=(k,), trials=24, seed=3)
        tracemalloc.start()
        try:
            table, _ = verify_theorem(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table["m"]) == 24
        assert peak <= 2**19, (k, peak)


@pytest.mark.parametrize("d,L,k", [(2, 3, 3), (2, 10, 7), (2, 10, 15), (2, 10, 31),
                                   (2, 16, 15), (3, 6, 4), (3, 12, 8), (4, 5, 2), (4, 10, 6)])
def test_verify_theorem_blocks_bound_their_trials_and_maps(monkeypatch, d, L, k):
    # each block holds at most 2048 trials and a map of at most 2**18 bytes,
    # and every node it draws lies in the map; verify-mc's cells (d = 2,
    # L = 10) run blocks of 2048 trials at k = 7 and 512 at k = 15 and 31
    blocks = []

    def record(nodes, values, alpha, tree, cfg, rng, reach):
        trials = len(nodes)
        assert nodes.max() <= reach
        blocks.append((trials, trials * (reach + 1)))
        return (np.zeros(trials, np.int64), np.zeros(trials), np.zeros(trials, bool),
                np.zeros(trials, np.int64), np.zeros(trials, np.int64))

    monkeypatch.setattr(harness, "_sense_block", record)
    table, _ = verify_theorem(ExperimentConfig(d=d, L=L, k=(k,), trials=4100, seed=2))
    assert len(table["m"]) == 4100 == sum(trials for trials, _ in blocks)
    assert all(trials <= 2048 and size <= 2**18 for trials, size in blocks)
    if (d, L) == (2, 10):
        assert blocks[0][0] == {7: 2048, 15: 512, 31: 512}[k]


def test_verify_theorem_senses_its_draws_as_dense_rows():
    # every value a verify-theorem cell draws is +alpha or -alpha, so
    # _sense_block's map of signs senses and scores exactly what sensing
    # the dense rows does; a draw off +-alpha fails here.  Noise above the
    # amplitude's design makes sessions truncate, miss and false-alarm
    cfg = ExperimentConfig(d=2, L=6, k=(5,), budgets=(15.0,), noise_std=2.0, trials=200,
                           seed=11)
    tree, k, R = make_tree(cfg.d, cfg.L), cfg.k[0], cfg.budgets[0]
    beta = allocate_beta(R, cfg.d, k)
    alpha = min_amplitude(cfg.c1, cfg.a, cfg.d, k, beta)
    sense_cfg = SensingConfig(beta=beta, tau=cfg.a * beta * alpha, noise_std=cfg.noise_std,
                              budget=R)

    def replay():
        """The cell's generator and its one block of draws."""
        rng = np.random.default_rng([cfg.seed, 0])
        return (*random_tree_sparse_batch(tree, k, alpha, alpha, rng, cfg.trials,
                                          max_depth=cfg.L - 1), rng)

    nodes, values, rng = replay()
    assert np.array_equal(np.abs(values), np.full(values.shape, alpha))
    dense = np.zeros((cfg.trials, tree.p))
    dense[np.arange(cfg.trials)[:, None], nodes - 1] = values
    batch = adaptive_sense_coeffs(dense, tree, sense_cfg, rng)
    found, supports = significant_sets(batch), [set(row) for row in nodes.tolist()]
    false_alarms = np.array([len(f - s) for f, s in zip(found, supports)])
    misses = np.array([len(s - f) for f, s in zip(found, supports)])
    assert batch.truncated.any() and false_alarms.any() and misses.any()

    nodes, values, rng = replay()
    # supports reach node 2**5 - 1 at most: they hold no node at depth 5
    got = harness._sense_block(nodes, values, alpha, tree, sense_cfg, rng, 2**5 - 1)
    want = (batch.m, batch.energy_spent, batch.truncated, false_alarms, misses)
    for mine, theirs in zip(got, want, strict=True):
        assert np.array_equal(mine, theirs)
    table, _ = verify_theorem(cfg)
    assert table["m"].tobytes() == batch.m.tobytes()
    assert table["energy_spent"].tobytes() == batch.energy_spent.tobytes()
    assert np.array_equal(table["support_exact"], (false_alarms == 0) & (misses == 0))


@st.composite
def verify_blocks(draw):
    """A tree, a support size k that verify-theorem accepts or 1, a block of
    draws grown with max_depth = L - 1 at amplitude alpha, the generator
    that drew them (a replay makes the same pair) and a sensing config."""
    d = draw(st.integers(2, 4))
    tree = make_tree(d, draw(st.integers(2, {2: 8, 3: 6, 4: 5}[d])))
    L, k, alpha = tree.depth, draw(st.integers(1, tree.n_internal)), draw(st.floats(0.5, 3.0))
    trials, seed = draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1))
    cfg = SensingConfig(beta=draw(st.floats(0.3, 2.0)), tau=draw(st.floats(0.0, 3.0)),
                        noise_std=draw(st.sampled_from([0.0, 1.0, 2.0])),
                        budget=draw(st.none() | st.floats(1.0, 100.0)))

    def replay():
        rng = np.random.default_rng(seed)
        return (*random_tree_sparse_batch(tree, k, alpha, alpha, rng, trials,
                                          max_depth=L - 1), rng)

    return tree, k, alpha, cfg, replay


@settings(max_examples=100, deadline=None)
@given(verify_blocks())
def test_sense_block_senses_any_draw_as_dense_rows(block):
    # a support grown from the root below depth L - 1 reaches no node past
    # S, the number of nodes at depth below min(k, L - 1); the sign map of
    # S + 1 columns senses and scores what the dense rows do, nodes past S
    # (children of the deepest support nodes, noisy false alarms) included
    tree, k, alpha, cfg, replay = block
    reach = sum(tree.d**depth for depth in range(min(k, tree.depth - 1)))
    nodes, values, rng = replay()
    assert nodes.max() <= reach
    trials = len(nodes)
    dense = np.zeros((trials, tree.p))
    dense[np.arange(trials)[:, None], nodes - 1] = values
    batch = adaptive_sense_coeffs(dense, tree, cfg, rng)
    found, supports = significant_sets(batch), [set(row) for row in nodes.tolist()]
    want = (batch.m, batch.energy_spent, batch.truncated,
            [len(f - s) for f, s in zip(found, supports)],
            [len(s - f) for f, s in zip(found, supports)])
    nodes, values, rng = replay()
    got = harness._sense_block(nodes, values, alpha, tree, cfg, rng, reach)
    for mine, theirs in zip(got, want, strict=True):
        assert np.array_equal(mine, theirs)


def test_verify_theorem_rejects_no_trials():
    with pytest.raises(ValueError, match="^config key 'trials': must be at least 1, got 0$"):
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
    table = {"method": ["adaptive", "lasso", "adaptive", "pca"],
             "R": [256.0, 32, np.float64(8.0), 1e-20], "tau": [0.5, "", 0, ""],
             "m": [7, 63, 3, 12], "trial": [0, 1, 2, 3],
             "snr_db": [None, -4.25, np.float64(1 / 7), 2.0 / 3.0], "exact": [1, 0, 0, 0],
             "support_exact": [None, None, 1, None],
             "energy_spent": [1 / 3, np.float64(32.0), None, 123456789012345.0],
             "wall_time": "", "note": ["k=3", "a,b", "", ""]}
    assert write_csv(tmp_path / "f.csv", table) == 4
    assert (tmp_path / "f.csv").read_text() == (
        "method,R,tau,m,trial,snr_db,exact,support_exact,energy_spent,wall_time,note\n"
        "adaptive,256,0.5,7,0,,1,,0.333333333333,,k=3\n"
        'lasso,32,,63,1,-4.25,0,,32,,"a,b"\n'
        "adaptive,8,0,3,2,0.142857142857,0,1,,,\n"
        "pca,1e-20,,12,3,0.666666666667,0,,1.23456789012e+14,,\n")


def test_extend_writes_exact_rows_with_the_sentinel(tmp_path):
    # an SNR of +inf is an exact reconstruction: exact=1 and no snr_db;
    # shared values repeat on every row of the block
    table = {name: [] for name in CSV_FIELDS}
    _extend(table, "wavelet", 8, 0.5, [3, 4], range(2), np.array([math.inf, 1 / 3]),
            [np.float64(2.0), 2.5], "n")
    _extend(table, ["lasso", "model-cosamp"], 32.5, "", 6, np.repeat(range(1), 2),
            np.array([-4.25, math.inf]), 32.5, "a,b")
    assert write_csv(tmp_path / "f.csv", table) == 4
    assert (tmp_path / "f.csv").read_text() == (
        "method,R,tau,m,trial,snr_db,exact,support_exact,energy_spent,wall_time,note\n"
        "wavelet,8,0.5,3,0,,1,,2,,n\n"
        "wavelet,8,0.5,4,1,0.333333333333,0,,2.5,,n\n"
        'lasso,32.5,,6,0,-4.25,0,,32.5,,"a,b"\n'
        'model-cosamp,32.5,,6,0,,1,,32.5,,"a,b"\n')


def test_write_csv_matches_reference_writer(tmp_path, rng):
    # at k = 11 a support reaches S = 2047 nodes, so the 300 trials of its
    # cells cross its 2**18 / 2048 = 128-trial sensing blocks; the reference
    # writes the same values one row dict at a time
    table, _ = verify_theorem(ExperimentConfig(d=2, L=12, k=(3, 11), budgets=(21, 30.5),
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
    table = compare_methods(cfg, training=tr, dictionary=planted, dict_mean=tr.mean)
    assert write_csv(tmp_path / "cmp.csv", table) == len(table["method"])
    reference_write_csv(tmp_path / "cmp_ref.csv",
                        [dict(zip(table, row)) for row in zip(*table.values())])
    assert (tmp_path / "cmp.csv").read_bytes() == (tmp_path / "cmp_ref.csv").read_bytes()


def test_write_csv_quotes_and_reads_back_special_notes(tmp_path):
    # a field holding a comma, a quote, a newline or a carriage return is
    # quoted on every Python version, so csv.reader returns every cell
    notes = ["a,b", 'say "x"', "two\nlines", "a\rb.pgm", "\r\n", ""]
    table = {**{name: "" for name in CSV_FIELDS}, "method": "adaptive",
             "trial": np.arange(len(notes)), "note": notes}
    assert write_csv(tmp_path / "n.csv", table) == len(notes)
    with open(tmp_path / "n.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_FIELDS
    assert rows[1:] == [["adaptive", "", "", "", str(t), "", "", "", "", "", note]
                        for t, note in enumerate(notes)]


def test_write_csv_formats_a_float64_array_by_bit_pattern(tmp_path):
    # -0.0 equals 0.0, so a sort by value alone would write one of them for both
    values = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-20, 1 / 3, -0.0, 0.0])
    table = {**{name: "" for name in CSV_FIELDS}, "trial": np.arange(len(values)),
             "energy_spent": values}
    write_csv(tmp_path / "f.csv", table)
    reference_table_csv(tmp_path / "ref.csv", table)
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    with open(tmp_path / "f.csv", newline="") as f:
        column = [row[CSV_FIELDS.index("energy_spent")] for row in list(csv.reader(f))[1:]]
    assert column == ["0", "-0", "nan", "inf", "-inf", "1e-20", "0.333333333333", "-0", "0"]


# write_csv's oracle draws: no carriage return, which csv.writer leaves
# unquoted before Python 3.13
_TEXTS = st.text(st.sampled_from('ab ,"\n-.'), max_size=4)
_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-20, 1 / 3])
_FLOATS = _SPECIAL_FLOATS | st.floats(allow_nan=True, allow_infinity=True)
_ENTRIES = _FLOATS | st.integers(-10**6, 10**6) | st.none() | st.just("") | _TEXTS


def _object_array(entries):
    column = np.empty(len(entries), dtype=object)   # np.array would infer a dtype
    column[:] = entries
    return column


@st.composite
def csv_columns(draw, n):
    """One write_csv column of n rows: an array of one of six dtypes, a
    list of mixed entries or a scalar."""
    kind = draw(st.sampled_from(["float64", "int64", "bool", "float32", "str", "object",
                                 "list", "scalar"]))
    if kind == "scalar":
        return draw(_ENTRIES)
    entries = {"float64": _FLOATS, "int64": st.integers(-2**63, 2**63 - 1),
               "bool": st.booleans(), "float32": st.floats(width=32), "str": _TEXTS,
               "object": st.none() | _TEXTS | st.integers(-99, 99) | st.floats(),
               "list": _ENTRIES}[kind]
    values = draw(st.lists(entries, min_size=n, max_size=n))
    if kind == "list":
        return values
    if kind == "object":
        return _object_array(values)
    return np.array(values, dtype=kind)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_write_csv_matches_csv_module_writer(tmp_path_factory, data):
    # the csv.writer path write_csv had before it joined its own fields:
    # the same bytes for every column form, float32 arrays written with
    # str(), not 12 digits, and object arrays mixing None and str
    n = data.draw(st.integers(0, 5))
    table = {name: data.draw(csv_columns(n)) for name in CSV_FIELDS}
    table["trial"] = np.arange(n)   # one column sets the row count
    path = tmp_path_factory.getbasetemp()
    if data.draw(st.booleans()):   # a column of another length than trial's
        name = data.draw(st.sampled_from([f for f in CSV_FIELDS if f != "trial"]))
        table[name] = np.arange(n + 1) if data.draw(st.booleans()) else [None] * (n + 1)
        with pytest.raises(ValueError):
            write_csv(path / "new.csv", table)
        return
    assert write_csv(path / "new.csv", table) == n
    reference_table_csv(path / "ref.csv", table)
    assert (path / "new.csv").read_bytes() == (path / "ref.csv").read_bytes()


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
    from treesense import tree_prox
    A = tree_prox(planted.atoms.T @ tr.data, tree, lam)
    mean_k = np.mean(np.sum(np.abs(A) > 1e-12, axis=0))
    assert 3 <= mean_k <= 10


def test_compare_methods_schema_and_energy(rng):
    tree = make_tree(2, 5)
    X, planted, _ = synthetic_corpus(30, 16, tree, 8, rng, amp=1.0)
    tr = TrainingSet.from_raw(X)
    cfg = ExperimentConfig(mode="compare", budgets=(256.0,), taus=(0.0, 0.5),
                           measurements=(8, 16), trials=2, seed=3,
                           test_signals=1, target_sparsity=8)
    table = compare_methods(cfg, training=tr, dictionary=planted,
                            dict_mean=np.full(256, 0.5))
    assert set(table) == set(CSV_FIELDS)
    methods = set(table["method"])
    assert methods == {"adaptive", "pca", "lasso", "model-cosamp", "wavelet"}
    for R, energy in zip(table["R"], table["energy_spent"], strict=True):
        if energy not in (None, ""):
            assert energy <= R * (1 + 1e-9)


def test_compare_rows_keep_their_order(rng):
    # per budget, then per signal: the adaptive rows (tau, then trial); per m
    # the PCA trials, then Lasso and model-CoSaMP alternating per trial; then
    # the wavelet rows (tau, then trial)
    tree = make_tree(2, 4)
    X, planted, _ = synthetic_corpus(20, 8, tree, 4, rng)
    tr = TrainingSet.from_raw(X)
    cfg = ExperimentConfig(mode="compare", budgets=(64.0, 16), taus=(0, 0.5),
                           measurements=(4, 8), trials=2, seed=5, test_signals=2,
                           target_sparsity=4)
    table = compare_methods(cfg, training=tr, dictionary=planted, dict_mean=tr.mean)
    block = [("adaptive", tau, "", trial) for tau in (0, 0.5) for trial in (0, 1)]
    for m in (4, 8):
        block += [("pca", "", m, trial) for trial in (0, 1)]
        block += [(method, "", m, trial) for trial in (0, 1)
                  for method in ("lasso", "model-cosamp")]
    block += [("wavelet", tau, "", trial) for tau in (0.0, 0.5) for trial in (0, 1)]
    rows = list(zip(table["method"], table["R"], table["tau"], table["m"], table["trial"],
                    table["note"], strict=True))
    expected = [(method, R, tau, m, trial, f"in-sample;signal={sig}")
                for R in (64.0, 16) for sig in (0, 1) for method, tau, m, trial in block]
    assert [(method, R, tau, m if method in ("pca", "lasso", "model-cosamp") else "", trial,
             note) for method, R, tau, m, trial, note in rows] == expected
    # the exact sentinel: snr_db is empty exactly where exact is 1
    assert all((snr is None) == (exact == 1)
               for snr, exact in zip(table["snr_db"], table["exact"], strict=True))
    assert set(table["support_exact"]) == {None} and set(table["wall_time"]) == {""}

    # no budgets: an empty table, which writes the header alone
    empty = compare_methods(replace(cfg, budgets=()), training=tr, dictionary=planted,
                            dict_mean=tr.mean)
    assert empty == {name: [] for name in CSV_FIELDS}


def test_compare_runs_pca_up_to_the_numerical_rank(rng):
    # 6 centered images have rank 5: PCA rows for m = 4 and 5, none for
    # m = 6 (a count the corpus holds, above its rank) or m = 8
    tree = make_tree(2, 4)
    X, planted, _ = synthetic_corpus(6, 8, tree, 4, rng)
    tr = TrainingSet.from_raw(X)
    cfg = ExperimentConfig(mode="compare", budgets=(64.0, 16), taus=(0,),
                           measurements=(4, 5, 6, 8), trials=3, seed=5, test_signals=2,
                           target_sparsity=4)
    table = compare_methods(cfg, training=tr, dictionary=planted, dict_mean=tr.mean)
    pca_m = [m for method, m in zip(table["method"], table["m"]) if method == "pca"]
    assert pca_m == [m for _ in range(2 * 2) for m in (4, 5) for _ in range(3)]
    assert {m for method, m in zip(table["method"], table["m"]) if method == "lasso"} == \
        {4, 5, 6, 8}


def _fails_before_any_solver(rng, monkeypatch, run, changes, message):
    """Make a small config with `changes` and run `run` on it, every solver
    patched to fail if called: a ValueError matching message exactly must
    be raised.  Building the frozen ExperimentConfig is what raises it, so
    no run starts."""
    def solver(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("_sense_tree", "adaptive_sense_coeffs", "gaussian_ensemble",
                 "pca_fit", "wavelet_sense"):
        monkeypatch.setattr(harness, name, solver)
    tree = make_tree(2, 4)
    X, planted, _ = synthetic_corpus(20, 8, tree, 4, rng)
    tr = TrainingSet.from_raw(X)
    calls = {"verify_theorem": lambda: verify_theorem(cfg),
             "sense_signal": lambda: harness.sense_signal(cfg, planted, tr.mean, X[:, 0]),
             "compare_methods": lambda: compare_methods(cfg, tr, planted, tr.mean)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cfg = replace(ExperimentConfig(L=4, budgets=(64.0,), trials=2, target_sparsity=4),
                      **changes)
        calls[run]()


@pytest.mark.parametrize("run,key,value", [
    ("verify_theorem", "k", (3, 3)),
    ("verify_theorem", "budgets", (12, 12.0)),
    ("sense_signal", "budgets", (64, 64)),
    ("sense_signal", "taus", (0, 0.5, 0.5)),
    ("compare_methods", "taus", (0, 0)),
    ("compare_methods", "measurements", (4, 8, 4)),
], ids=["verify-k", "verify-budgets", "sense-budgets", "sense-taus", "compare-taus",
        "compare-measurements"])
def test_repeated_list_entries_fail_before_any_solver_runs(rng, monkeypatch, run, key, value):
    # a repeated entry would write two rows under one (method, R, tau, m,
    # trial) key
    _fails_before_any_solver(rng, monkeypatch, run, {key: value},
                             f"config key {key!r}: {value} repeats an entry")


@pytest.mark.parametrize("run,key,value", [
    ("compare_methods", "trials", 0),
    ("compare_methods", "test_signals", 0),
    ("sense_signal", "trials", 0),
], ids=["compare-trials", "compare-test-signals", "sense-trials"])
def test_counts_below_one_fail_before_any_solver_runs(rng, monkeypatch, run, key, value):
    # building the frozen ExperimentConfig raises, naming the key, so no run
    # starts; no trials once broadcast (3,) against (0,), no test signals
    # reshaped an empty array, and a sense run of no trials returned an
    # empty table
    _fails_before_any_solver(rng, monkeypatch, run, {key: value},
                             f"config key {key!r}: must be at least 1, got {value}")


@pytest.mark.parametrize("run,key,value,reason", [
    ("compare_methods", "noise_std", -1.0, "must be nonnegative, got -1.0"),
    ("compare_methods", "taus", (math.nan,), "must be finite, got (nan,)"),
    ("compare_methods", "budgets", (math.inf,), "must be finite, got (inf,)"),
    ("compare_methods", "seed", -3, "must be nonnegative, got -3"),
    ("verify_theorem", "budgets", (0.0,), "must be positive, got (0.0,)"),
    ("verify_theorem", "budgets", (math.nan,), "must be finite, got (nan,)"),
    ("verify_theorem", "c1", math.nan, "must be finite, got nan"),
    ("verify_theorem", "a", math.inf, "must be finite, got inf"),
    ("verify_theorem", "seed", -1, "must be nonnegative, got -1"),
    ("verify_theorem", "k", (), "must hold at least one entry"),
    ("sense_signal", "taus", (), "must hold at least one entry"),
    ("sense_signal", "noise_std", math.nan, "must be finite, got nan"),
], ids=["compare-noise-std", "compare-taus-nan", "compare-budgets-inf", "compare-seed",
        "verify-budgets-0", "verify-budgets-nan", "verify-c1", "verify-a", "verify-seed",
        "verify-k-empty", "sense-taus-empty", "sense-noise-std"])
def test_bad_values_fail_before_any_solver_runs(rng, monkeypatch, run, key, value, reason):
    # building the frozen ExperimentConfig raises, naming the key, so no run
    # starts: a negative noise_std or a nan tau once ran the ensembles and
    # both Lasso calls before SensingConfig rejected it without naming the
    # key, and an empty k or taus wrote no rows
    _fails_before_any_solver(rng, monkeypatch, run, {key: value},
                             f"config key {key!r}: {reason}")


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
    table = compare_methods(cfg, training=tr, dictionary=planted, dict_mean=tr.mean)
    # one generator per row (model-CoSaMP reuses the Lasso's measurements),
    # plus a lambda probe and an ensemble per (budget, m)
    assert len(first_draws) == sum(method != "model-cosamp" for method in table["method"]) + 2 * 4
    assert len(set(first_draws)) == len(first_draws)


def test_generator_keys_never_collide_within_a_run(rng, monkeypatch):
    # SeedSequence zero-pads a key to 4 words, so keys that differ only by
    # trailing zeros (5, [5], [5, 0]) seed one stream: compare each key's
    # generated state, not the key
    tree = make_tree(2, 4)
    X, planted, _ = synthetic_corpus(20, 8, tree, 4, rng)
    tr = TrainingSet.from_raw(X)
    keys, default_rng = [], np.random.default_rng

    def recording_rng(seed=None):
        keys.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    compare_methods(ExperimentConfig(mode="compare", budgets=(32.0, 8.0), taus=(0.0, 0.5),
                                     trials=3, seed=5, test_signals=2, target_sparsity=4),
                    training=tr, dictionary=planted, dict_mean=tr.mean)
    verify_theorem(ExperimentConfig(d=2, L=4, k=(3, 4), budgets=(12.0, 24.0), trials=3,
                                    seed=5))
    states = {tuple(np.random.SeedSequence(key).generate_state(4)) for key in keys}
    assert len(keys) > 100 and len(states) == len(keys)


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

    def recording_solve(A, Y, lam, **kw):
        calls.append((A, Y, np.array(lam)))
        return lasso_solve(A, Y, lam, **kw)

    monkeypatch.setattr(harness, "lasso_solve", recording_solve)
    arms = _random_projection_arms(cfg, planted, tr.mean,
                                   tr.data[:, :2] + tr.mean[:, None], [8, 20], 8)
    assert len(calls) == 2
    A_flat, Y_flat, lams = calls[1]
    for i, m in enumerate((8, 20)):
        alphas, cosamp = arms[m]
        assert alphas.shape == cosamp.shape == (2, tree.p, 4)
        for b in range(2):
            # (m, budget) stack 2i + b: its own m rows, then zeros
            A, Y = A_flat[2 * i + b, :m], Y_flat[2 * i + b, :m]
            assert not A_flat[2 * i + b, m:].any() and not Y_flat[2 * i + b, m:].any()
            own = lasso_solve(A[None], Y[None], lams[2 * i + b][None], max_iters=200)[0]
            assert np.max(np.abs(alphas[b] - own)) <= 1e-6
            # model-CoSaMP on the padded stack: bit for bit
            for col in range(4):
                own = model_cosamp(A[None], Y[None, :, col:col + 1], 8, tree,
                                   iters=15)[0, :, 0]
                assert cosamp[b, :, col].tobytes() == own.tobytes()


def test_compare_rejects_dimension_mismatch(rng):
    tree = make_tree(2, 3)
    Q, _ = np.linalg.qr(rng.standard_normal((16, tree.p)))
    d = Dictionary(atoms=Q, tree=tree)
    tr = TrainingSet.from_raw(rng.standard_normal((25, 4)))
    cfg = ExperimentConfig(mode="compare", budgets=(16.0,))
    with pytest.raises(ValueError):
        compare_methods(cfg, training=tr, dictionary=d, dict_mean=tr.mean)


def test_compare_default_measurements_hold_0_below_p_4(rng):
    # the default (p // 4, p // 2, p) is (0, 1, 3) at p = 3: gaussian_ensemble
    # failed with "need m >= 1 and budget > 0", naming neither the key nor p
    X, planted, _ = synthetic_corpus(20, 4, make_tree(2, 2), 2, rng)
    tr = TrainingSet.from_raw(X)
    cfg = ExperimentConfig(mode="compare", budgets=(16.0,), trials=1)
    with pytest.raises(ValueError, match=r"^config key 'measurements': \(0, 1, 3\) holds a "
                                         r"count below 1 .* p = 3\)$"):
        compare_methods(cfg, training=tr, dictionary=planted, dict_mean=tr.mean)
