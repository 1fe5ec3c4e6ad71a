import argparse
import csv
import logging
import re
from dataclasses import fields

import numpy as np
import pytest

from treesense import (Dictionary, ExperimentConfig, LearnConfig, initial_dictionary,
                       lambda_for_sparsity, learn, load_corpus, load_dictionary, make_tree,
                       save_dictionary, synthetic_corpus, write_pgm)
from treesense import cli
from treesense.cli import COMMON_FLAGS, FLAGS, _build_cfg, _parser, main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Tiny synthetic PGM corpus plus one held-out test image (side 8)."""
    root = tmp_path_factory.mktemp("corpus")
    tree = make_tree(2, 5)
    rng = np.random.default_rng(99)
    X, _, _ = synthetic_corpus(25, 8, tree, 6, rng)
    lo, hi = X.min(), X.max()
    for i in range(24):
        img = (X[:, i].reshape(8, 8, order="F") - lo) / (hi - lo)
        write_pgm(root / f"train{i:02d}.pgm", img)
    test = root / "test.pgm"
    write_pgm(test, (X[:, 24].reshape(8, 8, order="F") - lo) / (hi - lo))
    return root, test


@pytest.fixture(scope="module")
def random_dict(tmp_path_factory):
    """A random orthonormal 64 x 31 dictionary on the d=2, L=5 tree."""
    path = tmp_path_factory.mktemp("dict") / "d.lasr"
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((64, 31)))
    save_dictionary(path, Dictionary(atoms=Q, tree=make_tree(2, 5)))
    return path


def test_tree_info(capsys):
    assert main(["tree-info", "--d", "3", "--L", "4"]) == 0
    out = capsys.readouterr().out
    assert "p=40" in out
    assert "children of root: (2, 3, 4)" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_verify_theorem_cli(tmp_path, capsys):
    out = tmp_path / "vt.csv"
    rc = main(["verify-theorem", "--d", "2", "--L", "4", "--k", "2,3",
               "--trials", "20", "--seed", "7", "--noise-std", "0",
               "--out", str(out)])
    assert rc == 0
    assert "failure_rate=0" in capsys.readouterr().out
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 40
    assert (out.parent / "vt.csv.manifest.txt").exists()


def test_config_file_drives_verify(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "cfg.csv"
    cfg.write_text(f"d=2\nL=4\nk=2\ntrials=15\nnoise_std=0\nseed=3\nout={out}\n")
    assert main(["verify-theorem", "--config", str(cfg)]) == 0
    with open(out) as f:
        assert len(list(csv.DictReader(f))) == 15


@pytest.mark.parametrize("line,reason", [
    ("workers = 2", "unknown config key 'workers'"),
    ("k = 3,x", "config key 'k': invalid literal"),
])
def test_config_file_errors_name_the_file(tmp_path, capsys, line, reason):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d=2\nL=4\n{line}\n")
    rc = main(["verify-theorem", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert re.match(f"treesense: error: {re.escape(str(cfg))}: {re.escape(reason)}",
                    capsys.readouterr().err)


@pytest.mark.parametrize("kind", ["truncated-lasr", "nan-atom-lasr", "nan-mean-lasr",
                                  "malformed-pgm"])
def test_malformed_input_files_exit_2_naming_the_file(tmp_path, capsys, kind):
    dict_path, img = tmp_path / "d.lasr", tmp_path / "img.pgm"
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 3)))
    save_dictionary(dict_path, Dictionary(atoms=Q, tree=make_tree(2, 2)))
    write_pgm(img, np.full((2, 2), 0.5))
    argv = ["sense", "--dict-path", str(dict_path), "--image", str(img),
            "--out", str(tmp_path / "s.csv")]
    bad = dict_path
    if kind == "truncated-lasr":
        dict_path.write_bytes(b"LASR\x01\x00")
        argv = ["compare", "--dict-path", str(dict_path), "--corpus", str(tmp_path),
                "--target-side", "2", "--budgets", "4", "--out", str(tmp_path / "c.csv")]
    elif kind == "malformed-pgm":
        img.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02")   # 3 of 4 pixels
        bad = img
    else:
        # one nan in the mean (right after the 22-byte header) or in atom
        # entry 5, column-major: sense would run and write a finite-looking
        # or a nan SNR
        raw = bytearray(dict_path.read_bytes())
        at = 22 if kind == "nan-mean-lasr" else 22 + 8 * 4 + 8 * 5
        raw[at:at + 8] = np.float64(np.nan).tobytes()
        dict_path.write_bytes(bytes(raw))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"treesense: error: {bad}: ") and err.count("\n") == 1


# one value per flag, each unlike the field's default
FLAG_VALUES = {"seed": "7", "trials": "5", "out": "x.csv", "d": "3", "L": "5",
               "k": "3,7", "c1": "1.5", "a": "0.25", "budgets": "64,16.5",
               "noise_std": "0.5", "corpus": "imgs", "target_side": "16",
               "lam": "0.05", "target_sparsity": "6", "dict_path": "d.lasr",
               "taus": "0,0.5", "measurements": "6,12", "test_signals": "3",
               "in_sample": "no"}


def _eager_parser():
    """The CLI's parser with every subcommand's flags added when it is
    built: the reference for what _parser prints."""
    parser = argparse.ArgumentParser(prog="treesense")
    parser.add_argument("--version", action="version", version=cli.__version__)
    parser.add_argument("--log-level", dest="log_level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="level of the library's log messages on stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("tree-info", help="print tree index arithmetic facts")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--L", type=int, default=7)
    for command, text in (("verify-theorem", "Monte Carlo support-recovery verification"),
                          ("learn", "learn a tree-structured orthonormal dictionary"),
                          ("sense", "acquire one image with a learned dictionary"),
                          ("compare", "energy-fair SNR-vs-measurements sweep")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="key=value config file")
        for name in (*COMMON_FLAGS, *FLAGS[command]):
            p.add_argument("--" + name.replace("_", "-"), dest=name)
        if command == "sense":
            p.add_argument("--image")
    return parser


@pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in ("tree-info", *FLAGS)),
                                  ["compare", "--no-such-flag", "1"], ["sense", "--trials"],
                                  ["learn", "--lam"], ["no-such-command"], []],
                         ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_errors_match_a_parser_built_with_every_flag(monkeypatch, capsys, argv):
    # _parser adds a subcommand's flags only when that subcommand parses;
    # what `treesense ...` prints and its exit status must not show it
    monkeypatch.setenv("COLUMNS", "100")
    printed = []
    for parse in (main, _eager_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        printed.append((exc.value.code, *capsys.readouterr()))
    assert printed[0] == printed[1]
    assert printed[0][0] == (0 if "--help" in argv else 2)


def test_flags_are_config_fields():
    names = {f.name for f in fields(ExperimentConfig)}
    for command, flags in FLAGS.items():
        assert set(COMMON_FLAGS + flags) <= names, command


@pytest.mark.parametrize("command,name", [(command, name) for command, flags in FLAGS.items()
                                          for name in COMMON_FLAGS + flags])
def test_flag_equals_config_line(tmp_path, command, name):
    value = FLAG_VALUES[name]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {value}\n")
    parser = _parser()
    by_flag = _build_cfg(parser.parse_args([command, "--" + name.replace("_", "-"), value]))
    by_file = _build_cfg(parser.parse_args([command, "--config", str(cfg_file)]))
    assert by_flag == by_file
    assert getattr(by_flag, name) != getattr(ExperimentConfig(), name)


def test_flags_override_the_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("trials = 5\nseed = 3\n")
    cfg = _build_cfg(_parser().parse_args(["verify-theorem", "--config", str(cfg_file),
                                           "--trials", "9"]))
    assert (cfg.mode, cfg.trials, cfg.seed) == ("verify-theorem", 9, 3)


def test_bad_flag_value_fails_like_a_bad_config_value(tmp_path, capsys):
    rc = main(["verify-theorem", "--trials", "ten", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("treesense: error: config key 'trials': invalid literal")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_workers_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--workers", "2", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--trials", "5"), ("--out", "x.csv")])
def test_learn_rejects_flags_it_does_not_read(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--corpus", str(tmp_path), "--dict-path", str(tmp_path / "d.lasr"),
              flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "d.lasr").exists()


@pytest.mark.parametrize("line", ["trials = 5", "out = x.csv"])
def test_config_file_takes_only_the_subcommands_keys(tmp_path, corpus_dir, capsys, line):
    root, _ = corpus_dir
    cfg = tmp_path / "learn.cfg"
    cfg.write_text(f"corpus = {root}\ntarget_side = 8\nL = 5\nlam = 0.05\n{line}\n")
    assert main(["learn", "--config", str(cfg), "--dict-path", str(tmp_path / "d.lasr")]) == 2
    key = line.split()[0]
    assert capsys.readouterr().err == (f"treesense: error: {cfg}: config key {key!r} "
                                       "is not a learn option\n")
    assert not (tmp_path / "d.lasr").exists()


def test_learn_sense_compare_roundtrip(tmp_path, corpus_dir, capsys):
    root, test_img = corpus_dir
    dict_path = tmp_path / "d.lasr"

    rc = main(["learn", "--corpus", str(root), "--d", "2", "--L", "5",
               "--target-side", "8", "--target-sparsity", "6",
               "--seed", "11", "--dict-path", str(dict_path)])
    assert rc == 0
    dictionary, mean = load_dictionary(dict_path)
    assert dictionary.atoms.shape == (64, 31)
    assert mean.shape == (64,)

    sense_out = tmp_path / "sense.csv"
    rc = main(["sense", "--dict-path", str(dict_path), "--image", str(test_img),
               "--budgets", "64", "--taus", "0,0.1", "--trials", "2",
               "--noise-std", "0.01", "--seed", "2", "--out", str(sense_out)])
    assert rc == 0
    with open(sense_out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert all(r["method"] == "adaptive" for r in rows)

    cmp_out = tmp_path / "cmp.csv"
    rc = main(["compare", "--dict-path", str(dict_path), "--corpus", str(root),
               "--target-side", "8", "--budgets", "64", "--taus", "0",
               "--measurements", "6", "--trials", "1", "--test-signals", "1",
               "--target-sparsity", "6", "--seed", "4", "--out", str(cmp_out)])
    assert rc == 0
    with open(cmp_out) as f:
        rows = list(csv.DictReader(f))
    assert {r["method"] for r in rows} == {"adaptive", "pca", "lasso",
                                           "model-cosamp", "wavelet"}


def test_log_level_info_reports_lasso_caps(tmp_path, corpus_dir, random_dict, caplog):
    root, _ = corpus_dir
    argv = ["compare", "--dict-path", str(random_dict), "--corpus", str(root),
            "--target-side", "8", "--budgets", "64,16", "--taus", "0",
            "--measurements", "6,12", "--trials", "2", "--test-signals", "1",
            "--target-sparsity", "6", "--seed", "4"]

    def solver_messages(prefix):
        return [r.getMessage() for r in caplog.records
                if r.name == "treesense.baselines" and r.levelno == logging.INFO
                and r.getMessage().startswith(prefix)]

    try:
        assert main([*argv, "--out", str(tmp_path / "warn.csv")]) == 0
        assert solver_messages("") == []
        assert main(["--log-level", "info", *argv, "--out", str(tmp_path / "info.csv")]) == 0
    finally:
        logging.getLogger("treesense").setLevel(logging.NOTSET)
    # one call for the lambda grids (2 m x 2 budgets x 4 weights) and one
    # for the columns (2 m x 2 budgets x 2 trials)
    messages = solver_messages("lasso_solve:")
    assert len(messages) == 2
    for msg, total in zip(messages, (16, 8)):
        stopped = re.fullmatch(rf"lasso_solve: (\d+) of {total} columns stopped "
                               r"at max_iters=200; relative duality gap "
                               r"median (\S+), max (\S+)", msg)
        assert stopped and int(stopped.group(1)) <= total
        assert 0 <= float(stopped.group(2)) <= float(stopped.group(3))
    # one model-CoSaMP call for the same 8 problems, each with one stop reason
    messages = solver_messages("model_cosamp:")
    assert len(messages) == 1
    counts = re.fullmatch(r"model_cosamp: of 8 problems, (\d+) met tol, (\d+) stalled, "
                          r"(\d+) stopped at iters=15, (\d+) had y = 0", messages[0])
    assert counts and sum(map(int, counts.groups())) == 8
    assert (tmp_path / "info.csv").read_bytes() == (tmp_path / "warn.csv").read_bytes()


@pytest.mark.parametrize("lam", [["--lam", "0.05"], []])
def test_learn_writes_the_librarys_dictionary(tmp_path, corpus_dir, lam):
    # one initial dictionary, drawn from the seed, serves the lambda search
    # and learn alike
    root, _ = corpus_dir
    cli_path, lib_path = tmp_path / "cli.lasr", tmp_path / "lib.lasr"
    assert main(["learn", "--corpus", str(root), "--L", "5", "--target-side", "8",
                 "--target-sparsity", "6", *lam, "--seed", "11",
                 "--dict-path", str(cli_path)]) == 0
    training = load_corpus(root, 8)
    init = initial_dictionary(training, make_tree(2, 5), np.random.default_rng(11))
    value = 0.05 if lam else lambda_for_sparsity(training, init, 6)
    dictionary, _, _ = learn(training, init, LearnConfig(value))
    save_dictionary(lib_path, dictionary, training.mean)
    assert cli_path.read_bytes() == lib_path.read_bytes()


@pytest.mark.parametrize("command,flag,value", [
    ("learn", "--target-side", "0"),
    ("learn", "--target-sparsity", "500"),
    pytest.param("learn", "--lam 0.05 --target-sparsity", "500",
                 id="learn---target-sparsity-500-with-lam"),
    ("sense", "--trials", "0"),
    ("compare", "--test-signals", "999"),
    ("compare", "--target-sparsity", "99"),
])
def test_bad_counts_exit_2_naming_the_key(tmp_path, corpus_dir, random_dict, capsys,
                                          command, flag, value):
    # a count below 1 fails where it is parsed (test_config_errors_name_the_key
    # has the rest); a target sparsity above the tree's p, or more test
    # signals than the corpus holds, fails once the inputs are read
    root, test_img = corpus_dir
    out = tmp_path / "out"
    inputs = {"learn": ["--corpus", str(root), "--L", "5", "--target-side", "8",
                        "--dict-path", str(out)],
              "sense": ["--dict-path", str(random_dict), "--image", str(test_img),
                        "--out", str(out)],
              "compare": ["--dict-path", str(random_dict), "--corpus", str(root),
                          "--target-side", "8", "--budgets", "64", "--measurements", "6",
                          "--out", str(out)]}[command]
    assert main([command, *inputs, *flag.split(), value]) == 2
    key = flag.split()[-1][2:].replace("-", "_")
    err = capsys.readouterr().err
    assert err.startswith(f"treesense: error: config key '{key}': ") and err.count("\n") == 1
    assert not out.exists()


# verify-theorem's k range on the d = 2, L = 4 tree
K_RANGE = "the failure bound needs k >= 2, and the tree has 7 nodes above its leaf level"


@pytest.mark.parametrize("command,flag,value,reason", [
    ("verify-theorem", "--k", "100", "100 is not in 2..7: " + K_RANGE),
    ("verify-theorem", "--k", "10", "10 is not in 2..7: " + K_RANGE),
    ("verify-theorem", "--k", "1", "1 is not in 2..7: " + K_RANGE),
    ("verify-theorem", "--budgets", "0", "must be positive, got 0"),
    ("verify-theorem", "--budgets", "-3", "must be positive, got -3"),
    ("compare", "--measurements", "0", "must be at least 1, got 0"),
    ("compare", "--measurements", "31,31", "(31, 31) repeats an entry"),
    ("verify-theorem", "--k", "3,3", "(3, 3) repeats an entry"),
    ("verify-theorem", "--budgets", "16,16", "(16, 16) repeats an entry"),
    ("sense", "--budgets", "32,32", "(32, 32) repeats an entry"),
    ("sense", "--taus", "0,0", "(0, 0) repeats an entry"),
    ("compare", "--taus", "0.5,0,0.5", "(0.5, 0, 0.5) repeats an entry"),
    ("verify-theorem", "--noise-std", "nan", "must be finite, got nan"),
    ("verify-theorem", "--c1", "nan", "must be finite, got nan"),
    ("compare", "--taus", "1e400", "must be finite, got 1e400"),
    ("compare", "--noise-std", "-1", "must be nonnegative, got -1"),
    ("compare", "--taus", "0,-0.5", "must be nonnegative, got 0,-0.5"),
    ("verify-theorem", "--seed", "-1", "must be nonnegative, got -1"),
    ("compare", "--seed", "-3", "must be nonnegative, got -3"),
    ("verify-theorem", "--k", "", "must hold at least one entry"),
    ("sense", "--taus", "", "must hold at least one entry"),
    ("verify-theorem", "--a", "1.5", "must lie in (0, 1), got 1.5"),
    ("verify-theorem", "--c1", "0", "must be positive, got 0"),
], ids=["k-100", "k-10", "k-1", "budgets-0", "budgets--3", "measurements-0",
        "measurements-repeated", "k-repeated", "verify-budgets-repeated",
        "sense-budgets-repeated", "sense-taus-repeated", "compare-taus-repeated",
        "noise-std-nan", "c1-nan", "taus-1e400", "noise-std-negative", "taus-negative",
        "verify-seed-negative", "compare-seed-negative", "k-empty", "taus-empty", "a-1.5",
        "c1-0"])
def test_list_option_errors_exit_2_naming_the_key(tmp_path, corpus_dir, random_dict, capsys,
                                                  command, flag, value, reason):
    # an entry of k, budgets or measurements out of range, a repeated entry
    # of k, budgets, taus or measurements, an empty k or taus, a negative
    # seed or a float that is not finite names its key, as a bad scalar
    # option does, instead of failing inside a library call, running on a
    # nan, writing a row twice or writing no rows
    root, test_img = corpus_dir
    out = tmp_path / "out.csv"
    inputs = {"verify-theorem": ["--L", "4", "--trials", "5"],
              "sense": ["--dict-path", str(random_dict), "--image", str(test_img)],
              "compare": ["--dict-path", str(random_dict), "--corpus", str(root),
                          "--target-side", "8", "--budgets", "64"]}[command]
    assert main([command, *inputs, flag, value, "--out", str(out)]) == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"treesense: error: config key '{key}': {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["dictionary", "corpus", "config", "image", "out-dir"])
def test_missing_files_exit_2_naming_the_path(tmp_path, corpus_dir, random_dict, capsys, case):
    # a missing input file or output directory ends in one error line that
    # names the path, not a traceback
    root, test_img = corpus_dir
    missing = tmp_path / "missing"
    out = tmp_path / "out.csv"
    argv = {"dictionary": ["compare", "--dict-path", str(missing / "d.lasr"), "--corpus",
                           str(root), "--target-side", "8", "--out", str(out)],
            "corpus": ["learn", "--corpus", str(missing), "--L", "3", "--target-side", "8",
                       "--dict-path", str(out)],
            "config": ["verify-theorem", "--config", str(missing / "run.cfg"), "--out",
                       str(out)],
            "image": ["sense", "--dict-path", str(random_dict), "--image",
                      str(missing / "x.pgm"), "--out", str(out)],
            "out-dir": ["verify-theorem", "--L", "4", "--k", "3", "--trials", "2", "--out",
                        str(missing / "out.csv")]}[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("treesense: error: ") and err.count("\n") == 1
    assert str(missing) in err and "Traceback" not in err
    assert not out.exists() and not missing.exists()


@pytest.mark.parametrize("command", ["verify-theorem", "learn", "sense", "compare"])
def test_a_missing_output_directory_fails_before_any_work(tmp_path, corpus_dir, random_dict,
                                                          capsys, monkeypatch, command):
    # where a run writes is checked before it reads a corpus, dictionary or
    # image, or runs anything: each of those entry points fails if called
    def called(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    for name in ("verify_theorem", "load_corpus", "load_dictionary", "read_pgm", "learn",
                 "sense_signal", "compare_methods"):
        monkeypatch.setattr(cli, name, called)
    root, test_img = corpus_dir
    out = tmp_path / "missing" / "out"
    argv = {"verify-theorem": ["--L", "4", "--out", str(out)],
            "learn": ["--corpus", str(root), "--L", "3", "--dict-path", str(out)],
            "sense": ["--dict-path", str(random_dict), "--image", str(test_img),
                      "--out", str(out)],
            "compare": ["--dict-path", str(random_dict), "--corpus", str(root),
                        "--out", str(out)]}[command]
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == ("treesense: error: [Errno 2] No such file or "
                                       f"directory: '{out}'\n")
    assert not out.parent.exists()


def test_compare_exits_2_when_the_default_measurements_hold_0(tmp_path, capsys):
    # a 3-atom dictionary's default counts p // 4, p // 2, p start at 0
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((16, 3)))
    save_dictionary(tmp_path / "d.lasr", Dictionary(atoms=Q, tree=make_tree(2, 2)))
    for i in range(4):
        write_pgm(tmp_path / f"{i}.pgm", rng.random((4, 4)))
    out = tmp_path / "c.csv"
    assert main(["compare", "--dict-path", str(tmp_path / "d.lasr"), "--corpus", str(tmp_path),
                 "--target-side", "4", "--budgets", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("treesense: error: config key 'measurements': (0, 1, 3) ")
    assert "p = 3" in err and not out.exists()


@pytest.mark.parametrize("missing", ["--dict-path", "--corpus"])
def test_compare_requires_dict_and_corpus(tmp_path, corpus_dir, random_dict, capsys, missing):
    root, _ = corpus_dir
    given = {"--dict-path": str(random_dict), "--corpus": str(root)}
    del given[missing]
    out = tmp_path / "c.csv"
    argv = ["compare", *(word for item in given.items() for word in item),
            "--target-side", "8", "--budgets", "64", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"treesense: error: {missing} is required\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value,reason", [
    ("--lam", "0", "config key 'lam': must be positive, got 0"),
    ("--d", "1", "degree must be >= 2, got 1"),
    ("--target-sparsity", "64",
     "config key 'target_sparsity': 64 is not in 1..63, the tree's node count"),
], ids=["lam-0", "d-1", "target-sparsity-64"])
def test_learn_checks_its_options_before_reading_the_corpus(tmp_path, capsys, flag, value,
                                                            reason):
    # a missing corpus is reported only if the options are good
    argv = ["learn", "--corpus", str(tmp_path / "missing"), "--dict-path",
            str(tmp_path / "d.lasr"), flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"treesense: error: {reason}\n"


def test_learn_requires_corpus(capsys):
    assert main(["learn", "--d", "2", "--L", "3"]) == 2
    assert "corpus" in capsys.readouterr().err


def test_sense_requires_dict_and_image(capsys):
    assert main(["sense", "--image", "x.pgm"]) == 2


def test_sense_rejects_size_mismatch(tmp_path, corpus_dir, capsys):
    root, _ = corpus_dir
    dict_path = tmp_path / "d.lasr"
    main(["learn", "--corpus", str(root), "--d", "2", "--L", "5",
          "--target-side", "8", "--target-sparsity", "6", "--seed", "1",
          "--lam", "0.05", "--dict-path", str(dict_path)])
    bad = tmp_path / "big.pgm"
    write_pgm(bad, np.zeros((16, 16)))
    rc = main(["sense", "--dict-path", str(dict_path), "--image", str(bad),
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("treesense: error: signal of 256 entries")
