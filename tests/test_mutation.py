"""Seeded byte mutations of the three input files a run reads: a dictionary
container, a PGM image and a config file.  Each mutated file must load, or
raise one ValueError naming its path; no other exception and no warning
(tier-1 turns RuntimeWarning into an error) may come out."""

import functools
import random

import numpy as np
import pytest

from treesense import (Dictionary, ExperimentConfig, load_dictionary, make_tree, read_pgm,
                       save_dictionary, write_pgm)
from treesense.cli import _build_cfg, _parser

MUTATIONS = 600


def mutate(raw, rnd):
    """raw with 1-3 edits, each setting a byte, truncating, inserting a byte
    or flipping a bit."""
    data = bytearray(raw)
    for _ in range(rnd.randint(1, 3)):
        at = rnd.randrange(len(data) + 1)
        edit = rnd.choice(("set", "truncate", "insert", "flip"))
        if edit == "insert":
            data.insert(at, rnd.randrange(256))
        elif edit == "truncate":
            del data[at:]
        elif at < len(data):
            data[at] = rnd.randrange(256) if edit == "set" else data[at] ^ 1 << rnd.randrange(8)
    return bytes(data)


def _lasr(path):
    tree = make_tree(2, 3)
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((16, tree.p)))
    save_dictionary(path, Dictionary(atoms=Q, tree=tree), np.full(16, 0.5))


def _pgm(path):
    write_pgm(path, np.random.default_rng(1).random((4, 4)))


def _config(path):
    path.write_text("trials = 3\nbudgets = 16,4\ntaus = 0,0.5\nnoise_std = 0.5\n"
                    "test_signals = 1\ntarget_side = 4\n")


@functools.cache
def _compare_args(path):
    return _parser().parse_args(["compare", "--config", str(path)])


def _read_config(path):
    # the CLI's reader, without running the subcommand: a mutated count
    # such as trials = 55555555 must not start a run
    return _build_cfg(_compare_args(path))


@pytest.mark.parametrize("make,read,kind", [
    (_lasr, load_dictionary, tuple),
    (_pgm, read_pgm, np.ndarray),
    (_config, _read_config, ExperimentConfig),
], ids=["lasr", "pgm", "config"])
def test_mutated_inputs_load_or_raise_one_value_error_naming_the_file(make, read, kind,
                                                                       tmp_path):
    path = tmp_path / "input"
    make(path)
    raw = path.read_bytes()
    assert isinstance(read(path), kind)
    rnd, failures = random.Random(2024), 0
    for _ in range(MUTATIONS):
        path.write_bytes(mutate(raw, rnd))
        try:
            assert isinstance(read(path), kind)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            failures += 1
    assert 0 < failures < MUTATIONS   # some mutations load, most do not
