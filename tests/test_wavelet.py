import numpy as np
import pytest

from treesense import (SensingConfig, haar2, ihaar2, wavelet_reconstruct,
                       wavelet_sense)

from conftest import reference_quadtree, reference_traversal


@pytest.mark.parametrize("side", [1, 2, 4, 8, 32])
def test_haar_roundtrip_and_norm(side, rng):
    img = rng.standard_normal((side, side))
    c = haar2(img)
    assert np.max(np.abs(ihaar2(c) - img)) < 1e-10
    assert abs(np.sum(c**2) - np.sum(img**2)) < 1e-10 * max(np.sum(img**2), 1)


def test_haar_rejects_bad_shapes():
    with pytest.raises(ValueError):
        haar2(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        haar2(np.zeros((4, 8)))


@pytest.mark.parametrize("side", [1, 2, 4, 16, 64])
def test_sensing_order_is_quadtree_bfs(side, rng):
    # measuring everything visits each coefficient once, in the BFS order of
    # the three quadtrees below the scaling coefficient
    img = rng.standard_normal((side, side))
    cfg = SensingConfig(beta=1.0, tau=0.0, noise_std=0.0)
    out = wavelet_sense(img, cfg, rng)
    roots, children = reference_quadtree(side)
    assert len(children) == side * side
    assert sum(len(v) == 4 for v in children.values()) == max(side * side // 4 - 1, 0)
    nodes = reference_traversal(lambda j: 1.0, children.__getitem__, roots, cfg, rng)[0]
    assert out.node.tolist() == nodes


def test_constant_image_only_coarse_significant(rng):
    img = np.full((8, 8), 0.7)
    cfg = SensingConfig(beta=2.0, tau=0.5, noise_std=0.0)
    out = wavelet_sense(img, cfg, rng)
    assert out.m[0] == 4  # scaling + 3 coarsest details
    rec = wavelet_reconstruct(out, 8, 2.0)
    assert np.max(np.abs(rec - img)) < 1e-12


def test_zero_threshold_noiseless_exact(rng):
    img = rng.standard_normal((16, 16))
    cfg = SensingConfig(beta=1.5, tau=0.0, noise_std=0.0)
    out = wavelet_sense(img, cfg, rng)
    assert out.m[0] == 16 * 16
    rec = wavelet_reconstruct(out, 16, 1.5)
    assert np.max(np.abs(rec - img)) < 1e-10


def test_budget_limits_wavelet_session(rng):
    img = rng.standard_normal((16, 16))
    cfg = SensingConfig(beta=1.0, tau=0.0, noise_std=0.0, budget=20.0)
    out = wavelet_sense(img, cfg, rng)
    assert out.truncated[0]
    assert out.m[0] == 20
    assert out.energy_spent[0] <= 20.0


def test_wavelet_rejects_non_power_of_two(rng):
    cfg = SensingConfig(beta=1.0, tau=0.0, noise_std=0.0)
    with pytest.raises(ValueError):
        wavelet_sense(np.zeros((6, 6)), cfg, rng)
