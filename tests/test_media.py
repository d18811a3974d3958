import numpy as np

from minmax_hj.media import MediumSpec, sample_realization


def _checkerboard(seed=0, cell=0.25, lo=0.5, hi=1.5):
    spec = MediumSpec("checkerboard", period=1.0,
                      channels=[{"cell": cell, "low": lo, "high": hi}])
    return sample_realization(spec, seed)


def test_periodic_formula_values(sin_sq_medium):
    x = np.array([0.0, 0.25, 0.5])
    got = sin_sq_medium.evaluate_channel(0, x)
    assert np.allclose(got, [0.0, 0.5, 1.0])


def test_cos_sq_matches_shifted_sin_sq():
    spec = MediumSpec("periodic", period=1.0, channels=[
        {"formula": "cos_sq"}, {"formula": "sin_sq", "shift": -0.5}])
    m = sample_realization(spec, 0)
    x = np.linspace(0, 1, 64)
    assert np.allclose(m.evaluate_channel(0, x), m.evaluate_channel(1, x))


def test_exact_periodicity(sin_sq_medium):
    x = np.linspace(0, 1, 17)
    a = sin_sq_medium.evaluate_channel(0, x)
    b = sin_sq_medium.evaluate_channel(0, x + 1.0)
    assert np.array_equal(a, b)


def test_checkerboard_deterministic_and_seed_sensitive():
    m1 = _checkerboard(seed=7)
    m2 = _checkerboard(seed=7)
    m3 = _checkerboard(seed=8)
    assert np.array_equal(m1.tables[0], m2.tables[0])
    assert not np.array_equal(m1.tables[0], m3.tables[0])


def test_checkerboard_piecewise_constant_lookup():
    m = _checkerboard()
    x = np.array([0.01, 0.24, 0.26, 0.99])
    vals = m.evaluate_channel(0, x)
    assert vals[0] == vals[1] == m.tables[0][0]
    assert vals[2] == m.tables[0][1]
    assert vals[3] == m.tables[0][3]


def test_bounds_cover_samples():
    specs = [
        MediumSpec("periodic", 1.0, [{"formula": "cos", "amplitude": 0.7, "offset": 0.2}]),
        MediumSpec("checkerboard", 1.0, [{"cell": 0.25, "low": 0.3, "high": 0.9}]),
        MediumSpec("quasiperiodic", 1.0,
                   [{"freqs": [1.0, np.sqrt(2)], "amps": [0.4, 0.3], "offset": 1.0}]),
    ]
    x = np.linspace(0, 1, 257)
    for spec in specs:
        m = sample_realization(spec, 11)
        lo, hi = spec.channel_bounds(0)
        vals = m.evaluate_channel(0, x)
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)


def test_quasiperiodic_wraps_at_seam():
    spec = MediumSpec("quasiperiodic", 1.0,
                      [{"freqs": [np.sqrt(2)], "amps": [1.0]}])
    m = sample_realization(spec, 0)
    # dyadic points shift exactly; non-dyadic shifts round in the argument
    x = np.array([0.375, 1.375])
    vals = m.evaluate_channel(0, x)
    assert vals[0] == vals[1]
    assert np.isclose(m.evaluate_channel(0, np.array([0.4])),
                      m.evaluate_channel(0, np.array([-0.6])))

