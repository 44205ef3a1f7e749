import math

import numpy as np
import pytest

from macc.config import ScenarioConfig
from macc.envmodels import (
    CommConfig,
    ConfigError,
    advance,
    channel_capacity,
    comp_time,
    link_gain,
    time_factors,
)
from macc.numerics import RngStream
from macc.simcore import _dist2, _send_time

CFG = CommConfig()

# hand-computed with the defaults (W=1e4, Noise=1.1e-12, S_d = 6 - 20 log10 d)
CAPACITY_D1 = 317530.0618756737
ONE_ELEMENT_D1 = 2.0155571923473085e-4


def dbm_capacity(d, omega, cfg):
    """The paper's link in dBm: S_d = sd_offset - PL log10(max(d, min_d)) + omega."""
    s_dbm = cfg.sd_offset_dbm - cfg.path_loss_db_per_decade * math.log10(max(d, cfg.min_distance_m))
    s_w = 10.0 ** ((s_dbm + omega - 30.0) / 10.0)
    return cfg.bandwidth_hz * math.log2(1.0 + s_w / cfg.noise_power_w)


def snr(d, omega, cfg=CFG):
    """S / Noise at distance d (m), read back from the capacity."""
    return 2.0 ** (channel_capacity(d * d, link_gain(omega, cfg), cfg) / cfg.bandwidth_hz) - 1.0


class TestSignalPower:
    """Received power S over the noise, as link_gain and channel_capacity give it."""

    def test_one_meter(self):
        assert link_gain(0.0, CFG) == pytest.approx(10.0 ** (-2.4) / 1.1e-12, rel=1e-14)

    def test_twenty_db_per_decade(self):
        assert snr(10.0, 0.0) / snr(1.0, 0.0) == pytest.approx(0.01, rel=1e-12)

    def test_ten_db_noise_is_factor_ten(self):
        assert link_gain(10.0, CFG) / link_gain(0.0, CFG) == pytest.approx(10.0, rel=1e-12)

    def test_clamped_below_min_distance(self):
        gain = link_gain(0.0, CFG)
        assert channel_capacity(0.001**2, gain, CFG) == channel_capacity(1.0, gain, CFG)

    def test_elementwise_on_arrays(self):
        omega = np.array([[0.0, -1.5], [2.0, 0.7]])
        gains = link_gain(omega, CFG)
        assert gains.shape == omega.shape
        for (i, j), g in np.ndenumerate(gains):  # numpy's and Python's pow may differ in the last bit
            assert g == pytest.approx(link_gain(float(omega[i, j]), CFG), rel=1e-15, abs=0.0)


class TestChannelCapacity:
    def test_hand_computed_value(self):
        c = channel_capacity(1.0, link_gain(0.0, CFG), CFG)
        assert abs(c - CAPACITY_D1) / CAPACITY_D1 < 1e-12

    @pytest.mark.parametrize("path_loss", [20.0, 35.0])
    @pytest.mark.parametrize("omega", [-3.0, 0.0, 2.5])
    @pytest.mark.parametrize("min_distance", [1.0, 2.0])
    def test_matches_the_dbm_formula(self, path_loss, omega, min_distance):
        cfg = CommConfig(path_loss_db_per_decade=path_loss, min_distance_m=min_distance)
        gain = link_gain(omega, cfg)
        for d in (0.001, 0.5, 1.0, 1.7, 2.0, 7.5, 99.0, 250.0, 3000.0):
            want = dbm_capacity(d, omega, cfg)
            assert channel_capacity(d * d, gain, cfg) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_strictly_decreasing_in_distance(self):
        gain = link_gain(0.0, CFG)
        caps = [channel_capacity(d * d, gain, CFG) for d in (1, 2, 5, 10, 50, 100)]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_unit_snr_gives_bandwidth(self):
        cfg = CommConfig(noise_power_w=10.0 ** (-2.4))
        assert abs(channel_capacity(1.0, link_gain(0.0, cfg), cfg) - cfg.bandwidth_hz) < 1e-6

    def test_elementwise_on_arrays(self):
        d2 = np.array([[0.2, 1.0, 7.5], [30.0, 99.0, 250.0]]) ** 2
        gain = link_gain(np.array([[0.0, -1.5, 2.0], [0.7, 0.0, -3.0]]), CFG)
        caps = channel_capacity(d2, gain, CFG)
        assert caps.shape == d2.shape
        for (i, j), c in np.ndenumerate(caps):
            assert c == channel_capacity(float(d2[i, j]), float(gain[i, j]), CFG)
        # one gain broadcast over several distances, and one distance over several gains
        np.testing.assert_array_equal(channel_capacity(d2, gain[:, :1], CFG),
                                      channel_capacity(d2, np.repeat(gain[:, :1], 3, axis=1), CFG))
        np.testing.assert_array_equal(channel_capacity(d2[:, :1], gain, CFG),
                                      channel_capacity(np.repeat(d2[:, :1], 3, axis=1), gain, CFG))


def static_link(d):
    """A worker d metres from the master, both at rest: (r, rv), x and y stacked."""
    return np.array([d, 0.0]), np.zeros(2)


class TestCommTime:
    # the engine's send time bits / C(d^2, gain)
    def test_single_element_at_one_meter(self):
        d2 = _dist2(*static_link(1.0), 0.0)
        t = _send_time(CFG.bits_per_element, d2, link_gain(0.0, CFG), CFG)
        assert abs(t - ONE_ELEMENT_D1) / ONE_ELEMENT_D1 < 1e-12

    def test_linear_in_payload(self):
        gain = link_gain(0.0, CFG)
        d2 = _dist2(*static_link(5.0), 0.0)
        t1 = _send_time(10 * CFG.bits_per_element, d2, gain, CFG)
        t2 = _send_time(20 * CFG.bits_per_element, d2, gain, CFG)
        assert abs(t2 - 2.0 * t1) < 1e-15

    def test_increasing_in_distance(self):
        gain = link_gain(0.0, CFG)
        times = [_send_time(320.0, _dist2(*static_link(d), 0.0), gain, CFG)
                 for d in (1, 2, 5, 10, 50, 100)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_distance_at_the_begin_time(self):
        # a worker leaving the master at (3, 4) m/s is 5 m away after 1 s
        gain = link_gain(0.0, CFG)
        drifting = _send_time(320.0, _dist2(np.zeros(2), np.array([3.0, 4.0]), 1.0), gain, CFG)
        assert drifting == _send_time(320.0, _dist2(np.array([3.0, 4.0]), np.zeros(2), 0.0), gain, CFG)


class TestCompTime:
    def test_never_below_shift_floor(self):
        u = RngStream(2).gen.random(200)
        assert np.all(comp_time(100, u, 1e-4, 1e4) >= 1e-4 * 100)

    def test_empirical_mean(self):
        n = 100_000
        draws = comp_time(100, RngStream(3).gen.random(n), 1e-4, 1e4)
        expected = 1e-4 * 100 + 100 / 1e4
        se = (100 / 1e4) / math.sqrt(n)
        assert abs(draws.mean() - expected) < 3 * se

    def test_cdf_at_mean(self):
        n = 100_000
        draws = comp_time(100, RngStream(4).gen.random(n), 1e-4, 1e4)
        frac = np.mean(draws <= 0.02)
        assert abs(frac - (1.0 - math.exp(-1.0))) < 0.01

    def test_huge_beta_nearly_deterministic(self):
        draws = comp_time(100, RngStream(5).gen.random(100), 1e-3, 1e9)
        assert np.all(np.abs(draws - 0.1) < 1e-5)

    def test_elementwise_with_zero_rows_taking_no_time(self):
        rows = np.array([[3, 2, 0], [1, 0, 0]])
        u = np.array([[0.1, 0.5, 0.9], [0.3, 0.2, 0.7]])
        alpha = np.array([[1e-3], [2e-3]])
        beta = np.array([[1e3], [5e2]])
        t = comp_time(rows, u, alpha, beta, np.array([[1.0], [11.0]]))
        for (i, j), v in np.ndenumerate(t):
            slow = 11.0 if i == 1 else 1.0
            want = slow * (alpha[i, 0] * rows[i, j] - rows[i, j] / beta[i, 0] * math.log1p(-u[i, j]))
            assert v == pytest.approx(want, rel=1e-14, abs=0.0)
        assert t[0, 2] == 0.0 and t[1, 1] == 0.0


class TestKinematics:
    def test_static_node(self):
        pos = np.array([[2.0, 3.0]])
        assert advance(pos, np.zeros((1, 2)), 10.0).tolist() == [[2.0, 3.0]]

    def test_hand_drift(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0]])
        vel = np.array([[3.0, 4.0], [-1.0, 0.5]])
        assert advance(pos, vel, 2.0).tolist() == [[6.0, 8.0], [-1.0, 2.0]]

    def test_flow_composition(self):
        pos, vel = np.array([[1.0, -1.0]]), np.array([[0.5, 2.0]])
        np.testing.assert_allclose(advance(advance(pos, vel, 1.5), vel, 2.5), advance(pos, vel, 4.0))

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            advance(np.zeros((1, 2)), np.ones((1, 2)), -0.1)


class TestStraggler:
    def test_disabled_identity(self):
        assert (2.0 * time_factors(3, 0, False, 10.0)).tolist() == [2.0, 2.0, 2.0]

    def test_victim_sleeps_ten_times(self):
        assert 2.0 * time_factors(3, 1, True, 10.0)[1] == 22.0

    def test_non_victim_unchanged(self):
        factors = time_factors(3, 1, True, 10.0)
        assert 2.0 * factors[0] == 2.0 and 2.0 * factors[2] == 2.0

    def test_rejects_sub_unit_slowdown(self):
        with pytest.raises(ConfigError, match=r"^straggler\.slowdown_factor: must be >= 1"):
            ScenarioConfig(straggler_slowdown=0.5)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_rejects_non_finite_slowdown(self, factor):
        with pytest.raises(ConfigError, match=r"^straggler\.slowdown_factor: must be finite"):
            ScenarioConfig(straggler_slowdown=factor)


class TestConfigValidation:
    def test_rejects_bad_comm(self):
        with pytest.raises(ValueError):
            CommConfig(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            CommConfig(noise_power_w=-1.0)
        with pytest.raises(ValueError):
            CommConfig(min_distance_m=0.0)
