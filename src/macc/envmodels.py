"""Physical models: wireless link, computation delay, mobility, stragglers.

Link rate follows Shannon capacity C = W log2(1 + S / Noise) with a
log-distance received power S_d = sd_offset - 20 log10(d) + omega (dBm),
omega ~ N(0, sigma^2) drawn once per transmission.  The transmitter
constants (power, wavelength, 4 pi term, antenna gains) are folded into
sd_offset, so the default sd_offset = 6 gives S_d = 6 - 20 log10(d).
The link is evaluated in two parts, equal to that formula in exact
arithmetic: link_gain(omega), the SNR at 1 m, once per transmission, and
channel_capacity(d2, gain) from the squared distance d2, as
S / Noise = gain * d2^(-path_loss / 20), with no square root, log10 or
power of ten per evaluation.

Computation of l rows takes t = alpha l - (l / beta) ln(1 - U), a shifted
exponential with floor alpha l and tail rate beta / l.  A straggling worker
additionally sleeps for slowdown_factor times its computation time, so its
total is (1 + slowdown_factor) times the sampled value.

Nodes move with constant velocity: p(t') = p(t) + v (t' - t).

Every function works on plain numbers and on numpy arrays; the world is
held as arrays (simcore.WorldState), so no model has a per-node type.
These are the only copies of the models: simcore.run_task calls
link_gain once per task, channel_capacity and comp_time_with on whole
arrays of batches, and advance once per task to move all nodes;
simcore.episode_env builds the straggler's time_factors and, from them
and the workers' profiles, the comp_coefficients once per episode, and
in an episode of one batch per worker, link_gain and comp_time_with of
one row for every task and worker before task 0.  The
agents' state and the shared reward are built in simcore, next to the
engine.
"""

import math
from dataclasses import dataclass, fields

import numpy as np


class ConfigError(ValueError):
    """A configuration value is out of range; the message names its INI key."""


@dataclass(frozen=True)
class CommConfig:
    bandwidth_hz: float = 1.0e4
    noise_power_w: float = 1.1e-12
    sd_offset_dbm: float = 6.0
    path_loss_db_per_decade: float = 20.0
    noise_std_db: float = 1.0
    bits_per_element: float = 64.0
    min_distance_m: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"comm.{f.name}: must be finite, got {value}")
        for key in ("bandwidth_hz", "noise_power_w", "bits_per_element", "min_distance_m"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"comm.{key}: must be positive, got {getattr(self, key)}")
        if self.noise_std_db < 0:
            raise ConfigError(f"comm.noise_std_db: must be non-negative, got {self.noise_std_db}")


def time_factors(n_workers, victim, enabled, slowdown_factor):
    """Each worker's computation-time multiple, as a read-only float64 array of shape (N,).

    1 + slowdown_factor at the victim when the straggler is enabled, and
    1.0 everywhere else: slowdown_factor is the victim's sleep multiple.
    """
    factors = np.ones(n_workers)
    if enabled:
        factors[victim] = 1.0 + slowdown_factor
    factors.setflags(write=False)
    return factors


def link_gain(omega, cfg):
    """SNR at 1 m of a transmission with dB shadowing omega; elementwise on arrays.

    10^((sd_offset - 30 + omega) / 10) / Noise: the received power at 1 m
    in W over the noise power.  It is fixed for the whole transmission, so
    the engine computes it once per task.
    """
    return 10.0 ** ((cfg.sd_offset_dbm - 30.0 + omega) / 10.0) / cfg.noise_power_w


def channel_capacity(d2, gain, cfg):
    """Shannon capacity C = W log2(1 + S / Noise) in bits/s; elementwise on arrays.

    d2 is the squared distance (m^2), gain the transmission's link_gain.
    S / Noise = gain * max(d, min_distance)^(-path_loss / 10), taken from
    d2 as max(d2, min_distance^2)^(-path_loss / 20): at the default 20 dB
    per decade a reciprocal, with no square root or logarithm.  On an
    array it is np.reciprocal, computed in place, as is the logarithm:
    numpy computes an array's ** -1.0 as that reciprocal, so the bits are
    those of **, which every other exponent and plain numbers still take.
    """
    snr = np.maximum(d2, cfg.min_distance_m**2)
    exponent = -cfg.path_loss_db_per_decade / 20.0
    array = type(snr) is np.ndarray  # np.maximum gives a scalar for plain numbers
    if array and exponent == -1.0:
        snr = gain * np.reciprocal(snr, out=snr)
    else:
        snr = gain * snr**exponent
    snr += 1.0
    cap = np.log2(snr, out=snr) if array else np.log2(snr)
    cap *= cfg.bandwidth_hz
    return cap


def comp_coefficients(alpha, beta, slowdown=1.0):
    """The compute model's per-row coefficients (slowdown alpha, slowdown / beta); elementwise.

    They are comp_time's first step: a world's are fixed while its
    profiles and time factors are, so the engine takes them once per
    episode and runs comp_time_with alone per task.
    """
    return alpha * slowdown, slowdown / beta


def comp_time_with(rows, u, floor, tail):
    """comp_time's second step, from comp_coefficients' (floor, tail); elementwise on arrays.

    l (floor - tail ln(1 - U)): always >= floor l, and zero for zero rows.
    """
    return rows * (floor - tail * np.log1p(-u))


def comp_time(rows, u, alpha, beta, slowdown=1.0):
    """Shifted-exponential computation time of `rows` rows; elementwise on arrays.

    t = slowdown (alpha l - (l / beta) ln(1 - U)) for U ~ Uniform[0, 1),
    computed as l (slowdown alpha - (slowdown / beta) ln(1 - U)) in the
    two steps comp_coefficients and comp_time_with; always
    >= slowdown alpha l, and zero for zero rows.
    """
    return comp_time_with(rows, u, *comp_coefficients(alpha, beta, slowdown))


def advance(pos, vel, dt):
    """Constant-velocity drift of every node: pos + vel * dt, as a new array."""
    if dt < 0:
        raise ValueError(f"negative time step: {dt}")
    return pos + vel * dt
