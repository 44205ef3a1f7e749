"""Run configuration: scenario presets, INI parsing, validation.

Config files are INI text with four sections:

    [scenario]
    preset = desk          ; optional preset expanded first
    p_rows = 100           ; explicit keys override the preset

    [comm]
    noise_std_db = 0.0

    [straggler]
    enabled = true

    [train]
    max_iterations = 50

Unknown keys are rejected with their full path (e.g. "scenario.p_row").
"""

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields, asdict, replace

from .envmodels import CommConfig, ConfigError


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "desk"
    n_workers: int = 4
    p_rows: int = 200
    m_cols: int = 200
    k_tasks: int = 5
    pos_range: tuple = (-100.0, 100.0)
    vel_range: tuple = (-10.0, 10.0)
    beta_range: tuple = (5.0e3, 1.0e4)
    comm: CommConfig = field(default_factory=CommConfig)
    straggler_enabled: bool = False
    straggler_slowdown: float = 10.0
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if any(c in self.name for c in ",\r\n"):  # it is a field of every CSV row
            raise ConfigError(f"scenario.name: may not hold a comma or a line break, "
                              f"got {self.name!r}")
        if self.n_workers < 1:
            raise ConfigError(f"scenario.n_workers: must be >= 1, got {self.n_workers}")
        if self.p_rows < 1 or self.m_cols < 1 or self.k_tasks < 1:
            raise ConfigError("scenario: p_rows, m_cols and k_tasks must be >= 1")
        for key, rng in (("pos", self.pos_range), ("vel", self.vel_range), ("beta", self.beta_range)):
            for end, bound in zip(("min", "max"), rng):
                if not math.isfinite(bound):
                    raise ConfigError(f"scenario.{key}_{end}: must be finite, got {bound}")
            if rng[0] > rng[1]:
                raise ConfigError(f"scenario.{key}_range: min {rng[0]} exceeds max {rng[1]}")
            if not math.isfinite(rng[1] - rng[0]):
                raise ConfigError(f"scenario.{key}_range: width of [{rng[0]}, {rng[1]}] overflows")
        if self.beta_range[0] <= 0:
            raise ConfigError(f"scenario.beta_min: must be positive, got {self.beta_range[0]}")
        if self.batch_size < 1:
            raise ConfigError(f"scenario.batch_size: must be >= 1, got {self.batch_size}")
        slowdown = self.straggler_slowdown
        if not math.isfinite(slowdown):
            raise ConfigError(f"straggler.slowdown_factor: must be finite, got {slowdown}")
        if slowdown < 1:
            raise ConfigError(f"straggler.slowdown_factor: must be >= 1, got {slowdown}")
        check_seed("scenario.seed", self.seed)


def check_seed(key, seed):
    """Reject a seed outside [0, 2^64 - 1]: RngStream would wrap it to another seed."""
    if seed < 0:
        raise ConfigError(f"{key}: must be non-negative, got {seed}")
    if seed > 2**64 - 1:
        raise ConfigError(f"{key}: must be at most 2^64 - 1, got {seed}")


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.95
    learning_rate: float = 0.01
    tau: float = 0.99
    penalty: float = 200.0
    minibatch: int = 256
    replay_capacity: int = 100_000
    episodes_per_iteration: int = 10
    max_iterations: int = 300
    warmup_iterations: int = 60
    noise_start: float = 0.3
    noise_end: float = 0.02
    optimizer: str = "adam"

    def __post_init__(self):
        for key in ("learning_rate", "penalty", "noise_start", "noise_end"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigError(f"train.{key}: must be finite, got {value}")
        if not 0 < self.gamma < 1:
            raise ConfigError(f"train.gamma: must be in (0, 1), got {self.gamma}")
        if not 0 < self.tau < 1:
            raise ConfigError(f"train.tau: must be in (0, 1), got {self.tau}")
        if self.penalty < 0:
            raise ConfigError(f"train.penalty: must be >= 0, got {self.penalty}")
        if self.learning_rate <= 0:
            raise ConfigError(f"train.learning_rate: must be positive, got {self.learning_rate}")
        if self.minibatch < 1 or self.replay_capacity < 1:
            raise ConfigError("train: minibatch and replay_capacity must be >= 1")
        if self.replay_capacity < self.minibatch:
            raise ConfigError(f"train.replay_capacity ({self.replay_capacity}) is below train.minibatch "
                              f"({self.minibatch}): the replay buffer never fills one minibatch")
        if self.episodes_per_iteration < 1 or self.max_iterations < 0:
            raise ConfigError("train: episodes_per_iteration >= 1 and max_iterations >= 0 required")
        if self.warmup_iterations < 0:
            raise ConfigError(f"train.warmup_iterations: must be >= 0, got {self.warmup_iterations}")
        if self.noise_start < 0 or self.noise_end < 0:
            raise ConfigError("train: noise levels must be non-negative")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"train.optimizer: must be 'adam' or 'sgd', got '{self.optimizer}'")


# Presets 1-3 mirror the evaluation scenarios (full scale);
# "desk" is small enough for tests and laptops.
PRESETS = {
    "scenario1": dict(name="scenario1", n_workers=3, p_rows=6000, m_cols=10000, k_tasks=30,
                      beta_range=(1.0e4, 1.0e5)),
    "scenario2": dict(name="scenario2", n_workers=4, p_rows=8000, m_cols=10000, k_tasks=30,
                      beta_range=(1.0e4, 1.0e5)),
    "scenario3": dict(name="scenario3", n_workers=5, p_rows=10000, m_cols=10000, k_tasks=30,
                      beta_range=(1.0e4, 1.0e5)),
    "desk": dict(name="desk", n_workers=4, p_rows=200, m_cols=200, k_tasks=5,
                 beta_range=(5.0e3, 1.0e4)),
}

_SCENARIO_KEYS = {
    "preset": str,
    "name": str,
    "n_workers": int,
    "p_rows": int,
    "m_cols": int,
    "k_tasks": int,
    "pos_min": float,
    "pos_max": float,
    "vel_min": float,
    "vel_max": float,
    "beta_min": float,
    "beta_max": float,
    "batch_size": int,
    "seed": int,
}

# each key parses to the type of its field's default
_COMM_KEYS = {f.name: type(f.default) for f in fields(CommConfig)}

_STRAGGLER_KEYS = {
    "enabled": bool,
    "slowdown_factor": float,
}

_TRAIN_KEYS = {f.name: type(f.default) for f in fields(TrainConfig)}

_CORE_KEYS = ("n_workers", "p_rows", "m_cols", "k_tasks")


def _parse_bool(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got '{raw}'") from None


def _parse_section(items, section, schema):
    out = {}
    for key, raw in items.get(section, ()):
        path = f"{section}.{key}"
        if key not in schema:
            raise ConfigError(f"{path}: unknown key")
        typ = schema[key]
        try:
            if typ is bool:
                out[key] = _parse_bool(raw)
            elif typ is int:
                out[key] = int(raw)
            elif typ is float:
                out[key] = float(raw)
            else:
                out[key] = raw.strip()
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
    return out


def preset_scenario(name, **overrides):
    """Materialize a named preset, with keyword overrides."""
    if name not in PRESETS:
        raise ConfigError(f"scenario.preset: unknown preset '{name}' (have {sorted(PRESETS)})")
    return replace(ScenarioConfig(**PRESETS[name]), **overrides)


def load_config(path):
    """Parse and validate an INI config file into (ScenarioConfig, TrainConfig).

    The file is read as UTF-8.  Bytes that are not UTF-8, and text that is
    not INI (a duplicate key or section, a line before any section header
    or without '=', a bad '%' interpolation), are a one-line ConfigError
    naming the file.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path, encoding="utf-8")
        # values are interpolated as they are read, so a bad '%' is raised here too
        items = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as err:
        detail = " ".join(str(err).split())  # some messages quote the offending line
        if isinstance(err, configparser.InterpolationError):  # the one that names no place
            detail = f"{err.section}.{err.option}: {detail}"
        raise ConfigError(f"{path}: {detail}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: cannot decode byte "
                          f"0x{err.object[err.start]:02x}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    known = {"scenario", "comm", "straggler", "train"}
    for section in items:
        if section not in known:
            raise ConfigError(f"{section}: unknown section")

    sc = _parse_section(items, "scenario", _SCENARIO_KEYS)
    comm = _parse_section(items, "comm", _COMM_KEYS)
    strag = _parse_section(items, "straggler", _STRAGGLER_KEYS)
    train = _parse_section(items, "train", _TRAIN_KEYS)

    preset = sc.pop("preset", None)
    if preset is None and not all(k in sc for k in _CORE_KEYS):
        missing = [k for k in _CORE_KEYS if k not in sc]
        raise ConfigError(
            "scenario: set 'preset' or give the full core keys; missing "
            + ", ".join(f"scenario.{k}" for k in missing)
        )
    base = ScenarioConfig() if preset is None else preset_scenario(preset)

    for lo_key, hi_key, field_name in (
        ("pos_min", "pos_max", "pos_range"),
        ("vel_min", "vel_max", "vel_range"),
        ("beta_min", "beta_max", "beta_range"),
    ):
        default = getattr(base, field_name)
        sc[field_name] = (sc.pop(lo_key, default[0]), sc.pop(hi_key, default[1]))

    if comm:
        sc["comm"] = CommConfig(**comm)
    if "enabled" in strag:
        sc["straggler_enabled"] = strag["enabled"]
    if "slowdown_factor" in strag:
        sc["straggler_slowdown"] = strag["slowdown_factor"]

    return replace(base, **sc), TrainConfig(**train)


def config_digest(scenario, train=None):
    """Short stable hash of the full configuration, for output metadata."""
    blob = repr(sorted(asdict(scenario).items()))
    if train is not None:
        blob += repr(sorted(asdict(train).items()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
