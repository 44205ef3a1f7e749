import pytest

from macc.config import (
    ConfigError,
    ScenarioConfig,
    TrainConfig,
    config_digest,
    load_config,
    preset_scenario,
)


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestPresets:
    def test_scenario_presets_match_stated_scale(self):
        s1 = preset_scenario("scenario1")
        assert (s1.n_workers, s1.p_rows) == (3, 6000)
        s2 = preset_scenario("scenario2")
        assert (s2.n_workers, s2.p_rows) == (4, 8000)
        s3 = preset_scenario("scenario3")
        assert (s3.n_workers, s3.p_rows) == (5, 10000)
        for s in (s1, s2, s3):
            assert s.m_cols == 10000
            assert s.k_tasks == 30
            assert s.pos_range == (-100.0, 100.0)
            assert s.vel_range == (-10.0, 10.0)
            assert s.beta_range == (1.0e4, 1.0e5)

    def test_desk_preset_is_small(self):
        desk = preset_scenario("desk")
        assert desk.p_rows == 200
        assert desk.m_cols == 200
        assert desk.k_tasks == 5

    def test_preset_overrides(self):
        s = preset_scenario("desk", n_workers=2, straggler_enabled=True)
        assert s.n_workers == 2
        assert s.straggler_enabled

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset_scenario("scenario9")


class TestLoadConfig:
    def test_preset_expansion(self, tmp_path):
        scenario, train = load_config(write(tmp_path, "[scenario]\npreset = scenario1\n"))
        assert scenario.n_workers == 3
        assert scenario.p_rows == 6000
        assert train.gamma == 0.95

    def test_override_wins_over_preset(self, tmp_path):
        scenario, _ = load_config(
            write(tmp_path, "[scenario]\npreset = scenario1\np_rows = 100\n")
        )
        assert scenario.p_rows == 100
        assert scenario.n_workers == 3

    def test_empty_file_lists_required_keys(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, ""))
        msg = str(err.value)
        assert "preset" in msg
        assert "scenario.n_workers" in msg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.ini"))

    def test_unknown_key_carries_path(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[scenario]\npreset = desk\np_row = 7\n"))
        assert "scenario.p_row" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[scenario]\npreset = desk\n[extra]\nx = 1\n"))

    def test_full_explicit_scenario(self, tmp_path):
        text = (
            "[scenario]\n"
            "n_workers = 2\np_rows = 50\nm_cols = 60\nk_tasks = 3\n"
            "beta_min = 1000\nbeta_max = 2000\nseed = 5\n"
        )
        scenario, _ = load_config(write(tmp_path, text))
        assert scenario.n_workers == 2
        assert scenario.beta_range == (1000.0, 2000.0)
        assert scenario.seed == 5

    def test_comm_and_straggler_sections(self, tmp_path):
        text = (
            "[scenario]\npreset = desk\n"
            "[comm]\nnoise_std_db = 0.0\nbandwidth_hz = 2e4\n"
            "[straggler]\nenabled = true\nslowdown_factor = 4\n"
        )
        scenario, _ = load_config(write(tmp_path, text))
        assert scenario.comm.noise_std_db == 0.0
        assert scenario.comm.bandwidth_hz == 2.0e4
        assert scenario.straggler_enabled
        assert scenario.straggler_slowdown == 4.0

    def test_train_section(self, tmp_path):
        text = (
            "[scenario]\npreset = desk\n"
            "[train]\nmax_iterations = 12\nminibatch = 32\noptimizer = sgd\n"
        )
        _, train = load_config(write(tmp_path, text))
        assert train.max_iterations == 12
        assert train.minibatch == 32
        assert train.optimizer == "sgd"

    def test_penalty_boundary_is_not_a_key(self, tmp_path):
        # the penalty applies when run_task records a task infeasible, sum(l) < p
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[scenario]\npreset = desk\n[train]\npenalty_boundary = lt\n"))
        assert str(err.value) == "train.penalty_boundary: unknown key"

    def test_bad_bool_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[scenario]\npreset = desk\n[straggler]\nenabled = maybe\n"))
        assert str(err.value) == "straggler.enabled: expected a boolean, got 'maybe'"

    @pytest.mark.parametrize("raw, want", [("yes", True), ("off", False), ("On", True), ("NO", False)])
    def test_bool_words_accepted(self, tmp_path, raw, want):
        text = f"[scenario]\npreset = desk\n[straggler]\nenabled = {raw}\n"
        scenario, _ = load_config(write(tmp_path, text))
        assert scenario.straggler_enabled is want

    def test_bad_number_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[scenario]\npreset = desk\np_rows = many\n"))
        assert "scenario.p_rows" in str(err.value)

    def test_inline_comments_stripped(self, tmp_path):
        scenario, _ = load_config(
            write(tmp_path, "[scenario]\npreset = desk  ; small preset\n")
        )
        assert scenario.name == "desk"

    @pytest.mark.parametrize("text, detail", [
        ("[scenario]\npreset = desk\npreset = desk\n",
         "While reading from '{path}' [line 3]: option 'preset' in section 'scenario' "
         "already exists"),
        ("[scenario]\npreset = desk\n[scenario]\nseed = 1\n",
         "While reading from '{path}' [line 3]: section 'scenario' already exists"),
        ("preset = desk\n[scenario]\n",
         "File contains no section headers. file: '{path}', line: 1 'preset = desk\\n'"),
        ("[scenario]\npreset = desk\ngarbage\n",
         "Source contains parsing errors: '{path}' [line 3]: 'garbage\\n'"),
        ("[scenario]\npreset = desk\nname = 50%x\n",
         "scenario.name: '%' must be followed by '%' or '(', found: '%x'"),
    ], ids=["duplicate-key", "duplicate-section", "no-section-header", "no-equals",
            "bad-interpolation"])
    def test_malformed_ini_is_a_config_error_naming_the_file(self, tmp_path, text, detail):
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: " + detail.format(path=path)

    def test_non_utf8_ini_is_a_config_error_naming_the_file(self, tmp_path):
        # read as UTF-8 whatever the locale: a Latin-1 e-acute in a comment
        path = tmp_path / "latin.ini"
        path.write_bytes(b"[scenario]\npreset = desk\n; caf\xe9\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}: not UTF-8 text: cannot decode byte 0xe9"


class TestValidation:
    def test_gamma_bounds(self):
        with pytest.raises(ConfigError):
            TrainConfig(gamma=1.0)

    def test_tau_bounds(self):
        with pytest.raises(ConfigError):
            TrainConfig(tau=0.0)

    def test_replay_capacity_holds_a_minibatch(self):
        with pytest.raises(ConfigError, match=r"train\.replay_capacity \(32\) is below "
                                              r"train\.minibatch \(64\)"):
            TrainConfig(minibatch=64, replay_capacity=32)
        assert TrainConfig(minibatch=64, replay_capacity=64).replay_capacity == 64

    def test_scenario_range_order(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(beta_range=(100.0, 10.0))

    def test_scenario_positive_dimensions(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(p_rows=0)

    def test_scenario_beta_positive(self):
        with pytest.raises(ConfigError, match=r"scenario\.beta_min: must be positive"):
            ScenarioConfig(beta_range=(0.0, 10.0))

    @pytest.mark.parametrize("text", ["name = a,b\n", "name = a\n  b\n"],
                             ids=["comma", "continuation line"])
    def test_name_that_would_split_a_csv_row_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"^scenario\.name: may not hold a comma or a line "):
            load_config(write(tmp_path, "[scenario]\npreset = desk\n" + text))

    @pytest.mark.parametrize("key, value", [
        ("pos_max", "inf"), ("vel_min", "-inf"), ("beta_max", "nan"), ("pos_min", "nan"),
    ])
    def test_non_finite_range_bound_named(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=rf"^scenario\.{key}: must be finite, got {value}$"):
            load_config(write(tmp_path, f"[scenario]\npreset = desk\n{key} = {value}\n"))

    @pytest.mark.parametrize("key, value", [
        ("noise_std_db", "nan"), ("bandwidth_hz", "inf"), ("sd_offset_dbm", "nan"),
        ("noise_power_w", "inf"), ("path_loss_db_per_decade", "-inf"), ("min_distance_m", "nan"),
        ("bits_per_element", "nan"),
    ])
    def test_non_finite_comm_value_named(self, tmp_path, key, value):
        text = f"[scenario]\npreset = desk\n[comm]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"^comm\.{key}: must be finite, got {value}$"):
            load_config(write(tmp_path, text))

    def test_non_positive_comm_value_named(self, tmp_path):
        text = "[scenario]\npreset = desk\n[comm]\nbandwidth_hz = 0\n"
        with pytest.raises(ConfigError, match=r"^comm\.bandwidth_hz: must be positive, got 0.0$"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["learning_rate", "penalty", "noise_start", "noise_end"])
    def test_non_finite_train_value_named(self, tmp_path, key, value):
        text = f"[scenario]\npreset = desk\n[train]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"^train\.{key}: must be finite, got {value}$"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_slowdown_named(self, tmp_path, value):
        text = f"[scenario]\npreset = desk\n[straggler]\nenabled = true\nslowdown_factor = {value}\n"
        want = rf"^straggler\.slowdown_factor: must be finite, got {value}$"
        with pytest.raises(ConfigError, match=want):
            load_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match=want):
            ScenarioConfig(straggler_slowdown=float(value))

    def test_seed_above_64_bits_named(self, tmp_path):
        text = f"[scenario]\npreset = desk\nseed = {2**64}\n"
        with pytest.raises(ConfigError, match=rf"^scenario\.seed: must be at most 2\^64 - 1, got {2**64}$"):
            load_config(write(tmp_path, text))

    def test_largest_64_bit_seed_accepted(self, tmp_path):
        text = f"[scenario]\npreset = desk\nseed = {2**64 - 1}\n"
        assert load_config(write(tmp_path, text))[0].seed == 2**64 - 1

    @pytest.mark.parametrize("key", ["pos", "vel"])
    def test_overflowing_range_width_named(self, tmp_path, key):
        text = f"[scenario]\npreset = desk\n{key}_min = -1e308\n{key}_max = 1e308\n"
        with pytest.raises(ConfigError, match=rf"^scenario\.{key}_range: width .* overflows$"):
            load_config(write(tmp_path, text))


class TestDigest:
    def test_stable(self):
        a = config_digest(preset_scenario("desk"), TrainConfig())
        b = config_digest(preset_scenario("desk"), TrainConfig())
        assert a == b

    def test_sensitive_to_changes(self):
        a = config_digest(preset_scenario("desk"))
        b = config_digest(preset_scenario("desk", p_rows=201))
        assert a != b
