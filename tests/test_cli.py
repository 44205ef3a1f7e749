import ctypes
import hashlib
import json
from types import SimpleNamespace

import pytest

from macc import experiments, marl
from macc.cli import build_parser, main
from macc.config import load_config
from macc.marl import load_checkpoint, make_agents, save_checkpoint
from macc.numerics import RngStream

TINY_INI = """\
[scenario]
n_workers = 2
p_rows = 8
m_cols = 6
k_tasks = 2
beta_min = 1000
beta_max = 2000
batch_size = 3
seed = 9

[train]
max_iterations = 2
episodes_per_iteration = 2
minibatch = 4
warmup_iterations = 1
"""


@pytest.fixture
def ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TINY_INI)
    return str(path)


@pytest.fixture
def zero_policy(ini, tmp_path):
    """A checkpoint whose actors all output 0: each final bias far negative."""
    agents = make_agents(2, RngStream(0))
    for agent in agents:
        agent.actor.biases[-1][...] = -100.0
    path = tmp_path / "zero.bin"
    save_checkpoint(str(path), agents, load_config(ini)[0])
    return str(path)


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self, ini):
        args = build_parser().parse_args(["compare", "--config", ini])
        assert args.scheme == "uniform,load-balanced,hcmm"
        assert args.episodes == 20
        args = build_parser().parse_args(["sweep-batch", "--config", ini])
        assert args.scheme == "hcmm"
        assert args.batch_sizes == "1,50,200"

    def test_straggler_flag_values(self, ini):
        args = build_parser().parse_args(
            ["evaluate", "--config", ini, "--scheme", "uniform", "--straggler", "on"]
        )
        assert args.straggler == "on"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--config", ini, "--scheme", "uniform", "--straggler", "sometimes"]
            )


class TestStragglerFlag:
    """--straggler is written into the scenario, so it acts and is recorded like the INI key."""

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["evaluate", "--scheme", "uniform", "--episodes", "2"],
        ["compare", "--episodes", "2"],
        ["sweep-batch", "--scheme", "uniform", "--batch-sizes", "1,3", "--episodes", "2"],
    ], ids=lambda argv: argv[0])
    def test_flag_writes_the_bytes_of_the_ini_key(self, tmp_path, argv):
        off_ini, on_ini = tmp_path / "off.ini", tmp_path / "on.ini"
        off_ini.write_text(TINY_INI)
        on_ini.write_text(TINY_INI + "\n[straggler]\nenabled = true\n")
        flag, key, off = tmp_path / "flag", tmp_path / "key", tmp_path / "off"
        assert main([*argv, "--config", str(off_ini), "--straggler", "on", "--out", str(flag)]) == 0
        assert main([*argv, "--config", str(on_ini), "--out", str(key)]) == 0
        assert main([*argv, "--config", str(off_ini), "--out", str(off)]) == 0
        names = sorted(p.name for p in key.iterdir())
        assert sorted(p.name for p in flag.iterdir()) == names
        for name in names:
            assert (flag / name).read_bytes() == (key / name).read_bytes(), name
        # the straggler moves the numbers, not only the config= digest
        bodies = [[(out / name).read_bytes().partition(b"\n")[2] for name in names]
                  for out in (key, off)]
        assert bodies[0] != bodies[1]


class TestTrainCommand:
    def test_writes_checkpoint_and_curve(self, ini, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["train", "--config", ini, "--out", str(out)]) == 0
        ckpt = out / "checkpoint.bin"
        curve = out / "learning_curve.csv"
        assert ckpt.exists() and curve.exists()
        agents = load_checkpoint(str(ckpt))
        assert len(agents) == 2
        lines = curve.read_text().splitlines()
        assert len(lines) == 2 + 2  # metadata, header, one row per iteration
        assert "trained 2 iterations" in capsys.readouterr().out

    def test_progress_goes_to_stderr_only(self, ini, tmp_path, capsys):
        plain, shown = tmp_path / "plain", tmp_path / "shown"
        assert main(["train", "--config", ini, "--out", str(plain)]) == 0
        quiet = capsys.readouterr()
        assert main(["train", "--config", ini, "--out", str(shown), "--progress"]) == 0
        loud = capsys.readouterr()
        assert loud.out.replace(str(shown), str(plain)) == quiet.out and quiet.err == ""
        lines = loud.err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["iteration 1/2", "iteration 2/2"]
        assert all(line.endswith(" s") and "mean reward -" in line for line in lines)
        assert sorted(p.name for p in shown.iterdir()) == sorted(p.name for p in plain.iterdir())
        for path in plain.iterdir():
            assert (shown / path.name).read_bytes() == path.read_bytes()

    def test_replay_below_minibatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "small.ini"
        path.write_text(TINY_INI + "replay_capacity = 3\n")
        out = tmp_path / "results"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "train.replay_capacity (3) is below train.minibatch (4)" in err
        assert not (out / "checkpoint.bin").exists()

    def test_unallocatable_replay_buffer_is_a_config_error(self, tmp_path, capsys):
        # 3.98 PiB of states: past any 64-bit address space, so refused without touching memory
        path = tmp_path / "huge.ini"
        path.write_text("[scenario]\npreset = desk\n[train]\nreplay_capacity = 10000000000000\n")
        out = tmp_path / "results"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: train.replay_capacity: a buffer of 10000000000000 "
                              "transitions needs 4960000000000000 bytes")
        assert not out.exists()

    def test_unallocatable_batch_layout_names_task_and_settings(self, tmp_path, capsys):
        # p = 2^46 rows at b = 1 asks for a layout of PiB, refused without touching memory;
        # at p = 2^63 the slots total more than int64 holds, and so may one load
        for p, slots in ((2**46, 149209694328353), (2**63, 19557213055006057984)):
            path = tmp_path / "huge.ini"
            path.write_text(f"[scenario]\npreset = desk\np_rows = {p}\n"
                            "[train]\nmax_iterations = 1\n")
            assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: task 0: a batch layout of {slots} slots ")
            assert err.endswith(f"from scenario.p_rows = {p} and scenario.batch_size = 1\n")
            assert "Traceback" not in err
            assert not (tmp_path / "x").exists()  # --out is made only for the first output


class TestHeapThresholds:
    """Every command fixes glibc's heap thresholds before it trains or runs an episode, where
    libc allows.

    The pytest process may already run under the real setting, so these tests stub the libc
    loader; CI compares a fresh `macc train` checkpoint, and a fresh marl `macc evaluate`'s
    outputs, with those written at glibc's defaults.
    """

    @staticmethod
    def recording_loader(calls):
        return lambda name: SimpleNamespace(mallopt=lambda *args: calls.append(args))

    def test_set_before_training_runs(self, ini, tmp_path, monkeypatch):
        calls, seen, train = [], [], marl.train
        monkeypatch.setattr(ctypes, "CDLL", self.recording_loader(calls))

        def watched(*args, **kwargs):
            seen.append(list(calls))
            return train(*args, **kwargs)

        monkeypatch.setattr(marl, "train", watched)
        assert main(["train", "--config", ini, "--out", str(tmp_path / "out")]) == 0
        assert seen == [[(-3, 4 << 20), (-1, 8 << 20)]]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--scheme", "uniform", "--episodes", "1"],
        ["compare", "--episodes", "1"],
        ["sweep-batch", "--episodes", "1", "--batch-sizes", "1"],
    ])
    def test_set_before_the_first_episode(self, ini, tmp_path, monkeypatch, argv):
        calls, seen, run = [], [], experiments.run_episode
        monkeypatch.setattr(ctypes, "CDLL", self.recording_loader(calls))
        monkeypatch.setattr(experiments, "run_episode",
                            lambda *args, **kwargs: seen.append(list(calls)) or run(*args, **kwargs))
        assert main(argv + ["--config", ini, "--out", str(tmp_path / "out")]) == 0
        assert seen and seen[0] == [(-3, 4 << 20), (-1, 8 << 20)]
        assert calls == [(-3, 4 << 20), (-1, 8 << 20)]  # once per command, not per episode

    def test_skipped_where_libc_has_no_mallopt(self, ini, tmp_path, monkeypatch):
        def unloadable(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", self.recording_loader([]))
        assert main(["train", "--config", ini, "--out", str(tmp_path / "stub")]) == 0
        for name, loader in (("no-libc", unloadable), ("no-mallopt", lambda name: SimpleNamespace())):
            monkeypatch.setattr(ctypes, "CDLL", loader)
            assert main(["train", "--config", ini, "--out", str(tmp_path / name)]) == 0
            for path in (tmp_path / "stub").iterdir():
                assert (tmp_path / name / path.name).read_bytes() == path.read_bytes()


class TestEvaluateCommand:
    def test_baseline_outputs(self, ini, tmp_path, capsys):
        out = tmp_path / "ev"
        code = main(["evaluate", "--config", ini, "--scheme", "uniform",
                     "--episodes", "3", "--out", str(out)])
        assert code == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 2 + 3
        assert (out / "summary.csv").exists()
        jsonl = (out / "episodes.jsonl").read_text().splitlines()
        assert len(jsonl) == 3
        assert json.loads(jsonl[0])["straggler"] is False
        assert "mean total time" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, ini, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(["evaluate", "--config", ini, "--scheme", "hcmm",
                  "--episodes", "3", "--out", str(out)])
        for name in ("metrics.csv", "summary.csv", "episodes.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_summary_is_the_comparison_row(self, ini, tmp_path):
        main(["evaluate", "--config", ini, "--scheme", "load-balanced",
              "--episodes", "3", "--out", str(tmp_path / "ev")])
        main(["compare", "--config", ini, "--episodes", "3", "--out", str(tmp_path / "cmp")])
        comparison = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        rows = [line for line in comparison[2:] if line.split(",")[1] == "load-balanced"]
        want = "\n".join(comparison[:2] + rows) + "\n"
        assert (tmp_path / "ev" / "summary.csv").read_bytes() == want.encode("utf-8")

    def test_seed_override_changes_results(self, ini, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["evaluate", "--config", ini, "--scheme", "uniform",
              "--episodes", "3", "--out", str(a)])
        main(["evaluate", "--config", ini, "--scheme", "uniform",
              "--episodes", "3", "--seed", "99", "--out", str(b)])
        assert (a / "metrics.csv").read_text() != (b / "metrics.csv").read_text()

    def test_straggler_toggle(self, ini, tmp_path):
        on = tmp_path / "on"
        off = tmp_path / "off"
        main(["evaluate", "--config", ini, "--scheme", "uniform",
              "--episodes", "2", "--straggler", "on", "--out", str(on)])
        main(["evaluate", "--config", ini, "--scheme", "uniform",
              "--episodes", "2", "--straggler", "off", "--out", str(off)])
        on_doc = json.loads((on / "episodes.jsonl").read_text().splitlines()[0])
        off_doc = json.loads((off / "episodes.jsonl").read_text().splitlines()[0])
        assert on_doc["straggler"] is True
        assert off_doc["straggler"] is False
        assert on_doc["betas"] == off_doc["betas"]
        assert on_doc["total_time_s"] > off_doc["total_time_s"]

    def test_marl_requires_checkpoint(self, ini, tmp_path, capsys):
        code = main(["evaluate", "--config", ini, "--scheme", "marl",
                     "--episodes", "2", "--out", str(tmp_path / "m")])
        assert code == 1
        assert "error: the marl scheme requires --checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_marl_with_checkpoint(self, ini, tmp_path):
        out = tmp_path / "train"
        main(["train", "--config", ini, "--out", str(out)])
        code = main(["evaluate", "--config", ini, "--scheme", "marl",
                     "--episodes", "2", "--checkpoint", str(out / "checkpoint.bin"),
                     "--out", str(tmp_path / "ev")])
        assert code == 0
        assert (tmp_path / "ev" / "metrics.csv").exists()

    def test_marl_checkpoint_for_another_worker_count(self, ini, tmp_path, capsys):
        out = tmp_path / "train"
        main(["train", "--config", ini, "--out", str(out)])
        desk = tmp_path / "desk.ini"
        desk.write_text("[scenario]\npreset = desk\n")
        code = main(["evaluate", "--config", str(desk), "--scheme", "marl",
                     "--episodes", "1", "--checkpoint", str(out / "checkpoint.bin"),
                     "--out", str(tmp_path / "ev")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint has 2 agents, scenario has 4 workers")
        assert not (tmp_path / "ev").exists()  # refused before any output is written

    def test_marl_checkpoint_for_another_p(self, ini, tmp_path, capsys):
        out = tmp_path / "train"
        main(["train", "--config", ini, "--out", str(out)])
        other = tmp_path / "other.ini"
        other.write_text(TINY_INI.replace("p_rows = 8", "p_rows = 6"))
        code = main(["evaluate", "--config", str(other), "--scheme", "marl",
                     "--episodes", "1", "--checkpoint", str(out / "checkpoint.bin"),
                     "--out", str(tmp_path / "ev")])
        assert code == 1
        err = capsys.readouterr().err
        assert "checkpoint was trained at p_rows = 8, scenario has p_rows = 6" in err
        assert not (tmp_path / "ev" / "metrics.csv").exists()

    def test_all_zero_policy_prints_its_infeasible_tasks(self, ini, tmp_path, capsys,
                                                         zero_policy):
        code = main(["evaluate", "--config", ini, "--scheme", "marl", "--episodes", "2",
                     "--checkpoint", zero_policy, "--out", str(tmp_path / "ev")])
        assert code == 0
        assert capsys.readouterr().out == ("marl: mean total time 0.0000 s (std 0.0000) over 2 "
                                           "episodes, 4 of 4 tasks infeasible\n")

    def test_unknown_scheme_fails_cleanly(self, ini, tmp_path, capsys):
        code = main(["evaluate", "--config", ini, "--scheme", "greedy",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: unknown scheme 'greedy'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare", "sweep-batch"])
    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_episode_count_below_one_fails_cleanly(self, ini, tmp_path, capsys, command, episodes):
        out = tmp_path / "x"
        code = main([command, "--config", ini, "--scheme",
                     "uniform,hcmm" if command == "compare" else "uniform",
                     "--episodes", episodes, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"episodes must be >= 1, got {episodes}" in err
        assert "Mean of empty slice" not in err
        assert not out.exists()


class TestCompareCommand:
    def test_default_three_schemes(self, ini, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", ini, "--episodes", "3", "--out", str(out)])
        assert code == 0
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert len(comparison) == 2 + 3
        plotdata = (out / "plotdata.csv").read_text().splitlines()
        assert plotdata[1] == "scheme,mean_total_time_s"
        assert len(plotdata) == 2 + 3
        assert capsys.readouterr().out.count("+-") == 3

    def test_infeasible_tasks_follow_only_the_schemes_that_have_them(self, ini, tmp_path,
                                                                     capsys, zero_policy):
        code = main(["compare", "--config", ini, "--scheme", "uniform,marl", "--episodes", "3",
                     "--checkpoint", zero_policy, "--out", str(tmp_path / "cmp")])
        assert code == 0
        uniform, marl = capsys.readouterr().out.splitlines()
        assert uniform.startswith("uniform: ") and uniform.endswith(" s")
        assert marl == "marl: 0.0000 +- 0.0000 s, 6 of 6 tasks infeasible"

    def test_duplicate_scheme_fails_cleanly(self, ini, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", ini, "--scheme", "hcmm,uniform,hcmm",
                     "--episodes", "2", "--out", str(out)])
        assert code == 1
        assert "error: duplicate schemes in ['hcmm', 'uniform', 'hcmm']" in capsys.readouterr().err
        assert not out.exists()

    def test_an_episode_past_numpys_index_range_names_its_keys(self, tmp_path, capsys):
        # 2^62 tasks: numpy refuses the episode's (K, N) ids before it asks for any memory
        path = tmp_path / "huge.ini"
        path.write_text("[scenario]\npreset = desk\nk_tasks = 4611686018427387904\n")
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(path), "--episodes", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario.k_tasks: an episode of 4611686018427387904 tasks "
                              "on scenario.n_workers = 4 workers needs ")
        assert "Traceback" not in err
        assert not out.exists()


class TestSweepCommand:
    def test_sweep_rows(self, ini, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep-batch", "--config", ini, "--scheme", "uniform",
                     "--episodes", "2", "--batch-sizes", "1,4,8", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2 + 3

    def test_desk_hcmm_sweep_bytes_are_pinned(self, tmp_path):
        # the bytes a replacement of sweep-batch must reproduce; 200 >= every load at desk,
        # so that row is one batch per worker
        path = tmp_path / "desk.ini"
        path.write_text("[scenario]\npreset = desk\n")
        out = tmp_path / "sw"
        code = main(["sweep-batch", "--config", str(path), "--scheme", "hcmm", "--episodes", "2",
                     "--batch-sizes", "1,50,200", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == (
            "d07caf378e0aa18282ee95566a9394c029428a7eded2f58b6e67225197f2f40b")

    def test_bad_batch_sizes(self, ini, tmp_path, capsys):
        code = main(["sweep-batch", "--config", ini, "--batch-sizes", "1,x",
                     "--out", str(tmp_path / "sw")])
        assert code == 1
        assert "error: --batch-sizes must be integers, got '1,x'" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_duplicate_batch_size_fails_cleanly(self, ini, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(["sweep-batch", "--config", ini, "--scheme", "uniform",
                     "--episodes", "2", "--batch-sizes", "1,1", "--out", str(out)])
        assert code == 1
        assert "error: duplicate batch sizes in [1, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_batch_layout_names_the_swept_batch_size(self, tmp_path, capsys):
        # uniform loads of 2^44 rows at b = 2: 4 x 2^43 slots of 256 TiB, refused
        # without touching memory; the INI's batch size stays 1
        path = tmp_path / "huge.ini"
        path.write_text("[scenario]\npreset = desk\np_rows = 70368744177664\n")
        out = tmp_path / "sw"
        code = main(["sweep-batch", "--config", str(path), "--scheme", "uniform",
                     "--episodes", "1", "--batch-sizes", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: task 0: a batch layout of 35184372088832 slots cannot be "
                       "allocated; it holds one slot per batch, each load over the batch size, "
                       "from scenario.p_rows = 70368744177664 and scenario.batch_size = 2\n")
        assert not out.exists()


class TestErrors:
    def test_missing_config(self, tmp_path, capsys):
        code = main(["evaluate", "--config", str(tmp_path / "nope.ini"),
                     "--scheme", "uniform"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_ini_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "dup.ini"
        path.write_text("[scenario]\npreset = desk\npreset = desk\n")
        out = tmp_path / "x"
        code = main(["compare", "--config", str(path), "--episodes", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: While reading from '{path}' [line 3]: option 'preset' in section "
            "'scenario' already exists"]
        assert not out.exists()

    def test_non_utf8_ini_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "latin.ini"
        path.write_bytes(b"[scenario]\npreset = desk\n; caf\xe9\n")
        out = tmp_path / "x"
        code = main(["compare", "--config", str(path), "--episodes", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: not UTF-8 text: cannot decode byte 0xe9"]
        assert not out.exists()

    def test_non_finite_range_bound(self, tmp_path, capsys):
        path = tmp_path / "inf.ini"
        path.write_text("[scenario]\npreset = desk\npos_max = inf\n")
        code = main(["evaluate", "--config", str(path), "--scheme", "uniform",
                     "--episodes", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: scenario.pos_max: must be finite, got inf" in capsys.readouterr().err

    # more bad arguments; TestEvaluateCommand, TestCompareCommand and
    # TestSweepCommand check the others the same way
    @pytest.mark.parametrize("argv, message", [
        (["compare", "--scheme", "uniform"], "compare needs at least two schemes"),
        (["compare", "--scheme", "uniform,greedy"], "unknown scheme 'greedy'"),
        (["compare", "--scheme", "uniform,marl"], "the marl scheme requires --checkpoint"),
        (["sweep-batch", "--batch-sizes", "0,5"], "batch sizes must be >= 1, got [0, 5]"),
        (["sweep-batch", "--scheme", "nope"], "unknown scheme 'nope'"),
        (["sweep-batch", "--scheme", "marl"], "the marl scheme requires --checkpoint"),
    ])
    def test_bad_arguments_fail_before_out_is_made(self, ini, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        assert main([argv[0], "--config", ini, *argv[1:], "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "compare", "sweep-batch"])
    def test_negative_seed_fails_cleanly(self, ini, tmp_path, capsys, command):
        # -1 would otherwise wrap to seed 2**64 - 1, which scenario.seed = -1 rejects
        out = tmp_path / "x"
        scheme = ["--scheme", "uniform"] if command == "evaluate" else []
        code = main([command, "--config", ini, *scheme, "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert "error: --seed: must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "compare", "sweep-batch"])
    def test_seed_above_64_bits_fails_cleanly(self, ini, tmp_path, capsys, command):
        # 2**64 would otherwise wrap to seed 0 while the CSVs record 2**64
        out = tmp_path / "x"
        scheme = ["--scheme", "uniform"] if command == "evaluate" else []
        code = main([command, "--config", ini, *scheme, "--seed", str(2**64), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: --seed: must be at most 2^64 - 1, got {2**64}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_out_that_cannot_be_made_is_reported_after_the_run(self, ini, tmp_path, capsys,
                                                               command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        scheme = ["--scheme", "uniform", "--episodes", "1"] if command == "evaluate" else []
        code = main([command, "--config", ini, *scheme, "--out", str(blocker / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory")

    def test_largest_64_bit_seed_runs(self, ini, tmp_path):
        out = tmp_path / "x"
        code = main(["evaluate", "--config", ini, "--scheme", "uniform", "--episodes", "1",
                     "--seed", str(2**64 - 1), "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_nan_noise_start_fails_training(self, tmp_path, capsys):
        # nan > 0 is false, so training would silently run without exploration noise
        path = tmp_path / "nan.ini"
        path.write_text("[scenario]\npreset = desk\n[train]\nnoise_start = nan\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "error: train.noise_start: must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("comm", "noise_std_db"), ("straggler", "slowdown_factor"),
    ])
    def test_nan_config_value(self, tmp_path, capsys, section, key):
        path = tmp_path / "nan.ini"
        path.write_text(f"[scenario]\npreset = desk\n[{section}]\n{key} = nan\n")
        code = main(["evaluate", "--config", str(path), "--scheme", "hcmm",
                     "--episodes", "1", "--straggler", "on", "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: {section}.{key}: must be finite, got nan" in capsys.readouterr().err
