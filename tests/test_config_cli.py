import dataclasses
import math
import re
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from fedlamb import runner
from fedlamb.cli import main
from fedlamb.config import ConfigError, ExperimentConfig, parse_config, write_config
from fedlamb.federation import PROTOCOLS, RoundMetrics, RunConfig, RunSettings
from fedlamb.optim import RangeError
from fedlamb.runner import (
    DEFAULT_GRIDS,
    ETA_GLOBAL_GRID,
    METRIC_COLUMNS,
    compare_protocols,
    grid_sweep,
    rounds_to_target,
    run_experiment,
    run_single,
)

MINIMAL = """\
protocol = fed-lamb
model = logistic
input_dim = 4
classes = 2
n_clients = 2
rounds = 3
"""

SMALL = MINIMAL + """\
train_per_class = 20
test_per_class = 10
batch_size = 16
alpha = 0.05
seed = 1
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def rows_without_wall_time(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.999
        assert cfg.eps == 1e-8
        assert cfg.lazy_period == 1
        assert cfg.lam == 0.0
        assert cfg.phi == "identity"

    def test_zero_participation_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL + "participation = 0\n")
        with pytest.raises(ConfigError, match="participation"):
            parse_config(path)

    def test_unknown_key_names_line(self, tmp_path):
        path = write(tmp_path, MINIMAL + "learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match=":7"):
            parse_config(path)

    def test_type_mismatch_names_key(self, tmp_path):
        path = write(tmp_path, MINIMAL + "rounds = many\n")
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# header\n\n" + MINIMAL + "alpha = 0.05  # tuned\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.alpha == 0.05

    def test_write_then_parse_round_trip(self, tmp_path):
        cfg = parse_config(write(tmp_path, SMALL))
        cfg.milestones = (30, 70)
        cfg.hidden = (128, 64)
        cfg.iid = False
        cfg.noise = 2.5
        out = tmp_path / "copy.cfg"
        write_config(cfg, out)
        assert parse_config(out) == cfg

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        text = MINIMAL + "out = runs/a#1.csv  # the # after a space starts a comment\n"
        assert parse_config(write(tmp_path, text)).out == "runs/a#1.csv"

    def test_write_then_parse_keeps_hash_in_value(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        cfg.out = "runs/a#1.csv"
        write_config(cfg, tmp_path / "copy.cfg")
        assert parse_config(tmp_path / "copy.cfg").out == "runs/a#1.csv"

    @pytest.mark.parametrize("value", ["runs/a #1.csv", "#1.csv", " runs/a.csv", "a\nrounds = 9", "a\rb"])
    def test_write_rejects_value_that_would_not_read_back(self, tmp_path, value):
        cfg = parse_config(write(tmp_path, MINIMAL))
        cfg.out = value
        with pytest.raises(ConfigError, match="key 'out'"):
            write_config(cfg, tmp_path / "copy.cfg")
        assert not (tmp_path / "copy.cfg").exists()

    def test_workers_is_an_unknown_key(self, tmp_path):
        path = write(tmp_path, MINIMAL + "workers = 2\n")
        with pytest.raises(ConfigError, match=r":7: unknown key 'workers'"):
            parse_config(path)

    @pytest.mark.parametrize("line, key", [
        ("beta1 = 1.5", "beta1"),
        ("beta2 = -0.1", "beta2"),
        ("lam = 2", "lam"),
        ("eps = 0", "eps"),
        ("alpha = 0", "alpha"),
        ("milestones = 5,2", "milestones"),
        ("seed = -1", "seed"),
        ("milestones = 1\nlr_factor = -1", "lr_factor"),
        ("lr_factor = 0", "lr_factor"),
        ("momentum = 1.5", "momentum"),
        ("momentum = 1", "momentum"),
        ("momentum = -1", "momentum"),
        ("iid = false\nclasses_per_client = 0", "classes_per_client"),
        ("train_per_class = 0", "train_per_class"),
        ("test_per_class = 0", "test_per_class"),
        ("model = mlp\nhidden = 0", "hidden"),
        ("model = mlp\nhidden = 8,0", "hidden"),
        ("model = mlp\nhidden =", "hidden"),
        ("classes = 5", "input_dim"),
        ("classes = 3", "classes"),
        ("model = mlp\nclasses = 1", "classes"),
        ("model = linear-regression\nclasses = 1", "classes"),
        ("noise = nan", "noise"),
        ("separation = inf", "separation"),
        ("protocol = adp-fed\neta_global = inf", "eta_global"),
        ("eps = inf", "eps"),
        ("lr_factor = inf", "lr_factor"),
        ("alpha = fast", "alpha"),
        ("protocol = adp-fed", "eta_global"),
    ])
    def test_engine_range_rules_name_the_key(self, tmp_path, line, key):
        text = MINIMAL + line + "\n"
        path = write(tmp_path, text)
        with pytest.raises(ConfigError, match=f"key '{key}'") as info:
            parse_config(path)
        # the last line that sets the key, or the file alone for a key left at its default
        setting = [n for n, s in enumerate(text.splitlines(), start=1) if s.split("=")[0].strip() == key]
        where = f"{path}:{setting[-1]}" if setting else str(path)
        assert str(info.value).startswith(f"{where}: key '{key}': ")

    def test_parser_and_run_config_share_the_range_rules(self, tmp_path):
        # one out-of-range value per rule in RunConfig's list, on an adp-fed run so
        # that the eta_global rule applies: the file and the engine reject it by key
        bad = {"protocol": "bogus", "participation": 0, "lazy_period": 0, "local_epochs": 0,
               "batch_size": 0, "seed": -1, "lr_factor": -1, "momentum": 1.5, "eta_global": -1,
               "milestones": (5, 2), "alpha": 0, "beta1": 1.0, "beta2": 1.0, "lam": 1.5, "eps": 0}
        text = MINIMAL.replace("fed-lamb", "adp-fed") + "alpha = 0.05\neta_global = 0.05\n"
        run_cfg = runner.build_run_config(parse_config(write(tmp_path, text)), seed=0)
        keys = [key for key, _, _ in RunConfig.RULES]
        assert sorted(keys) == sorted(bad)
        for key in keys:
            value = ",".join(map(str, bad[key])) if isinstance(bad[key], tuple) else bad[key]
            with pytest.raises(ConfigError, match=f"key '{key}'"):
                parse_config(write(tmp_path, text + f"{key} = {value}\n"))
            with pytest.raises(RangeError) as info:
                dataclasses.replace(run_cfg, **{key: bad[key]})
            assert info.value.key == key

    def test_shared_settings_declared_once(self):
        # a setting both the file and the engine have is a RunSettings field, so its
        # type and default are written once; phi alone differs: the file's string
        # spec becomes the engine's ScalingFn
        names = [{f.name for f in dataclasses.fields(c)} for c in (ExperimentConfig, RunConfig, RunSettings)]
        assert (names[0] & names[1]) - names[2] == {"phi"}

    def test_adp_fed_requires_both_rates(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("fed-lamb", "adp-fed"))
        with pytest.raises(ConfigError, match="eta_global"):
            parse_config(path)

    def test_bad_phi_spec(self, tmp_path):
        path = write(tmp_path, MINIMAL + "phi = clipped:2\n")
        with pytest.raises(ConfigError, match="phi"):
            parse_config(path)


class TestRunExperiment:
    def test_build_run_config_sets_every_engine_field(self, tmp_path, monkeypatch):
        # every engine option comes from the config file: none is settable only by tests
        passed = []
        monkeypatch.setattr(runner, "RunConfig", lambda **kw: passed.append(kw) or RunConfig(**kw))
        runner.build_run_config(parse_config(write(tmp_path, SMALL)), seed=1)
        assert set(passed[0]) == {f.name for f in dataclasses.fields(RunConfig)}

    def test_row_count_matches_rounds(self, tmp_path):
        cfg = parse_config(write(tmp_path, SMALL))
        out = tmp_path / "m.csv"
        run_experiment(cfg, out=out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(METRIC_COLUMNS)
        assert len(lines) == 1 + 3
        summary = (tmp_path / "m.csv.summary.txt").read_text()
        assert "best_test_accuracy" in summary

    def test_replay_identical_excluding_wall_time(self, tmp_path):
        cfg = parse_config(write(tmp_path, SMALL))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(cfg, out=a)
        run_experiment(cfg, out=b)
        assert rows_without_wall_time(a) == rows_without_wall_time(b)

    def test_repeat_writes_per_seed_files_and_stats(self, tmp_path):
        cfg = parse_config(write(tmp_path, SMALL + "repeat = 3\n"))
        out = tmp_path / "r.csv"
        summary = run_experiment(cfg, out=out)
        for seed in (1, 2, 3):
            assert (tmp_path / f"r_seed{seed}.csv").exists()
        assert summary["repeats"] == 3
        assert summary["stddev_best_test_accuracy"] >= 0.0

    def test_repeat_summary_names_each_run_by_seed(self, tmp_path):
        # the plain per-run keys would describe the first seed alone
        cfg = parse_config(write(tmp_path, SMALL + "repeat = 2\n"))
        out = tmp_path / "r.csv"
        summary = run_experiment(cfg, out=out)
        finals = [summary[f"seed{seed}_final_test_accuracy"] for seed in (1, 2)]
        assert finals == [run_single(cfg, seed)[-1].test_accuracy for seed in (1, 2)]
        assert finals[0] != finals[1]
        assert not {"best_test_accuracy", "final_test_accuracy", "final_train_loss"} & set(summary)
        text = (tmp_path / "r.csv.summary.txt").read_text()
        assert "seed2_final_train_loss = " in text and "\nfinal_train_loss" not in text

    def test_reshard_each_round_runs(self, tmp_path):
        cfg = parse_config(write(tmp_path, SMALL + "reshard_each_round = true\n"))
        history = run_single(cfg, cfg.seed)
        assert len(history) == 3

    def test_reshard_consecutive_seeds_share_no_shards(self, tmp_path, monkeypatch):
        # repeats run on seeds seed, seed + 1, ...; each must redraw its own shards
        cfg = parse_config(write(tmp_path, SMALL + "reshard_each_round = true\nrounds = 4\n"))
        build, drawn = runner.build_shards, []
        monkeypatch.setattr(runner, "build_shards", lambda *args: drawn.append(build(*args)) or drawn[-1])
        per_seed = []
        for seed in (5, 6):
            drawn.clear()
            run_single(cfg, seed)
            per_seed.append({tuple(tuple(s.indices) for s in shards) for shards in drawn})
        assert len(per_seed[0]) == len(per_seed[1]) == 1 + 4  # set-up, then every round
        assert not per_seed[0] & per_seed[1]


class TestGridSweep:
    def test_single_value_matches_run_experiment(self, tmp_path):
        path = write(tmp_path, SMALL)
        cfg = parse_config(path)
        rows = grid_sweep(path, grid=[0.05], out_dir=tmp_path / "sweep")
        assert len(rows) == 1
        direct = run_experiment(cfg, out=tmp_path / "direct.csv")
        assert rows[0]["mean_best_test_accuracy"] == direct["mean_best_test_accuracy"]

    def test_every_protocol_has_a_default_grid(self):
        assert set(DEFAULT_GRIDS) == set(PROTOCOLS)

    def test_bad_rate_rejected_before_any_trial_writes(self, tmp_path):
        path, out = write(tmp_path, SMALL), tmp_path / "sweep"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: key 'alpha': alpha must be positive"):
            grid_sweep(path, grid=[0.05, 0], out_dir=out)
        assert not out.exists()

    def test_rates_with_one_file_tag_rejected_before_any_trial(self, tmp_path, trials):
        # 0.0500000001 prints as 0.05 under :g, so both trials would write fed-lamb_lr0.05.csv
        path, out = write(tmp_path, SMALL), tmp_path / "sweep"
        message = re.escape(f"{path}: key 'alpha': 0.05 and 0.0500000001 give one file tag 'lr0.05'")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            grid_sweep(path, grid=[0.05, 0.01, 0.0500000001], out_dir=out)
        assert not trials
        assert not out.exists()

    def test_default_layerwise_grid_has_nine_entries(self):
        grid = DEFAULT_GRIDS["fed-lamb"]
        assert grid == [0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5]

    def test_report_ranked_by_best_accuracy(self, tmp_path):
        rows = grid_sweep(write(tmp_path, SMALL), grid=[0.001, 0.05, 0.3], out_dir=tmp_path / "sweep")
        accs = [row["mean_best_test_accuracy"] for row in rows]
        assert accs == sorted(accs, reverse=True)
        report = (tmp_path / "sweep" / "fed-lamb_sweep.csv").read_text().splitlines()
        assert len(report) == 4
        top = float(report[1].split(",")[2])
        assert top == max(accs)

    def test_equal_accuracy_ranked_by_final_train_loss(self, tmp_path):
        # linear regression scores accuracy 0 at every rate, so the loss ranks them
        path = write(tmp_path, SMALL.replace("logistic", "linear-regression"))
        rows = grid_sweep(path, grid=[0.3, 0.001], out_dir=tmp_path / "sweep")
        assert [row["mean_best_test_accuracy"] for row in rows] == [0.0, 0.0]
        assert [row["lr"] for row in rows] == [0.001, 0.3]
        losses = [row["mean_final_train_loss"] for row in rows]
        assert losses[0] < losses[1]
        report = (tmp_path / "sweep" / "fed-lamb_sweep.csv").read_text().splitlines()
        assert [float(line.split(",")[4]) for line in report[1:]] == losses

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            grid_sweep(write(tmp_path, SMALL), grid=[], out_dir=tmp_path / "sweep")

    @pytest.fixture
    def trials(self, monkeypatch):
        """Replaces runner.run_experiment; the list it returns gets each trial's
        (config, metric file name)."""
        seen = []

        def record(cfg, out=None, log=None):
            seen.append((cfg, Path(out).name))
            return {"mean_best_test_accuracy": cfg.alpha, "stddev_best_test_accuracy": 0.0,
                    "mean_final_train_loss": 0.0}

        monkeypatch.setattr(runner, "run_experiment", record)
        return seen

    def test_adp_fed_explicit_grid_sweeps_alpha_at_the_config_global_rate(self, tmp_path, trials):
        text = SMALL.replace("fed-lamb", "adp-fed").replace("alpha = 0.05", "alpha = 0.2")
        rows = grid_sweep(write(tmp_path, text + "eta_global = 0.02\n"), grid=[0.05], out_dir=tmp_path / "sweep")
        [(trial, name)] = trials
        assert (trial.alpha, trial.eta_global) == (0.05, 0.02)
        assert name == "adp-fed_el0.05_eg0.02.csv"
        assert (rows[0]["lr"], rows[0]["eta_global"]) == (0.05, 0.02)

    def test_adp_fed_default_grid_crosses_local_and_global_rates(self, tmp_path, trials):
        grid_sweep(write(tmp_path, SMALL.replace("fed-lamb", "adp-fed") + "eta_global = 0.02\n"),
                   out_dir=tmp_path / "sweep")
        pairs = [(trial.alpha, trial.eta_global) for trial, _ in trials]
        assert len(pairs) == len(set(pairs)) == 12 * 10
        assert set(pairs) == {(a, g) for a in DEFAULT_GRIDS["adp-fed"] for g in ETA_GLOBAL_GRID}

    def test_other_protocols_report_no_global_rate(self, tmp_path, trials):
        rows = grid_sweep(write(tmp_path, SMALL), grid=[0.01, 0.05], out_dir=tmp_path / "sweep")
        assert [row["eta_global"] for row in rows] == [None, None]
        assert sorted(name for _, name in trials) == ["fed-lamb_lr0.01.csv", "fed-lamb_lr0.05.csv"]


class TestCompare:
    def test_identical_configs_identical_columns(self, tmp_path):
        a = parse_config(write(tmp_path, SMALL))
        b = parse_config(write(tmp_path, SMALL, name="b.cfg"))
        table = compare_protocols([a, b], target=0.5)
        la, lb = table["protocols"]
        assert table["accuracy"][la] == table["accuracy"][lb]
        assert table["rounds_to_target"][la] == table["rounds_to_target"][lb]

    def test_rounds_to_target_definition(self):
        def m(r, acc):
            return RoundMetrics(r, 0.0, acc, 0.0, 0, 0, 0, 0.0)

        history = [m(1, 0.5), m(2, 0.91), m(3, 0.89), m(4, 0.95)]
        assert rounds_to_target(history, 0.9) == 2
        assert rounds_to_target(history, 0.99) == math.inf

    def test_mismatched_data_rejected(self, tmp_path):
        a = parse_config(write(tmp_path, SMALL))
        b = parse_config(write(tmp_path, SMALL + "noise = 9.0\n", name="b.cfg"))
        with pytest.raises(ConfigError, match="noise"):
            compare_protocols([a, b])

    def test_resharding_mismatch_rejected(self, tmp_path):
        a = parse_config(write(tmp_path, SMALL))
        b = parse_config(write(tmp_path, SMALL + "reshard_each_round = true\n", name="b.cfg"))
        with pytest.raises(ConfigError, match="reshard_each_round"):
            compare_protocols([a, b])

    def test_table_file_layout(self, tmp_path):
        a = parse_config(write(tmp_path, SMALL))
        b = parse_config(write(tmp_path, SMALL.replace("fed-lamb", "fed-sgd"), name="b.cfg"))
        out = tmp_path / "cmp.csv"
        table = compare_protocols([a, b], target=0.5, out=out)
        lines = out.read_text().splitlines()
        assert lines[0] == "round,fed-lamb,fed-sgd"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("rounds_to_target,")
        for r, line in enumerate(lines[1:-1]):
            cells = line.split(",")
            assert cells[0] == str(r + 1)
            assert [float(c) for c in cells[1:]] == [table["accuracy"][p][r] for p in ("fed-lamb", "fed-sgd")]
        # a target no accuracy reaches reads inf
        compare_protocols([a, b], target=1.5, out=out)
        assert out.read_text().splitlines()[-1] == "rounds_to_target,inf,inf"


class TestCli:
    def test_run_command(self, tmp_path):
        path = write(tmp_path, SMALL)
        out = tmp_path / "cli.csv"
        result = CliRunner().invoke(main, ["run", str(path), "--out", str(out), "--quiet"])
        assert result.exit_code == 0, result.output
        assert "best accuracy" in result.output
        assert out.exists()

    def test_run_seed_override_changes_metrics(self, tmp_path):
        path = write(tmp_path, SMALL)
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.csv"
            result = CliRunner().invoke(
                main, ["run", str(path), "--seed", str(seed), "--out", str(out), "--quiet"]
            )
            assert result.exit_code == 0, result.output
            outs.append(rows_without_wall_time(out))
        assert outs[0] != outs[1]

    def test_run_negative_seed_override_names_the_key(self, tmp_path):
        path = write(tmp_path, SMALL)
        result = CliRunner().invoke(main, ["run", str(path), "--seed", "-1", "--quiet"])
        assert result.exit_code != 0
        assert "key 'seed'" in result.output
        # an override has no line: the file alone is named, though the file sets seed too
        assert f"Error: {path}: key 'seed': " in result.output

    def test_run_rejected_value_names_file_and_line(self, tmp_path):
        lines = MINIMAL.splitlines()
        path = write(tmp_path, "\n".join(lines[:4] + ["alpha = fast"] + lines[4:]) + "\n")
        result = CliRunner().invoke(main, ["run", str(path), "--quiet"])
        assert result.exit_code == 1
        assert f"Error: {path}:5: key 'alpha': could not convert string to float: 'fast'" in result.output

    def test_run_invalid_config_nonzero_exit(self, tmp_path):
        path = write(tmp_path, MINIMAL + "participation = 0\n")
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code != 0
        assert "participation" in result.output

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_run_diverged_is_an_error_not_a_traceback(self, tmp_path):
        text = SMALL.replace("fed-lamb", "fed-sgd").replace("logistic", "mlp").replace(
            "rounds = 3", "rounds = 5").replace("alpha = 0.05", "alpha = 1e150")
        path = write(tmp_path, text + "hidden = 8\n")
        result = CliRunner().invoke(main, ["run", str(path), "--out", str(tmp_path / "d.csv"), "--quiet"])
        assert result.exit_code == 1
        assert "Error: round 1:" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_sweep_command_custom_grid(self, tmp_path):
        path = write(tmp_path, SMALL)
        result = CliRunner().invoke(
            main, ["sweep", str(path), "0.01,0.05", "--out", str(tmp_path / "sw")]
        )
        assert result.exit_code == 0, result.output
        assert result.output.count("best_acc=") == 2

    @pytest.mark.parametrize("rate,rule", [("0", "alpha must be positive"), ("inf", "alpha must be finite"),
                                           ("abc", "could not convert string to float: 'abc'"),
                                           ("5e-2", "'0.05' and '5e-2' give one file tag 'lr0.05'")])
    def test_sweep_checks_every_rate_before_any_trial(self, tmp_path, rate, rule):
        path, out = write(tmp_path, SMALL), tmp_path / "sw"
        result = CliRunner().invoke(main, ["sweep", str(path), f"0.05,{rate}", "--out", str(out)])
        assert result.exit_code == 1
        # a command-line value has no line: the file alone is named
        assert f"Error: {path}: key 'alpha': {rule}" in result.output
        assert not out.exists()

    def test_compare_command(self, tmp_path):
        a = write(tmp_path, SMALL)
        b = write(tmp_path, SMALL.replace("fed-lamb", "fed-sgd"), name="b.cfg")
        result = CliRunner().invoke(
            main, ["compare", str(a), str(b), "--target", "0.5"]
        )
        assert result.exit_code == 0, result.output
        assert "fed-lamb" in result.output and "fed-sgd" in result.output


# any characters, with the ones that matter to the line format made common
TEXT = st.text(st.characters() | st.sampled_from(" #\t\n\r\x85="), max_size=12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    out=TEXT, csv_train=st.text(max_size=12), csv_test=st.text(max_size=12),
    alpha=st.floats(1e-9, 10.0), beta1=st.floats(0.0, 0.99), lam=st.floats(0.0, 1.0),
    noise=FINITE, eta_global=FINITE, seed=st.integers(0, 2**63),
    hidden=st.lists(st.integers(1, 512), min_size=1, max_size=3).map(tuple),
    milestones=st.lists(st.integers(1, 100), unique=True, max_size=4).map(lambda m: tuple(sorted(m))),
    iid=st.booleans(),
)
def test_write_parse_round_trip(**values):
    """parse_config(write_config(cfg)) == cfg, or write_config rejects, by key,
    a value that a plainly written line would not give back."""
    cfg = ExperimentConfig(protocol="fed-lamb", input_dim=10, **values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "copy.cfg"
        try:
            write_config(cfg, path)
        except ConfigError as exc:
            key = str(exc).split("'")[1]
            path.write_text(MINIMAL + f"{key} = {getattr(cfg, key)}\n", encoding="utf-8")
            try:
                back = getattr(parse_config(path), key)
            except ConfigError:
                return
            assert back != getattr(cfg, key)
            return
        assert parse_config(path) == cfg
