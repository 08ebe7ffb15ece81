"""Experiment harness: configs, summaries, determinism, CLI surface."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from privsel import cli, experiments
from privsel.cli import build_parser, main
from privsel.core import LossInstance, MechanismConstants
from privsel.experiments import (
    ConfigError, EmptyRecordsError, ExperimentConfig, InstanceSpec,
    MechanismSpec, SUMMARY_CSV_HEADER, TrialRecord, nearest_rank_quantile,
    run_experiment, run_trials, summarize,
)


def make_config(**overrides):
    base = dict(
        instance=InstanceSpec("gapped", 64, 20.0),
        mechanisms=(MechanismSpec("binary_tree"),),
        rho=1.0, beta=0.1, trials=50, master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_is_lossless(self):
        config = make_config(mechanisms=(
            MechanismSpec("binary_tree"),
            MechanismSpec("recursive_gap",
                          MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)),
        ))
        doc = config.to_json()
        again = ExperimentConfig.from_json(doc)
        assert again == config
        assert json.dumps(again.to_json(), sort_keys=True) == \
            json.dumps(doc, sort_keys=True)

    def test_from_json_defaults(self):
        doc = {"instance": {"family": "constant", "size": 4},
               "mechanisms": [{"name": "query_all"}], "rho": 2.0}
        config = ExperimentConfig.from_json(doc)
        assert config.beta == 0.1 and config.trials == 1000 and config.master_seed == 0
        assert ExperimentConfig.from_json(doc | {"trials": 5.0}).trials == 5  # integral

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("rho"),
        lambda d: d.update(rho=-1.0),
        lambda d: d.update(beta=1.5),
        lambda d: d.update(trials=0),
        lambda d: d.update(master_seed=-3),
        lambda d: d.update(unknown_field=1),
        lambda d: d["instance"].update(family="bogus"),
        lambda d: d["instance"].update(weird=1),
        lambda d: d.update(mechanisms=[{"name": "bogus"}]),
        lambda d: d.update(mechanisms=[]),
        lambda d: d.update(mechanisms=[{"name": "binary_tree",
                                        "constants": {"c_xi": -1}}]),
        # misread before: a misspelt key silently ran the default constants,
        # and bool("false") is True
        lambda d: d.update(mechanisms=[{"name": "recursive_gap",
                                        "constant": {"c_xi": 1.0}}]),
        lambda d: d.update(fresh_instance_per_trial="false"),
        lambda d: d.update(fresh_instance_per_trial=0),
        # misread before: int() ran 2 trials for 2.7, 1 for true and built
        # 16 candidates for 16.8
        lambda d: d.update(trials=2.7), lambda d: d.update(trials=True),
        lambda d: d.update(master_seed=2.5), lambda d: d.update(master_seed=False),
        lambda d: d["instance"].update(size=16.8), lambda d: d["instance"].update(size=True),
        lambda d: d["instance"].update(seed=2.5), lambda d: d["instance"].update(seed=True),
        # misread before: float() read true as 1.0 and "2" as 2.0
        lambda d: d.update(rho=True), lambda d: d.update(failure_threshold=True),
        lambda d: d.update(beta="0.1"),
        lambda d: d["instance"].update(scale=True), lambda d: d["instance"].update(scale="2"),
        # failed only inside run_trials before, an infinite scale with an OverflowError
        lambda d: d["instance"].update(scale=-1.0), lambda d: d["instance"].update(seed=-1),
        lambda d: d["instance"].update(scale=float("inf")),
        lambda d: d["instance"].update(scale=float("nan")),
        # ran noiselessly with inf spent, or failed in numpy, before
        lambda d: d.update(rho=float("inf")),
        lambda d: d.update(mechanisms=[{"name": "recursive_gap", "constants": {"c_xi": True}}]),
        # JSON's NaN literal was stored before, and no error is above it
        lambda d: d.update(failure_threshold=float("nan")),
        lambda d: d.update(rho=0.0), lambda d: d.update(beta=0.0),
        lambda d: d.update(beta=1.0), lambda d: d.update(rho=float("nan")),
        # run summarises by name, so a repeated name would pool two specs' trials
        lambda d: d.update(mechanisms=[{"name": "recursive_gap"},
                                       {"name": "recursive_gap", "constants": {"c_xi": 1.0}}]),
    ])
    def test_invalid_configs_rejected(self, mutate):
        doc = {"instance": {"family": "constant", "size": 4},
               "mechanisms": [{"name": "query_all"}], "rho": 2.0}
        mutate(doc)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(doc)

    @pytest.mark.parametrize("field, value", [
        ("rho", -1.0), ("rho", True), ("beta", 1.5), ("beta", "0.1"),
        ("failure_threshold", True), ("trials", 0), ("trials", 2.7), ("trials", True),
        ("master_seed", -3), ("master_seed", 2.5), ("master_seed", False),
        ("master_seed", True), ("mechanisms", (MechanismSpec("bogus"),)), ("mechanisms", ()),
        ("fresh_instance_per_trial", "false"), ("fresh_instance_per_trial", 0),
        ("instance.family", "bogus"), ("instance.size", 16.8), ("instance.size", 8.5),
        ("instance.size", True), ("instance.seed", 2.5), ("instance.seed", True),
        ("instance.scale", True), ("instance.scale", "2"), ("instance.scale", -1.0),
        ("instance.scale", float("inf")), ("instance.seed", -1),
        # JSON-shaped values, which from_json turns into dataclasses
        ("instance", {"family": "constant", "size": 4}), ("mechanisms", ({"name": "query_all"},)),
        ("mechanisms", (MechanismSpec("recursive_gap", {"c_xi": 1.0}),)), ("rho", float("inf")),
        ("failure_threshold", float("nan")), ("rho", 0.0), ("beta", 0.0), ("beta", 1.0),
        ("rho", float("nan")),
    ])
    def test_invalid_fields_rejected_in_python(self, field, value):
        # the rules of from_json hold for configs built in Python
        instance = {"family": "constant", "size": 4}
        config = {"mechanisms": (MechanismSpec("query_all"),), "rho": 2.0}
        if field.startswith("instance."):
            instance[field.removeprefix("instance.")] = value
        else:
            config[field] = value
        with pytest.raises(ConfigError):
            ExperimentConfig(**{"instance": InstanceSpec(**instance)} | config)

    def test_threshold_json_literals(self):
        # json.loads reads both literals; an infinite threshold is a valid one
        text = ('{"instance": {"family": "constant", "size": 4}, "rho": 2.0, '
                '"mechanisms": [{"name": "query_all"}], "failure_threshold": %s}')
        assert ExperimentConfig.from_json_text(text % "Infinity").failure_threshold == float("inf")
        with pytest.raises(ConfigError, match="^failure_threshold must not be NaN$"):
            ExperimentConfig.from_json_text(text % "NaN")

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.pop("instance"), r"missing required config fields: \['instance'\]"),
        (lambda d: d.pop("rho"), r"missing required config fields: \['rho'\]"),
        (lambda d: d["instance"].pop("size"), r"missing required instance fields: \['size'\]"),
        (lambda d: d.update(instance=None), "instance must be a JSON object, got None"),
        (lambda d: d.update(mechanisms=[{}]), r"missing required mechanism fields: \['name'\]"),
        (lambda d: d.update(mechanisms=[{"name": "combined", "constants": {"c": 1}}]),
         r"unknown constants fields: \['c'\]"),
        # the round count and the splits are fixed, no longer constants fields
        (lambda d: d.update(mechanisms=[{"name": "combined", "constants": {"t_coeff": 2.0}}]),
         r"unknown constants fields: \['t_coeff'\]"),
        (lambda d: d.update(rho=float("inf")), "^rho must be positive and finite, got inf$"),
        (lambda d: d.update(beta=1.0), r"^beta must lie in \(0, 1\), got 1.0$"),
    ], ids=["no-instance", "no-rho", "no-size", "null-instance", "no-name", "unknown-constant",
            "removed-constant", "rho-infinite", "beta-one"])
    def test_errors_name_the_json_key(self, mutate, message):
        doc = {"instance": {"family": "constant", "size": 4},
               "mechanisms": [{"name": "query_all"}], "rho": 2.0}
        mutate(doc)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_json(doc)

    def test_documented_examples_load(self):
        # README's "Experiment config" block and the experiments docstring's
        # example, so that a field removed from the dataclasses fails here too
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n### Experiment config\n", 1)[1]
        examples = [section.split("```json\n", 1)[1].split("```", 1)[0],
                    re.search(r"\n    \{\n.*?\n    \}\n", experiments.__doc__, re.S).group()]
        for text in examples:
            config = ExperimentConfig.from_json_text(text)
            assert any(m.constants is not None for m in config.mechanisms)

    def test_json_and_python_configs_agree(self):
        doc = {"instance": {"family": "uniform", "size": 32, "scale": 10, "seed": 3},
               "mechanisms": [{"name": "binary_tree"}, {"name": "query_all"}],
               "rho": 1, "trials": 20.0, "failure_threshold": 2}
        built = ExperimentConfig(
            InstanceSpec("uniform", 32, 10, 3),
            (MechanismSpec("binary_tree"), MechanismSpec("query_all")),
            rho=1, trials=20, failure_threshold=2)
        parsed = ExperimentConfig.from_json(doc)
        assert parsed == built
        assert (type(built.rho), type(built.trials), type(built.instance.scale)) == \
            (float, int, float)
        assert run_experiment(parsed).to_csv() == run_experiment(built).to_csv()

    def test_fresh_instance_flag_must_be_a_bool(self):
        with pytest.raises(ConfigError, match="fresh_instance_per_trial"):
            make_config(fresh_instance_per_trial="false")


class TestSummarize:
    def _records(self, errors):
        return [TrialRecord("m", i, 0, e, 1, 1.0, 0) for i, e in enumerate(errors)]

    def test_worked_example(self):
        summary = summarize(self._records([0.0, 0.0, 0.0, 10.0]), threshold=5.0)
        row = summary.row("m")
        assert row.mean_error == 2.5
        assert row.failure_frequency == 0.25
        assert row.trials == 4
        with pytest.raises(KeyError):
            summary.row("other")

    def test_single_zero_record(self):
        row = summarize(self._records([0.0]), threshold=0.0).row("m")
        assert (row.mean_error, row.p50_error, row.p90_error, row.p99_error) == \
            (0.0, 0.0, 0.0, 0.0)
        assert row.failure_frequency == 0.0

    def test_nearest_rank_quantiles(self):
        values = np.arange(1.0, 101.0)
        assert nearest_rank_quantile(values, 90) == 90.0
        assert nearest_rank_quantile(values, 50) == 50.0
        assert nearest_rank_quantile(values, 99) == 99.0
        assert nearest_rank_quantile(np.array([3.0]), 90) == 3.0
        row = summarize(self._records(list(range(1, 101))), threshold=1e9).row("m")
        assert (row.p50_error, row.p90_error, row.p99_error) == (50.0, 90.0, 99.0)

    def test_quantiles_monotone(self):
        rng = np.random.default_rng(0)
        row = summarize(self._records(list(rng.uniform(0, 9, 37))), 1.0).row("m")
        assert row.p50_error <= row.p90_error <= row.p99_error

    def test_empty_records(self):
        with pytest.raises(EmptyRecordsError):
            summarize([], 0.0)


class TestRunExperiment:
    def test_constant_instance_has_zero_error(self):
        config = make_config(
            instance=InstanceSpec("constant", 16),
            mechanisms=tuple(MechanismSpec(n) for n in
                             ("binary_tree", "recursive_gap", "combined",
                              "exponential", "query_all")),
            trials=5)
        summary = run_experiment(config)
        assert all(row.mean_error == 0.0 for row in summary.rows)

    def test_byte_identical_reruns(self):
        config = make_config(trials=40)
        assert run_experiment(config).to_csv() == run_experiment(config).to_csv()

    def test_errors_nonnegative_and_budget_capped(self):
        config = make_config(
            instance=InstanceSpec("uniform", 32, 10.0, seed=3),
            mechanisms=(MechanismSpec("binary_tree"), MechanismSpec("query_all")),
            trials=30)
        for rec in run_trials(config):
            assert rec.error >= 0.0
            assert rec.budget_spent <= config.rho * (1 + 1e-9)

    def test_fresh_instances_per_trial(self):
        config = make_config(
            instance=InstanceSpec("uniform", 16, 5.0),
            fresh_instance_per_trial=True, trials=10)
        records = run_trials(config)
        assert len(records) == 10
        # distinct instances make the winner losses vary
        assert len({rec.error for rec in records}) > 1

    @pytest.mark.parametrize("fresh", [False, True])
    def test_query_model_trials_never_build_the_loss_tuple(self, monkeypatch, fresh):
        built = []

        class Spy(LossInstance):
            @property
            def losses(self):
                built.append(self)
                return super().losses

        generate = experiments.generate_instance
        monkeypatch.setattr(experiments, "generate_instance",
                            lambda *args: Spy(generate(*args).as_array()))
        config = make_config(
            instance=InstanceSpec("uniform", 1 << 16, 1000.0, seed=2),
            mechanisms=tuple(MechanismSpec(n) for n in
                             ("binary_tree", "query_all", "exponential")),
            fresh_instance_per_trial=fresh, trials=2)
        records = run_trials(config)
        assert len(records) == 6 and built == []
        assert all(type(rec.error) is float and rec.error >= 0.0 for rec in records)

    def test_gap_instance_failure_rate_within_bound(self):
        from privsel.core import gap_threshold
        gap = gap_threshold(1024, 1.0, 0.1)
        config = make_config(
            instance=InstanceSpec("gapped", 1024, gap),
            trials=500, master_seed=11)
        row = run_experiment(config).row("binary_tree")
        assert row.failure_frequency <= 0.1

    def test_failure_rate_monotone_in_gap_and_rho(self):
        base_gap = 6.0
        freqs_gap = []
        for mult in (1.0, 2.0, 4.0):
            config = make_config(
                instance=InstanceSpec("gapped", 64, base_gap * mult),
                trials=400, master_seed=5)
            freqs_gap.append(run_experiment(config).row("binary_tree").failure_frequency)
        assert freqs_gap[0] >= freqs_gap[1] >= freqs_gap[2]
        freqs_rho = []
        for rho in (0.25, 1.0, 4.0):
            config = make_config(
                instance=InstanceSpec("gapped", 64, base_gap), rho=rho,
                trials=400, master_seed=5)
            freqs_rho.append(run_experiment(config).row("binary_tree").failure_frequency)
        assert freqs_rho[0] >= freqs_rho[1] >= freqs_rho[2]


CONFIG_DOC = {
    "instance": {"family": "gapped", "size": 32, "scale": 10.0},
    "mechanisms": [{"name": "binary_tree"}, {"name": "query_all"}],
    "rho": 1.0,
    "trials": 20,
    "master_seed": 3,
}
# these constants keep the loss scale finite, but on this instance the derived
# losses overflow a few levels down
NONFINITE_DOC = dict(CONFIG_DOC, instance={"family": "uniform", "size": 1024},
                     mechanisms=[{"name": "recursive_gap", "constants": {
                         "c_xi": 1e303, "p_xi": 1, "base_threshold_log": 6}}], trials=1)
# eps = sqrt(2 * rho) is inf, so every logit is nan or infinite
INF_EPS_DOC = dict(CONFIG_DOC, mechanisms=[{"name": "exponential"}], rho=1e308)


class TestCli:
    def _write_config(self, tmp_path, doc=CONFIG_DOC):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_writes_summary_csv(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "summary.csv"
        records = tmp_path / "trials.jsonl"
        code = main(["run", cfg, "--out", str(out), "--records", str(records)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == SUMMARY_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("binary_tree,20,")
        rec_lines = records.read_text().strip().split("\n")
        assert len(rec_lines) == 40
        first = json.loads(rec_lines[0])
        assert set(first) == {"mechanism", "trial", "winner", "error",
                              "rounds_used", "budget_spent", "recursion_depth"}

    def test_run_deterministic(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", cfg, "--out", str(a)]) == 0
        assert main(["run", cfg, "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_run_flag_overrides(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["run", cfg, "--trials", "5", "--seed", "9", "--out", str(out)]) == 0
        assert ",5," in out.read_text().split("\n")[1]

    @pytest.mark.parametrize("command", ["run", "simulate-equal-budget"])
    def test_constants_file_with_overrides(self, tmp_path, command):
        # the file's constants reach every mechanism without its own, and the
        # flags override trials and seed: same output as the inlined config
        consts = {"c_xi": 1.0, "p_xi": 1, "base_threshold_log": 6}
        consts_path = tmp_path / "consts.json"
        consts_path.write_text(json.dumps(consts))
        doc = dict(CONFIG_DOC, instance={"family": "uniform", "size": 128, "scale": 100.0},
                   mechanisms=[{"name": "recursive_gap"}, {"name": "combined"}])
        inlined = dict(doc, trials=2, master_seed=11,
                       mechanisms=[dict(m, constants=consts) for m in doc["mechanisms"]])
        outputs = []
        for config, flags in ((doc, ["--constants", str(consts_path),
                                     "--trials", "2", "--seed", "11"]),
                              (inlined, []),
                              (doc, ["--trials", "2", "--seed", "11"])):
            out = tmp_path / f"out{len(outputs)}.csv"
            cfg = self._write_config(tmp_path, config)
            assert main([command, cfg, *flags, "--out", str(out)]) == 0
            outputs.append(out.read_text())
        flagged, expected, unscaled = outputs
        assert flagged == expected
        assert flagged != unscaled

    def test_config_error_exit_code(self, tmp_path):
        bad = dict(CONFIG_DOC, mechanisms=[{"name": "bogus"}])
        cfg = self._write_config(tmp_path, bad)
        assert main(["run", cfg]) == 2
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        notjson = tmp_path / "x.json"
        notjson.write_text("{nope")
        assert main(["run", str(notjson)]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"c_xi": 1.0, "budget_split_recursive": 0.5},
         r"unknown constants fields: \['budget_split_recursive'\]"),
        ([1.0, 1, 6], r"constants must be a JSON object, got \[1.0, 1, 6\]"),
    ], ids=["removed-key", "json-list"])
    def test_bad_constants_file_exit_2(self, tmp_path, capsys, doc, message):
        consts_path = tmp_path / "consts.json"
        consts_path.write_text(json.dumps(doc))
        assert main(["run", self._write_config(tmp_path), "--constants", str(consts_path)]) == 2
        assert re.search(f"bad constants file {re.escape(str(consts_path))}: {message}",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "simulate-equal-budget"])
    def test_infeasible_config_exit_2(self, tmp_path, capsys, command):
        # at 2**20 candidates these constants' first level needs ~2**31 index
        # slots; recursive_gap_select checks the cap before any draw or spend
        out = tmp_path / "new.csv"
        for mechanism in ("recursive_gap", "combined"):
            doc = dict(CONFIG_DOC, instance={"family": "uniform", "size": 1 << 20},
                       mechanisms=[{"name": "binary_tree"}, {"name": mechanism, "constants": {
                           "c_xi": 1.0, "p_xi": 1, "base_threshold_log": 6}}], trials=1)
            assert main([command, self._write_config(tmp_path, doc), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: subsampling work 2**31.4 exceeds cap 1000000000\n")
            assert not out.exists()

    def test_misread_fields_exit_2_naming_them(self, tmp_path, capsys):
        for bad, field in ((dict(CONFIG_DOC, mechanisms=[{"name": "recursive_gap",
                                                          "constant": {"c_xi": 1.0}}]),
                            "constant"),
                           (dict(CONFIG_DOC, fresh_instance_per_trial="false"),
                            "fresh_instance_per_trial")):
            assert main(["run", self._write_config(tmp_path, bad)]) == 2
            assert field in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning is a traceback here
    @pytest.mark.parametrize("argv", [
        ["gen", "uniform", "4", "inf", "0"],
        ["gen", "uniform", "4", "nan", "0"],
        ["verify", "--grid", "quick", "--subset-draws", "0"],
        ["run", "NONFINITE"],
        ["simulate-equal-budget", "NONFINITE"],
        ["run", "INF_EPS"],
        ["gen", "uniform", "0", "1", "0"],
        ["verify", "--grid", "quick", "--subset-draws", "100", "--fuzz-trials", "0"],
        ["verify", "--grid", "quick", "--subset-draws", "100", "--rate-trials", "0"],
        ["run", "CONFIG", "--trials", "0"],
        # a path that cannot be opened, here a directory
        ["run", "DIR"],
        ["gen", "uniform", "4", "1.0", "0", "--out", "DIR"],
        ["verify", "--grid", "quick", "--fuzz-trials", "10", "--subset-draws", "100",
         "--rate-trials", "10", "--out", "DIR"],
    ], ids=["gen-inf-scale", "gen-nan-scale", "subset-draws-0", "run-nonfinite-loss",
            "equal-budget-nonfinite-loss", "exponential-inf-eps", "gen-size-0",
            "fuzz-trials-0", "rate-trials-0", "run-trials-0", "run-config-dir", "gen-out-dir",
            "verify-out-dir"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv):
        (tmp_path / "nonfinite.json").write_text(json.dumps(NONFINITE_DOC))
        (tmp_path / "inf_eps.json").write_text(json.dumps(INF_EPS_DOC))
        files = {"CONFIG": self._write_config(tmp_path),
                 "NONFINITE": str(tmp_path / "nonfinite.json"),
                 "INF_EPS": str(tmp_path / "inf_eps.json"), "DIR": str(tmp_path)}
        assert main([files.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, value, least", [
        ("--fuzz-trials", 0, 1), ("--subset-draws", 0, 1), ("--rate-trials", 0, 1),
        ("--seed", -1, 0),  # failed in default_rng after the grid and the sweeps before
    ], ids=["--fuzz-trials", "--subset-draws", "--rate-trials", "--seed"])
    def test_verify_counts_checked_before_any_work(self, monkeypatch, capsys, flag, value,
                                                   least):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")
        monkeypatch.setattr(cli, "appendix_grid", no_grid)
        assert main(["verify", flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {flag} must be >= {least}, got {value}\n"

    @pytest.mark.parametrize("argv, patched", [
        (["verify", "--out", "PATH"], "appendix_grid"),
        (["run", "CONFIG", "--out", "PATH"], "run_trials"),
        (["run", "CONFIG", "--records", "PATH"], "run_trials"),
        (["simulate-equal-budget", "CONFIG", "--out", "PATH"], "equal_budget_simulate"),
        (["gen", "uniform", "4", "1.0", "0", "--out", "PATH"], "generate_instance"),
    ], ids=["verify-out", "run-out", "run-records", "equal-budget-out", "gen-out"])
    def test_output_paths_checked_before_any_work(self, tmp_path, monkeypatch, capsys, argv,
                                                  patched):
        def no_work(*args, **kwargs):
            raise ValueError(f"{patched} ran")
        monkeypatch.setattr(cli, patched, no_work)
        files = {"CONFIG": self._write_config(tmp_path), "PATH": str(tmp_path)}
        assert main([files.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert "Is a directory" in captured.err
        # a path that can be written is left as it was when the work then
        # fails: a file keeps its bytes, and a new path stays absent
        kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
        kept.write_text("kept\n")
        for path in (kept, new):
            files["PATH"] = str(path)
            assert main([files.get(arg, arg) for arg in argv]) == 2
            assert capsys.readouterr().err == f"config error: {patched} ran\n"
        assert kept.read_text() == "kept\n"
        assert not new.exists()

    @pytest.mark.parametrize("command", ["run", "simulate-equal-budget"])
    @pytest.mark.parametrize("doc, message", [
        (dict(CONFIG_DOC, instance={"family": "uniform", "size": 1},
              mechanisms=[{"name": "combined"}], trials=1),
         "combined_select needs at least two candidates"),
        (dict(CONFIG_DOC, instance={"family": "layered", "size": 1 << 12},
              mechanisms=[{"name": "recursive_gap", "constants": {
                  "c_xi": 1e300, "p_xi": 1, "base_threshold_log": 6}}], rho=1e-10, trials=1),
         "loss scale overflows at k=12, rho=1e-10, beta=0.1, "
         "MechanismConstants(c_xi=1e+300, p_xi=1, base_threshold_log=6)"),
        (NONFINITE_DOC,
         "the mechanism constants make a derived loss non-finite (query value is nan)"),
    ], ids=["combined-one-candidate", "loss-scale-overflow", "derived-loss-nan"])
    def test_failed_trial_leaves_output_paths_as_found(self, tmp_path, capsys, command, doc,
                                                       message):
        cfg = self._write_config(tmp_path, doc)
        kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
        kept.write_text("kept\n")
        for path in (kept, new):
            assert main([command, cfg, "--out", str(path)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"config error: {message}\n")
        assert kept.read_text() == "kept\n"
        assert not new.exists()

    def test_dangling_link_out_leaves_no_target(self, tmp_path, capsys):
        # the probe creates and removes the link's target, so a failed
        # command leaves the link dangling and a finished one writes through it
        link, target = tmp_path / "link", tmp_path / "target.csv"
        link.symlink_to(target.name)
        failing = self._write_config(tmp_path, dict(
            CONFIG_DOC, instance={"family": "uniform", "size": 1},
            mechanisms=[{"name": "combined"}], trials=1))
        assert main(["run", failing, "--out", str(link)]) == 2
        assert capsys.readouterr().err == \
            "config error: combined_select needs at least two candidates\n"
        assert link.is_symlink() and not target.exists()
        assert main(["run", self._write_config(tmp_path), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text().split("\n")[0] == SUMMARY_CSV_HEADER

    def test_exponential_overflow_to_zero_weight_is_silent(self, tmp_path, capsys):
        # at scale 1e308 most logits overflow to -inf, which only zeroes their
        # weights; numpy's warning of it is neither printed nor raised
        doc = dict(CONFIG_DOC, instance={"family": "uniform", "size": 64, "scale": 1e308},
                   mechanisms=[{"name": "exponential"}], rho=100.0)
        assert main(["run", self._write_config(tmp_path, doc)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.split("\n")[1].startswith("exponential,20,")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_fifo_out_is_written_once_and_not_probed(self, tmp_path):
        # opening the pipe to probe it and closing it again would end the
        # reader's input, and the final open would then wait for a new reader
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "privsel.cli", "run", self._write_config(tmp_path),
                 "--out", str(fifo)], env=env, capture_output=True, text=True, timeout=30)
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            pytest.fail("privsel blocked opening the pipe")
        finally:
            while reader.is_alive():  # a reader still waiting for a writer: be one
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:  # no reader has the pipe open yet
                    pass
                reader.join(0.1)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert got[0].decode().split("\n")[0] == SUMMARY_CSV_HEADER

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_readme_synopsis_matches_parser(self):
        # each synopsis line under README's "## CLI" against the parser
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        synopsis = readme.split("\n## CLI\n", 1)[1].split("```")[1].strip().splitlines()
        documented = {}
        for line in synopsis:
            prog, command = line.split()[:2]
            assert prog == "privsel"
            # <config.json> documents the positional "config" by its file type
            documented[command] = (sorted(re.findall(r"--[\w-]+", line)),
                                   [p.split(".")[0] for p in re.findall(r"<([\w.]+)>", line)])
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        parsed = {
            name: (sorted(flag for a in sub._actions if not isinstance(a, argparse._HelpAction)
                          for flag in a.option_strings),
                   [a.dest for a in sub._actions if not a.option_strings])
            for name, sub in commands.items()
        }
        assert documented == parsed

    def test_gen_csv(self, tmp_path):
        out = tmp_path / "inst.csv"
        assert main(["gen", "gapped", "4", "2.5", "0", "--out", str(out)]) == 0
        assert out.read_text() == "index,loss\n0,0.0\n1,2.5\n2,2.5\n3,2.5\n"
        assert main(["gen", "bogus", "4", "2.5", "0", "--out", str(out)]) == 2
        assert out.read_text() == "index,loss\n0,0.0\n1,2.5\n2,2.5\n3,2.5\n"

    @pytest.mark.parametrize("argv, sha256", [
        (["uniform", "7", "1000.0", "3"],
         "f5c4d70e69cb49fc5bc5da8c2409e6dc2a12b1e06235f1d68ffc7b973af63177"),
        (["layered", "9", "1.0", "0"],
         "10e41209b9a494eb55368a2cd63f147eaf5d7dbd4a6d802eeea25ce118ef648c"),
    ])
    def test_gen_stdout_is_pinned(self, capsys, argv, sha256):
        assert main(["gen", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_verify_quick_report(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["verify", "--grid", "quick", "--fuzz-trials", "300",
                     "--subset-draws", "20000", "--rate-trials", "3000",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "claim,params,verdict,margin,note"
        assert all(",PASS," in line for line in lines[1:])
        claims = {line.split(",")[0] for line in lines[1:]}
        assert claims == {"scale_dominance", "error_recursion", "gap_margin",
                          "subset_event_dp_match", "subset_event_enum_match",
                          "subset_event_mc", "good_subset_rate", "sensitivity_fuzz"}

    # small counts: every check runs, each in a few milliseconds
    VERIFY_SMALL = ["verify", "--grid", "quick", "--fuzz-trials", "10", "--subset-draws", "100",
                    "--rate-trials", "10"]

    def test_verify_worker_error_is_one_config_line(self, tmp_path, monkeypatch, capsys):
        # the suite's filterwarnings = ["error"] turns an exception left
        # unhandled on a thread into a failure, so this also checks that the
        # worker hands its exception to the main thread and prints nothing
        def rate(*args, **kwargs):
            raise ValueError("rate ran")
        monkeypatch.setattr(cli, "check_good_subset_rate", rate)
        out = tmp_path / "report.csv"
        threads = threading.active_count()
        assert main([*self.VERIFY_SMALL, "--out", str(out)]) == 2
        assert threading.active_count() == threads
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: rate ran\n"
        assert not out.exists()

    @pytest.mark.parametrize("first, second", [
        ("appendix_grid", "subset_event_mc"),
        ("subset_event_probability_enum", "check_good_subset_rate"),
        ("subset_event_mc", "sensitivity_fuzz"),
        ("check_good_subset_rate", "sensitivity_fuzz"),
    ])
    def test_verify_reports_the_first_failure_in_serial_order(self, monkeypatch, capsys,
                                                              first, second):
        # serial order: grid, exact sweeps, Monte Carlo, rate, fuzz, whichever
        # thread fails first in time; the suite's filterwarnings = ["error"]
        # fails this test if either exception escapes its thread unhandled
        for name in (first, second):
            def fail(*args, name=name, **kwargs):
                raise ValueError(f"{name} ran")
            monkeypatch.setattr(cli, name, fail)
        threads = threading.active_count()
        assert main(self.VERIFY_SMALL) == 2
        assert threading.active_count() == threads
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {first} ran\n"

    def test_verify_runs_each_sampler_check_once(self, tmp_path, monkeypatch):
        # the worker calls every check through cli's names, once each, and the
        # report keeps its bytes (tests/test_golden.py pins this digest); the
        # suite's filterwarnings = ["error"] fails this test on a thread error
        calls = {}
        for name in ("subset_event_mc", "check_good_subset_rate", "generate_instance"):
            def counted(*args, fn=getattr(cli, name), name=name, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "report.csv"
        threads = threading.active_count()
        assert main(["verify", "--grid", "quick", "--fuzz-trials", "300",
                     "--subset-draws", "20000", "--rate-trials", "3000",
                     "--out", str(out)]) == 0
        assert threading.active_count() == threads
        assert calls == {"subset_event_mc": 1, "check_good_subset_rate": 1,
                         "generate_instance": 1}
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4a288600c16e34cc7701a3bc1377738e89d403761361d6720283e37e32d910a0")

    def test_simulate_equal_budget(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "eq.csv"
        assert main(["simulate-equal-budget", cfg, "--trials", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("mechanism,trials,m_bound,equal_rounds_budget,")
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "binary_tree" and int(fields[2]) == 5
        assert float(fields[-1]) >= 0.0  # min top-up variance

    def test_simulate_equal_budget_checks_every_mechanism_first(self, tmp_path, capsys,
                                                                 monkeypatch):
        # query_all's trials all ran before exponential was rejected
        calls, simulate = [], cli.equal_budget_simulate

        def counted(instance, mechanism, m_bound, rho, seed, **kwargs):
            calls.append(seed.entropy)
            return simulate(instance, mechanism, m_bound, rho, seed, **kwargs)

        monkeypatch.setattr(cli, "equal_budget_simulate", counted)
        doc = dict(CONFIG_DOC, mechanisms=[{"name": "query_all"}, {"name": "exponential"}])
        assert main(["simulate-equal-budget", self._write_config(tmp_path, doc)]) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            "config error: mechanism 'exponential' does not run in the query model\n")
        # a valid config still runs mechanism by mechanism, trial by trial
        assert main(["simulate-equal-budget", self._write_config(tmp_path),
                     "--trials", "2", "--out", str(tmp_path / "eq.csv")]) == 0
        assert calls == [[3, 0, 7000], [3, 1, 7000], [3, 0, 7001], [3, 1, 7001]]

    @pytest.mark.parametrize("command", ["run", "simulate-equal-budget"])
    def test_repeated_mechanism_name_exits_2(self, tmp_path, capsys, command):
        # run would print one row pooling both specs' trials
        doc = dict(CONFIG_DOC, mechanisms=[
            {"name": "recursive_gap"},
            {"name": "recursive_gap", "constants": {"c_xi": 1.0, "p_xi": 1,
                                                    "base_threshold_log": 6}}])
        assert main([command, self._write_config(tmp_path, doc), "--trials", "1"]) == 2
        assert capsys.readouterr().err == (
            "config error: mechanisms listed more than once: ['recursive_gap']\n")

    @pytest.mark.filterwarnings("error")  # numpy's empty-mean RuntimeWarning included
    def test_simulate_equal_budget_without_queries_writes_nan(self, tmp_path):
        # on one candidate the tournaments answer no query, so no plan exists
        doc = dict(CONFIG_DOC, instance={"family": "uniform", "size": 1},
                   mechanisms=[{"name": "binary_tree"}, {"name": "recursive_gap"},
                               {"name": "query_all"}], trials=3)
        out = tmp_path / "eq.csv"
        assert main(["simulate-equal-budget", self._write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["binary_tree", "recursive_gap", "query_all"]
        assert [row[-3:] for row in rows[:2]] == [["nan"] * 3] * 2
        assert rows[2][-3:] == ["1.0", "0.0", "0.0"]  # query_all's one batch

    def test_simulate_equal_budget_rejects_fresh_instances(self, tmp_path, capsys):
        # every trial runs on the one instance built from the config
        cfg = self._write_config(tmp_path, dict(CONFIG_DOC, fresh_instance_per_trial=True))
        assert main(["simulate-equal-budget", cfg]) == 2
        assert "fresh_instance_per_trial" in capsys.readouterr().err
