"""CLI behavior: subcommands, exit codes, determinism of written outputs."""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels import kernels_note

from fedmm import engine, workers
from fedmm.cli import main, summarize_log
from fedmm.config import ExperimentConfig, config_from_dict, load_gen_spec
from fedmm.data import SCENARIO_KINDS, build_scenario, gen_synthetic, load_shard
from fedmm.errors import ConfigError
from fedmm.engine import CSV_COLUMNS

LOG_HEADER = ",".join(CSV_COLUMNS) + "\n"


def write_config(tmp_path, **overrides):
    payload = {
        "dataset": {
            "n_sites": 80,
            "latent_dim": 5,
            "modality_dims": [4, 6],
            "n_labels": 3,
            "n_groups": 2,
            "noise_sigma": 0.1,
        },
        "scenario": {"kind": "iid"},
        "k_clients": 4,
        "rounds": 2,
        "local_epochs": 1,
        "batch_size": 8,
        "eval_every": 1,
        "inference_modes": ["both", "only-0", "only-1"],
        "seed": 0,
        "d_hidden": 8,
        "d_feature": 5,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestExitCodes:
    def test_missing_config_flag(self, capsys):
        assert main(["run"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_nonexistent_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        path = write_config(tmp_path, learning_rate=0.1)  # typo for lr
        assert main(["run", "--config", str(path)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        path = write_config(tmp_path, batch_size=1)
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "modes,named",
        [(["both", "only-0", "only-1", "both"], "'both'"), (["both", "only-01"], "only-01")],
        ids=["repeated", "leading-zero"],
    )
    def test_bad_inference_modes(self, tmp_path, capsys, modes, named):
        path = write_config(tmp_path, inference_modes=modes)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("modes", [(5,), ("both", None)], ids=["int", "none"])
    def test_non_string_mode_is_a_config_error(self, modes):
        # JSON configs reject it by type first; a config built in code
        # reaches validate with it
        with pytest.raises(ConfigError, match="not a string"):
            ExperimentConfig(inference_modes=modes).validate()

    @pytest.mark.parametrize(
        "override,named",
        [({"dataset": 5}, "dataset"), ({"k_clients": "4"}, "k_clients")],
        ids=["section-not-object", "string-for-int"],
    )
    def test_wrong_json_type_is_a_config_error(self, tmp_path, capsys, override, named):
        path = write_config(tmp_path, **override)
        assert main(["run", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err


class TestNegativeSeed:
    """numpy takes no negative seed: every command refuses one as a config
    error, before it writes anything."""

    @pytest.mark.parametrize("command", ["run", "baseline", "ablate"])
    @pytest.mark.parametrize(
        "config,flags",
        [
            ({"seed": -1}, []),
            ({"dataset": {"n_sites": 80, "seed": -3}}, []),
            ({}, ["--seed", "-1"]),
        ],
        ids=["config-seed", "dataset-seed", "seed-flag"],
    )
    def test_training_commands_exit_2(self, tmp_path, capsys, command, config, flags):
        path = write_config(tmp_path, **config)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "seed,flags", [(-1, []), (1, ["--seed", "-1"])], ids=["spec-seed", "seed-flag"]
    )
    def test_gen_data_exits_2(self, tmp_path, capsys, seed, flags):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dataset": {"n_sites": 60, "seed": seed}}))
        out = tmp_path / "d"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out), *flags]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()


class TestMissingFraction:
    """A missing-modality scenario must leave every client of the thinned
    modality at least 2 training samples. With 20 sites and K=2, modality 0
    has 16 training rows and one client: missing_fraction 0.9 keeps 2 of
    them, 0.95 keeps 1 and 1.0 keeps none."""

    @staticmethod
    def payload(fraction, kind="missing-A"):
        return {
            "dataset": {"n_sites": 20, "n_groups": 2},
            "scenario": {"kind": kind, "missing_fraction": fraction},
            "k_clients": 2,
            "batch_size": 4,
        }

    @pytest.mark.parametrize("kind", ["missing-A", "missing-B"])
    @pytest.mark.parametrize("fraction", [0.95, 1.0])
    def test_config_rejects_a_starved_client(self, kind, fraction):
        with pytest.raises(ConfigError, match="missing_fraction"):
            config_from_dict(self.payload(fraction, kind))

    def test_two_kept_samples_pass_and_are_what_the_client_gets(self):
        cfg = config_from_dict(self.payload(0.9))
        shards = build_scenario(
            gen_synthetic(cfg.resolved_dataset()), cfg.scenario, cfg.k_clients
        )
        assert [s.n for s in shards] == [2, 16]

    @pytest.mark.parametrize("fraction", [0.95, 1.0])
    def test_run_exits_2(self, tmp_path, capsys, fraction):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.payload(fraction)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "missing_fraction" in capsys.readouterr().err


class TestRun:
    def test_run_writes_deterministic_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "log.csv").read_bytes() == (out_b / "log.csv").read_bytes()
        assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert (
            main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "9"]) == 0
        )
        assert (out_a / "log.csv").read_bytes() != (out_b / "log.csv").read_bytes()

    def test_baseline_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=1)
        out = tmp_path / "base"
        assert main(["baseline", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "baseline_m0.ckpt").exists()
        assert (out / "baseline_m1.ckpt").exists()


@pytest.mark.parametrize("command", ["run", "baseline"])
def test_parallel_writes_the_serial_log(tmp_path, monkeypatch, capsys, command):
    # two usable CPUs: one forked worker beside this process
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    forks = []
    original_fork = os.fork

    def recording_fork():
        pid = original_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    cfg = write_config(tmp_path)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main([command, "--config", str(cfg), "--out", str(serial)]) == 0
    assert forks == []
    assert main([command, "--config", str(cfg), "--out", str(parallel), "--parallel"]) == 0
    assert len(forks) == 1
    assert (serial / "log.csv").read_bytes() == (parallel / "log.csv").read_bytes()


def test_parallel_dead_worker_is_an_error(tmp_path, monkeypatch, capsys):
    # a forked worker that exits without reporting is a runtime failure of
    # the run, not an I/O error, though ChildProcessError is an OSError
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    parent = os.getpid()
    original = engine.client_update

    def dying_update(*args):
        if os.getpid() != parent:
            os._exit(3)
        return original(*args)

    monkeypatch.setattr(engine, "client_update", dying_update)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run"), "--parallel"]) == 1
    assert capsys.readouterr().err == (
        "error: round 1: the worker updating clients [0, 2] exited with status 3 "
        "without reporting\n"
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestReport:
    def test_report_final_row_matches_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--log", str(out / "log.csv")]) == 0
        printed = capsys.readouterr().out

        text = (out / "log.csv").read_text()
        last_both = [
            line for line in text.strip().split("\n")[1:] if ",both," in line
        ][-1]
        final_micro = float(last_both.split(",")[2])
        assert f"{final_micro:.4f}" in printed

    def test_summarize_log_structure(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["run", "--config", str(cfg), "--out", str(out)])
        final_rows, trajectory = summarize_log((out / "log.csv").read_text())
        assert {r["mode"] for r in final_rows} == {"both", "only-0", "only-1"}
        assert [rnd for rnd, _ in trajectory] == [0, 1, 2]

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", "--log", str(tmp_path / "none.csv")]) == 2

    def test_report_header_only_log(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(LOG_HEADER)
        assert main(["report", "--log", str(log)]) == 2
        assert "no rows" in capsys.readouterr().err

    def test_report_non_numeric_round(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(LOG_HEADER + "one,both,0.5,0.5,0.5,0.0,0.0,0\n")
        assert main(["report", "--log", str(log)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestGenData:
    def test_gen_data_writes_shards_and_manifest(self, tmp_path, capsys):
        spec = {
            "dataset": {
                "n_sites": 60,
                "latent_dim": 5,
                "modality_dims": [4, 6],
                "n_labels": 3,
                "n_groups": 2,
                "seed": 1,
            },
            "scenario": {"kind": "iid"},
            "k_clients": 4,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "data"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario_kind"] == "iid"
        assert len(manifest["shards"]["train"]) == 2
        assert len(manifest["shards"]["clients"]) == 4
        shard = load_shard(out / manifest["shards"]["train"][0])
        assert shard.n == 48  # 80% of 60 sites

    def test_gen_data_requires_seed(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dataset": {"n_sites": 60}}))
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert (
            main(
                [
                    "gen-data",
                    "--spec",
                    str(spec_path),
                    "--out",
                    str(tmp_path / "d"),
                    "--seed",
                    "3",
                ]
            )
            == 0
        )

    @pytest.mark.parametrize(
        "spec,named",
        [
            ({"dataset": 5}, "dataset"),
            ({"dataset": {"seed": 1}, "scenario": {"kind": "iid"}, "k_clients": "4"}, "k_clients"),
        ],
        ids=["section-not-object", "string-for-int"],
    )
    def test_gen_data_wrong_json_type_is_a_config_error(self, tmp_path, capsys, spec, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("k_clients", [1, 0])
    def test_gen_data_too_few_clients_is_a_config_error(self, tmp_path, capsys, k_clients):
        # checked before anything is written, as `run` checks its config
        spec = {"dataset": {"seed": 1}, "scenario": {"kind": "iid"}, "k_clients": k_clients}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "d"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "k_clients" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("k_clients", [0, 4])
    def test_gen_data_clients_without_scenario_is_a_config_error(
        self, tmp_path, capsys, k_clients
    ):
        # a client count with no scenario to split by would go unused
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dataset": {"seed": 1}, "k_clients": k_clients}))
        out = tmp_path / "d"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "k_clients" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_data_rejects_unknown_keys(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dataset": {"n_sites": 60, "sites": 3}}))
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert "sites" in capsys.readouterr().err


# (dataset, scenario, k_clients) that leave some client without 2 training
# rows whatever the split draws
STARVED_SPLITS = {
    "missing-A-all": ({"n_sites": 20}, {"kind": "missing-A", "missing_fraction": 1.0}, 2),
    "group-skew-3-groups": ({"n_groups": 3}, {"kind": "group-skew"}, 14),
    "missing-B-0.99": ({"n_sites": 20}, {"kind": "missing-B", "missing_fraction": 0.99}, 14),
}


def accepts(load, source) -> bool:
    try:
        load(source)
    except ConfigError:
        return False
    return True


class TestGenDataMatchesRun:
    """`gen-data` checks a spec's split as `run` checks a config's, and
    writes nothing when it fails."""

    @staticmethod
    def exit_codes(tmp_path, dataset, scenario, k_clients):
        """(gen-data, run) exit codes for one split, and the gen-data output."""
        split = {"dataset": dataset, "scenario": scenario, "k_clients": k_clients}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**split, "dataset": {**dataset, "seed": 0}}))
        out = tmp_path / "data"
        gen = main(["gen-data", "--spec", str(spec_path), "--out", str(out)])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**split, "rounds": 1}))
        run = main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")])
        return gen, run, out

    @pytest.mark.parametrize("split", STARVED_SPLITS.values(), ids=STARVED_SPLITS)
    def test_starved_split_is_a_config_error_for_both(self, tmp_path, capsys, split):
        gen, run, out = self.exit_codes(tmp_path, *split)
        assert (gen, run) == (2, 2)
        assert not out.exists() or not any(out.iterdir())

    def test_one_row_client_fails_both_before_output(self, tmp_path, capsys):
        # the spec passes, but group 0's modality-0 client gets one row
        gen, run, out = self.exit_codes(tmp_path, {"n_sites": 20}, {"kind": "group-skew"}, 14)
        assert (gen, run) == (1, 1)
        err = capsys.readouterr().err
        assert err.count("client 0 received fewer than 2 training rows (1)") == 2
        assert not out.exists() or not any(out.iterdir())
        assert not (tmp_path / "run").exists()

    @settings(max_examples=150, deadline=None)
    @given(
        n_sites=st.integers(5, 40),
        n_groups=st.integers(1, 8),
        k_clients=st.integers(0, 16),
        kind=st.sampled_from(SCENARIO_KINDS),
        fraction=st.floats(0.0, 1.0),
    )
    def test_load_gen_spec_accepts_what_config_accepts(
        self, n_sites, n_groups, k_clients, kind, fraction
    ):
        split = {
            "dataset": {"n_sites": n_sites, "n_groups": n_groups, "seed": 0},
            "scenario": {"kind": kind, "missing_fraction": fraction},
            "k_clients": k_clients,
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(split))
            assert accepts(config_from_dict, split) == accepts(load_gen_spec, path)


# sha256 of every shard file of a multi-label `gen-data` export (train,
# test, then client shards) per scenario kind; same build caveat as the
# golden log hashes in test_engine.py
GEN_DATA_DIGESTS = {
    "iid": "daeb5cb7ecf27087c95186cff987460eb19aad0f81117c648f59e6bfef071d88",
    "group-skew": "2e88e18412e01ffd7ae6192ec519fe5cf1d238d8b96212da9d8c8c2c6ec282b4",
    "group-skew-mixed": "1962985806379304ed6768ccd4dc781e1c47455345189eeb4a3a9acc2d907d63",
    "missing-A": "43ec544b292ea78377252e0a4cbda4d42faa9a2e26aa49c2e579acc36c362967",
    "missing-B": "ed35b47bf296c9daf883de6257faa85520db2f42f1cc1d433cec8932bcaaf6cb",
}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_gen_data_shard_bytes(tmp_path, capsys, kind):
    # pins the label calibration and every scenario's split, not just
    # run-to-run determinism
    spec = {
        "dataset": {"n_sites": 300, "n_groups": 4, "seed": 5},
        "scenario": {"kind": kind},
        "k_clients": 4,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "data"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256()
    for split in ("train", "test", "clients"):
        for name in manifest["shards"][split]:
            digest.update((out / name).read_bytes())
    assert digest.hexdigest() == GEN_DATA_DIGESTS[kind], kernels_note()


class TestMissingModalityNeedsItsModality:
    """missing-B thins modality 1: a one-modality dataset has none to thin,
    so every command refuses it rather than run the iid split."""

    DATASET = {"n_sites": 80, "modality_dims": [4], "n_groups": 2}

    @pytest.mark.parametrize("command", ["run", "baseline", "ablate"])
    def test_training_commands_exit_2(self, tmp_path, capsys, command):
        path = write_config(
            tmp_path,
            dataset=self.DATASET,
            scenario={"kind": "missing-B"},
            k_clients=2,
            inference_modes=["both"],
        )
        out = tmp_path / "out"
        flags = ["--scenarios", "missing-B"] if command == "ablate" else []
        assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
        assert "thins modality 1" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_data_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = {"dataset": {**self.DATASET, "seed": 1}, "scenario": {"kind": "missing-B"}}
        spec_path.write_text(json.dumps({**spec, "k_clients": 2}))
        out = tmp_path / "d"
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "thins modality 1" in capsys.readouterr().err
        assert not out.exists()


class TestAblate:
    def test_ablate_writes_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=1, inference_modes=["both"])
        out = tmp_path / "ablate"
        code = main(
            [
                "ablate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--scenarios",
                "iid",
            ]
        )
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "modules,iid"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "MF",
            "MF+MIM",
            "MF+FW",
            "MF+FW+MIM",
        ]

    def test_grid_without_both_mode(self, tmp_path, capsys):
        # every cell reads the fused mode alone, listed in the config or not
        tables = []
        for modes in (["both", "only-0"], ["only-0"]):
            cfg = write_config(tmp_path, rounds=1, inference_modes=modes)
            out = tmp_path / "-".join(modes)
            args = ["ablate", "--config", str(cfg), "--out", str(out), "--scenarios", "iid"]
            assert main(args) == 0
            tables.append((out / "ablation.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_unknown_scenario_rejected_before_any_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=1, inference_modes=["both"])
        out = tmp_path / "ablate"
        args = ["ablate", "--config", str(cfg), "--out", str(out)]
        assert main(args + ["--scenarios", "iid,bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_scenario_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(engine, "run_experiment", lambda cfg: runs.append(cfg))
        cfg = write_config(tmp_path, rounds=1, inference_modes=["both"])
        out = tmp_path / "ablate"
        args = ["ablate", "--config", str(cfg), "--out", str(out)]
        assert main(args + ["--scenarios", "iid,iid"]) == 2
        assert "repeated: iid" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    def test_unrunnable_column_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        # the iid column could run, but group-skew needs 3 groups: the grid
        # must fail before its first run, not after the iid column
        runs = []
        monkeypatch.setattr(engine, "run_experiment", lambda cfg: runs.append(cfg))
        cfg = write_config(tmp_path, rounds=1, k_clients=6, inference_modes=["both"])
        out = tmp_path / "ablate"
        args = ["ablate", "--config", str(cfg), "--out", str(out)]
        assert main(args + ["--scenarios", "iid,group-skew"]) == 2
        assert "needs n_groups >= 3, have 2" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()
