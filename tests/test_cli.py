"""CLI behavior: subcommands, exit codes, determinism of written outputs."""

import json

import pytest

from fedmm.cli import main, summarize_log
from fedmm.data import load_shard
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
        "override,named",
        [({"dataset": 5}, "dataset"), ({"k_clients": "4"}, "k_clients")],
        ids=["section-not-object", "string-for-int"],
    )
    def test_wrong_json_type_is_a_config_error(self, tmp_path, capsys, override, named):
        path = write_config(tmp_path, **override)
        assert main(["run", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err


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

    def test_gen_data_rejects_unknown_keys(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dataset": {"n_sites": 60, "sites": 3}}))
        assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert "sites" in capsys.readouterr().err


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

    def test_unknown_scenario_rejected_before_any_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=1, inference_modes=["both"])
        out = tmp_path / "ablate"
        args = ["ablate", "--config", str(cfg), "--out", str(out)]
        assert main(args + ["--scenarios", "iid,bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()
