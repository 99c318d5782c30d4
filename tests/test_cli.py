"""Command-line surface tests."""

import csv
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from natforge.archgraph import EncodingConfig
from natforge.cli import main
from natforge.gcnpolicy import NATPP, init_params, save_policy


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestAudit:
    def test_default_run(self, runner, tmp_path):
        out = str(tmp_path / "audit.csv")
        result = runner.invoke(main, ["audit", "--out", out])
        assert result.exit_code == 0, result.output
        rows = read_csv(out)
        assert len(rows) == 169
        assert "0 violations" in result.output

    def test_null_skip_row_whitelisted(self, runner, tmp_path):
        out = str(tmp_path / "audit.csv")
        runner.invoke(main, ["audit", "--out", out])
        rows = {(r["from"], r["to"]): r for r in read_csv(out)}
        row = rows[("null", "skip")]
        assert row["valid"] == "1"
        assert row["whitelisted"] == "1"
        assert row["madds_delta"] == "131072"

    def test_invalid_pair_marked(self, runner, tmp_path):
        out = str(tmp_path / "audit.csv")
        runner.invoke(main, ["audit", "--out", out])
        rows = {(r["from"], r["to"]): r for r in read_csv(out)}
        assert rows[("conv_1x1", "sep_conv_3x3")]["valid"] == "0"

    def test_manifest_written(self, runner, tmp_path):
        out = str(tmp_path / "audit.csv")
        runner.invoke(main, ["audit", "--out", out])
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["command"] == "audit"
        assert "config_hash" in manifest


class TestSample:
    def test_count_and_determinism(self, runner, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        r1 = runner.invoke(main, ["sample", "--nodes", "7", "--count", "20", "--seed", "42", "--out", a])
        r2 = runner.invoke(main, ["sample", "--nodes", "7", "--count", "20", "--seed", "42", "--out", b])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(a).read().count("cell v=7") == 20

    def test_seed_env_fallback(self, runner, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        runner.invoke(main, ["sample", "--out", a], env={"NATFORGE_SEED": "9"})
        runner.invoke(main, ["sample", "--seed", "9", "--out", b])
        assert open(a).read() == open(b).read()


    def test_too_few_nodes_names_limit(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--nodes", "3", "--out", str(tmp_path / "g.txt")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "x>=4" in result.output


class TestOptimize:
    def test_cell_beyond_policy_i_max_names_limit(self, runner, tmp_path):
        graphs, policy = str(tmp_path / "g.txt"), str(tmp_path / "policy.json")
        assert runner.invoke(main, ["sample", "--nodes", "9", "--out", graphs]).exit_code == 0
        params = init_params(NATPP, EncodingConfig(i_max=4).feature_dim, np.random.default_rng(0))
        save_policy(params, policy)
        result = runner.invoke(main, ["optimize", "--in", graphs, "--policy", policy])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "graph 0 has 6 intermediate nodes" in result.output
        assert "i_max=4" in result.output


class TestCost:
    def test_cost_report(self, runner, tmp_path):
        graphs = str(tmp_path / "g.txt")
        out = str(tmp_path / "costs.csv")
        runner.invoke(main, ["sample", "--count", "5", "--seed", "0", "--out", graphs])
        result = runner.invoke(main, ["cost", "--in", graphs, "--out", out])
        assert result.exit_code == 0, result.output
        rows = read_csv(out)
        assert len(rows) == 5
        assert all(int(r["total_params"]) >= 0 for r in rows)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    graphs = str(root / "graphs.txt")
    run_dir = str(root / "run")
    opt = str(root / "optimized.txt")
    report = str(root / "report.csv")
    assert runner.invoke(main, ["sample", "--count", "5", "--seed", "1", "--out", graphs]).exit_code == 0
    result = runner.invoke(
        main,
        ["train", "--provider", "supernet", "--epochs", "10", "--seed", "1", "--out", run_dir],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        [
            "optimize",
            "--in", graphs,
            "--policy", os.path.join(run_dir, "policy.json"),
            "--decode", "argmax",
            "--out", opt,
        ],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        [
            "report",
            "--in", graphs,
            "--optimized", opt,
            "--supernet", os.path.join(run_dir, "supernet.json"),
            "--data-seed", "1",
            "--out", report,
        ],
    )
    assert result.exit_code == 0, result.output
    return {"graphs": graphs, "run": run_dir, "opt": opt, "report": report}


class TestTrainOptimizeReport:
    def test_train_artifacts_exist(self, artifacts):
        for name in ("policy.json", "train_log.jsonl", "supernet.json", "run.manifest.json"):
            assert os.path.exists(os.path.join(artifacts["run"], name))

    def test_optimized_graphs_parse_and_pass_audit(self, artifacts):
        from natforge.archgraph import cost_non_increasing, parse_many, validate

        originals = parse_many(open(artifacts["graphs"]).read())
        optimized = parse_many(open(artifacts["opt"]).read())
        assert len(optimized) == len(originals)
        for beta, alpha in zip(originals, optimized):
            validate(alpha)
            assert cost_non_increasing(beta, alpha)

    def test_optimize_argmax_deterministic(self, artifacts, tmp_path):
        runner = CliRunner()
        again = str(tmp_path / "again.txt")
        result = runner.invoke(
            main,
            [
                "optimize",
                "--in", artifacts["graphs"],
                "--policy", os.path.join(artifacts["run"], "policy.json"),
                "--decode", "argmax",
                "--out", again,
            ],
        )
        assert result.exit_code == 0
        assert open(again, "rb").read() == open(artifacts["opt"], "rb").read()

    def test_report_shape(self, artifacts):
        rows = read_csv(artifacts["report"])
        assert [r["set"] for r in rows] == ["original", "optimized"]
        orig, opt = rows
        assert float(opt["params_mean"]) <= float(orig["params_mean"])
