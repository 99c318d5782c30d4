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

    def test_single_channel_is_usage_error(self, runner, tmp_path):
        out = str(tmp_path / "audit.csv")
        result = runner.invoke(main, ["audit", "--channels", "1", "--out", out])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "channels_out must be >= 2" in errors[0]
        assert not os.path.exists(out)


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

    def test_bad_policy_names_field(self, runner, tmp_path):
        graphs, policy = str(tmp_path / "g.txt"), str(tmp_path / "policy.json")
        assert runner.invoke(main, ["sample", "--out", graphs]).exit_code == 0
        params = init_params(NATPP, EncodingConfig(i_max=4).feature_dim, np.random.default_rng(0))
        save_policy(params, policy)
        payload = json.load(open(policy))
        payload["mode"] = "bogus"
        json.dump(payload, open(policy, "w"))
        result = runner.invoke(main, ["optimize", "--in", graphs, "--policy", policy])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "mode: must be one of" in result.output


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

    def _report(self, artifacts, tmp_path, optimized, supernet=None, originals=None):
        return CliRunner().invoke(
            main,
            [
                "report",
                "--in", originals or artifacts["graphs"],
                "--optimized", optimized,
                "--supernet", supernet or os.path.join(artifacts["run"], "supernet.json"),
                "--out", str(tmp_path / "report.csv"),
            ],
        )

    def test_report_rejects_topology_mismatch(self, artifacts, tmp_path):
        from natforge.archgraph import EdgeSlot, make_cell, parse_many, serialize_many

        optimized = parse_many(open(artifacts["opt"]).read())
        g = optimized[3]
        edges = list(g.edges)
        last = edges[-1]
        edges[-1] = EdgeSlot(last.target_node, last.slot, -1 - (last.source_node == -1), last.op)
        optimized[3] = make_cell(g.num_nodes, edges)
        path = str(tmp_path / "rewired.txt")
        open(path, "w").write(serialize_many(optimized))
        result = self._report(artifacts, tmp_path, path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "optimized graph 3 does not have the topology of original graph 3" in result.output

    def test_report_rejects_bad_supernet(self, artifacts, tmp_path):
        payload = json.load(open(os.path.join(artifacts["run"], "supernet.json")))
        payload["head_b"][0] = float("nan")
        path = str(tmp_path / "supernet.json")
        json.dump(payload, open(path, "w"))
        result = self._report(artifacts, tmp_path, artifacts["opt"], supernet=path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "head_b: contains NaN or infinity" in result.output

    def test_report_rejects_intermediate_count_mismatch(self, artifacts, tmp_path):
        graphs = str(tmp_path / "g.txt")
        assert CliRunner().invoke(main, ["sample", "--nodes", "6", "--out", graphs]).exit_code == 0
        result = self._report(artifacts, tmp_path, graphs, originals=graphs)
        assert result.exit_code == 1
        assert "graph 0 has 3 intermediate nodes; the supernet has 4" in result.output
