"""Command-line surface tests."""

import base64
import csv
import io
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from natforge import trainer
from natforge.cli import main
from natforge.evaluator import shared_file
from natforge.gcnpolicy import NATPP, init_params, policy_file, save_policy
from natforge.numkernel import checkpoint_text
from natforge.opspace import OperationKind


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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_count_is_usage_error(self, runner, tmp_path, count):
        out = str(tmp_path / "g.txt")
        result = runner.invoke(main, ["sample", "--count", count, "--out", out])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "'--count'" in result.output and "x>=1" in result.output
        assert not os.path.exists(out)


class TestTrain:
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--m", "0"),
            ("--n", "0"),
            ("--lambda", "-1"),
            ("--eta-w", "0"),
            ("--eta-theta", "0"),
            ("--lambda", "nan"),
            ("--lambda", "inf"),
            ("--eta-w", "nan"),
            ("--eta-w", "inf"),
            ("--eta-theta", "nan"),
            ("--eta-theta", "inf"),
            ("--epochs", "0"),
            ("--epochs", "-2"),
            ("--depth", "0"),
        ],
    )
    def test_rejected_value_is_usage_error_naming_flag(self, runner, tmp_path, flag, value):
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["train", flag, value, "--out", str(run_dir)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and errors[0].startswith(f"Error: {flag} ")
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "args, recipe",
        [
            (
                ["--provider", "supernet", "--baseline", "--n", "8", "--lambda", "0.1"],
                dict(provider="supernet", use_baseline=True, n=8, entropy_weight=0.1),
            ),
            (["--depth", "3", "--no-baseline", "--seed", "4"], dict(depth=3, seed=4)),
        ],
        ids=["criterion-7-recipe", "depth-3"],
    )
    def test_flags_write_the_bytes_of_their_config(self, runner, tmp_path, args, recipe):
        """``train`` with these flags writes what ``trainer.run`` gives on the same config."""
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["train", *args, "--epochs", "2", "--out", str(run_dir)])
        assert result.exit_code == 0, result.output
        cfg = trainer.TrainConfig(epochs=2, **recipe)
        ran = trainer.run(cfg)
        want = {
            "policy.json": policy_file(ran.policy, "")[1],
            "train_log.jsonl": ran.log.to_jsonl(),
        }
        if ran.shared is not None:
            want["supernet.json"] = shared_file(ran.shared, cfg.seed, "")[1]
        for name, text in want.items():
            assert (run_dir / name).read_text() == text, name
        flags = json.loads((run_dir / "run.manifest.json").read_text())["flags"]
        assert trainer.TrainConfig(**flags) == cfg

    def test_diverging_run_is_one_line_error_writing_nothing(self, runner, tmp_path):
        """A finite but huge ``--eta-w`` overflows the shared weights within three epochs."""
        run_dir = tmp_path / "run"
        args = ["train", "--provider", "supernet", "--eta-w", "1e100", "--epochs", "3"]
        result = runner.invoke(main, [*args, "--out", str(run_dir)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: training diverged: non-finite supernet loss at iteration 21; "
            "nothing was written"
        ]
        assert not run_dir.exists()

    def test_overflowing_policy_is_one_line_error_writing_nothing(self, runner, tmp_path):
        """``--eta-theta 1e300`` leaves finite weights whose next forward overflows."""
        run_dir = tmp_path / "run"
        args = ["train", "--eta-theta", "1e300", "--epochs", "3", "--out", str(run_dir)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: training diverged: non-finite policy output; nothing was written"
        ]
        assert not run_dir.exists()

    def test_failed_write_writes_no_artifact(self, runner, tmp_path, monkeypatch):
        """With one target an existing directory, no artifact, manifest or temp file appears."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run" / "supernet.json").mkdir(parents=True)
        args = ["train", "--provider", "supernet", "--epochs", "1", "--out", "run"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.splitlines() == ["Error: run/supernet.json: Is a directory"]
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["supernet.json"]
        assert list((tmp_path / "run" / "supernet.json").iterdir()) == []


class TestSeed:
    @pytest.mark.parametrize(
        "args, env",
        [
            (["sample", "--seed", "-1"], {}),
            (["train", "--epochs", "1", "--seed", "-1"], {}),
            (["optimize", "--in", "{empty}", "--policy", "{empty}", "--seed", "-1"], {}),
            (["sample"], {"NATFORGE_SEED": "-1"}),
        ],
    )
    def test_negative_seed_is_usage_error(self, runner, tmp_path, args, env):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "out"
        args = [a.format(empty=empty) for a in args]
        result = runner.invoke(main, [*args, "--out", str(out)], env=env)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "'--seed'" in result.output and "x>=0" in result.output
        assert not out.exists()


class TestOptimize:
    def test_cell_beyond_policy_i_max_names_limit(self, runner, tmp_path):
        graphs, policy = str(tmp_path / "g.txt"), str(tmp_path / "policy.json")
        assert runner.invoke(main, ["sample", "--nodes", "9", "--out", graphs]).exit_code == 0
        params = init_params(NATPP, np.random.default_rng(0))
        save_policy(params, policy)
        result = runner.invoke(main, ["optimize", "--in", graphs, "--policy", policy])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "graph 0 has 6 intermediate nodes" in result.output
        assert "i_max=4" in result.output

    def test_bad_policy_names_field(self, runner, tmp_path):
        graphs, policy = str(tmp_path / "g.txt"), str(tmp_path / "policy.json")
        assert runner.invoke(main, ["sample", "--out", graphs]).exit_code == 0
        params = init_params(NATPP, np.random.default_rng(0))
        save_policy(params, policy)
        payload = json.load(open(policy))
        payload["mode"] = "bogus"
        json.dump(payload, open(policy, "w"))
        result = runner.invoke(main, ["optimize", "--in", graphs, "--policy", policy])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "mode: must be one of" in result.output

    @pytest.mark.parametrize("mode", [[], {}])
    def test_non_string_policy_mode_is_one_line_error(self, runner, tmp_path, mode):
        graphs, policy = str(tmp_path / "g.txt"), str(tmp_path / "policy.json")
        assert runner.invoke(main, ["sample", "--out", graphs]).exit_code == 0
        params = init_params(NATPP, np.random.default_rng(0))
        save_policy(params, policy)
        payload = json.load(open(policy))
        payload["mode"] = mode
        json.dump(payload, open(policy, "w"))
        result = runner.invoke(main, ["optimize", "--in", graphs, "--policy", policy])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"Error: {policy}: mode: must be one of ['nat', 'nat++'], got {mode!r}"
        ]

    @pytest.mark.parametrize("i_max", [0, 3, 5, "4", True])
    def test_policy_of_other_i_max_is_one_line_error_writing_nothing(
        self, runner, tmp_path, i_max
    ):
        graphs, policy = str(tmp_path / "g.txt"), str(tmp_path / "policy.json")
        out = tmp_path / "opt.txt"
        assert runner.invoke(main, ["sample", "--out", graphs]).exit_code == 0
        save_policy(init_params(NATPP, np.random.default_rng(0)), policy)
        payload = json.load(open(policy))
        payload["i_max"] = i_max
        json.dump(payload, open(policy, "w"))
        args = ["optimize", "--in", graphs, "--policy", policy, "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"Error: {policy}: i_max: expected 4, got {i_max!r}"
        ]
        assert not out.exists()


    def test_rewired_rewrite_rejected_by_audit(self, runner, tmp_path, monkeypatch):
        """A rewrite that adds cost stops ``optimize`` before it writes. The inference
        core returns operations only, so a rewired result cannot reach the audit."""
        graphs, policy = str(tmp_path / "g.txt"), str(tmp_path / "policy.json")
        out = str(tmp_path / "opt.txt")
        assert runner.invoke(main, ["sample", "--count", "3", "--out", graphs]).exit_code == 0
        params = init_params(NATPP, np.random.default_rng(0))
        save_policy(params, policy)
        dearest = OperationKind.CONV_5X5.index

        def costlier(policy, flat, decode, rng):
            # The first edge that is not a 5x5 convolution, the dearest operation,
            # becomes one: a rewrite that adds cost.
            ops = flat[3]
            new = ops.copy()
            new[int(np.argmax(ops != dearest))] = dearest
            return new

        monkeypatch.setattr(trainer, "_infer_ops", costlier)
        result = runner.invoke(main, ["optimize", "--in", graphs, "--policy", policy, "--out", out])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: optimized graph failed the cost audit"]
        assert not os.path.exists(out)


    @pytest.mark.parametrize("decode", ["argmax", "sample"])
    def test_overflowing_policy_is_one_line_error_writing_nothing(self, runner, tmp_path, decode):
        """A finite checkpoint whose forward overflows: argmax of its NaN rows would pick a
        masked action, and sampling would reject them."""
        graphs, policy = str(tmp_path / "g.txt"), str(tmp_path / "policy.json")
        out = tmp_path / "opt.txt"
        assert runner.invoke(main, ["sample", "--count", "5", "--out", graphs]).exit_code == 0
        params = init_params(NATPP, np.random.default_rng(0))
        for w in params.gcn + [params.fc]:
            w *= 1e299
        save_policy(params, policy)
        args = ["optimize", "--in", graphs, "--policy", policy, "--decode", decode]
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"Error: {policy}: non-finite policy output; nothing was written"
        ]
        assert not out.exists()


class TestUnwritableOutput:
    def test_missing_directory_is_one_line_error(self, runner, tmp_path):
        out = tmp_path / "missing_dir" / "x.txt"
        result = runner.invoke(main, ["sample", "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        errors = result.output.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"Error: {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_is_one_line_error_leaving_no_temp(self, runner, tmp_path):
        graphs, target = tmp_path / "g.txt", tmp_path / "adir"
        assert runner.invoke(main, ["sample", "--out", str(graphs)]).exit_code == 0
        target.mkdir()
        result = runner.invoke(main, ["cost", "--in", str(graphs), "--out", str(target)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        errors = result.output.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"Error: {target}: ")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["adir", "g.txt", "g.txt.manifest.json"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("command", ["audit", "sample", "cost", "optimize", "report"])
    def test_directory_manifest_target_writes_no_output(self, artifacts, tmp_path, command):
        """With ``<out>.manifest.json`` an existing directory, no output or temp file appears."""
        policy = os.path.join(artifacts["run"], "policy.json")
        supernet = os.path.join(artifacts["run"], "supernet.json")
        inputs = {
            "audit": [],
            "sample": [],
            "cost": ["--in", artifacts["graphs"]],
            "optimize": ["--in", artifacts["graphs"], "--policy", policy],
            "report": [
                "--in", artifacts["graphs"], "--optimized", artifacts["opt"], "--supernet", supernet
            ],
        }[command]
        out, manifest = tmp_path / "out.txt", tmp_path / "out.txt.manifest.json"
        manifest.mkdir()
        result = CliRunner().invoke(main, [command, *inputs, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {manifest}: Is a directory"]
        assert [p.name for p in tmp_path.iterdir()] == [manifest.name]
        assert list(manifest.iterdir()) == []


class TestMissingInput:
    @pytest.mark.parametrize(
        "command, missing",
        [
            ("optimize", "--in"),
            ("optimize", "--policy"),
            ("cost", "--in"),
            ("report", "--in"),
            ("report", "--optimized"),
            ("report", "--supernet"),
        ],
    )
    def test_missing_path_is_usage_error(self, runner, tmp_path, command, missing):
        present = tmp_path / "present.txt"
        present.write_text("")
        options = {
            "optimize": ["--in", "--policy"],
            "cost": ["--in"],
            "report": ["--in", "--optimized", "--supernet"],
        }[command]
        args = [command]
        for option in options:
            args += [option, str(tmp_path / "missing.json") if option == missing else str(present)]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out.txt")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"Invalid value for '{missing}'" in result.output
        assert "does not exist" in result.output

    def test_directory_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["cost", "--in", str(tmp_path)])
        assert result.exit_code == 2
        assert "is a directory" in result.output


class TestMalformedCells:
    @pytest.mark.parametrize(
        "command, bad",
        [("cost", "--in"), ("optimize", "--in"), ("report", "--in"), ("report", "--optimized")],
    )
    def test_malformed_cell_file_is_error_naming_it(self, artifacts, tmp_path, command, bad):
        path = tmp_path / "bad.txt"
        path.write_text("cell v=7\nedge t=0 s=0 f=-1 op=bogus\n")
        inputs = {
            "cost": {"--in": artifacts["graphs"]},
            "optimize": {
                "--in": artifacts["graphs"],
                "--policy": os.path.join(artifacts["run"], "policy.json"),
            },
            "report": {
                "--in": artifacts["graphs"],
                "--optimized": artifacts["opt"],
                "--supernet": os.path.join(artifacts["run"], "supernet.json"),
            },
        }[command]
        inputs[bad] = str(path)
        out = tmp_path / "out.txt"
        args = [command, *(x for item in inputs.items() for x in item), "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: {path}: line 2: unknown operation name: 'bogus'"]
        assert not out.exists()


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

    @pytest.mark.parametrize("empty", [("--in",), ("--optimized",), ("--in", "--optimized")])
    def test_report_rejects_empty_input(self, artifacts, tmp_path, empty):
        path = tmp_path / "empty.txt"
        path.write_text("")
        originals = str(path) if "--in" in empty else artifacts["graphs"]
        optimized = str(path) if "--optimized" in empty else artifacts["opt"]
        result = self._report(artifacts, tmp_path, optimized, originals=originals)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: {empty[0]} {path}: contains no cells"]
        assert not os.path.exists(str(tmp_path / "report.csv"))

    def test_report_rejects_bad_supernet(self, artifacts, tmp_path):
        payload = json.load(open(os.path.join(artifacts["run"], "supernet.json")))
        head_b = np.frombuffer(base64.b64decode(payload["head_b"]), dtype="<f8").copy()
        head_b[0] = np.nan
        payload["head_b"] = checkpoint_text(head_b)
        path = str(tmp_path / "supernet.json")
        json.dump(payload, open(path, "w"))
        result = self._report(artifacts, tmp_path, artifacts["opt"], supernet=path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "head_b: contains NaN or infinity" in result.output

    def test_report_rejects_supernet_feature_dim_mismatch(self, artifacts, tmp_path):
        with open(os.path.join(artifacts["run"], "supernet.json")) as fh:
            payload = json.load(fh)
        payload["feature_dim"] = 8
        path = tmp_path / "supernet.json"
        path.write_text(json.dumps(payload))
        result = self._report(artifacts, tmp_path, artifacts["opt"], supernet=str(path))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{path}: feature_dim: expected 16" in result.output
        assert not os.path.exists(str(tmp_path / "report.csv"))

    def test_checkpoints_are_streamed_json_bytes(self, artifacts):
        for name in ("policy.json", "supernet.json"):
            text = open(os.path.join(artifacts["run"], name)).read()
            streamed = io.StringIO()
            json.dump(json.loads(text), streamed)
            streamed.write("\n")
            assert text == streamed.getvalue()

    def test_report_rejects_intermediate_count_mismatch(self, artifacts, tmp_path):
        graphs = str(tmp_path / "g.txt")
        assert CliRunner().invoke(main, ["sample", "--nodes", "6", "--out", graphs]).exit_code == 0
        result = self._report(artifacts, tmp_path, graphs, originals=graphs)
        assert result.exit_code == 1
        assert "graph 0 has 3 intermediate nodes; the supernet has 4" in result.output


def test_report_measures_cells_on_the_supernets_training_data(tmp_path):
    """A supernet trained at seed 3 is scored on ``make_dataset(3)``, read from its checkpoint."""
    runner = CliRunner()
    graphs, run_dir = str(tmp_path / "graphs.txt"), str(tmp_path / "run")
    opt, report = str(tmp_path / "optimized.txt"), str(tmp_path / "report.csv")
    commands = [
        ["train", "--provider", "supernet", "--seed", "3", "--epochs", "20", "--out", run_dir],
        ["sample", "--count", "30", "--seed", "3", "--out", graphs],
        ["optimize", "--in", graphs, "--policy", os.path.join(run_dir, "policy.json"),
         "--out", opt],
        ["report", "--in", graphs, "--optimized", opt,
         "--supernet", os.path.join(run_dir, "supernet.json"), "--out", report],
    ]
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    original = read_csv(report)[0]
    assert original["set"] == "original"
    # Twice chance (1/8), the floor the supernet-pretrain benchmark workload checks.
    assert float(original["accuracy_mean"]) >= 2 / 8
    result = runner.invoke(main, commands[-1] + ["--data-seed", "0"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--data-seed" in result.output
