"""Golden bytes: the CLI's artifacts must keep the sha256 pinned here.

Each case runs a short, seeded command and compares the digest of every
artifact it writes with the value recorded when the case was added. A change
that alters the text format, the generator stream, the policy or supernet
numerics, or the training log shows up here as a digest mismatch. A
deliberate byte change must update the pinned value and say why.
"""

import functools
import hashlib
import json
import os
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from natforge.archgraph import sample_uniform, serialize_many
from natforge.cli import main
from natforge.trainer import TrainConfig, run
from natforge.evaluator import (
    accuracy,
    graph_logits,
    init_shared,
    load_shared,
    make_dataset,
    shared_file,
    supernet_train_step,
)
from natforge.gcnpolicy import load_policy
from natforge.numkernel import atomic_write

#: sha256 of ``natforge sample --nodes 7 --count 50 --seed 11``.
SAMPLE = "7ad58577c3de9b01e4b5240b8bb45b1896f49e7cadb151569a57a1a1a05c61ab"

#: sha256 of (policy.json, train_log.jsonl) for ``natforge train`` on 3 epochs.
TRAIN = {
    "nat++-m1": (
        "b03807a24e2ae69fc02aedb5d5da12a17d8cc833cdf78ff0b97b753c524793a3",
        "7d78a55907f521065f2f3fc641f2addefd93f1a966628f8ce6564c0ab5329e08",
    ),
    "nat++-m2": (
        "61f82f2f8adfb58f07721d56e612d150667a59c93cf689762ee411af29399761",
        "c41d12f10ef92ca8cfad41c71ef3579aac2c0f493777984974c2724ef29512e6",
    ),
    "nat-m1": (
        "6db13e7dd9d725bf4a4bfb4b3381cd7180cb1373ea6ed0cb1ab67e40ae0fe6d6",
        "a9eab112fb34ade6fc8f9d76a6fca8b0087f0e1b4963f22b21e7ee60f8e43632",
    ),
}
TRAIN_FLAGS = {
    "nat++-m1": ["--mode", "nat++", "--m", "1"],
    "nat++-m2": ["--mode", "nat++", "--m", "2", "--n", "2"],
    "nat-m1": ["--mode", "nat", "--m", "1"],
}

#: sha256 of the weight bytes ``load_policy`` reads from each ``TRAIN`` run's policy.json.
TRAIN_WEIGHTS = {
    "nat++-m1": "5ebd64b1c4dabe0a89dbf710c5dd7edfd4d727dbee91015812bcdbbec24c62e1",
    "nat++-m2": "46c1df3468ae97b049c9c2a9796049d5d143a954604a0c634aa3f5c64c934fcc",
    "nat-m1": "1e038dcfc5ab420656ab46a0558ee08df130bae93d7b7d9c00fe185bffd912ce",
}

#: sha256 of (policy weight bytes, ``to_jsonl()``) for the full default oracle run
#: (200 epochs, 2,000 policy steps, seed 0), by mode.
DEFAULT_RUN = {
    "nat++": (
        "cb9a3c7417cb44a67e0feea41656e81a60dc8fdc2ea476d002b23b4335f599c6",
        "89fa9205b6b7e4e608f65ceea4d82fac817318d7ccfef2deaecf565859639636",
    ),
    "nat": (
        "0f00b2f9b4a4f42507bb8b6b10f38b5e916173fb86480301631d225086cac24d",
        "642ac1f673febdd7a66b3f5bb187b44bc0e0a8e1f7942304aab8c6e557c60c2e",
    ),
}

#: sha256 of (policy.json, train_log.jsonl, supernet.json) for one supernet epoch.
SUPERNET = (
    "dc6c10af3f3600040802af092d89f9f71661e3cf32d3af5c44f403c1ff0b956c",
    "5b5dbbfd2e89c8d6b07d115bd6c90ac4c3ae5a11140070c470546bc7b86516ab",
    "c9f144bf5bebc8596a2f5f21bac6c19c0436d8f7284997af86ff3c437e135988",
)

#: sha256 of the weight bytes ``load_policy`` and ``load_shared`` read from the
#: supernet run's policy.json and supernet.json.
SUPERNET_WEIGHTS = (
    "0e0a7d5184536c035be64f788ed3dce4b3102ca9a730e4f4f72431c28940a9cd",
    "7619b503c9c4df287c42b7224b5a9431beed9bc7237a9e7a97c7e30624441f32",
)

#: ``config_hash`` of ``run.manifest.json`` for each ``TRAIN`` run and the
#: supernet run: the hash of the flag set, so it pins which values are flags.
CONFIG_HASH = {
    "nat++-m1": "510050b960e28ba557de1caddbccd9fe883989233d9ea4ad9c2bbaafc1586c4a",
    "nat++-m2": "ac68e1c820ce3bc9029be0f68410c9bb2a990d3ceaaa00c2bc22f91b77795b3f",
    "nat-m1": "1aef3c7b8354db41526ff7816552ed3b048136700e855a2fe4fe9a46059006a4",
    "supernet": "d717378e7d95418418c7919a67b40c940e606f2e4a8d84e8a5ad60ca90b03ffc",
}

#: sha256 of ``shared_file`` after 300 ``supernet_train_step``s on m uniform cells per step.
PRETRAIN = {
    1: "10902a6dc941896d2e5cef782ca8a815fb4b34cc07fb7db3226da938fa4ad49d",
    2: "73fcff0a1ae7fc1e168c0928ab355dbcaae37a4a6ea1abb3e1445657f0c4fd9f",
}

#: sha256 of the weight bytes ``load_shared`` reads back from each ``PRETRAIN`` file.
PRETRAIN_WEIGHTS = {
    1: "0f9890b49252b51a33ec262c2fb538502c06f510d22d6d95c20767db163cb984",
    2: "e147de9351ab3c2e7a3d6877337754cb46dcaac6198e82b5d267d0eb45bcfb04",
}

#: ``accuracy`` of 16 fixed cells under the m = 1 supernet, and sha256 of their logits.
PRETRAIN_ACCURACY = [
    0.5, 0.3671875, 0.1875, 0.3125, 0.39453125, 0.20703125, 0.45703125, 0.37890625,
    0.49609375, 0.30078125, 0.41015625, 0.375, 0.57421875, 0.4921875, 0.35546875, 0.28125,
]
PRETRAIN_LOGITS = "bcf24c10ddd8e302164354d409c831cbbb5b9162c804dcac7fe911a419f57169"

#: sha256 of the mixed 1-4 intermediate input file.
MIXED = "eafce8fbf495e9089bb68abb8b9de597024d9afa2cab30f17a4e167a6e8f61ed"

#: sha256 of ``natforge optimize`` on the mixed file, by (training run, decode).
OPTIMIZE = {
    ("nat++-m1", "sample"): (
        "e83ac7b9d47c731671bb85bb10e412b1538f20e7d761c89639758d60d8388e73"
    ),
    ("nat++-m1", "argmax"): (
        "141fa0b1d938e86be88dc150d993ab6283d0ba6395674ce5f86b9978294b1b98"
    ),
    ("nat-m1", "sample"): (
        "8bd43f7fd47e44edd06477973f391137dde04d462a1e0fb2ecc510440919c228"
    ),
}

#: sha256 of the CSV of ``natforge audit`` at (--channels, --hw); the last
#: geometry has conv madds beyond the int64 range.
AUDIT = {
    (128, 32): "d97d214238299e6f67f7c675801053083253b56eddcb1ad6436341e547a8304d",
    (2, 1): "1dfea13597842d001b2b69fb69b6c53d6dc2222da91dcbeca27451972cd5cb45",
    (1000000, 10000): "4e7b838eb15445d16f67bad86aeb9e33c342f3f7df5a9d86d2b1fcc9a1656ca6",
}

#: sha256 of the CSV of ``natforge cost`` on the mixed file at (--channels, --hw);
#: the last geometry has per-cell totals beyond the int64 range.
COST = {
    (128, 32): "d5aeb618b8d0d27c2a8d240d4ee5d1b870dcca5714b9f8668081dfe3bcb40357",
    (1000000, 10000): "f3b070e410baae312168c93cf301a89d33a1acbb7e86cfa71387d7ee3e4b98bb",
}

#: sha256 of the ``.manifest.json`` of each command that records its flags,
#: run as ``MANIFEST_ARGS`` with relative paths in an empty directory: it pins
#: the flag names and values each manifest records.
MANIFEST = {
    "audit": "93f9d79eb1459c4391559021a2df0926727113e89954891a23fa2c2addde6a89",
    "sample": "58770bd09c917a9a3244c6d8c8b3dbfd2b2ba153586e65c3e2119ca4ea7f9efd",
    "cost": "a783c957201c5156ecfe6375677a9b83bc22258c134cb6489a72f7e7223db4de",
    "optimize": "4dc3c254c96badffa8716fd6fcb735c2f9df8f49793085a4b693c9f7caa670fe",
    "report": "6dd3d01d1240d011366acc59a3eee52fc62276cec36a5afa864c018d177ff672",
}
MANIFEST_ARGS = {
    "audit": ["--out", "audit.csv"],
    "sample": ["--count", "5", "--seed", "1", "--out", "graphs.txt"],
    "cost": ["--in", "graphs.txt", "--out", "costs.csv"],
    "optimize": ["--in", "graphs.txt", "--policy", "policy.json", "--decode", "sample",
                 "--seed", "5", "--out", "optimized.txt"],
    "report": ["--in", "graphs.txt", "--optimized", "optimized.txt",
               "--supernet", "supernet.json", "--out", "report.csv"],
}


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def policy_digest(path):
    """sha256 of the arrays ``load_policy`` reads from ``path``: each ``gcn`` layer, then ``fc``."""
    params = load_policy(path)
    return hashlib.sha256(b"".join(w.tobytes() for w in [*params.gcn, params.fc])).hexdigest()


def shared_digest(path):
    """sha256 of the arrays ``load_shared`` reads from ``path``: ``head_w``, ``head_b``, then
    every bank array by (edge, operation index, array name)."""
    w, _ = load_shared(path)
    keys = sorted(w.bank, key=lambda k: (k[0], k[1].index))
    arrays = [w.head_w, w.head_b] + [w.bank[k][name] for k in keys for name in sorted(w.bank[k])]
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, flags in TRAIN_FLAGS.items():
        run_dir = str(root / name)
        invoke(["train", *flags, "--epochs", "3", "--seed", "4", "--out", run_dir])
        out[name] = run_dir
    out["supernet"] = str(root / "supernet")
    invoke(
        ["train", "--provider", "supernet", "--epochs", "1", "--seed", "2",
         "--out", out["supernet"]]
    )
    return out


@pytest.fixture(scope="module")
def mixed_cells(tmp_path_factory):
    rng = np.random.default_rng(21)
    cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(300)]
    path = str(tmp_path_factory.mktemp("mixed") / "cells.txt")
    with open(path, "w") as fh:
        fh.write(serialize_many(cells))
    return path


def test_sample_bytes(tmp_path):
    path = str(tmp_path / "graphs.txt")
    invoke(["sample", "--nodes", "7", "--count", "50", "--seed", "11", "--out", path])
    assert sha(path) == SAMPLE


@pytest.mark.parametrize("channels,hw", sorted(AUDIT))
def test_audit_bytes(tmp_path, channels, hw):
    path = str(tmp_path / "audit.csv")
    invoke(["audit", "--channels", str(channels), "--hw", str(hw), "--out", path])
    assert sha(path) == AUDIT[(channels, hw)]


@pytest.mark.parametrize("name", sorted(TRAIN))
def test_oracle_train_bytes(runs, name):
    run_dir = runs[name]
    digests = tuple(sha(os.path.join(run_dir, f)) for f in ("policy.json", "train_log.jsonl"))
    assert digests == TRAIN[name]


@pytest.mark.parametrize("name", sorted(TRAIN_WEIGHTS))
def test_oracle_train_weights(runs, name):
    assert policy_digest(os.path.join(runs[name], "policy.json")) == TRAIN_WEIGHTS[name]


@pytest.mark.parametrize("mode", sorted(DEFAULT_RUN))
def test_default_oracle_run_bytes(mode):
    result = run(TrainConfig(mode=mode))
    assert len(result.log.records) == 2000
    policy = b"".join(w.tobytes() for w in result.policy.gcn) + result.policy.fc.tobytes()
    digests = (
        hashlib.sha256(policy).hexdigest(),
        hashlib.sha256(result.log.to_jsonl().encode()).hexdigest(),
    )
    assert digests == DEFAULT_RUN[mode]


def test_supernet_train_bytes(runs):
    files = ("policy.json", "train_log.jsonl", "supernet.json")
    assert tuple(sha(os.path.join(runs["supernet"], f)) for f in files) == SUPERNET


def test_supernet_train_weights(runs):
    digests = (
        policy_digest(os.path.join(runs["supernet"], "policy.json")),
        shared_digest(os.path.join(runs["supernet"], "supernet.json")),
    )
    assert digests == SUPERNET_WEIGHTS


@pytest.mark.parametrize("name", sorted(CONFIG_HASH))
def test_train_config_hash(runs, name):
    with open(os.path.join(runs[name], "run.manifest.json")) as fh:
        assert json.load(fh)["config_hash"] == CONFIG_HASH[name]


def test_mixed_input_bytes(mixed_cells):
    assert sha(mixed_cells) == MIXED


@pytest.mark.parametrize("name,decode", sorted(OPTIMIZE))
def test_optimize_bytes(runs, mixed_cells, tmp_path, name, decode):
    out = str(tmp_path / "optimized.txt")
    policy = os.path.join(runs[name], "policy.json")
    invoke(
        ["optimize", "--in", mixed_cells, "--policy", policy, "--decode", decode,
         "--seed", "5", "--out", out]
    )
    assert sha(out) == OPTIMIZE[(name, decode)]


@pytest.mark.parametrize("channels,hw", sorted(COST))
def test_cost_bytes(mixed_cells, tmp_path, channels, hw):
    out = str(tmp_path / "costs.csv")
    invoke(["cost", "--in", mixed_cells, "--channels", str(channels), "--hw", str(hw),
            "--out", out])
    assert sha(out) == COST[(channels, hw)]


def test_manifest_bytes(runs):
    runner = CliRunner()
    digests = {}
    with runner.isolated_filesystem():
        for name in ("policy.json", "supernet.json"):
            shutil.copy(os.path.join(runs["supernet"], name), name)
        for command, args in MANIFEST_ARGS.items():
            invoke([command, *args])
            digests[command] = sha(args[-1] + ".manifest.json")
    assert digests == MANIFEST


@functools.lru_cache(maxsize=None)
def pretrained_supernet(m):
    """The m-cell pretrained supernet and its dataset; cached, so callers must not write to it."""
    rng = np.random.default_rng(6)
    ds = make_dataset(6)
    w = init_shared(rng, 4)
    for _ in range(300):
        graphs = [sample_uniform(4, rng) for _ in range(m)]
        x, y = ds.train_batch(rng, 32)
        supernet_train_step(w, graphs, x, y, 0.05)
    return w, ds


@pytest.mark.parametrize("m", sorted(PRETRAIN))
def test_supernet_pretrain_bytes(tmp_path, m):
    w, _ = pretrained_supernet(m)
    path = str(tmp_path / "supernet.json")
    atomic_write([shared_file(w, 6, path)])
    assert sha(path) == PRETRAIN[m]


@pytest.mark.parametrize("m", sorted(PRETRAIN_WEIGHTS))
def test_supernet_pretrain_weights(tmp_path, m):
    w, _ = pretrained_supernet(m)
    path = str(tmp_path / "supernet.json")
    atomic_write([shared_file(w, 6, path)])
    assert shared_digest(path) == PRETRAIN_WEIGHTS[m]


def test_supernet_accuracy_values():
    w, ds = pretrained_supernet(1)
    x, y = ds.val_batch(256)
    rng = np.random.default_rng(16)
    cells = [sample_uniform(4, rng) for _ in range(16)]
    assert [accuracy(g, w, x, y) for g in cells] == PRETRAIN_ACCURACY
    logits = hashlib.sha256(b"".join(graph_logits(g, w, x).tobytes() for g in cells))
    assert logits.hexdigest() == PRETRAIN_LOGITS
