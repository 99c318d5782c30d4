"""The benchmark's workloads: seeded inputs, one timed rep, and its correctness checks.

Every rep of a workload repeats the same seeded work, so its artifacts must be
byte-identical from rep to rep (and between traced and untraced reps). The
program is always called through module attributes, so that the tracer's
wrappers see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

from natforge import archgraph, cli, evaluator, gcnpolicy, trainer
from natforge.trainer import TrainConfig

#: Criterion 7's supernet recipe; ``epochs`` sets the length of one rep.
SUPERNET_RECIPE = dict(
    mode="nat++", provider="supernet", n=8, use_baseline=True, entropy_weight=0.1
)
SUPERNET_EPOCHS = 10
PRETRAIN_STEPS = 1000
PRETRAIN_BATCH = 64
PRETRAIN_LR = 0.05
OPTIMIZE_CELLS = 2000
CHECKPOINT_EPOCHS = 20
NUM_CLASSES = 8


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _policy_bytes(policy) -> bytes:
    return b"".join(w.tobytes() for w in policy.gcn) + policy.fc.tobytes()


def _finite_log(log) -> bool:
    values = [r["loss"] for r in log.records]
    values += [r["mean_reward"] for r in log.records if r["phase"] == "theta"]
    return all(math.isfinite(v) for v in values)


class Workload:
    """One workload; ``rep`` is timed, everything else is not."""

    name = ""
    #: What ``units_per_s`` counts on this workload.
    unit = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.reference: str | None = None

    def prepare(self) -> None:
        """Build the seeded inputs."""

    def warmup(self) -> None:
        """Run a small piece of the rep so lazy caches are filled before timing."""

    def rep(self):
        """The timed work; returns ``(units, output)``."""
        raise NotImplementedError

    def check(self, output) -> tuple[int, int, list[str]]:
        """Return ``(attempted, failed, problems)`` for one rep's output."""
        raise NotImplementedError

    def _same_as_first(self, digest: str) -> bool:
        """Artifacts of every rep must match the first rep byte for byte."""
        if self.reference is None:
            self.reference = digest
        return digest == self.reference


class OracleTrain(Workload):
    """The default ``trainer.run``: nat++ with the planted oracle, 2,000 policy steps."""

    name = "oracle-train"
    unit = "policy_steps"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cfg = TrainConfig(seed=seed)
        self.match: float | None = None

    def warmup(self) -> None:
        trainer.run(TrainConfig(seed=self.seed, epochs=2))

    def rep(self):
        result = trainer.run(self.cfg)
        return self.cfg.epochs * self.cfg.iters_theta, result

    def check(self, result):
        problems = []
        if not _finite_log(result.log):
            problems.append("non-finite reward or loss")
        digest = _digest(result.log.to_jsonl().encode(), _policy_bytes(result.policy))
        if not self._same_as_first(digest):
            problems.append("train_log or policy bytes differ from the first rep")
        if self.match is None:
            rng = np.random.default_rng(10_000 + self.seed)
            self.match = trainer.edge_match_rate(result.policy, result.oracle, rng)
        floor = 2.0 * trainer.random_policy_match_rate()
        if not self.match >= floor:
            problems.append(f"edge match {self.match:.3f} below twice random ({floor:.3f})")
        return 1, int(bool(problems)), problems


class SupernetTrain(Workload):
    """Criterion 7's recipe with the supernet provider, shortened to a few epochs."""

    name = "supernet-train"
    unit = "policy_steps"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cfg = TrainConfig(seed=seed, epochs=SUPERNET_EPOCHS, **SUPERNET_RECIPE)

    def warmup(self) -> None:
        trainer.run(TrainConfig(seed=self.seed, epochs=1, **SUPERNET_RECIPE))

    def rep(self):
        result = trainer.run(self.cfg)
        return self.cfg.epochs * self.cfg.iters_theta, result

    def check(self, result):
        problems = []
        if not _finite_log(result.log):
            problems.append("non-finite reward or loss")
        digest = _digest(result.log.to_jsonl().encode(), _policy_bytes(result.policy))
        if not self._same_as_first(digest):
            problems.append("train_log or policy bytes differ from the first rep")
        return 1, int(bool(problems)), problems


class SupernetPretrain(Workload):
    """Criterion 7's reference loop: ``init_shared``, then SGD on pre-sampled uniform cells."""

    name = "supernet-pretrain"
    unit = "supernet_steps"

    def prepare(self) -> None:
        self.dataset = evaluator.make_dataset(self.seed)
        rng = np.random.default_rng(self.seed + 1)
        self.cells = [archgraph.sample_uniform(4, rng) for _ in range(PRETRAIN_STEPS)]
        self.batches = [
            self.dataset.train_batch(rng, PRETRAIN_BATCH) for _ in range(PRETRAIN_STEPS)
        ]
        self.val_cells = [archgraph.sample_uniform(4, rng) for _ in range(16)]

    def _train(self, steps: int):
        w = evaluator.init_shared(np.random.default_rng(self.seed), 4)
        losses = [
            evaluator.supernet_train_step(w, [cell], x, y, PRETRAIN_LR)
            for cell, (x, y) in zip(self.cells[:steps], self.batches[:steps])
        ]
        return w, losses

    def warmup(self) -> None:
        self._train(20)

    def rep(self):
        return PRETRAIN_STEPS, self._train(PRETRAIN_STEPS)

    def check(self, output):
        w, losses = output
        problems = []
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite loss")
        arrays = [w.head_w, w.head_b] + [
            w.bank[key][name] for key in sorted(w.bank, key=lambda k: (k[0], k[1].index))
            for name in sorted(w.bank[key])
        ]
        if not self._same_as_first(_digest(*(a.tobytes() for a in arrays))):
            problems.append("supernet weights differ from the first rep")
        x_val, y_val = self.dataset.val_batch(256)
        acc = float(np.mean([evaluator.accuracy(g, w, x_val, y_val) for g in self.val_cells]))
        if not acc >= 2.0 / NUM_CLASSES:
            problems.append(f"validation accuracy {acc:.3f} not above twice chance")
        return 1, int(bool(problems)), problems


class OptimizeCells(Workload):
    """``natforge optimize --decode sample`` over a file of seeded 1-4 intermediate cells."""

    name = "optimize-cells"
    unit = "cells"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cells = [
            archgraph.sample_uniform(int(rng.integers(1, 5)), rng)
            for _ in range(OPTIMIZE_CELLS)
        ]
        self.cells_path = os.path.join(self.workdir, "cells.txt")
        with open(self.cells_path, "w") as fh:
            fh.write(archgraph.serialize_many(self.cells))
        self.policy_path = os.path.join(self.workdir, "policy.json")
        result = trainer.run(TrainConfig(seed=self.seed, epochs=CHECKPOINT_EPOCHS))
        gcnpolicy.save_policy(result.policy, self.policy_path)
        self.out_path = os.path.join(self.workdir, "optimized.txt")
        self.args = [
            "optimize",
            "--in", self.cells_path,
            "--policy", self.policy_path,
            "--decode", "sample",
            "--seed", str(self.seed),
            "--out", self.out_path,
        ]

    def warmup(self) -> None:
        policy = gcnpolicy.load_policy(self.policy_path)
        rng = np.random.default_rng(self.seed)
        for beta in self.cells[:20]:
            trainer.infer(policy, beta, decode="sample", rng=rng)

    def rep(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.args, standalone_mode=False)
        with open(self.out_path, "rb") as fh:
            return len(self.cells), fh.read()

    def check(self, text: bytes):
        if not self._same_as_first(_digest(text)):
            return len(self.cells), len(self.cells), ["optimized file differs from the first rep"]
        try:
            optimized = archgraph.parse_many(text.decode())
        except ValueError as exc:
            return len(self.cells), len(self.cells), [f"unparseable output: {exc}"]
        if len(optimized) != len(self.cells):
            return len(self.cells), len(self.cells), ["cell count changed"]
        failed = 0
        for beta, alpha in zip(self.cells, optimized):
            same_topology = beta.num_nodes == alpha.num_nodes and all(
                (a.target_node, a.slot, a.source_node) == (b.target_node, b.slot, b.source_node)
                for a, b in zip(alpha.edges, beta.edges)
            )
            try:
                archgraph.validate(alpha)
                ok = same_topology and archgraph.cost_non_increasing(beta, alpha)
            except ValueError:
                ok = False
            failed += not ok
        problems = [f"{failed} cells failed validate/topology/cost audit"] if failed else []
        return len(self.cells), failed, problems


WORKLOADS = {w.name: w for w in (OracleTrain, SupernetTrain, SupernetPretrain, OptimizeCells)}
