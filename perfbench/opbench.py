"""Per-operation supernet microbenchmark.

Times the public ``accuracy`` call (batch 256) and ``supernet_train_step``
(batch 64) on single-op cells: one seeded 4-intermediate topology with all
eight edges set to the same operation, for each of the 13 operations.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from time import perf_counter

import numpy as np

from natforge import archgraph, evaluator
from natforge.opspace import OPERATIONS

REPS = 15
FWD_BATCH = 256
STEP_BATCH = 64
LR = 0.05


def _median_us(call) -> float:
    call()  # fills lazy caches such as the pooling windows
    times = []
    for _ in range(REPS):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e6


def per_op_metrics(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dataset = evaluator.make_dataset(seed)
    w = evaluator.init_shared(rng, 4)
    x_val, y_val = dataset.val_batch(FWD_BATCH)
    x, y = dataset.train_batch(rng, STEP_BATCH)
    topology = archgraph.sample_uniform(4, rng)
    out = {}
    for op in OPERATIONS:
        cell = archgraph.make_cell(
            topology.num_nodes, tuple(replace(e, op=op) for e in topology.edges)
        )
        out[f"evaluator.fwd_us.{op.value}"] = (
            _median_us(lambda: evaluator.accuracy(cell, w, x_val, y_val)),
            "us",
        )
        out[f"evaluator.step_us.{op.value}"] = (
            _median_us(lambda: evaluator.supernet_train_step(w, [cell], x, y, LR)),
            "us",
        )
    return out
