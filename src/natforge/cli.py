"""Command-line surface: audit, sample, cost, train, optimize, report.

Every command is reproducible from its flag set plus seed; a manifest file
written next to each artifact records both. File writes go through a
write-temp-then-rename step so readers never observe partial output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys

import click
import numpy as np

from . import gcnpolicy, trainer
from .archgraph import (
    EncodingConfig,
    cost_non_increasing,
    cost_of,
    parse_many,
    same_topology,
    sample_uniform,
    serialize_many,
    validate,
)
from .evaluator import accuracy, load_shared, make_dataset, save_shared
from .gcnpolicy import load_policy, save_policy
from .opspace import CostConfig, audit_rows, audit_violations
from .trainer import TrainConfig


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(out_path: str, command: str, flags: dict) -> str:
    """Record the flag set (seed included) and a stable hash of it."""
    canon = json.dumps(flags, sort_keys=True)
    manifest = {
        "command": command,
        "flags": flags,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
    }
    path = out_path + ".manifest.json"
    _atomic_write(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cost_config(channels: int, hw: int) -> CostConfig:
    """The square geometry of the --channels/--hw flags; bad values are usage errors."""
    try:
        return CostConfig(channels_in=channels, channels_out=channels, height=hw, width=hw)
    except ValueError as exc:
        raise click.UsageError(f"--channels {channels} --hw {hw}: {exc}") from None


_seed_option = click.option(
    "--seed", type=int, default=0, envvar="NATFORGE_SEED", show_default=True
)


@click.group()
def main() -> None:
    """Optimize cell-graph architectures under cost-non-increasing transitions."""


@main.command()
@click.option("--channels", type=int, default=128, show_default=True)
@click.option("--hw", type=int, default=32, show_default=True)
@click.option("--out", "out_path", default="audit.csv", show_default=True)
def audit(channels: int, hw: int, out_path: str) -> None:
    """Write the 13x13 transition matrix with validity and cost deltas.

    Exits nonzero if any valid, non-whitelisted transition increases cost.
    """
    cfg = _cost_config(channels, hw)
    rows = audit_rows(cfg)
    header = ["from", "to", "valid", "whitelisted", "params_delta", "madds_delta"]
    _atomic_write(out_path, _csv_text(header, [[r[h] for h in header] for r in rows]))
    _write_manifest(out_path, "audit", {"channels": channels, "hw": hw, "out": out_path})
    violations = audit_violations(cfg)
    click.echo(f"wrote {len(rows)} rows to {out_path}; {len(violations)} violations")
    if violations:
        sys.exit(1)


@main.command()
@click.option(
    "--nodes",
    type=click.IntRange(min=4),
    default=7,
    show_default=True,
    help="Total node count |V|: two inputs, at least one intermediate, one output.",
)
@click.option("--count", type=int, default=1, show_default=True)
@_seed_option
@click.option("--out", "out_path", default="graphs.txt", show_default=True)
def sample(nodes: int, count: int, seed: int, out_path: str) -> None:
    """Sample cells uniformly and write them in the text format."""
    rng = np.random.default_rng(seed)
    graphs = [sample_uniform(nodes - 3, rng) for _ in range(count)]
    _atomic_write(out_path, serialize_many(graphs))
    _write_manifest(
        out_path, "sample", {"nodes": nodes, "count": count, "seed": seed, "out": out_path}
    )
    click.echo(f"wrote {count} graphs to {out_path}")


@main.command()
@click.option("--in", "in_path", required=True)
@click.option("--channels", type=int, default=128, show_default=True)
@click.option("--hw", type=int, default=32, show_default=True)
@click.option("--out", "out_path", default="costs.csv", show_default=True)
def cost(in_path: str, channels: int, hw: int, out_path: str) -> None:
    """Write per-graph cost reports for a graph file."""
    cfg = _cost_config(channels, hw)
    with open(in_path) as fh:
        graphs = parse_many(fh.read())
    rows = []
    for i, g in enumerate(graphs):
        report = cost_of(g, cfg)
        rows.append([i, report.total_params, report.total_madds])
    _atomic_write(out_path, _csv_text(["graph", "total_params", "total_madds"], rows))
    _write_manifest(
        out_path,
        "cost",
        {"in": in_path, "channels": channels, "hw": hw, "out": out_path},
    )
    click.echo(f"wrote costs for {len(graphs)} graphs to {out_path}")


@main.command()
@click.option("--mode", type=click.Choice(["nat", "nat++"]), default="nat++", show_default=True)
@click.option(
    "--provider", type=click.Choice(["oracle", "supernet"]), default="oracle", show_default=True
)
@click.option("--lambda", "entropy_weight", type=float, default=0.003, show_default=True)
@click.option("--eta-w", type=float, default=0.05, show_default=True)
@click.option("--eta-theta", type=float, default=0.01, show_default=True)
@click.option("--epochs", type=int, default=200, show_default=True)
@click.option("--m", "m", type=int, default=1, show_default=True)
@click.option("--n", "n", type=int, default=1, show_default=True)
@_seed_option
@click.option("--out", "out_dir", default="run", show_default=True, help="Output directory.")
def train(
    mode: str,
    provider: str,
    entropy_weight: float,
    eta_w: float,
    eta_theta: float,
    epochs: int,
    m: int,
    n: int,
    seed: int,
    out_dir: str,
) -> None:
    """Run the alternating training loop; write checkpoints and the log."""
    cfg = TrainConfig(
        mode=mode,
        provider=provider,
        m=m,
        n=n,
        entropy_weight=entropy_weight,
        eta_w=eta_w,
        eta_theta=eta_theta,
        epochs=epochs,
        seed=seed,
    )
    result = trainer.run(cfg)
    os.makedirs(out_dir, exist_ok=True)
    policy_path = os.path.join(out_dir, "policy.json")
    log_path = os.path.join(out_dir, "train_log.jsonl")
    save_policy(result.policy, policy_path)
    result.log.write(log_path)
    artifacts = [policy_path, log_path]
    if result.shared is not None:
        shared_path = os.path.join(out_dir, "supernet.json")
        save_shared(result.shared, shared_path)
        artifacts.append(shared_path)
    manifest = _write_manifest(os.path.join(out_dir, "run"), "train", cfg.to_dict())
    click.echo(f"trained {mode} with {provider} provider; wrote {', '.join(artifacts)}")
    click.echo(f"manifest: {manifest}")


@main.command()
@click.option("--in", "in_path", required=True)
@click.option("--policy", "policy_path", required=True)
@click.option(
    "--decode", type=click.Choice(["sample", "argmax"]), default="argmax", show_default=True
)
@_seed_option
@click.option("--out", "out_path", default="optimized.txt", show_default=True)
def optimize(in_path: str, policy_path: str, decode: str, seed: int, out_path: str) -> None:
    """Optimize every graph in a file with a trained policy."""
    try:
        policy = load_policy(policy_path)
    except ValueError as exc:
        raise click.ClickException(f"{policy_path}: {exc}") from None
    with open(in_path) as fh:
        graphs = parse_many(fh.read())
    for i, g in enumerate(graphs):
        if g.num_intermediate > policy.i_max:
            raise click.ClickException(
                f"graph {i} has {g.num_intermediate} intermediate nodes; "
                f"the policy handles at most i_max={policy.i_max}"
            )
    rng = np.random.default_rng(seed)
    optimized = []
    for g in graphs:
        alpha = trainer.infer(policy, g, decode=decode, rng=rng)
        validate(alpha)
        if not cost_non_increasing(g, alpha):
            raise click.ClickException("optimized graph failed the cost audit")
        optimized.append(alpha)
    _atomic_write(out_path, serialize_many(optimized))
    _write_manifest(
        out_path,
        "optimize",
        {
            "in": in_path,
            "policy": policy_path,
            "decode": decode,
            "seed": seed,
            "out": out_path,
        },
    )
    click.echo(f"optimized {len(graphs)} graphs to {out_path}")


@main.command()
@click.option("--in", "in_path", required=True, help="Original graph file.")
@click.option("--optimized", "opt_path", required=True, help="Optimized graph file.")
@click.option("--supernet", "supernet_path", required=True)
@click.option("--data-seed", type=int, default=0, show_default=True)
@click.option("--channels", type=int, default=128, show_default=True)
@click.option("--hw", type=int, default=32, show_default=True)
@click.option("--out", "out_path", default="report.csv", show_default=True)
def report(
    in_path: str,
    opt_path: str,
    supernet_path: str,
    data_seed: int,
    channels: int,
    hw: int,
    out_path: str,
) -> None:
    """Join original-vs-optimized cost and reward statistics into a CSV."""
    cfg = _cost_config(channels, hw)
    with open(in_path) as fh:
        originals = parse_many(fh.read())
    with open(opt_path) as fh:
        optimized = parse_many(fh.read())
    if len(originals) != len(optimized):
        raise click.ClickException("original and optimized graph counts differ")
    try:
        shared = load_shared(supernet_path)
    except ValueError as exc:
        raise click.ClickException(f"{supernet_path}: {exc}") from None
    for i, (orig, opt) in enumerate(zip(originals, optimized)):
        if not same_topology(orig, opt):
            raise click.ClickException(
                f"optimized graph {i} does not have the topology of original graph {i}"
            )
        if orig.num_intermediate != shared.num_intermediate:
            raise click.ClickException(
                f"graph {i} has {orig.num_intermediate} intermediate nodes; "
                f"the supernet has {shared.num_intermediate}"
            )
    dataset = make_dataset(data_seed)
    x_val, y_val = dataset.val_batch()

    def stats(graphs, baselines=None):
        params = [cost_of(g, cfg).total_params for g in graphs]
        madds = [cost_of(g, cfg).total_madds for g in graphs]
        accs = [accuracy(g, shared, x_val, y_val) for g in graphs]
        if baselines is None:
            rewards = [0.0] * len(graphs)
        else:
            rewards = [a - b for a, b in zip(accs, baselines)]
        return params, madds, accs, rewards

    orig_params, orig_madds, orig_accs, orig_rewards = stats(originals)
    opt_params, opt_madds, opt_accs, opt_rewards = stats(optimized, baselines=orig_accs)

    def row(label, params, madds, accs, rewards):
        return [
            label,
            len(params),
            float(np.mean(params)),
            float(np.std(params)),
            float(np.mean(madds)),
            float(np.std(madds)),
            float(np.mean(accs)),
            float(np.std(accs)),
            float(np.mean(rewards)),
            float(np.std(rewards)),
        ]

    header = [
        "set",
        "count",
        "params_mean",
        "params_std",
        "madds_mean",
        "madds_std",
        "accuracy_mean",
        "accuracy_std",
        "reward_mean",
        "reward_std",
    ]
    rows = [
        row("original", orig_params, orig_madds, orig_accs, orig_rewards),
        row("optimized", opt_params, opt_madds, opt_accs, opt_rewards),
    ]
    _atomic_write(out_path, _csv_text(header, rows))
    _write_manifest(
        out_path,
        "report",
        {
            "in": in_path,
            "optimized": opt_path,
            "supernet": supernet_path,
            "data_seed": data_seed,
            "channels": channels,
            "hw": hw,
            "out": out_path,
        },
    )
    click.echo(f"wrote report to {out_path}")


if __name__ == "__main__":
    main()
