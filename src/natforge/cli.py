"""Command-line surface: audit, sample, cost, train, optimize, report.

Every command is reproducible from its flag set plus seed; a manifest file
written next to each artifact records both. Every command writes its
artifacts and manifest with one ``numkernel.atomic_write`` call, so none of
them changes unless all were written to their temp files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import sys

import click
import numpy as np

from . import trainer
from .archgraph import (
    I_MAX,
    _parse,
    _serialize,
    cost_of,
    parse_many,
    same_topology,
    sample_uniform,
    serialize_many,
)
from .evaluator import SupernetProvider, load_shared, make_dataset, shared_file
from .gcnpolicy import load_policy, policy_file
from .numkernel import atomic_write
from .opspace import CostConfig, audit_rows, audit_violations, non_increasing_table
from .trainer import TrainConfig


def _flags() -> dict:
    """The running command's flags, keyed by long option name (``--in``: ``in``)."""
    ctx = click.get_current_context()
    return {p.opts[0][2:]: ctx.params[p.name] for p in ctx.command.params}


def _manifest_file(out_path: str, flags: dict) -> tuple[str, str]:
    """The ``(path, text)`` of a manifest: the running command, its flag set (seed
    included) and a stable hash of it."""
    canon = json.dumps(flags, sort_keys=True)
    manifest = {
        "command": click.get_current_context().command.name,
        "flags": flags,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
    }
    return out_path + ".manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def _write_output(out_path: str, text: str) -> None:
    """Write a command's output and its manifest as one ``atomic_write`` unit."""
    atomic_write([(out_path, text), _manifest_file(out_path, _flags())])


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


def _read(path: str, load, *args):
    """``load(path, *args)``; a malformed file is an error naming it, not a traceback."""
    try:
        return load(path, *args)
    except ValueError as exc:
        raise click.ClickException(f"{path}: {exc}") from None


def _cells(path: str, parse=parse_many):
    """The cells of a file, read by ``parse``."""
    with open(path) as fh:
        return parse(fh.read())


#: An input file that must exist: a missing path is a usage error, not a traceback.
_INPUT_FILE = click.Path(exists=True, dir_okay=False)

_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, envvar="NATFORGE_SEED")


def _geometry_options(command):
    """The --channels/--hw flags of the square geometry that costs are taken at."""
    command = click.option("--hw", type=int, default=32)(command)
    return click.option("--channels", type=int, default=128)(command)


class _Commands(click.Group):
    """The command group: a file that cannot be read or written is an error line naming it."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except OSError as exc:
            raise click.ClickException(f"{exc.filename}: {exc.strerror}") from None


@click.group(cls=_Commands, context_settings={"show_default": True})
def main() -> None:
    """Optimize cell-graph architectures under cost-non-increasing transitions."""


@main.command()
@_geometry_options
@click.option("--out", "out_path", default="audit.csv")
def audit(channels: int, hw: int, out_path: str) -> None:
    """Write the 13x13 transition matrix with validity and cost deltas.

    Exits nonzero if any valid, non-whitelisted transition increases cost.
    """
    cfg = _cost_config(channels, hw)
    rows = audit_rows(cfg)
    header = ["from", "to", "valid", "whitelisted", "params_delta", "madds_delta"]
    _write_output(out_path, _csv_text(header, [[r[h] for h in header] for r in rows]))
    violations = audit_violations(cfg)
    click.echo(f"wrote {len(rows)} rows to {out_path}; {len(violations)} violations")
    if violations:
        sys.exit(1)


@main.command()
@click.option(
    "--nodes",
    type=click.IntRange(min=4),
    default=7,
    help="Total node count |V|: two inputs, at least one intermediate, one output.",
)
@click.option("--count", type=click.IntRange(min=1), default=1)
@_seed_option
@click.option("--out", "out_path", default="graphs.txt")
def sample(nodes: int, count: int, seed: int, out_path: str) -> None:
    """Sample cells uniformly and write them in the text format."""
    rng = np.random.default_rng(seed)
    graphs = [sample_uniform(nodes - 3, rng) for _ in range(count)]
    _write_output(out_path, serialize_many(graphs))
    click.echo(f"wrote {count} graphs to {out_path}")


@main.command()
@click.option("--in", "in_path", type=_INPUT_FILE, required=True)
@_geometry_options
@click.option("--out", "out_path", default="costs.csv")
def cost(in_path: str, channels: int, hw: int, out_path: str) -> None:
    """Write per-graph cost reports for a graph file."""
    cfg = _cost_config(channels, hw)
    graphs = _read(in_path, _cells)
    rows = []
    for i, g in enumerate(graphs):
        report = cost_of(g, cfg)
        rows.append([i, report.total_params, report.total_madds])
    _write_output(out_path, _csv_text(["graph", "total_params", "total_madds"], rows))
    click.echo(f"wrote costs for {len(graphs)} graphs to {out_path}")


@main.command()
@click.option("--mode", type=click.Choice(["nat", "nat++"]), default=TrainConfig.mode)
@click.option("--provider", type=click.Choice(["oracle", "supernet"]), default=TrainConfig.provider)
@click.option("--lambda", "entropy_weight", type=float, default=TrainConfig.entropy_weight)
@click.option("--eta-w", type=float, default=TrainConfig.eta_w)
@click.option("--eta-theta", type=float, default=TrainConfig.eta_theta)
@click.option("--epochs", type=int, default=TrainConfig.epochs)
@click.option("--m", "m", type=int, default=TrainConfig.m)
@click.option("--n", "n", type=int, default=TrainConfig.n)
@click.option("--depth", type=int, default=TrainConfig.depth, help="Graph-convolution layers.")
@click.option(
    "--baseline/--no-baseline",
    "use_baseline",
    default=TrainConfig.use_baseline,
    help="Subtract a moving-average reward baseline.",
)
@_seed_option
@click.option("--out", "out_dir", default="run", help="Output directory.")
def train(
    mode: str,
    provider: str,
    entropy_weight: float,
    eta_w: float,
    eta_theta: float,
    epochs: int,
    m: int,
    n: int,
    depth: int,
    use_baseline: bool,
    seed: int,
    out_dir: str,
) -> None:
    """Run the alternating training loop; write checkpoints and the log."""
    flags = dict(
        mode=mode,
        provider=provider,
        m=m,
        n=n,
        entropy_weight=entropy_weight,
        eta_w=eta_w,
        eta_theta=eta_theta,
        epochs=epochs,
        seed=seed,
        depth=depth,
        use_baseline=use_baseline,
    )
    # Each flag is checked on its own, so a rejected value is a usage error naming its flag.
    options = {p.name: p.opts[0] for p in click.get_current_context().command.params}
    for name, value in flags.items():
        try:
            TrainConfig(**{name: value})
        except ValueError as exc:
            raise click.UsageError(f"{options[name]} {value}: {exc}") from None
    cfg = TrainConfig(**flags)
    try:
        with np.errstate(all="ignore"):  # a non-finite loss, policy output or weight raises
            result = trainer.run(cfg)
    except FloatingPointError as exc:
        raise click.ClickException(f"training diverged: {exc}; nothing was written") from None
    os.makedirs(out_dir, exist_ok=True)
    files = [
        policy_file(result.policy, os.path.join(out_dir, "policy.json")),
        (os.path.join(out_dir, "train_log.jsonl"), result.log.to_jsonl()),
    ]
    if result.shared is not None:
        files.append(shared_file(result.shared, cfg.seed, os.path.join(out_dir, "supernet.json")))
    manifest = _manifest_file(os.path.join(out_dir, "run"), dataclasses.asdict(cfg))
    atomic_write([*files, manifest])
    artifacts = ", ".join(path for path, _ in files)
    click.echo(f"trained {mode} with {provider} provider; wrote {artifacts}")
    click.echo(f"manifest: {manifest[0]}")


@main.command()
@click.option("--in", "in_path", type=_INPUT_FILE, required=True)
@click.option("--policy", "policy_path", type=_INPUT_FILE, required=True)
@click.option("--decode", type=click.Choice(["sample", "argmax"]), default="argmax")
@_seed_option
@click.option("--out", "out_path", default="optimized.txt")
def optimize(in_path: str, policy_path: str, decode: str, seed: int, out_path: str) -> None:
    """Optimize every graph in a file with a trained policy."""
    policy = _read(policy_path, load_policy)
    # The file stays in its flat form (nodes, bounds, sources, ops) from read to write.
    flat = nodes, bounds, sources, ops = _read(in_path, _cells, _parse)
    too_big = np.flatnonzero(nodes - 3 > I_MAX)
    if len(too_big):
        i = int(too_big[0])
        raise click.ClickException(
            f"graph {i} has {nodes[i] - 3} intermediate nodes; "
            f"the policy handles at most i_max={I_MAX}"
        )
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(all="ignore"):  # a non-finite policy output raises
            new = trainer._infer_ops(policy, flat, decode, rng)
    except FloatingPointError as exc:
        raise click.ClickException(f"{policy_path}: {exc}; nothing was written") from None
    # Each rewrite keeps its input's sources, so the audit compares operations only.
    if not non_increasing_table(CostConfig())[ops, new].all():
        raise click.ClickException("optimized graph failed the cost audit")
    _write_output(out_path, _serialize(nodes, bounds, sources, new))
    click.echo(f"optimized {len(nodes)} graphs to {out_path}")


@main.command()
@click.option("--in", "in_path", type=_INPUT_FILE, required=True, help="Original graph file.")
@click.option(
    "--optimized", "opt_path", type=_INPUT_FILE, required=True, help="Optimized graph file."
)
@click.option("--supernet", "supernet_path", type=_INPUT_FILE, required=True)
@_geometry_options
@click.option("--out", "out_path", default="report.csv")
def report(
    in_path: str,
    opt_path: str,
    supernet_path: str,
    channels: int,
    hw: int,
    out_path: str,
) -> None:
    """Join original-vs-optimized cost and reward statistics into a CSV."""
    cfg = _cost_config(channels, hw)
    originals = _read(in_path, _cells)
    optimized = _read(opt_path, _cells)
    for flag, path, graphs in (("--in", in_path, originals), ("--optimized", opt_path, optimized)):
        if not graphs:
            raise click.UsageError(f"{flag} {path}: contains no cells")
    if len(originals) != len(optimized):
        raise click.ClickException("original and optimized graph counts differ")
    shared, data_seed = _read(supernet_path, load_shared)
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
    # The cells are measured on the data the supernet was trained on. Input-fed
    # edge outputs do not depend on topology: one provider scores both files.
    provider = SupernetProvider(shared, *make_dataset(data_seed).val_batch())

    def columns(graphs, baselines=None):
        """A set's per-graph params, madds, accuracy and reward (accuracy over the baseline)."""
        costs = [cost_of(g, cfg) for g in graphs]
        accs = provider.score_many(graphs)
        if baselines is None:
            rewards = [0.0] * len(graphs)
        else:
            rewards = [a - b for a, b in zip(accs, baselines)]
        return [c.total_params for c in costs], [c.total_madds for c in costs], accs, rewards

    original = columns(originals)
    sets = {"original": original, "optimized": columns(optimized, baselines=original[2])}
    names = ("params", "madds", "accuracy", "reward")
    header = ["set", "count"] + [f"{name}_{stat}" for name in names for stat in ("mean", "std")]
    rows = [
        [label, len(cols[0])]
        + [stat for col in cols for stat in (float(np.mean(col)), float(np.std(col)))]
        for label, cols in sets.items()
    ]
    _write_output(out_path, _csv_text(header, rows))
    click.echo(f"wrote report to {out_path}")


if __name__ == "__main__":
    main()
