#!/usr/bin/env python3
"""natforge benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oracle-train --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; the benchmark lives
outside the package and changes none of its code. Every workload repeats one
seeded rep (a training run, a pretraining loop, or one ``natforge optimize``
call) until ``--seconds`` have passed, checks each rep's output, and reports
medians.

Workloads (why each exists, and what it bypasses):

* ``oracle-train``: the default ``trainer.run`` (nat++, planted oracle, 2,000
  policy steps). Policy write path: forward, sampling, ``policy_gradient``,
  mask rebuilds. The evaluator is about 1% of it.
* ``supernet-train``: criterion 7's recipe (supernet provider, n=8, moving
  baseline, lambda=0.1) for 10 epochs. Evaluator read path:
  ``SupernetProvider.reward`` and ``policy_gradient``.
* ``supernet-pretrain``: criterion 7's reference loop, ``init_shared`` then
  1,000 ``supernet_train_step`` calls on uniform cells and batches drawn
  during set-up (batch 64, lr 0.05).
  Evaluator write path (forward, backward, SGD); no ``gcnpolicy`` calls.
* ``optimize-cells``: ``natforge optimize --decode sample`` run in-process
  on 2,000 seeded cells with 1-4 intermediates; the checkpoint is trained
  during set-up. Policy read path plus ``cli`` and ``archgraph`` parsing,
  serialization and the cost audit; no gradients, no evaluator.

End-to-end metrics (``--trace 0``), all from untraced reps. Every time the
benchmark reports is calibrated to a reference machine speed, because the
shared host's speed drifts by up to 2x within minutes (see
``calibrate.py``); the raw medians are printed and kept in the result file.

* ``setup_s``: median over several fresh interpreters of importing natforge,
  building the workload's inputs and running a small warm-up.
* ``wall_s``: median wall time of one rep; the sample count is printed.
* ``units_per_s``: the workload's unit per second at the median rep. The
  unit is policy steps (``policy_steps_per_s``) on the two training
  workloads, supernet steps (``supernet_steps_per_s``) on
  ``supernet-pretrain`` and cells (``cells_per_s``) on ``optimize-cells``.
* ``peak_rss_mb``: peak resident set of the benchmark process.

``fail_rate`` (failed over attempted units) is printed and carried by the
``attempted`` and ``failed`` fields of the result; it is not a metric because
it is 0 when the program is correct. A unit is one rep on the training
workloads and one cell on ``optimize-cells``.

With ``--trace 1`` every second rep runs with span wrappers installed on
the public functions of the seven modules (see ``tracer.py``); per-layer
metrics are per rep, averaged over the traced reps, and ``trace.overhead_pct``
compares traced with untraced reps of the same run. A per-operation supernet
microbenchmark (``opbench.py``) runs after the traced reps.

Deliberate exclusions: the tier-1 test suite's wall time is not measured
(it is a test run, not a user workload, and includes a known-red
criterion), and timings are medians and quartiles, never best-of-N.

BLAS and OpenMP threads are pinned to 1 before numpy is imported. Outputs
go to ``.perfbench_out/`` in the checkout: one result file with provenance
per run and, for traced runs, the spans of the first traced rep.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
INHERITED_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from tracer import Tracer, per_layer_metrics, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
MIN_REPS = 3
PROBE_TIMEOUT_S = 120
TIME_UNITS = ("s", "ms", "us")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser, parser.parse_args(argv)


def import_program() -> dict:
    """Import the seven natforge modules from the checkout's source tree."""
    package = SRC / "natforge"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no natforge sources at {package}")
    sys.path.insert(0, str(SRC))
    from natforge import archgraph, cli, evaluator, gcnpolicy, numkernel, opspace, trainer

    modules = {
        "opspace": opspace,
        "numkernel": numkernel,
        "archgraph": archgraph,
        "gcnpolicy": gcnpolicy,
        "evaluator": evaluator,
        "trainer": trainer,
        "cli": cli,
    }
    for module in modules.values():
        if Path(module.__file__).resolve().parent != package.resolve():
            raise SystemExit(f"perfbench: {module.__name__} imported from outside {package}")
    return modules


def setup_probe(workload_cls, seed: int) -> None:
    """Child-process body of one ``setup_s`` sample."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    try:
        workload = workload_cls(seed, workdir)
        workload.prepare()
        workload.warmup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setup_probe(workload: str, seed: int) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    start = perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=PROBE_TIMEOUT_S,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return elapsed


def measure(workload, seconds: float, tracer, calibrator) -> dict:
    """Repeat the workload's rep for ``seconds``; with a tracer, trace every second rep.

    A calibration sample follows every rep.
    """
    walls, traced_walls, summaries = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    first_spans = None
    units_per_rep = 0
    deadline = perf_counter() + seconds
    rep = 0
    while True:
        traced = tracer is not None and rep % 2 == 1
        if traced:
            tracer.install()
        try:
            start = perf_counter()
            units_per_rep, output = workload.rep()
            wall = perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        calibrator.sample()
        if traced:
            traced_walls.append(wall)
            spans = tracer.take()
            first_spans = first_spans or spans
            summaries.append(summarize(spans))
        else:
            walls.append(wall)
        a, f, p = workload.check(output)
        attempted, failed = attempted + a, failed + f
        problems += [f"rep {rep}: {msg}" for msg in p]
        rep += 1
        enough = len(walls) >= MIN_REPS and (tracer is None or len(traced_walls) >= MIN_REPS)
        if enough and perf_counter() >= deadline:
            break
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "summaries": summaries,
        "first_spans": first_spans,
        "units_per_rep": units_per_rep,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "workload_seed": seed,
    }


def end_to_end_metrics(setup_times: list, run: dict, scale: float) -> dict:
    wall = statistics.median(run["walls"]) * scale
    return {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "wall_s": (wall, "s"),
        "units_per_s": (run["units_per_rep"] / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: dict, seed: int, scale: float) -> dict:
    """Per-layer metrics of a traced run; every time is calibrated with ``scale``."""
    from opbench import per_op_metrics

    metrics = per_layer_metrics(run["summaries"], run["units_per_rep"])
    metrics.update(per_op_metrics(seed))
    metrics = {
        name: (value * scale if unit in TIME_UNITS else value, unit)
        for name, (value, unit) in metrics.items()
    }
    overhead = statistics.median(run["traced_walls"]) / statistics.median(run["walls"]) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return metrics


def report(args, workload, setup_times, run, calibrator, e2e, layer) -> dict:
    """Print the human-readable summary and write the result file; return the result line."""
    attempted, failed = run["attempted"], run["failed"]
    scale = calibrator.scale()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"(times calibrated x{scale:.4f}; raw wall_s {statistics.median(run['walls']):.4f})")
    print(f"  {'setup_s':<24}{e2e['setup_s'][0]:12.4f} s     (median of {len(setup_times)} set-ups)")
    print(f"  {'wall_s':<24}{e2e['wall_s'][0]:12.4f} s     (median of {len(run['walls'])} untraced reps)")
    print(f"  {workload.unit + '_per_s':<24}{e2e['units_per_s'][0]:12.2f} 1/s   "
          f"({run['units_per_rep']} {workload.unit} per rep; reported as units_per_s)")
    print(f"  {'peak_rss_mb':<24}{e2e['peak_rss_mb'][0]:12.1f} MB")
    print(f"  {'fail_rate':<24}{failed / attempted:12.4f}       ({failed} of {attempted} units failed)")
    for problem in run["problems"][:20]:
        print(f"  problem: {problem}")
    for name, (value, unit) in layer.items():
        print(f"  {name:<44}{value:16.6f} {unit}")
    prov = provenance(args.seed)
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "samples": {
            "setup_s": setup_times,
            "wall_s": run["walls"],
            "traced_wall_s": run["traced_walls"],
            "reference_s": calibrator.samples,
        },
        "calibration_scale": scale,
        "attempted": attempted,
        "failed": failed,
        "problems": run["problems"],
    }, indent=1, sort_keys=True) + "\n")
    if run["first_spans"] is not None:
        (OUT_DIR / f"spans-{tag}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": run["first_spans"]})
        )
    metrics = layer if args.trace else e2e
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    modules = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload_cls, args.seed)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        with Calibrator() as calibrator:
            calibrator.sample()
            setup_times = []
            for _ in range(SETUP_PROBES):
                setup_times.append(time_setup_probe(args.workload, args.seed))
                calibrator.sample()
            workload = workload_cls(args.seed, workdir)
            workload.prepare()
            workload.warmup()
            run = measure(
                workload, args.seconds, Tracer(modules) if args.trace else None, calibrator
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scale = calibrator.scale()
    e2e = end_to_end_metrics(setup_times, run, scale)
    layer = per_layer(run, args.seed, scale) if args.trace else {}
    result = report(args, workload, setup_times, run, calibrator, e2e, layer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
