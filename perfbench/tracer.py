"""Span tracing of natforge's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every place its name is
looked up: every natforge module attribute bound to the same function object
(``natforge.trainer.encode`` and ``natforge.archgraph.encode`` alike), a class
attribute for provider methods, and a click command's callback. Spans
``(name, start, end, parent)`` are kept in memory; ``parent`` is the index of
the enclosing traced span, or -1.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Traced layer functions, by module. Dotted names are class attributes.
TRACED = {
    "opspace": ("transition_mask",),
    "numkernel": ("bmsoftmax", "cross_entropy_logits"),
    "archgraph": (
        "sample_uniform",
        "encode",
        "apply_transitions",
        "cost_non_increasing",
        "validate",
        "parse_many",
        "serialize_many",
    ),
    "gcnpolicy": (
        "forward",
        "sample_actions",
        "policy_gradient",
        "ascend_",
        "total_entropy",
        "load_policy",
    ),
    "evaluator": (
        "OracleProvider.reward",
        "SupernetProvider.reward",
        "accuracy",
        "supernet_train_step",
    ),
    "trainer": ("run", "infer"),
    "cli": ("optimize",),
}

MODULES = tuple(TRACED)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Installs span-recording wrappers and collects spans until ``take``."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, fns in TRACED.items():
            home = self._modules[mod_name]
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(span, cls.__dict__[meth]))
                    continue
                target = getattr(home, fn_name)
                if hasattr(target, "callback"):  # a click command
                    self._patch(target, "callback", self._wrap(span, target.callback))
                    continue
                wrapper = self._wrap(span, target)
                for module in self._modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is target:
                            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _module(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list) -> dict:
    """Per-function calls and busy time, per-module busy and self time, step gaps.

    A module's busy time counts only its outermost spans, so nested calls
    within one module are not counted twice. A span's self time is its
    duration minus the durations of its direct children.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    module_busy = dict.fromkeys(MODULES, 0.0)
    module_self = dict.fromkeys(MODULES, 0.0)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ascend_ends = []
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        mod = _module(name)
        calls[name] += 1
        busy[name] += dur
        module_self[mod] += dur - child_time[idx]
        outermost = True
        while parent >= 0:
            if _module(spans[parent][0]) == mod:
                outermost = False
                break
            parent = spans[parent][3]
        if outermost:
            module_busy[mod] += dur
        if name == "gcnpolicy.ascend_":
            ascend_ends.append(end)
    run_starts = [s[1] for s in spans if s[0] == "trainer.run"]
    step_gaps = []
    if ascend_ends and run_starts:
        # The first step of a run is timed from the start of that run.
        prev = run_starts[0]
        step_gaps = [b - a for a, b in zip([prev] + ascend_ends[:-1], ascend_ends)]
    return {
        "calls": calls,
        "busy": busy,
        "module_busy": module_busy,
        "module_self": module_self,
        "step_gaps": step_gaps,
    }


def per_layer_metrics(summaries: list[dict], units_per_rep: float) -> dict:
    """Average the traced reps' summaries into named per-layer metrics."""
    reps = len(summaries)
    out = {}

    def mean(get) -> float:
        return sum(get(s) for s in summaries) / reps

    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (mean(lambda s: s["calls"][name]), "count")
        out[f"{name}.busy_s"] = (mean(lambda s: s["busy"][name]), "s")
    for mod in MODULES:
        out[f"{mod}.busy_s"] = (mean(lambda s: s["module_busy"][mod]), "s")

    def ratio(num: str, den: str) -> float:
        den_calls = out[f"{den}.calls"][0]
        return out[f"{num}.calls"][0] / den_calls if den_calls else 0.0

    out["opspace.masks_per_policy_step"] = (
        ratio("opspace.transition_mask", "gcnpolicy.ascend_"),
        "ratio",
    )
    out["archgraph.validate_per_unit"] = (
        out["archgraph.validate.calls"][0] / units_per_rep,
        "ratio",
    )
    out["evaluator.accuracy_per_reward"] = (
        ratio("evaluator.accuracy", "evaluator.SupernetProvider.reward"),
        "ratio",
    )
    out["trainer.self_s"] = (mean(lambda s: s["module_self"]["trainer"]), "s")
    out["cli.self_s"] = (mean(lambda s: s["module_self"]["cli"]), "s")
    gaps = [g for s in summaries for g in s["step_gaps"]]
    if gaps:
        q = statistics.quantiles(gaps, n=100, method="inclusive")
        p50, p99 = statistics.median(gaps) * 1e3, q[98] * 1e3
    else:
        p50 = p99 = 0.0
    out["trainer.policy_step_ms.p50"] = (p50, "ms")
    out["trainer.policy_step_ms.p99"] = (p99, "ms")
    return out
