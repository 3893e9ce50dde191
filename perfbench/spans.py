"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each ``subweibull`` module from
outside the package: every module-level reference to a listed function (and
the listed ``RandomStream`` methods) is replaced by a wrapper that records a
span.  A span holds its name, the thread it ran on, its start and end on the
``perf_counter`` clock, its parent span, and an optional work count.

Work handed to the Monte Carlo thread pool is adopted by the span that
submitted it, so spans recorded on worker threads have the submitting span
as their parent.  Spans are kept in memory and summarized after each traced
pass; nothing is written while a pass runs.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# (span name, module, attribute); a dotted attribute names a method
ENTRY_POINTS = (
    ("streams.generator", "subweibull.streams", "RandomStream.generator"),
    ("streams.uniforms", "subweibull.streams", "RandomStream.uniforms"),
    ("dist.sample_streams", "subweibull.dist", "sample_streams"),
    ("dist.sample", "subweibull.dist", "sample"),
    ("concentration.lp_norm", "subweibull.concentration", "lp_norm"),
    ("concentration.prop13_bound", "subweibull.concentration", "prop13_bound"),
    ("concentration.thm14_bound", "subweibull.concentration", "thm14_bound"),
    ("concentration.thm14_tail_bound", "subweibull.concentration", "thm14_tail_bound"),
    ("orlicz.psi_norm_empirical", "subweibull.orlicz", "psi_norm_empirical"),
    ("orlicz.psi_norm_quadrature", "subweibull.orlicz", "psi_norm_quadrature"),
    (
        "orlicz.psi_norm_quadrature_canonical",
        "subweibull.orlicz",
        "psi_norm_quadrature_canonical",
    ),
    ("orlicz.exp_moment", "subweibull.orlicz", "exp_moment"),
    ("quadrature.improper_integral", "subweibull.quadrature", "improper_integral"),
    ("quadrature.segment_integral", "subweibull.quadrature", "segment_integral"),
    ("tau.tau_norm", "subweibull.tau", "tau_norm"),
    ("tau.tau_feasible", "subweibull.tau", "tau_feasible"),
    ("tau.convex_conjugate", "subweibull.tau", "convex_conjugate"),
    ("tau.bernstein_bound", "subweibull.tau", "bernstein_bound"),
    ("montecarlo.deviations", "subweibull.montecarlo", "deviations"),
    ("montecarlo.bootstrap_interval", "subweibull.montecarlo", "bootstrap_interval"),
    ("montecarlo.calibrate_constant", "subweibull.montecarlo", "calibrate_constant"),
    ("montecarlo.tail_exceedance", "subweibull.montecarlo", "tail_exceedance"),
    ("montecarlo.run_report", "subweibull.montecarlo", "run_report"),
    ("cli.main", "subweibull.cli", "main"),
    ("cli.dumps17", "subweibull.cli", "dumps17"),
)

# work done by one call, read from its arguments
_WORK = {
    "streams.uniforms": lambda self, count: (int(count), 0),
    "dist.sample_streams": lambda spec, seed, start, stop, count: (
        int(stop) - int(start),
        (int(stop) - int(start)) * int(count),
    ),
}

BOUND_SPANS = (
    "concentration.prop13_bound",
    "concentration.thm14_bound",
    "concentration.thm14_tail_bound",
    "tau.bernstein_bound",
)

# (span, ancestor) pairs whose nested call counts feed a ratio
_NESTED = (
    ("orlicz.exp_moment", "orlicz.psi_norm_quadrature_canonical"),
    ("tau.tau_feasible", "tau.tau_norm"),
) + tuple((name, "montecarlo.calibrate_constant") for name in BOUND_SPANS)


def verify_checks() -> list[str]:
    """Names of the ``verify.check_*`` functions, in definition order."""
    verify = importlib.import_module("subweibull.verify")
    return [name for name in vars(verify) if name.startswith("check_")]


def check_span(check: str) -> str:
    return f"verify.{check.removeprefix('check_')}"


class Span:
    __slots__ = ("name", "tid", "end_tid", "start", "end", "parent", "work")

    def __init__(self, name, tid, parent, work):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.work = work


class Tracer:
    """Installs span-recording wrappers and summarizes what they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        stack_of = self._stack
        spans = self.spans
        work_of = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(
                name,
                threading.get_ident(),
                stack[-1] if stack else None,
                work_of(*args, **kwargs) if work_of else None,
            )
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.end_tid = threading.get_ident()
                stack.pop()
                spans.append(span)

        return traced

    def _adopt(self, parent, fn, *args, **kwargs):
        """Run pool work with ``parent`` as the current span of this thread."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        return TracedPool

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point, wherever a ``subweibull`` module refers to it."""
        modules = [importlib.import_module("subweibull")] + [
            importlib.import_module(f"subweibull.{m}")
            for m in ("streams", "dist", "concentration", "orlicz", "quadrature",
                      "tau", "montecarlo", "cli", "verify")
        ]
        entries = list(ENTRY_POINTS) + [
            (check_span(c), "subweibull.verify", c) for c in verify_checks()
        ]
        for name, module_name, attr in entries:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                self._patch(getattr(owner, cls_name), method,
                            self.wrap(name, getattr(getattr(owner, cls_name), method)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        montecarlo = importlib.import_module("subweibull.montecarlo")
        self._patch(montecarlo, "ThreadPoolExecutor", self._pool_class())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()


# ---------------------------------------------------------------------------
# summaries


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of its children covers."""
    total = 0.0
    edge = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, edge)
        hi = min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            edge = hi
    return total


def _ancestors(span: Span):
    node = span.parent
    while node is not None:
        yield node
        node = node.parent


def tree_problems(spans: list[Span]) -> list[str]:
    """Spans that end on another thread or stick out of their parent."""
    recorded = {id(s) for s in spans}
    problems = []
    for s in spans:
        if s.end_tid != s.tid:
            problems.append(f"{s.name} started and ended on different threads")
        if s.end < s.start:
            problems.append(f"{s.name} ends before it starts")
        parent = s.parent
        if parent is None:
            continue
        if id(parent) not in recorded:
            problems.append(f"{s.name} has a parent {parent.name} that was never closed")
        elif s.start < parent.start or s.end > parent.end:
            problems.append(f"{s.name} is not inside its parent {parent.name}")
    return problems


def summarize(spans: list[Span]) -> dict:
    """Per-name calls, busy, self and work, plus nested call counts.

    ``calls``, ``busy`` and ``work`` count only outermost spans of a name, so
    recursion is not counted twice; ``busy`` is summed over threads.  ``self``
    is each span's duration minus the part its children cover, summed over
    every span of the name.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    stats: dict[str, dict] = {}
    nested_names = {name for name, _ in _NESTED}
    nested = dict.fromkeys(_NESTED, 0)
    for s in spans:
        entry = stats.setdefault(
            s.name, {"calls": 0, "busy": 0.0, "self": 0.0, "work": [0, 0]}
        )
        duration = s.end - s.start
        entry["self"] += duration - _covered(s, children.get(id(s), ()))
        above = {a.name for a in _ancestors(s)}
        if s.name not in above:
            entry["calls"] += 1
            entry["busy"] += duration
            if s.work is not None:
                entry["work"][0] += s.work[0]
                entry["work"][1] += s.work[1]
        if s.name in nested_names:
            for pair in _NESTED:
                if pair[0] == s.name and pair[1] in above:
                    nested[pair] += 1
    return {"layers": stats, "nested": nested}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from :func:`summarize`."""
    layers, nested = summary["layers"], summary["nested"]
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "work": [0, 0]}
    at = lambda name: layers.get(name, empty)
    m: dict[str, float] = {}

    gen, uni = at("streams.generator"), at("streams.uniforms")
    m["streams.generator.calls"] = gen["calls"]
    m["streams.generator.busy_s"] = gen["busy"]
    m["streams.uniforms.calls"] = uni["calls"]
    m["streams.uniforms.draws"] = uni["work"][0]
    m["streams.uniforms.self_s"] = uni["self"]
    m["streams.uniforms.draws_per_s"] = _ratio(uni["work"][0], uni["self"])

    rows, one = at("dist.sample_streams"), at("dist.sample")
    m["dist.sample_streams.calls"] = rows["calls"]
    m["dist.sample_streams.rows"] = rows["work"][0]
    m["dist.sample_streams.self_s"] = rows["self"]
    m["dist.sample_streams.values_per_s"] = _ratio(rows["work"][1], rows["busy"])
    m["dist.sample.calls"] = one["calls"]
    m["dist.sample.busy_s"] = one["busy"]

    lp = at("concentration.lp_norm")
    m["concentration.lp_norm.calls"] = lp["calls"]
    m["concentration.lp_norm.busy_s"] = lp["busy"]
    m["concentration.lp_norm.rows_per_s"] = _ratio(lp["calls"], lp["busy"])
    m["concentration.bound.calls"] = sum(
        at(n)["calls"] for n in BOUND_SPANS if n.startswith("concentration.")
    )

    emp, quad = at("orlicz.psi_norm_empirical"), at("orlicz.psi_norm_quadrature")
    m["orlicz.psi_norm_empirical.calls"] = emp["calls"]
    m["orlicz.psi_norm_empirical.busy_s"] = emp["busy"]
    m["orlicz.psi_norm_quadrature.calls"] = quad["calls"]
    m["orlicz.psi_norm_quadrature.busy_s"] = quad["busy"]
    m["orlicz.exp_moment.calls"] = at("orlicz.exp_moment")["calls"]
    m["orlicz.exp_moment.per_norm"] = _ratio(
        nested[("orlicz.exp_moment", "orlicz.psi_norm_quadrature_canonical")],
        at("orlicz.psi_norm_quadrature_canonical")["calls"],
    )

    integral, segment = at("quadrature.improper_integral"), at("quadrature.segment_integral")
    m["quadrature.improper_integral.calls"] = integral["calls"]
    m["quadrature.improper_integral.busy_s"] = integral["busy"]
    m["quadrature.segment_integral.calls"] = segment["calls"]
    m["quadrature.segments_per_integral"] = _ratio(segment["calls"], integral["calls"])

    norm, conj = at("tau.tau_norm"), at("tau.convex_conjugate")
    m["tau.tau_norm.calls"] = norm["calls"]
    m["tau.tau_norm.busy_s"] = norm["busy"]
    m["tau.tau_feasible.calls"] = at("tau.tau_feasible")["calls"]
    m["tau.feasible_per_norm"] = _ratio(
        nested[("tau.tau_feasible", "tau.tau_norm")], norm["calls"]
    )
    m["tau.convex_conjugate.calls"] = conj["calls"]
    m["tau.convex_conjugate.busy_s"] = conj["busy"]
    m["tau.bernstein_bound.calls"] = at("tau.bernstein_bound")["calls"]

    devs, boot = at("montecarlo.deviations"), at("montecarlo.bootstrap_interval")
    calib = at("montecarlo.calibrate_constant")
    m["montecarlo.deviations.busy_s"] = devs["busy"]
    m["montecarlo.deviations.self_s"] = devs["self"]
    m["montecarlo.bootstrap_interval.busy_s"] = boot["busy"]
    m["montecarlo.bootstrap_interval.self_s"] = boot["self"]
    m["montecarlo.calibrate_constant.calls"] = calib["calls"]
    m["montecarlo.calibrate_constant.busy_s"] = calib["busy"]
    m["montecarlo.calibrate.useful_ratio"] = _ratio(
        calib["calls"],
        sum(nested[(n, "montecarlo.calibrate_constant")] for n in BOUND_SPANS),
    )
    m["montecarlo.tail_exceedance.busy_s"] = at("montecarlo.tail_exceedance")["busy"]
    m["montecarlo.run_report.self_s"] = at("montecarlo.run_report")["self"]

    main = at("cli.main")
    m["cli.main.calls"] = main["calls"]
    m["cli.main.busy_s"] = main["busy"]
    m["cli.main.self_s"] = main["self"]
    m["cli.dumps17.busy_s"] = at("cli.dumps17")["busy"]

    for check in verify_checks():
        m[f"{check_span(check)}.busy_s"] = at(check_span(check))["busy"]
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def top_self_times(summary: dict, count: int = 5) -> list[tuple[str, float]]:
    """Span names with the largest self time, largest first."""
    ranked = sorted(
        ((name, entry["self"]) for name, entry in summary["layers"].items()),
        key=lambda item: -item[1],
    )
    return ranked[:count]
