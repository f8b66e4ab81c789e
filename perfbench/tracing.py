"""Span tracer for the benchmark's traced run.

The tracer wraps specexp's public functions where callers look them up: the
attribute of the defining module, every ``from ... import`` alias another
specexp module holds (found by identity, e.g. ``pscc.string_poles`` and
``expansion.to_a_form``), and class attributes for methods.  Calls inside a
module, such as ``eval_numeric`` calling ``to_a_form``, look the function up
on the module and so reach the wrapper too.  Nothing under ``src/`` changes.

Each wrapped call records a span ``(id, name, start, end, parent, op)``; ``op``
is the index of the timed operation the call belongs to, or -1 for set-up.
Spans stay in memory and are written out once, when the run ends.  Self time
is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# name -> attribute path under ``specexp``; the name's first part is the layer
TARGETS = (
    "symcore.to_a_form",
    "symcore.AFormPoly.eval",
    "bell.faa_di_bruno",
    "bell.bell_polynomial",
    "bridge.monomial_simplex_integral",
    "bridge.shuffle_multi",
    "bridge.moment_product",
    "bridge.mc_estimate",
    "expansion.crm_direct",
    "expansion.integrate_bridge",
    "expansion.a2M",
    "expansion.heat_trace_series",
    "zeta.riemann_zeta",
    "zeta.zeta_derivative",
    "zeta.dirac_zeta_s4",
    "zeta.string_poles",
    "zeta.zero_ordinates",
    "zeta.TruncatedString.zeta",
    "zeta.ford_prefix_string",
    "specfun.gamma_complex",
    "specfun.kummer_1f1",
    "specfun.verify_dawson_simplex",
    "specfun.verify_mellin_pm",
    "pscc.spectral_action",
    "pscc.round_heat_expansion",
    "cli.main",
)

LAYERS = ("symcore", "bell", "bridge", "expansion", "zeta", "pscc", "specfun", "cli")


class Tracer:
    """Collects spans and domain counts while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count_hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op))
            if count_hook is not None and tracer.op >= 0:
                count_hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# domain counts, recorded at the same boundaries as the spans
# ----------------------------------------------------------------------

def _count_moment_product(tr, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    tr.seen["bridge.moment_product"].add(tuple(sorted(spec.items())))


def _count_mc(tr, args, kwargs, result):
    tr.counts["bridge.mc_estimate.paths"] += args[1] if len(args) > 1 else kwargs["n_paths"]


def _count_crm_direct(tr, args, kwargs, result):
    tr.counts["expansion.crm_direct.terms"] += len(result)


def _count_string_poles(tr, args, kwargs, result):
    strip = args[1] if len(args) > 1 else kwargs.get("strip")
    key = repr(strip)
    if key in tr.seen["zeta.string_poles"]:
        tr.counts["zeta.string_poles.repeats"] += 1
    tr.seen["zeta.string_poles"].add(key)
    tr.counts["zeta.string_poles.poles"] += len(result)


_HOOKS = {
    "bridge.moment_product": _count_moment_product,
    "bridge.mc_estimate": _count_mc,
    "expansion.crm_direct": _count_crm_direct,
    "zeta.string_poles": _count_string_poles,
}


def install(tracer: Tracer) -> dict:
    """Wrap every target at each attribute that holds it; returns the originals."""
    import specexp  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "specexp" or name.startswith("specexp.")]
    originals = {}
    for name in TARGETS:
        layer, *path = name.split(".")
        holder = sys.modules[f"specexp.{layer}"]
        for part in path[:-1]:
            holder = getattr(holder, part)
        fn = getattr(holder, path[-1])
        originals[name] = fn
        wrapped = tracer.wrap(name, fn, _HOOKS.get(name))
        if len(path) > 1:  # a method: patch the class attribute only
            setattr(holder, path[-1], wrapped)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    return originals


def _self_times(spans):
    """Per-span self time: duration minus the time direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _ in spans:
        if parent:
            child_time[parent] += end - start
    return {s[0]: (s[3] - s[2]) - child_time.get(s[0], 0.0) for s in spans}


def layer_metrics(tracer: Tracer, timed_wall_s: float, a2m_hits_misses) -> dict:
    """Per-layer numbers over the timed region (op >= 0), plus set-up spans
    of ``zeta.zero_ordinates``, whose first use is paid in set-up."""
    self_t = _self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    top_level = zero_ordinates_setup = 0.0
    for span_id, name, start, end, parent, op in tracer.spans:
        if op < 0:
            if name == "zeta.zero_ordinates":
                zero_ordinates_setup += self_t[span_id]
            continue
        calls[name] += 1
        self_s[name] += self_t[span_id]
        if not parent:
            top_level += end - start
    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["zeta.zero_ordinates.self_s"] += zero_ordinates_setup
    c = tracer.counts
    mp_calls = calls["bridge.moment_product"]
    distinct = len(tracer.seen["bridge.moment_product"])
    out["bridge.moment_product.distinct"] = distinct
    out["bridge.moment_product.reuse"] = (1 - distinct / mp_calls) if mp_calls else 0.0
    mc_wall = sum(e - s for _, n, s, e, _, op in tracer.spans
                  if n == "bridge.mc_estimate" and op >= 0)
    out["bridge.mc_estimate.paths"] = c["bridge.mc_estimate.paths"]
    out["bridge.mc_estimate.paths_per_s"] = (
        c["bridge.mc_estimate.paths"] / mc_wall if mc_wall else 0.0)
    out["expansion.crm_direct.terms"] = c["expansion.crm_direct.terms"]
    hits, misses = a2m_hits_misses
    out["expansion.a2M.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    sp_calls = calls["zeta.string_poles"]
    out["zeta.string_poles.poles"] = c["zeta.string_poles.poles"]
    out["zeta.string_poles.strip_repeat_share"] = (
        c["zeta.string_poles.repeats"] / sp_calls if sp_calls else 0.0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer)
    out["untraced.self_s"] = timed_wall_s - top_level
    out["timed.wall_s"] = timed_wall_s
    return out


def parse_importtime(stderr: str, modules) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {m: cumulative.get(m, 0.0) for m in modules}
