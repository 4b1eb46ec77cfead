"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` wraps every public function and method of the qwedge
modules and rebinds each wrapped name wherever a module looks it up: the
modules import one another's functions with `from .x import y`, so patching
only the defining module would miss most calls.  A span covers one call (one
`next()` for a generator); a layer's self time is its spans' durations minus
the time their child spans cover.  A call that re-enters the same function
from inside its own span (recursion through the module-level name) runs
unwrapped and belongs to the outer span.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict

# last line of a traced child's stderr: the marker, then its snapshot as JSON
TRACE_MARK = "QWEDGE_LAYER_TRACE "

MODULES = ("series", "partitions", "setparts", "special", "quasimodular",
           "correlators", "qdiff", "characters", "skewchar", "reports", "cli")

# operators that carry the arithmetic; other dunders (construction, hashing,
# repr) are left alone
TRACED_DUNDERS = {"__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
                  "__eq__", "__call__", "__truediv__", "__pow__"}

# per-layer metric -> span keys whose self time or calls it sums
SPAN_GROUPS = {
    "series.mul": ["series.QSeries.__mul__"],
    "series.inv": ["series.QSeries.inv"],
    "series.euler_product": ["series.euler_product"],
    "series.eq": ["series.QSeries.__eq__"],
    "partitions.enum": ["partitions.partitions_of", "partitions.partitions_up_to"],
    "partitions.hook_power_sum": ["partitions.hook_power_sum"],
    "partitions.q_bracket": ["partitions.q_bracket"],
    "special.theta_deriv_series": ["special.theta_deriv_series"],
    "special.theta_deriv_value": ["special.theta_deriv_value"],
    "quasimodular.fit_series": ["quasimodular.fit_series"],
    "correlators.f_brute": ["correlators.f_brute"],
    "correlators.u_series": ["correlators.u_series"],
    "correlators.t_series": ["correlators.t_series"],
    "correlators.weights": ["correlators.OrderedWeight.__call__",
                            "correlators.f_partition_weight",
                            "correlators.ordered_weight"],
    "qdiff.numeric": ["qdiff.f_numeric", "qdiff.h_numeric"],
    "qdiff.phi_sum": ["qdiff.phi_sum"],
    "qdiff.r_series": ["qdiff.r_series"],
    "characters.mul": ["characters.MultiSeries.__mul__"],
    "characters.build": ["characters.omega_series", "characters.V_series"],
    "skewchar.mul": ["skewchar.OddPolynomial.__mul__"],
    "skewchar.psi_series": ["skewchar.psi_series"],
    "cli.main": ["cli.main"],
}

# (metric name, unit, better); the README maps each to the end-to-end metric
# it should move
PER_LAYER = [
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.inv.calls", "count", "lower"),
    ("series.inv.self_s", "s", "lower"),
    ("series.euler_product.calls", "count", "lower"),
    ("series.euler_product.self_s", "s", "lower"),
    ("series.eq.self_s", "s", "lower"),
    ("series.coeff_bits_max", "bits", "lower"),
    ("series.self_s", "s", "lower"),
    ("partitions.enumerated", "count", "lower"),
    ("partitions.enum.self_s", "s", "lower"),
    ("partitions.hook_power_sum.calls", "count", "lower"),
    ("partitions.hook_power_sum.self_s", "s", "lower"),
    ("partitions.q_bracket.self_s", "s", "lower"),
    ("partitions.self_s", "s", "lower"),
    ("setparts.enumerated", "count", "lower"),
    ("setparts.self_s", "s", "lower"),
    ("special.theta_deriv_series.calls", "count", "lower"),
    ("special.theta_deriv_series.self_s", "s", "lower"),
    ("special.theta_deriv_series.distinct_ratio", "ratio", "higher"),
    ("special.theta_deriv_value.calls", "count", "lower"),
    ("special.theta_deriv_value.self_s", "s", "lower"),
    ("special.self_s", "s", "lower"),
    ("quasimodular.fit_series.calls", "count", "lower"),
    ("quasimodular.fit_series.self_s", "s", "lower"),
    ("quasimodular.self_s", "s", "lower"),
    ("correlators.f_brute.self_s", "s", "lower"),
    ("correlators.u_series.self_s", "s", "lower"),
    ("correlators.t_series.self_s", "s", "lower"),
    ("correlators.weights.calls", "count", "lower"),
    ("correlators.weights.self_s", "s", "lower"),
    ("correlators.self_s", "s", "lower"),
    ("qdiff.numeric.self_s", "s", "lower"),
    ("qdiff.phi_sum.self_s", "s", "lower"),
    ("qdiff.r_series.self_s", "s", "lower"),
    ("qdiff.self_s", "s", "lower"),
    ("characters.mul.calls", "count", "lower"),
    ("characters.mul.self_s", "s", "lower"),
    ("characters.terms_max", "count", "lower"),
    ("characters.build.self_s", "s", "lower"),
    ("characters.self_s", "s", "lower"),
    ("skewchar.mul.calls", "count", "lower"),
    ("skewchar.psi_series.self_s", "s", "lower"),
    ("skewchar.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("reports.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _coeff_bits(series) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in series.coeffs), default=0)


class _Frame:
    __slots__ = ("key", "is_gen", "children")

    def __init__(self, key: str, is_gen: bool):
        self.key = key
        self.is_gen = is_gen
        self.children = 0.0


class Tracer:
    """Spans kept in memory; `snapshot()` returns the raw counters.  Calls are
    recorded only while `enabled` is set, so the benchmark's own checks, which
    also call into qwedge, stay out of the figures."""

    def __init__(self):
        self.enabled = False
        self.stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.arg_sets: dict[str, set] = defaultdict(set)
        self.coeff_bits_max = 0
        self.terms_max = 0

    # -- spans ---------------------------------------------------------------

    def _close(self, frame: _Frame, duration: float) -> None:
        self.self_time[frame.key] += duration - frame.children
        if self.stack:
            self.stack[-1].children += duration

    def _exclude(self, seconds: float) -> None:
        """Keep the tracer's own bookkeeping out of the enclosing span."""
        if self.stack:
            self.stack[-1].children += seconds

    def _wrap_function(self, key: str, fn, observe=None):
        stack, clock = self.stack, time.perf_counter
        count_terms = key == "characters.MultiSeries.__mul__"

        def traced(*args, **kwargs):
            if not self.enabled or (stack and stack[-1].key == key):
                return fn(*args, **kwargs)
            if observe is not None:
                t = clock()
                observe(args, kwargs)
                self._exclude(clock() - t)
            self.calls[key] += 1
            frame = _Frame(key, False)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._close(frame, t1 - t0)
            if count_terms:
                self.terms_max = max(self.terms_max, len(result.terms))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, key: str, module: str, fn):
        stack, tracer = self.stack, self

        def traced(*args, **kwargs):
            if not tracer.enabled or (stack and stack[-1].key == key):
                return fn(*args, **kwargs)
            # a generator feeding another generator of its own module is an
            # inner stage; only items reaching an outside caller are counted
            counted = not (stack and stack[-1].is_gen
                           and stack[-1].key.startswith(module + "."))
            tracer.calls[key] += 1
            return _TracedIterator(tracer, key, fn(*args, **kwargs), counted)

        traced.__wrapped__ = fn
        return traced

    # -- observers -------------------------------------------------------------

    def _observe_compared(self, args, kwargs) -> None:
        for s in args:
            if hasattr(s, "coeffs") and hasattr(s, "offset"):
                self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(s))

    def _observe_theta_args(self, args, kwargs) -> None:
        bound = self._theta_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        self.arg_sets["special.theta_deriv_series"].add(
            (a["k"], a["s"], a["order"], a["shift"]))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qwedge.{name}") for name in MODULES}
        self._theta_signature = inspect.signature(modules["special"].theta_deriv_series)
        observers = {
            "special.theta_deriv_series": self._observe_theta_args,
            "reports.series_report": lambda a, k: self._observe_compared(a[3:5], k),
            "series.QSeries.__eq__": self._observe_compared,
        }
        replacements: dict[int, object] = {}
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    key = f"{short}.{name}"
                    if inspect.isgeneratorfunction(obj):
                        replacements[id(obj)] = self._wrap_generator(key, short, obj)
                    else:
                        replacements[id(obj)] = self._wrap_function(
                            key, obj, observers.get(key))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(short, obj, observers)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacements and inspect.isfunction(obj):
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, replacements[id(obj)])

    def _wrap_class(self, short: str, cls, observers) -> None:
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue  # staticmethods, properties and class attributes
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            key = f"{short}.{cls.__name__}.{obj.__name__}"
            self._patched.append((cls, name, obj))
            setattr(cls, name, self._wrap_function(key, obj, observers.get(key)))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._patched):
            setattr(owner, name, obj)
        self._patched.clear()

    # -- results -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw counters; `combine` merges snapshots of separate processes."""
        return {
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "yields": dict(self.yields),
            "distinct": {k: len(v) for k, v in self.arg_sets.items()},
            "coeff_bits_max": self.coeff_bits_max,
            "terms_max": self.terms_max,
        }



class _TracedIterator:
    __slots__ = ("tracer", "key", "inner", "counted")

    def __init__(self, tracer: Tracer, key: str, inner, counted: bool):
        self.tracer, self.key, self.inner, self.counted = tracer, key, inner, counted

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = _Frame(self.key, True)
        tracer.stack.append(frame)
        t0 = time.perf_counter()
        try:
            item = next(self.inner)
        finally:
            t1 = time.perf_counter()
            tracer.stack.pop()
            tracer._close(frame, t1 - t0)
        if self.counted:
            tracer.yields[self.key] += 1
        return item


def combine(snapshots: list[dict]) -> dict:
    """Sum counters of separate processes; maxima stay maxima."""
    out = {"self_time": Counter(), "calls": Counter(), "yields": Counter(),
           "distinct": Counter(), "coeff_bits_max": 0, "terms_max": 0}
    for snap in snapshots:
        for field in ("self_time", "calls", "yields", "distinct"):
            out[field].update(snap[field])
        out["coeff_bits_max"] = max(out["coeff_bits_max"], snap["coeff_bits_max"])
        out["terms_max"] = max(out["terms_max"], snap["terms_max"])
    return out


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics of one pass, from its raw counters."""
    self_time, calls, yields = snap["self_time"], snap["calls"], snap["yields"]

    def group(name: str, table) -> float:
        return sum(table.get(k, 0) for k in SPAN_GROUPS[name])

    def module(prefix: str) -> float:
        return sum(v for k, v in self_time.items() if k.startswith(prefix + "."))

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "self_s" and head in SPAN_GROUPS:
            out[name] = group(head, self_time)
        elif tail == "self_s":
            out[name] = module(head)
        elif tail == "calls":
            out[name] = group(head, calls)
    out["partitions.enumerated"] = sum(v for k, v in yields.items()
                                       if k.startswith("partitions."))
    out["setparts.enumerated"] = sum(v for k, v in yields.items()
                                     if k.startswith("setparts."))
    theta_calls = calls.get("special.theta_deriv_series", 0)
    out["special.theta_deriv_series.distinct_ratio"] = (
        snap["distinct"].get("special.theta_deriv_series", 0) / theta_calls
        if theta_calls else 0.0)
    out["series.coeff_bits_max"] = snap["coeff_bits_max"]
    out["characters.terms_max"] = snap["terms_max"]
    return {name: out[name] for name, _, _ in PER_LAYER if name in out}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
