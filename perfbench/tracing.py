"""Per-layer spans around the calls into bezproj's public functions.

The wrappers replace module attributes and class methods at run time;
bezproj itself is not changed. A function is wrapped wherever a bezproj
module holds a reference to it, so a call through a by-name import
(``from .tensor import reversed_kron``) is seen too. A span nested
directly in a span of the same layer is not recorded, so a call that
passes through two wrapped references counts once. A layer whose
function no longer exists is reported as absent.

Spans are kept in memory while operations run and are summarised when
the run ends. A layer's self time is its span's duration minus the
durations of its direct child spans. The wrappers can be taken out and
put back between operations, so that traced and untraced operations
can alternate in one process.
"""

import fnmatch
import functools
import importlib
import inspect
import pkgutil
import sys
import weakref
from array import array
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Layer:
    """One traced layer and the statistics reported for it.

    kind is "function" (owner unused; name may be a glob such as
    "plan_*"), "method" (owner is a class name) or "command" (a click
    command of that name). amount, when given, maps (args, kwargs,
    result) to the count reported under the stat named ``amount_stat``;
    with amount_always it also sees the calls made outside operations.
    """

    metric: str
    kind: str
    name: str
    stats: tuple
    owner: str = None
    amount_stat: str = None
    amount: object = None
    amount_always: bool = False


def _result_rows(args, kwargs, result):
    """Points evaluated: every traced evaluator returns one row per point."""
    return len(result)


def _plan_pairs(args, kwargs, plan):
    return sum(len(entries) for entries in plan.pairs)


class _FirstSeen:
    """Counts calls on an instance that has not been seen before."""

    def __init__(self):
        self.seen = {}

    def __call__(self, args, kwargs, result):
        obj = args[0]
        ref = self.seen.get(id(obj))
        if ref is not None and ref() is obj:
            return 0
        try:
            self.seen[id(obj)] = weakref.ref(obj)
        except TypeError:
            self.seen[id(obj)] = lambda obj=obj: obj
        return 1


CS = ("calls", "self_ms")


def layers():
    """The traced layers, in report order."""
    return [
        Layer("spline_space.extraction", "method", "extraction", ("calls", "first_calls", "self_ms"),
              owner="KnotVector", amount_stat="first_calls", amount=_FirstSeen(), amount_always=True),
        Layer("spline_space.extraction_operator", "method", "extraction_operator", CS, owner="SplineSpace"),
        Layer("spline_space.reconstruction_operator", "method", "reconstruction_operator", CS,
              owner="SplineSpace"),
        Layer("spline_space.element", "method", "element", ("self_ms",), owner="SplineSpace"),
        Layer("spline_space.evaluate", "function", "evaluate", ("calls", "points", "self_ms"),
              amount_stat="points", amount=_result_rows),
        Layer("spline_space.univariate_extraction_exact", "function", "univariate_extraction_exact", CS),
        Layer("spline_space.read_spline_json", "function", "read_spline_json", ("self_ms",)),
        Layer("projection.bezier_project", "function", "bezier_project", CS),
        Layer("projection.l2_error", "function", "l2_error", ("self_ms",)),
        Layer("projection.smoothing_weight_table", "function", "smoothing_weight_table", CS),
        Layer("projection.local_spline_coefficients", "function", "local_spline_coefficients", CS),
        Layer("projection.target", "method", "__call__", ("calls", "points", "self_ms"),
              owner="TargetFunction", amount_stat="points", amount=_result_rows),
        Layer("bernstein.gramian_inverse_multi", "function", "gramian_inverse_multi", CS),
        Layer("bernstein.interval_transform", "function", "interval_transform", CS),
        Layer("bernstein.elevation_matrix", "function", "elevation_matrix", CS),
        Layer("bernstein.reduction_matrix", "function", "reduction_matrix", CS),
        Layer("tensor.reversed_kron", "function", "reversed_kron", CS),
        Layer("kernels.bernstein_matrix", "function", "bernstein_matrix", ("calls", "points", "self_ms"),
              amount_stat="points", amount=_result_rows),
        Layer("kernels.bspline_basis_matrix", "function", "bspline_basis_matrix", CS),
        Layer("spline_ops.plan", "function", "plan_*", ("calls", "pairs", "self_ms"),
              amount_stat="pairs", amount=_plan_pairs),
        Layer("spline_ops.compose", "function", "compose", ("pairs", "self_ms"),
              amount_stat="pairs", amount=_plan_pairs),
        Layer("spline_ops.apply_plan", "function", "apply_plan", CS),
        Layer("tmesh.read_tmesh_json", "function", "read_tmesh_json", ("self_ms",)),
        Layer("tmesh.anchors", "method", "anchors", ("self_ms",), owner="TMesh"),
        Layer("tmesh.extensions", "method", "extensions", ("self_ms",), owner="TMesh"),
        Layer("tmesh.local_knot_vectors", "method", "local_knot_vectors", CS, owner="TMesh"),
        Layer("tmesh.bezier_elements", "method", "bezier_elements", ("self_ms",), owner="TMesh"),
        Layer("tmesh.element_extraction", "method", "element_extraction", CS, owner="TMesh"),
        Layer("cli.extract", "command", "extract", ("self_ms",)),
    ]


def metric_names():
    """Every per-layer metric name, in report order."""
    out = []
    for layer in layers():
        out += [f"{layer.metric}.{stat}" for stat in layer.stats]
    return out + ["trace.overhead_frac"]


class Recorder:
    """Collects spans while an operation runs.

    Spans live in flat arrays rather than in Python objects, so that the
    garbage collector does not walk a list that grows with every call.
    """

    def __init__(self):
        self.active = False
        self.codes = {}  # metric -> small integer stored per span
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.amount = array("q")
        self.stack = []
        self.n_ops = 0

    def begin_op(self):
        self.active = True

    def end_op(self):
        self.active = False
        self.stack.clear()
        self.n_ops += 1

    def wrap(self, layer, fn):
        """fn wrapped to record a span of the given layer."""
        amount, amount_always = layer.amount, layer.amount_always
        code = self.codes.setdefault(layer.metric, len(self.codes))
        name, start, end, parent, counts, stack = (
            self.name, self.start, self.end, self.parent, self.amount, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (stack and name[stack[-1]] == code):
                if amount_always:
                    amount(args, kwargs, None)
                return fn(*args, **kwargs)
            i = len(name)
            name.append(code)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            counts.append(0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if amount is not None:
                counts[i] = amount(args, kwargs, result)
            return result

        return traced

    def summarise(self, layer_list):
        """Per-operation metrics of every layer from the recorded spans."""
        own = self_times(self.start, self.end, self.parent)
        k = len(self.codes)
        calls, amounts, self_s = [0] * k, [0] * k, [0.0] * k
        for code, n, t in zip(self.name, self.amount, own):
            calls[code] += 1
            amounts[code] += n
            self_s[code] += t
        n_ops = max(self.n_ops, 1)
        out = {}
        for layer in layer_list:
            code = self.codes.get(layer.metric)
            per_stat = {"calls": 0.0, "self_ms": 0.0, layer.amount_stat: 0.0}
            if code is not None:
                per_stat = {
                    "calls": calls[code] / n_ops,
                    "self_ms": 1e3 * self_s[code] / n_ops,
                    layer.amount_stat: amounts[code] / n_ops,
                }
            for stat in layer.stats:
                out[f"{layer.metric}.{stat}"] = per_stat[stat]
        return out


def self_times(start, end, parent):
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(start)
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            child[p] += e - s
    return [e - s - c for s, e, c in zip(start, end, child)]


def _bezproj_modules():
    import bezproj

    for info in pkgutil.iter_modules(bezproj.__path__):
        try:
            importlib.import_module(f"bezproj.{info.name}")
        except ImportError:
            pass  # an optional extension that is not built
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "bezproj" or name.startswith("bezproj."))
    ]


def _is_own_function(obj):
    return (inspect.isfunction(obj) or inspect.isbuiltin(obj)) and getattr(
        obj, "__module__", ""
    ).startswith("bezproj")


class Patches:
    """The attribute replacements that put the wrappers in place."""

    def __init__(self):
        self.items = []  # (owner, attribute, original, wrapper)

    def add(self, owner, attribute, original, wrapper):
        self.items.append((owner, attribute, original, wrapper))
        setattr(owner, attribute, wrapper)

    def set(self, on):
        """Put the wrappers in (on) or restore the original functions."""
        for owner, attribute, original, wrapper in self.items:
            setattr(owner, attribute, wrapper if on else original)


def install(recorder, layer_list):
    """Wrap every layer's functions.

    Returns the metrics of absent layers and the Patches that put the
    wrappers in place.
    """
    import click

    modules = _bezproj_modules()
    patches = Patches()
    replace = {}  # id(original function) -> (original, wrapper)
    wrapped = set()  # (id(owner), attribute) already wrapped
    absent = []
    for layer in layer_list:
        found = False
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if layer.kind == "function":
                    if fnmatch.fnmatchcase(key, layer.name) and _is_own_function(val):
                        if id(val) not in replace:
                            replace[id(val)] = (val, recorder.wrap(layer, val))
                        found = True
                elif layer.kind == "method":
                    if key != layer.owner or not inspect.isclass(val):
                        continue
                    fn = vars(val).get(layer.name)
                    if (id(val), layer.name) not in wrapped and inspect.isfunction(fn):
                        patches.add(val, layer.name, fn, recorder.wrap(layer, fn))
                        wrapped.add((id(val), layer.name))
                    found = found or (id(val), layer.name) in wrapped
                elif isinstance(val, click.Command) and val.name == layer.name and val.callback:
                    if (id(val), "callback") not in wrapped:
                        patches.add(val, "callback", val.callback, recorder.wrap(layer, val.callback))
                        wrapped.add((id(val), "callback"))
                    found = True
        if not found:
            absent.append(layer.metric)
    for mod in modules:
        for key, val in list(vars(mod).items()):
            hit = replace.get(id(val))
            if hit is not None and hit[0] is val:
                patches.add(mod, key, *hit)
    return absent, patches
