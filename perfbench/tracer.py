"""Per-layer accounting for the traced benchmark run.

The tracer wraps the public functions and methods of each tractorlab module
from outside the package.  Every wrapper records which layer (module) is
running; time is always charged to the innermost open layer, so a layer's
self time excludes the layers it calls, and the self times plus the time
spent outside any wrapped call add up to the traced wall time exactly.

Counts are kept as plain integers per key, never as one span per call: the
klein-3 suite makes about two million jet multiplications per pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

#: Layer charged for time outside every wrapped call (the harness itself).
ROOT = "unattributed"

LAYERS = (
    "jets", "expr", "fields", "affine", "tractor",
    "extrapolate", "boundary", "verify", "cli",
)

#: Jet methods outside the public naming rule that carry the arithmetic.
_JET_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "_reciprocal",
)


class Tracer:
    """Self time per layer, exact counters and outermost inclusive times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layer = ROOT
        self.mark = 0.0
        self.stack: list[str] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._depth: Counter = Counter()
        self._start = 0.0
        self.wall_s = 0.0

    # -- clock ---------------------------------------------------------------

    def start(self) -> None:
        self._start = self.mark = self.clock()

    def stop(self) -> None:
        now = self.clock()
        self.self_s[self.layer] += now - self.mark
        self.mark = now
        self.wall_s += now - self._start

    def enter(self, layer: str) -> None:
        now = self.clock()
        self.self_s[self.layer] += now - self.mark
        self.stack.append(self.layer)
        self.layer = layer
        self.mark = now

    def leave(self) -> None:
        now = self.clock()
        self.self_s[self.layer] += now - self.mark
        self.layer = self.stack.pop()
        self.mark = now

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, fn, before=None, after=None, inclusive=None):
        """Wrapper charging ``fn`` to ``layer``.

        ``before(args, kwargs)`` and ``after(result)`` update counters.
        ``inclusive`` names a total that gets the wall time of the outermost
        open call only, so recursion and nesting are not counted twice.
        """
        tracer = self

        # The plain wrapper is kept lean: it runs about four million times
        # in one klein-3 suite pass.
        if inclusive is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                if tracer.layer == layer:
                    result = fn(*args, **kwargs)
                else:
                    tracer.enter(layer)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        tracer.leave()
                if after is not None:
                    after(result)
                return result

            return wrapper

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            outermost = tracer._depth[inclusive] == 0
            tracer._depth[inclusive] += 1
            t0 = tracer.clock()
            entered = tracer.layer != layer
            if entered:
                tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                if entered:
                    tracer.leave()
                tracer._depth[inclusive] -= 1
                if outermost:
                    tracer.inclusive_s[inclusive] += tracer.clock() - t0
            if after is not None:
                after(result)
            return result

        return timed


def _point_key(point, order) -> tuple:
    return (tuple(float(v) for v in point), int(order))


class Instrumentation:
    """Installs tracer wrappers on the tractorlab modules and removes them.

    Functions imported by name into other modules (``from .extrapolate
    import boundary_ladder``) are rebound in every module that holds them,
    or calls through those copies would go uncounted.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        mods = {name: importlib.import_module(f"tractorlab.{name}")
                for name in LAYERS}
        self._mods = mods
        hooks = self._hooks(mods)
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not name.startswith("_") or (layer, name) in hooks:
                        self._wrap_function(layer, name, obj, hooks)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, hooks)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_function(self, layer, name, fn, hooks) -> None:
        wrapper = self.tracer.wrap(layer, fn, **hooks.get((layer, name), {}))
        for other in self._mods.values():
            for attr, value in list(vars(other).items()):
                if value is fn:
                    self._set(other, attr, wrapper)

    def _wrap_class(self, layer, cls, hooks) -> None:
        extra = _JET_ARITHMETIC if cls.__name__ == "Jet" else ()
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and name not in extra:
                continue
            key = (layer, f"{cls.__name__}.{name}")
            if isinstance(obj, (staticmethod, classmethod)):
                inner = self.tracer.wrap(layer, obj.__func__, **hooks.get(key, {}))
                self._set(cls, name, type(obj)(inner))
            elif inspect.isfunction(obj):
                self._set(cls, name, self.tracer.wrap(layer, obj, **hooks.get(key, {})))

    def _hooks(self, mods) -> dict:
        """Counter updates keyed by (layer, qualified name)."""
        tr = self.tracer
        counts = tr.counts
        keys = tr.keys
        Jet = mods["jets"].Jet
        mul_keys = ("jets.mul.o0", "jets.mul.o1", "jets.mul.o2", "jets.mul.o3plus")

        def count(name):
            def before(args, kwargs):
                counts[name] += 1
            return before

        def count_mul(args, kwargs):
            a, b = args
            if isinstance(b, Jet):
                order = min(a.space.order, b.space.order)
                counts[mul_keys[min(order, 3)]] += 1

        def count_eval(args, kwargs):
            counts["expr.eval.nodes"] += 1
            if tr.layer != "expr":
                counts["expr.eval.calls"] += 1

        def count_keyed(name, distinct, fn, key):
            sig = inspect.signature(fn)

            def before(args, kwargs):
                counts[name] += 1
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                keys[distinct].add(key(bound.arguments))
            return before

        def count_diverged(result):
            if result.diverged:
                counts["extrapolate.diverged"] += 1

        ext = mods["extrapolate"]
        return {
            ("jets", "Jet.__mul__"): {"before": count_mul},
            ("jets", "Jet.__rmul__"): {"before": count_mul},
            ("jets", "Jet._reciprocal"): {"before": count("jets.recip")},
            ("jets", "_compose"): {"before": count("jets.compose")},
            ("jets", "Jet.partial"): {"before": count("jets.partial")},
            ("jets", "jet_matrix_inverse"): {"before": count("jets.matinv")},
            ("expr", "evaluate"): {"before": count_eval},
            ("expr", "parse_expr"): {"before": count("expr.parse.calls")},
            ("fields", "builtin_geometry"): {
                "before": count("fields.geometry_build.calls"),
                "inclusive": "fields.geometry_build_s",
            },
            ("fields", "load_geometry"): {
                "before": count("fields.geometry_build.calls"),
                "inclusive": "fields.geometry_build_s",
            },
            ("fields", "TensorField.components"): {
                "before": count("fields.components.calls"),
            },
            ("affine", "Connection.christoffel_values"): {
                "before": count("affine.christoffel_values.calls"),
            },
            ("affine", "Connection.christoffels"): {
                "before": count("affine.christoffels.calls"),
            },
            ("affine", "CurvaturePack.riemann"): {
                "before": count_keyed(
                    "affine.riemann.calls", "affine.riemann.distinct",
                    mods["affine"].CurvaturePack.riemann,
                    lambda a: _point_key(a["point"], a["order"]),
                ),
            },
            ("tractor", "TractorCalculus.connection_matrices"): {
                "before": count_keyed(
                    "tractor.connection_matrices.calls",
                    "tractor.connection_matrices.distinct",
                    mods["tractor"].TractorCalculus.connection_matrices,
                    lambda a: _point_key(a["point"], a["order"]),
                ),
            },
            ("tractor", "tractor_curvature"): {
                "before": count("tractor.curvature.calls"),
            },
            ("extrapolate", "boundary_ladder"): {
                "before": count_keyed(
                    "extrapolate.ladders", "extrapolate.ladders.distinct",
                    ext.boundary_ladder,
                    lambda a: (
                        tuple(float(v) for v in a["y"]),
                        None if a["direction"] is None
                        else tuple(float(v) for v in a["direction"]),
                        float(a["eps0"]), int(a["levels"]),
                    ),
                ),
            },
            ("extrapolate", "richardson_limit"): {
                "after": count_diverged, "inclusive": "extrapolate.limit_s",
            },
            ("extrapolate", "boundary_limit"): {"inclusive": "extrapolate.limit_s"},
            ("boundary", "geodetic_transversal"): {
                "before": count("boundary.transversals"),
                "inclusive": "boundary.transversal_s",
            },
            ("boundary", "boundary_frame"): {"inclusive": "boundary.frame_s"},
            ("boundary", "curvature_blocks"): {"inclusive": "boundary.frame_s"},
            ("cli", "main"): {"before": count("cli.calls")},
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flatten a finished tracer into named per-layer values."""
    out: dict[str, float] = {}
    for name in COUNTED:
        out[name] = float(tracer.counts.get(name, 0))
    for name in DISTINCT:
        out[name] = float(len(tracer.keys.get(name, ())))
    for name in INCLUSIVE:
        out[name] = tracer.inclusive_s.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    out["trace.unattributed_s"] = tracer.self_s.get(ROOT, 0.0)
    out["trace.wall_s"] = tracer.wall_s
    return out


COUNTED = (
    "jets.mul.o0", "jets.mul.o1", "jets.mul.o2", "jets.mul.o3plus",
    "jets.recip", "jets.compose", "jets.partial", "jets.matinv",
    "expr.eval.calls", "expr.eval.nodes", "expr.parse.calls",
    "fields.geometry_build.calls", "fields.components.calls",
    "affine.christoffel_values.calls", "affine.christoffels.calls",
    "affine.riemann.calls", "tractor.connection_matrices.calls",
    "tractor.curvature.calls", "extrapolate.ladders", "extrapolate.diverged",
    "boundary.transversals", "cli.calls",
)
#: Distinct (point, order) keys among the calls of the matching counter.
DISTINCT = ("affine.riemann.distinct", "tractor.connection_matrices.distinct",
            "extrapolate.ladders.distinct")
INCLUSIVE = ("fields.geometry_build_s", "extrapolate.limit_s",
             "boundary.transversal_s", "boundary.frame_s")
