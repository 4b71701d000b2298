"""In-memory span tracer that wraps projmet functions from outside.

Nothing inside `src/projmet` records anything.  `Tracer.install` replaces
each traced function under every module-level name that refers to it (so
`projmet.cli.nullspace` and `projmet.mobility.nullspace` are both wrapped),
and the arithmetic dunders on the `RationalExpr` class.  `uninstall` puts
the originals back.

A span is (name, start, end, parent index, case id).  Spans are kept in
memory and written out only by `dump`, after the traced pass.
"""

import json
import sys
import time
from collections import Counter

# Layer name -> (module, function names) traced as spans.  Every function a
# layer's self time should cover is listed; unlisted callees count towards
# the nearest traced caller.
SPAN_LAYERS = {
    "cli": ("projmet.cli", ("main",)),
    "cli.parse_spec": ("projmet.cli", ("parse_spec",)),
    "cli.render_report": ("projmet.cli", ("render_report",)),
    "projconn.specialize": ("projmet.projconn", ("specialize",)),
    "projconn.decompose_curvature": ("projmet.projconn",
                                     ("decompose_curvature",)),
    "tractor.connection_matrices": ("projmet.tractor",
                                    ("connection_matrices",)),
    "mobility.degree_of_mobility": ("projmet.mobility",
                                    ("degree_of_mobility",)),
    "mobility.residual": ("projmet.mobility", ("residual",)),
    "exactlinalg.nullspace": ("projmet.exactlinalg", ("nullspace",)),
    "exactlinalg.solve_linear_system": ("projmet.exactlinalg",
                                        ("solve_linear_system",)),
    "exactlinalg.symmetric_signature": ("projmet.exactlinalg",
                                        ("symmetric_signature",)),
    "exactseries.rational_to_series": ("projmet.exactseries",
                                       ("rational_to_series",)),
    "exactseries.series_mul": ("projmet.exactseries", ("series_mul",)),
    "exactseries.series_inverse": ("projmet.exactseries",
                                   ("series_inverse",)),
    "metricize.reconstruct": ("projmet.metricize",
                              ("reconstruct_metric", "candidate_from_metric")),
    "metricize.metric_inverse": ("projmet.metricize", ("metric_inverse",)),
    "metricize.is_levi_civita": ("projmet.metricize", ("is_levi_civita",)),
    "metricize.projective_equivalence": ("projmet.metricize",
                                         ("projective_equivalence",)),
    "metricize.constant_curvature_check": ("projmet.metricize",
                                           ("constant_curvature_check",)),
    "metricize.sampled_lc_residual": ("projmet.metricize",
                                      ("sampled_lc_residual",)),
    "metricize.equivalence_defect": ("projmet.metricize",
                                     ("equivalence_defect",)),
    "metricize.sampled_constant_curvature": ("projmet.metricize",
                                             ("sampled_constant_curvature",)),
    "metricize.geodesic_compare": ("projmet.metricize", ("geodesic_compare",)),
    "tensorfield.covariant_derivative": ("projmet.tensorfield",
                                         ("covariant_derivative",)),
}

ARITH_LAYER = "exprcore.RationalExpr.arith"
ARITH_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                 "__neg__")
# RationalExpr methods that are counted but not timed on their own.
COUNTED_METHODS = ("diff", "evaluate")


def _max_bits(kernel):
    bits = 0
    for vec in kernel:
        for v in vec:
            bits = max(bits, v.numerator.bit_length(),
                       v.denominator.bit_length())
    return bits


def _nullspace_sizes(tracer, args, result):
    tracer.counts["exactlinalg.nullspace.rows"] += len(args[0])
    tracer.maxima["exactlinalg.nullspace.max_bits"] = max(
        tracer.maxima.get("exactlinalg.nullspace.max_bits", 0),
        _max_bits(result))


SIZE_HOOKS = {"exactlinalg.nullspace": _nullspace_sizes}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.maxima = {}
        self.case = None
        self._undo = []

    def span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        hook = SIZE_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.case)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Wrap every traced projmet function under every name bound to it."""
        import projmet  # noqa: F401  (loads every submodule)
        from projmet.exprcore import RationalExpr

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "projmet" or k.startswith("projmet.")]
        for layer, (modname, fnames) in SPAN_LAYERS.items():
            for fname in fnames:
                fn = getattr(sys.modules[modname], fname)
                wrapper = self.span_wrapper(layer, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        for attr in ARITH_DUNDERS:
            self._wrap_method(RationalExpr, attr,
                              self.span_wrapper(ARITH_LAYER,
                                                vars(RationalExpr)[attr]))
        for attr in COUNTED_METHODS:
            self._wrap_method(RationalExpr, attr,
                              self.count_wrapper(
                                  f"exprcore.RationalExpr.{attr}.calls",
                                  vars(RationalExpr)[attr]))

    def _wrap_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, case."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans):
    """Per-layer self time, per-layer call count and the summed duration of
    root spans.  A span's self time is its duration minus the durations of
    its direct children; children of one span never overlap because the
    traced program is single-threaded."""
    child = [0.0] * len(spans)
    roots = 0.0
    for name, start, end, parent, _case in spans:
        if parent < 0:
            roots += end - start
        else:
            child[parent] += end - start
    self_s = Counter()
    calls = Counter()
    for i, (name, start, end, _parent, _case) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        calls[name] += 1
    return self_s, calls, roots
