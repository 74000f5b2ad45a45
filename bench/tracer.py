"""Spans around calls into skpval's layers, recorded from outside.

``Tracer.install()`` puts a wrapper on every binding of each traced
function: the defining module's attribute, every other skpval module that
imported the same object (``skpval.valuation.adic_expand`` as well as
``skpval.expansion.adic_expand``), and the class attribute for methods.
``uninstall()`` puts the originals back, so untraced passes run the
program unchanged.

A span is (name, start, end, parent); spans live in flat arrays in memory
and are written out once, when the run ends.  A function's self time is
its spans' duration minus the duration of their child spans.
"""

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (module, attribute path, metric name, counter of the output or None)
TRACED = (
    ("expansion", "adic_expand", "expansion.adic_expand", ("out_monomials", len)),
    ("expansion", "euclidean_expand", "expansion.euclidean_expand", ("out_pieces", len)),
    ("valuation", "value_of", "valuation.value_of", None),
    ("valuation", "value_via_euclidean", "valuation.value_via_euclidean", None),
    ("valuation", "initial_form", "valuation.initial_form", None),
    ("valuation", "graded_normal_form", "valuation.graded_normal_form", None),
    ("valuation", "delta_of", "valuation.delta_of", None),
    ("poly", "monic_divide", "poly.monic_divide", None),
    ("poly", "MultiPoly.__mul__", "poly.MultiPoly.mul", ("out_terms", lambda p: len(p.terms))),
    ("poly", "MultiPoly.__pow__", "poly.MultiPoly.pow", None),
    ("poly", "parse_poly", "poly.parse_poly", None),
    ("skp", "build_skp", "skp.build_skp", None),
    ("skp", "unroll_limit", "skp.unroll_limit", None),
    ("skp", "SkpTable.monomial_poly", "skp.SkpTable.monomial_poly", None),
    ("valtable", "compute_relations", "valtable.compute_relations", None),
    ("valtable", "validate_table", "valtable.validate_table", None),
    ("valtable", "enumerate_semigroup", "valtable.enumerate_semigroup", None),
    ("ordgroup", "analyze_chain", "ordgroup.analyze_chain", None),
    ("ordgroup", "rational_rank", "ordgroup.rational_rank", None),
    ("intlattice", "row_echelon", "intlattice.row_echelon", None),
    ("realize", "realize", "realize.realize", None),
    ("realize", "verify_realization", "realize.verify_realization", None),
    ("classify", "inductive_invariants", "classify.inductive_invariants", None),
    ("classify", "classify_table1", "classify.classify_table1", None),
    ("jsonio", "build_from_problem", "jsonio.build_from_problem", None),
    ("jsonio", "load_semigroup_spec", "jsonio.load_semigroup_spec", None),
    ("cli", "make_parser", "cli.make_parser", None),
    ("cli", "run_command", "cli.run_command", None),
)

OP_SPAN = "op"


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for _, _, name, counter in TRACED:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if counter:
            out.append((f"{name}.{counter[0]}", "count"))
    return out


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + [name for _, _, name, _ in TRACED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.outputs = {}
        self.bindings = []

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def op(self, fn, *args):
        """Run one benchmark operation inside a root span."""
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, fn, name_id, counter):
        tracer = self
        out_key = (self.names[name_id], counter[0]) if counter else None
        count = counter[1] if counter else None

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.outputs[out_key] = tracer.outputs.get(out_key, 0) + count(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "skpval" or n.startswith("skpval."))
        ]
        for name_id, (mod_name, path, _, counter) in enumerate(TRACED, start=1):
            owner = importlib.import_module(f"skpval.{mod_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                targets = [(owner, attr)]
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, path)
                targets = [
                    (m, a) for m in modules for a, v in list(vars(m).items()) if v is original
                ]
            wrapper = self._wrap(original, name_id, counter)
            for obj, attr in targets:
                self.bindings.append((obj, attr, original))
                setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self.bindings):
            setattr(obj, attr, original)
        self.bindings = []

    def summary(self, passes):
        """Per-pass calls, self time and output counts of every function."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.span_end[i] - self.span_start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = calls[k] / passes
            out[f"{name}.self_s"] = self_s[k] / passes
        for _, _, name, counter in TRACED:
            if counter:
                out[f"{name}.{counter[0]}"] = self.outputs.get((name, counter[0]), 0) / passes
        return out

    def write(self, path):
        """All spans as tab-separated lines: id, name, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i] - t0:.7f}\t{self.span_end[i] - t0:.7f}\n"
                )
