"""Per-layer spans for the orthocurrent benchmark, taken from outside.

The library has no tracing of its own.  `Tracer.install` wraps the public
functions and methods of each `orthocurrent.*` module: a function is
rebound under every name that holds it in any `orthocurrent.*` namespace
(modules look their imports up at call time, so calls between modules go
through the wrapper too), and a method is rebound on its class.
`Tracer.uninstall` puts every original back.

Each wrapped call is a span.  A span's self time is its duration minus
the time of the wrapped calls made directly inside it; a layer's self
time sums the self time of its spans, so work done in an unwrapped helper
counts for the nearest wrapped caller.  Scalar operations and a few
per-element methods run millions of times per run, so they are folded
into per-name totals on exit; every other span is also kept as a record
(name, start, end, parent, op id) and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

# layer -> [(callable, metric group or None)].  A callable is a
# module-level name or "Class.method".  Names absent from the
# library are skipped, and the metrics built only from them are absent.
TARGETS = {
    "scalars": [
        ("FieldElement.__add__", "add"),
        ("FieldElement.__sub__", None),
        ("FieldElement.__neg__", None),
        ("FieldElement.__mul__", "mul"),
        ("FieldElement.__truediv__", None),
        ("FieldElement.__pow__", None),
        ("FieldDescriptor.from_int", None),
        ("FieldDescriptor.from_fraction", None),
        ("inv", "inv"),
        ("poly_gcd", "poly_gcd"),
        ("poly_squarefree", None),
        ("is_square", "is_square"),
        ("pth_root", None),
        ("lift_to_extension", None),
        ("substitute", None),
        ("random_element", None),
        ("parse_scalar", "parse"),
        ("render_scalar", "render"),
        ("render_field", "render"),
        ("parse_field", "field_setup"),
        ("rationals", "field_setup"),
        ("prime_field", "field_setup"),
        ("function_field", "field_setup"),
        ("quadratic_extension", "field_setup"),
    ],
    "exact_linalg": [
        ("rref", "elim"),
        ("det", "elim"),
        ("inverse", "elim"),
        ("solve", "elim"),
        ("kernel", "elim"),
        ("canonicalize_subspace", "elim"),
        ("subspace_meet_join", "elim"),
        ("zero_subspace", None),
        ("full_subspace", None),
        ("Matrix.__mul__", "matmul"),
        ("Matrix.__add__", None),
        ("Matrix.__sub__", None),
        ("Matrix.scale", None),
        ("Matrix.transpose", None),
        ("Matrix.mul_vector", None),
        ("Subspace.reduce", None),
        ("Subspace.contains", None),
        ("Subspace.coordinates", None),
        ("Subspace.contains_subspace", None),
    ],
    "forms": [
        ("make_form", None),
        ("diagonal_form", None),
        ("discriminant", None),
        ("restrict", "restrict"),
        ("orthogonalize", "orthogonalize"),
        ("orthogonal_complement", None),
        ("BilinearForm.evaluate", None),
    ],
    "liealg": [
        ("LieAlgebraSC.__init__", "algebra_init"),
        ("LieAlgebraSC.bracket", None),
        ("LieAlgebraSC.matrix_for", None),
        ("SpanSolver.__init__", None),
        ("SpanSolver.coordinates", None),
        ("CoefficientAlgebra.__init__", None),
        ("CoefficientAlgebra.multiply", None),
        ("CurrentBasis.matrices", None),
        ("skew_adjoint_algebra", "skew_adjoint"),
        ("algebra_from_matrices", "algebra_from_matrices"),
        ("tensor_current", "tensor_current"),
        ("is_ideal", "ideal_tests"),
        ("is_subalgebra", "ideal_tests"),
        ("bracket_span", "ideal_tests"),
        ("derived_subspace", "ideal_tests"),
        ("derived_subalgebra", "ideal_tests"),
        ("derived_series_of_subspace", None),
        ("derived_series", None),
        ("is_perfect", None),
        ("is_solvable", None),
        ("is_abelian", None),
        ("structure_constants", None),
        ("subalgebra", None),
        ("ideal_closure", None),
        ("center", None),
        ("quotient_algebra", None),
        ("is_simple_3dim", None),
        ("current_basis", None),
        ("core_basis", None),
        ("scalar_coefficients", None),
        ("tables_equal", None),
    ],
    "coeff_algebra": [
        ("quadratic_quotient", None),
        ("analyze_quadratic", "analyze"),
        ("split_projections", None),
    ],
    "structure": [
        ("build_pipeline", "build_pipeline"),
        ("current_table", None),
        # The one private hook: the random-W leg is half of verify.
        ("_random_w_leg", "random_w"),
        ("verify_current_form", None),
        ("certify_simple_via_descent", None),
        ("classify", None),
        ("inseparable_counterexample", "counterexample"),
        ("subspace_to_json", None),
        ("tensor_to_json", None),
        ("checks_to_json", None),
        ("descent_to_json", None),
        ("certificate_to_json", None),
        ("recheck_certificate", None),
        ("recheck_certificate_json", None),
    ],
    "oracle": [
        ("gaussian_binomial", None),
        ("count_subspaces", None),
        ("enumerate_ideals", "enumerate_ideals"),
        ("ideal_dimension_histogram", None),
    ],
    "cli": [
        ("build_parser", None),
        ("parse_args", "parse_args"),
        ("execute", None),
        ("recheck_json", None),
    ],
}

# Called once per element or vector, like every scalar-layer callable:
# folded into totals, never recorded.
UNRECORDED = {
    "exact_linalg.Matrix.__add__",
    "exact_linalg.Matrix.__sub__",
    "exact_linalg.Matrix.scale",
    "exact_linalg.Subspace.reduce",
    "exact_linalg.Subspace.contains",
    "forms.BilinearForm.evaluate",
    "liealg.LieAlgebraSC.bracket",
    "liealg.SpanSolver.coordinates",
    "liealg.CoefficientAlgebra.multiply",
}

PACKAGE = "orthocurrent"


class Tracer:
    """Span store and per-name totals for one traced run."""

    def __init__(self):
        self.records: list[list] = []  # [name, start_ns, end_ns, parent, op_id]
        self.calls: Counter = Counter()  # every call, nested ones included
        self.group_ns: Counter = Counter()  # outermost call of a group only
        self.self_ns: Counter = Counter()  # by span name
        self.layer_self_ns: Counter = Counter()
        self.installed: set[str] = set()
        self._depth: Counter = Counter()
        self._frames: list[list[int]] = [[0]]  # child time of each open span
        self._open: list[int] = [-1]  # record index of each open recorded span
        self._op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, group, record: bool):
        frames, open_records, records = self._frames, self._open, self.records
        calls, group_ns, self_ns = self.calls, self.group_ns, self.self_ns
        layer_self, depth = self.layer_self_ns, self._depth
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group:
                depth[group] += 1
            if record:
                index = len(records)
                records.append([name, 0, 0, open_records[-1], tracer._op_id])
                open_records.append(index)
            parent = frames[-1]
            frame = [0]
            frames.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                frames.pop()
                parent[0] += elapsed
                own = elapsed - frame[0]
                self_ns[name] += own
                layer_self[layer] += own
                calls[name] += 1
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        group_ns[group] += elapsed
                if record:
                    open_records.pop()
                    span = records[index]
                    span[1] = start
                    span[2] = start + elapsed

        return traced

    def install(self) -> None:
        namespaces = [
            mod for mod_name, mod in sorted(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
        ]
        for layer, targets in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for target, group in targets:
                name = f"{layer}.{target}"
                record = layer != "scalars" and name not in UNRECORDED
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    fn = vars(owner).get(attr) if owner is not None else None
                    if not inspect.isfunction(fn):
                        continue
                    wrapped = self._wrap(fn, name, layer, group and f"{layer}.{group}", record)
                    setattr(owner, attr, wrapped)
                    self._undo.append((owner, attr, fn))
                else:
                    fn = getattr(module, attr, None)
                    if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                        continue
                    wrapped = self._wrap(fn, name, layer, group and f"{layer}.{group}", record)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is fn:
                                setattr(ns, key, wrapped)
                                self._undo.append((ns, key, fn))
                self.installed.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- harness spans -------------------------------------------------

    def run_op(self, kind: str, op_id: int, fn, *args):
        """fn(*args) under a root span for one benchmark operation."""
        self._op_id = op_id
        return self._wrap(_call, f"op.{kind}", "op", None, True)(fn, *args)

    def write(self, path) -> None:
        """Span records as JSON lines: [name, start_ns, end_ns, parent, op_id]."""
        with open(path, "w") as out:
            for span in self.records:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


def _call(fn, *args):
    return fn(*args)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit); a metric whose spans
    are not installed is left out."""
    out: dict[str, tuple[float, str]] = {}
    have = tracer.installed

    def count(metric, *names):
        if any(n in have for n in names):
            out[metric] = (sum(tracer.calls[n] for n in names), "count")

    def group(metric, layer, group_name, calls_metric=None):
        names = [f"{layer}.{t}" for t, g in TARGETS[layer] if g == group_name]
        if any(n in have for n in names):
            out[metric] = (tracer.group_ns[f"{layer}.{group_name}"] / 1e6, "ms")
        if calls_metric:
            count(calls_metric, *names)

    def layer_self(metric, layer):
        if any(n.startswith(layer + ".") for n in have):
            out[metric] = (tracer.layer_self_ns[layer] / 1e6, "ms")

    def span_self(metric, name):
        if name in have:
            out[metric] = (tracer.self_ns[name] / 1e6, "ms")

    count("scalars.add_calls", "scalars.FieldElement.__add__")
    count("scalars.mul_calls", "scalars.FieldElement.__mul__")
    count("scalars.inv_calls", "scalars.inv")
    group("scalars.poly_gcd_ms", "scalars", "poly_gcd", "scalars.poly_gcd_calls")
    group("scalars.is_square_ms", "scalars", "is_square", "scalars.is_square_calls")
    group("scalars.parse_ms", "scalars", "parse")
    group("scalars.render_ms", "scalars", "render")
    group("scalars.field_setup_ms", "scalars", "field_setup")
    layer_self("scalars.self_ms", "scalars")

    group("exact_linalg.elim_ms", "exact_linalg", "elim", "exact_linalg.elim_calls")
    group("exact_linalg.matmul_ms", "exact_linalg", "matmul", "exact_linalg.matmul_calls")
    layer_self("exact_linalg.self_ms", "exact_linalg")

    group("forms.orthogonalize_ms", "forms", "orthogonalize", "forms.orthogonalize_calls")
    group("forms.restrict_ms", "forms", "restrict")
    layer_self("forms.self_ms", "forms")

    group("liealg.skew_adjoint_ms", "liealg", "skew_adjoint")
    group("liealg.algebra_from_matrices_ms", "liealg", "algebra_from_matrices",
          "liealg.algebra_from_matrices_calls")
    group("liealg.algebra_init_ms", "liealg", "algebra_init", "liealg.algebra_init_calls")
    group("liealg.tensor_current_ms", "liealg", "tensor_current")
    group("liealg.ideal_tests_ms", "liealg", "ideal_tests")
    layer_self("liealg.self_ms", "liealg")

    group("coeff_algebra.analyze_ms", "coeff_algebra", "analyze")

    group("structure.random_w_ms", "structure", "random_w")
    group("structure.build_pipeline_ms", "structure", "build_pipeline",
          "structure.pipeline_builds")
    span_self("structure.verify_self_ms", "structure.verify_current_form")
    span_self("structure.classify_self_ms", "structure.classify")
    span_self("structure.recheck_self_ms", "structure.recheck_certificate_json")
    group("structure.counterexample_ms", "structure", "counterexample")

    group("oracle.enumerate_ideals_ms", "oracle", "enumerate_ideals")

    group("cli.parse_args_ms", "cli", "parse_args")
    span_self("cli.execute_self_ms", "cli.execute")
    return out
