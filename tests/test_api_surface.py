"""Every function, class and method in the library serves a command.

A definition counts as used when some module of the package refers to its
name outside the definition itself: as a `Name`, an `Attribute` or an
import.  `__init__.py` is not searched for uses, since re-exporting a name
does not use it.  Names are matched as plain identifiers, so a method
counts as used when any attribute of that name is read.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import orthocurrent
from orthocurrent.liealg import LieAlgebraSC

PACKAGE = Path(orthocurrent.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# (module, name) -> why it stays although no module of the package uses it.
ALLOWED = {
    ("cli", "recheck_json"): "entry point of the independent checker",
    ("oracle", "gaussian_binomial"): "acceptance criterion 6 and perfbench count subspaces with it",
    ("forms", "restrict"): "perfbench wraps it for the per-layer metric forms.restrict_ms",
    ("liealg", "skew_adjoint_algebra"):
        "perfbench wraps it for the per-layer metric liealg.skew_adjoint_ms",
    ("liealg", "algebra_from_matrices"):
        "perfbench wraps it for the per-layer metrics liealg.algebra_from_matrices_ms and _calls",
}


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unused_definitions():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}  # name -> [(module, line)]
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            name = _referenced_name(node)
            if name is not None:
                uses.setdefault(name, []).append((module, node.lineno))
    unused = set()
    for module, tree in modules.items():
        for node in _definitions(tree):
            outside = [
                (m, line) for m, line in uses.get(node.name, [])
                if not (m == module and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unused.add((module, node.name))
    return unused


def test_every_definition_is_used_by_the_package():
    unused = unused_definitions()
    assert unused - set(ALLOWED) == set()
    # An allowlisted name that gains a use, or disappears, leaves the list.
    assert set(ALLOWED) <= unused


def _constructions(tree, cls):
    """(function, line) of each call of `cls` in the tree, by the name of
    the innermost function around it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and _referenced_name(node.func) == cls:
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_algebras_are_built_by_two_builders():
    """LieAlgebraSC is constructed only by algebra_from_matrices,
    tensor_current and evaluated_algebra: every algebra a command builds is
    M or a core evaluated from the proven table, or a current algebra over
    F[X]/(X^n - s); no command builds one from matrices, which only the
    tests' reference and perfbench do.  The constructor does not check the
    Jacobi identity, so this test backs it: each builder yields a Lie
    algebra by an argument of its own (coordinates proved against
    independent matrices, a Lie algebra tensored with a commutative
    associative ring, or an identity over Z[a, b, c, d] that
    `prove_identity` proves of such matrices, evaluated), and another
    builder would carry none."""
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, _ in _constructions(ast.parse(path.read_text()), "LieAlgebraSC"):
            builders.add((path.stem, scope))
    assert builders == {("liealg", "algebra_from_matrices"), ("liealg", "tensor_current"),
                        ("liealg", "evaluated_algebra")}


def test_the_library_holds_no_assert():
    """Library invariants survive `python -O`, which strips `assert`: a
    check the library needs raises an exception of its own instead."""
    asserts = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_module_reads_the_environment():
    """Each command is a function of its arguments alone: no module of the
    package reads `os.environ` or calls `os.getenv`, so a variable set in
    the shell cannot change a document."""
    readers = {"environ", "environb", "getenv", "getenvb"}
    reads = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in readers)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in readers for alias in node.names))
    ]
    assert reads == []


def _named(node):
    """The identifier a node reads, imports, defines or binds as a parameter."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg
    return _referenced_name(node)


def test_an_algebra_keeps_one_table():
    """LieAlgebraSC stores its brackets and nothing derived from them: no
    dense table beside them, and no module names the second table or the
    readers that served it.  Strings are not names, so the documents' JSON
    keys are not searched."""
    assert LieAlgebraSC.__slots__ == ("field", "dim", "brackets")
    gone = {"constants", "_sparse_rows", "paper_table", "tensor_to_json"}
    named = [
        (path.name, node.lineno, _named(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _named(node) in gone
    ]
    assert named == []


def test_the_coefficient_product_is_called_by_two_modules_only():
    """liealg.quotient_product, the product of F[X]/(X^n - s), is called
    only by tensor_current's rule `_current_brackets` (which the proof runs
    too) and in coeff_algebra, whose local_powers builds the powers of
    x - r for classify and the counterexample alike: a second construction
    of those powers elsewhere fails here."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, _ in _constructions(ast.parse(path.read_text()), "quotient_product"):
            callers.add((path.stem, scope))
    assert ("liealg", "_current_brackets") in callers
    others = callers - {("liealg", "_current_brackets")}
    assert {module for module, _ in others} == {"coeff_algebra"}
    assert ("coeff_algebra", "local_powers") in others


def test_classify_and_the_checker_compute_no_fact_themselves():
    """classify and recheck_certificate_json read every fact of a
    decomposition case off the one function that computes it from the
    case's witnesses: a check computed in either of them directly states
    the case a second time."""
    tree = ast.parse((PACKAGE / "structure.py").read_text())
    fact_makers = {"is_ideal", "_perfect_subspace_checks", "_sum_checks",
                   "certify_simple_via_descent"}
    direct = {
        (scope, name)
        for name in fact_makers
        for scope, _ in _constructions(tree, name)
        if scope in ("classify", "recheck_certificate_json")
    }
    assert direct == set()


def test_the_oracle_does_no_library_arithmetic():
    """The oracle reads M's brackets from WEDGE_ROWS in its own integers
    mod q and computes on plain integers from there: from the package it
    imports WEDGE_ROWS from liealg, at most the prime field kind from
    scalars, and nothing else.  Reading M from a library algebra, or a
    round trip of its lattice through library subspaces, fails here."""
    imported = {}
    for node in ast.walk(ast.parse((PACKAGE / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            if module in ("", PACKAGE.name):  # from . import exact_linalg
                for alias in node.names:
                    imported.setdefault(alias.name, set())
            else:
                imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name.rpartition(".")[2], set())
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(imported) & modules <= {"liealg", "scalars"}
    assert "exact_linalg" not in imported
    assert imported["liealg"] == {"WEDGE_ROWS"}
    assert imported.get("scalars", set()) <= {"KIND_PRIME"}


# The per-layer metrics that perfbench/run.py computes itself, from its
# sessions and span records, rather than from the tracer's installed names.
RUN_METRICS = {
    "oracle.subspaces_scanned",
    "oracle.ideals_found",
    "cli.json_bytes",
    "trace.untraced_ms",
    "trace.overhead_ms",
    "trace.overhead_pct",
    "trace.spans",
}


def test_the_benchmark_finds_every_per_layer_metric():
    """perfbench/tracer.py wraps library functions by name and reports a
    metric only while one of its names exists as a plain function, so a
    renamed or removed function silently drops the metric from a traced
    run.  Every per_layer metric of BENCHMARK.json must come out of an
    installed tracer, but for those run.py computes, and run.py's count of
    scanned subspaces needs oracle.gaussian_binomial."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    for layer in tracer_module.TARGETS:
        importlib.import_module(f"orthocurrent.{layer}")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        found = set(tracer_module.layer_metrics(tracer))
    finally:
        tracer.uninstall()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert RUN_METRICS <= declared
    assert declared - RUN_METRICS - found == set()
    oracle = importlib.import_module("orthocurrent.oracle")
    assert callable(oracle.gaussian_binomial)
