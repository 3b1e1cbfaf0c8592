"""Byte-level behaviour gate: CLI output against committed golden files.

Every document under tests/golden/ is the exact stdout of one command,
with `--json` (`*.json`) or as plain text (`*.txt`).  A
refactor must leave all of them byte-identical; a change that alters
output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in the same change.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthocurrent
from orthocurrent import cli, liealg, structure
from orthocurrent.cli import execute, parse_args, recheck_json
from orthocurrent.scalars import parse_field, parse_scalar
from orthocurrent.structure import classify, inseparable_counterexample, verify_current_form

from reference import jacobi_failure

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"

# One input per field kind and decomposition case.
FORMS = (
    ("q-split", "Q", "2,3,5,30"),
    ("q-simple", "Q", "1/2,3,-1,6"),
    ("f2-semidirect", "F2", "1,1,1,1"),
    ("f3-split", "F3", "1,2,1,2"),
    ("f3-simple", "F3", "1,1,1,2"),
    ("f2t-semidirect", "F2(t)", "1,t,t+1,t^2+t"),
    ("f2t-simple", "F2(t)", "1,1,1,t"),
    ("f3t-split", "F3(t)", "t,1,1,t"),
    ("f3t-simple", "F3(t)", "1,1,t+1,t"),
    ("f9-split", "F3[sqrt 2]", "1,r,1,r"),
    ("f9-simple", "F3[sqrt 2]", "1,1+r,2,1"),
)
COUNTEREXAMPLES = (2, 3)
ORACLE_FORMS = (
    ("f2-semidirect", 2, "1,1,1,1"),
    ("f3-split", 3, "1,2,1,2"),
    ("f3-simple", 3, "1,1,1,2"),
    ("f5-split", 5, "1,1,1,1"),
    ("f5-simple", 5, "1,1,1,2"),
    ("f7-split", 7, "1,1,1,1"),
)


def _run(argv) -> str:
    code, out = execute(parse_args(argv))
    assert code == 0, out
    return out


def documents() -> dict[str, str]:
    """Golden file name -> the bytes it must hold."""
    docs = {}
    for name, field, form in FORMS:
        args = ["--field", field, "--form", form]
        for command in ("verify", "classify", "table"):
            docs[f"{name}.{command}.json"] = _run([command, *args, "--json"])
            docs[f"{name}.{command}.txt"] = _run([command, *args])
        cert = json.loads(docs[f"{name}.classify.json"])
        docs[f"{name}.recheck.json"] = json.dumps(recheck_json(cert), indent=2)
    for p in COUNTEREXAMPLES:
        args = ["counterexample", "--p", str(p)]
        docs[f"counterexample-p{p}.json"] = _run([*args, "--json"])
        docs[f"counterexample-p{p}.txt"] = _run(args)
    for name, q, form in ORACLE_FORMS:
        args = ["oracle", "--field", f"F{q}", "--form", form]
        docs[f"{name}.oracle.json"] = _run([*args, "--json"])
        docs[f"{name}.oracle.txt"] = _run(args)
    return {name: text + "\n" for name, text in docs.items()}


@pytest.fixture(scope="module")
def fresh():
    return documents()


def _golden_names() -> list[str]:
    return sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".json", ".txt"))


def test_golden_files_cover_every_document(fresh):
    assert _golden_names() == sorted(fresh)


@pytest.mark.parametrize("name", _golden_names())
def test_output_is_byte_identical(fresh, name):
    assert (GOLDEN / name).read_bytes() == fresh[name].encode()


def _as_file(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


@pytest.mark.parametrize("name, field, form", FORMS)
def test_library_returns_the_golden_documents(name, field, form):
    """classify, and verify at seed 0, return the golden documents
    themselves: the CLI adds nothing to them."""
    field = parse_field(field)
    entries = [parse_scalar(x, field) for x in form.split(",")]
    assert _as_file(classify(field, entries)) == (GOLDEN / f"{name}.classify.json").read_bytes()
    assert _as_file(verify_current_form(field, entries, seed=0)) == (
        GOLDEN / f"{name}.verify.json").read_bytes()


@pytest.mark.parametrize("p", COUNTEREXAMPLES)
def test_library_returns_the_golden_counterexample(p):
    assert _as_file(inseparable_counterexample(p)) == (
        GOLDEN / f"counterexample-p{p}.json").read_bytes()


BUILDERS = ("algebra_from_matrices", "tensor_current", "evaluated_algebra")


def test_every_algebra_the_documents_build_satisfies_jacobi(monkeypatch):
    """The constructor does not check the Jacobi identity, since the
    builders yield Lie algebras by construction or, for the evaluation, by
    the proof; the reference checks every algebra they return while the
    golden documents are made."""
    built = []

    def recording(real):
        def builder(*args):
            alg = real(*args)
            built.append(alg)
            return alg
        return builder

    for name in BUILDERS:
        wrapped = recording(getattr(liealg, name))
        for module in (liealg, structure, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    documents()
    assert {alg.dim for alg in built} >= {3, 6, 9}
    failures = [(alg, triple) for alg in built if (triple := jacobi_failure(alg))]
    assert failures == []


def test_documents_survive_optimized_mode():
    """Library invariants do not rest on `assert`: under `python -O` every
    document is still byte-identical."""
    src = Path(orthocurrent.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
    script = "import json, test_golden; print(json.dumps(test_golden.documents()))"
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    docs = json.loads(run.stdout)
    assert sorted(docs) == _golden_names()
    for name, text in docs.items():
        assert (GOLDEN / name).read_bytes() == text.encode(), name


BENCH_WORKLOADS = ("certify-small", "certify-heavy", "oracle-scan")


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py loaded from its file.  The golden round below only
    reads its perfbench/golden.json; nothing here records a digest."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", TESTS.parent / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_benchmark_golden_round_is_unchanged(bench_run, workload):
    """Every document of the benchmark's golden round, recheck outputs
    included, hashes to the digest that perfbench/golden.json records, so
    a byte change shows here before a benchmark run refuses it."""
    session, found = bench_run.golden_round(bench_run.import_library(), workload)
    assert session.failed == 0
    assert bench_run.compare_golden(workload, found) == []


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_traced_benchmark_run_ends_with_the_result(bench_run, workload, tmp_path,
                                                   monkeypatch, capsys):
    """A `--trace 1` run prints its result as the last line of stdout, and
    that result is correct and holds every per-layer metric that
    BENCHMARK.json declares.  The run writes its files under tmp_path."""
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    monkeypatch.setattr(bench_run, "OUT", tmp_path / "out")
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    assert bench_run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((TESTS.parent / "BENCHMARK.json").read_text())["per_layer"]
    missing = {metric["name"] for metric in declared} - set(result["metrics"])
    assert not missing


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in documents().items():
        (GOLDEN / name).write_bytes(text.encode())
