"""Byte-level behaviour gate: CLI JSON output against committed golden files.

Every document under tests/golden/ is the exact stdout of one command.  A
refactor must leave all of them byte-identical; a change that alters
output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in the same change.
"""

import json
from pathlib import Path

import pytest

from orthocurrent.cli import execute, parse_args, recheck_json

GOLDEN = Path(__file__).resolve().parent / "golden"

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
ORACLE_FORMS = (("f3-split", "1,2,1,2"), ("f3-simple", "1,1,1,2"))


def _run(argv) -> str:
    code, out = execute(parse_args(argv))
    assert code == 0, out
    return out


def documents() -> dict[str, str]:
    """Golden file name -> the bytes it must hold."""
    docs = {}
    for name, field, form in FORMS:
        args = ["--field", field, "--form", form, "--json"]
        for command in ("verify", "classify", "table"):
            docs[f"{name}.{command}.json"] = _run([command, *args])
        cert = json.loads(docs[f"{name}.classify.json"])
        docs[f"{name}.recheck.json"] = json.dumps(recheck_json(cert), indent=2)
    for p in COUNTEREXAMPLES:
        docs[f"counterexample-p{p}.json"] = _run(["counterexample", "--p", str(p), "--json"])
    for name, form in ORACLE_FORMS:
        docs[f"{name}.oracle.json"] = _run(["oracle", "--q", "3", "--form", form, "--json"])
    return {name: text + "\n" for name, text in docs.items()}


@pytest.fixture(scope="module")
def fresh():
    return documents()


def test_golden_files_cover_every_document(fresh):
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(fresh)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_output_is_byte_identical(fresh, name):
    assert (GOLDEN / name).read_bytes() == fresh[name].encode()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in documents().items():
        (GOLDEN / name).write_bytes(text.encode())
