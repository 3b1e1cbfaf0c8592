"""Command-line front end.

Five subcommands: `verify` checks the current-algebra form of the derived
orthogonal algebra, `classify` emits a decomposition certificate, `table`
prints the multiplication table in the distinguished basis, `oracle`
enumerates all ideals over a tiny prime field, and `counterexample`
reproduces the loss of semisimplicity after inseparable base change.

Each command builds one JSON document; `--json` prints it and the text
output renders it.  Exit codes: 0 when every check in the document passes,
1 when a computation runs but some check fails (which would falsify the
library's claims) or a domain error occurs, 2 for usage errors.  All
randomness flows from one seed, `--seed` (default 0); no command reads
the environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .exact_linalg import Matrix
from .forms import make_form, orthogonalize
from . import liealg, oracle
from .liealg import BASIS_NAMES, discriminant, evaluated_algebra, prove_identity
from .oracle import SUPPORTED_Q, adjoint_tables, enumerate_ideals, enumeration_complete
from .scalars import (
    FieldDescriptor,
    FieldElement,
    KIND_PRIME,
    ParseError,
    check_literal_digits,
    parse_field,
    parse_scalar,
    render_field,
    render_scalar,
)
from .structure import (
    CASE_SIMPLE,
    CASE_TWO_IDEALS,
    COUNTEREXAMPLE_PRIMES,
    classify,
    document_literals,
    inseparable_counterexample,
    recheck_certificate_json,
    table_to_json,
    verify_current_form,
)

# Errors a computation raises on inputs it rejects; they exit 1.
DOMAIN_ERRORS = (ValueError, RuntimeError, ZeroDivisionError)

_ORACLE_FIELDS = ", ".join(f"F{q}" for q in SUPPORTED_Q[:-1]) + f" or F{SUPPORTED_Q[-1]}"


@dataclass(frozen=True)
class CommandSpec:
    command: str
    field: Optional[FieldDescriptor] = None
    entries: Optional[tuple[FieldElement, ...]] = None
    gram: Optional[Matrix] = None
    as_json: bool = False
    seed: int = 0
    p: int = 2

    @property
    def from_gram(self) -> bool:
        return self.gram is not None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="orthocurrent",
        description="4-dimensional orthogonal Lie algebras as current algebras, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_form_args(p, fields="field literal: Q, F<p>, F<p>(t), <base>[sqrt <D>]"):
        p.add_argument("--field", required=True, help=fields)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--form", help="four comma-separated diagonal entries")
        group.add_argument("--gram", help="full symmetric Gram matrix as JSON rows of literals")
        p.add_argument("--json", action="store_true", dest="as_json")

    p_verify = sub.add_parser("verify", help="verify the current-algebra form of M")
    add_form_args(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)

    p_classify = sub.add_parser("classify", help="emit a decomposition certificate")
    add_form_args(p_classify)

    p_table = sub.add_parser("table", help="print the multiplication table")
    add_form_args(p_table)

    p_oracle = sub.add_parser("oracle", help="enumerate all ideals over F_q")
    add_form_args(p_oracle, _ORACLE_FIELDS)

    p_counter = sub.add_parser(
        "counterexample",
        help="simplicity lost after inseparable base change over F_p(t)",
    )
    p_counter.add_argument("--p", type=int, choices=COUNTEREXAMPLE_PRIMES, default=2)
    p_counter.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _parse_form(parser: argparse.ArgumentParser, field: FieldDescriptor,
                ns: argparse.Namespace):
    """(diagonal entries, gram matrix or None); literal problems exit 2.

    Mathematical defects of a Gram matrix (asymmetry, degeneracy) are left
    for execute(), which maps them to exit code 1 like any module error.
    """
    if ns.form is not None:
        parts = [p.strip() for p in ns.form.split(",")]
        if len(parts) != 4:
            parser.error("--form expects exactly four comma-separated entries")
        try:
            check_literal_digits(ns.form)
            entries = tuple(parse_scalar(p, field) for p in parts)
        except (ParseError, ValueError) as exc:
            parser.error(f"bad --form entry: {exc}")
        return entries, None
    try:
        check_literal_digits(ns.gram)
        grid = json.loads(ns.gram)
        if not isinstance(grid, list) or len(grid) != 4:
            raise ParseError("expected four rows")
        if not all(isinstance(row, list) for row in grid):
            raise ParseError("expected each row to be a list")
        rows = [[parse_scalar(str(x), field) for x in row] for row in grid]
        gram = Matrix(field, rows)
        if gram.ncols != 4:
            raise ParseError("expected four columns per row")
    except (ParseError, ValueError, RecursionError) as exc:
        parser.error(f"bad --gram matrix: {exc}")
    return None, gram


def parse_args(argv: Sequence[str]) -> CommandSpec:
    """Validated command spec; exits with code 2 on usage errors."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "counterexample":
        return CommandSpec("counterexample", p=ns.p, as_json=ns.as_json)
    try:
        check_literal_digits(ns.field)
        field = parse_field(ns.field)
    except (ParseError, ValueError) as exc:
        parser.error(f"bad field literal: {exc}")
    if ns.command == "oracle" and (field.kind != KIND_PRIME or field.p not in SUPPORTED_Q):
        parser.error(f"oracle requires a finite prime field {_ORACLE_FIELDS}")
    entries, gram = _parse_form(parser, field, ns)
    return CommandSpec(ns.command, field=field, entries=entries, gram=gram,
                       as_json=ns.as_json, seed=getattr(ns, "seed", 0))


# ---------------------------------------------------------------------------
# Documents: one builder per command.  The JSON output is the document, the
# text output renders it, and the checker rebuilds it from its literals.
# `structure` builds the verify, classify and counterexample documents.
# ---------------------------------------------------------------------------


def _table_json(spec: CommandSpec) -> dict:
    """The symbolic table rows with their coefficients, read off M evaluated
    at the input, and whether the proof holds the table at every diagonal."""
    alg = evaluated_algebra(spec.entries)
    entries = []
    for left, right, symbol, target in liealg.TABLE_ROWS:
        i, j, k = (BASIS_NAMES.index(name) for name in (left, right, target))
        coeff = alg.brackets[i, j][k] if i < j else -alg.brackets[j, i][k]
        entries.append({
            "bracket": f"[{left},{right}]",
            "symbolic": f"{symbol} {target}",
            "coefficient": render_scalar(coeff),
            "target": target,
        })
    return {
        "command": "table",
        "field": render_field(spec.field),
        "form": [render_scalar(x) for x in spec.entries],
        "D": render_scalar(discriminant(*spec.entries)),
        "entries": entries,
        "table": table_to_json(alg),
        "checks": [{"name": "table_matches_computed", "ok": prove_identity()["table"]}],
    }


def _oracle_json(spec: CommandSpec) -> dict:
    """Every ideal of M over F_q, as the rows of its canonical keys, with
    the oracle's own check of the lattice on the same tables."""
    if spec.field.kind != KIND_PRIME:
        raise oracle.UnsupportedField("ideal enumeration runs over prime fields")
    tables = adjoint_tables(*oracle.wedge_brackets(spec.field.p, [x.payload for x in spec.entries]))
    ideals = enumerate_ideals(tables)
    hist = Counter(len(pivots) for pivots, _ in ideals)
    return {
        "command": "oracle",
        "field": render_field(spec.field),
        "form": [render_scalar(x) for x in spec.entries],
        "D": render_scalar(discriminant(*spec.entries)),
        "ideal_count": len(ideals),
        "histogram": {str(k): v for k, v in sorted(hist.items())},
        "ideals": [[[str(x) for x in row] for row in rows] for _, rows in ideals],
        "checks": [{"name": "enumeration_complete",
                    "ok": enumeration_complete(tables, ideals)}],
    }


# ---------------------------------------------------------------------------
# Text renderings of the documents.
# ---------------------------------------------------------------------------


def _form_header(doc: dict, from_gram: bool) -> list[str]:
    lines = [f"field {doc['field']}, form diag({', '.join(doc['form'])}), D = {doc['D']}"]
    if from_gram:
        lines.append("(diagonal entries obtained by orthogonalizing the given Gram matrix)")
    return lines


def _check_lines(checks: list[dict]) -> list[str]:
    return [f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'}" for c in checks]


def _verdict(doc: dict) -> str:
    return "PASS" if all(c["ok"] for c in doc["checks"]) else "FAIL"


def _render_verify(doc: dict, from_gram: bool) -> list[str]:
    lines = _form_header(doc, from_gram)
    d = doc["dims"]
    lines.append(
        f"dims: skew-adjoint {d['skew_adjoint']}, derived {d['derived']}, "
        f"core {d['core_skew_adjoint']}, core derived {d['core_derived']}"
    )
    lines.append(f"table matches core (x) F[X]/(X^2-D): {'yes' if doc['equal'] else 'NO'}")
    w = doc["random_w"]
    lines.append(
        f"random W (seed {doc['seed']}, attempt {w['attempts']}): "
        f"diagonal ({', '.join(w['diagonal'])}), "
        f"D' = {w['D']}, tables match: {'yes' if w['equal'] else 'NO'}"
    )
    return lines + _check_lines(doc["checks"]) + [_verdict(doc)]


def _render_classify(doc: dict, from_gram: bool) -> list[str]:
    lines = _form_header(doc, from_gram)
    lines.append(f"case: {doc['case']}")
    witnesses = doc["witnesses"]
    if doc["case"] == CASE_SIMPLE:
        lines.append(f"  extension: {witnesses['extension']}")
    else:
        names = ("I1", "I2") if doc["case"] == CASE_TWO_IDEALS else ("N", "R")
        lines += [f"  {name} basis: {witnesses[name]}" for name in names]
    return lines + _check_lines(doc["checks"]) + [_verdict(doc)]


def _render_table(doc: dict, from_gram: bool) -> list[str]:
    lines = _form_header(doc, from_gram)
    entries = doc["entries"]
    for pos, e in enumerate(entries):
        lines.append(f"{e['bracket']} = {e['symbolic']} = {e['coefficient']} {e['target']}")
        if pos % 3 == 2 and pos != len(entries) - 1:
            lines.append("")
    lines.append("[f1,h1] = [f2,h2] = [f3,h3] = 0")
    return lines + _check_lines(doc["checks"]) + [_verdict(doc)]


def _render_oracle(doc: dict, from_gram: bool) -> list[str]:
    lines = _form_header(doc, from_gram)
    lines.append(f"ideals found: {doc['ideal_count']}")
    lines.append("dimension histogram: "
                 + ", ".join(f"{k}: {v}" for k, v in doc["histogram"].items()))
    lines += [f"  dim {len(rows)}: {rows}" for rows in doc["ideals"]]
    return lines + _check_lines(doc["checks"]) + [_verdict(doc)]


def _render_counterexample(doc: dict, from_gram: bool) -> list[str]:
    lines = [
        f"p = {doc['p']}: base {doc['base_field']}, "
        f"extension {doc['extension_field']}, s = {doc['s']}",
        f"current algebra dimension: {doc['current_dim']}",
        f"radical dimension: {doc['radical_dim']}",
        f"abelian ideal dimension: {len(doc['abelian_ideal'])}",
        f"quotient perfect of dimension {doc['quotient_dim']}: "
        f"{'yes' if doc['quotient_perfect'] else 'NO'}",
    ]
    return lines + _check_lines(doc["checks"]) + [_verdict(doc)]


# command -> (document builder, text renderer)
COMMANDS = {
    "verify": (lambda spec: verify_current_form(spec.field, spec.entries, seed=spec.seed),
               _render_verify),
    "classify": (lambda spec: classify(spec.field, spec.entries), _render_classify),
    "table": (_table_json, _render_table),
    "oracle": (_oracle_json, _render_oracle),
    "counterexample": (lambda spec: inseparable_counterexample(spec.p), _render_counterexample),
}


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------


def execute(spec: CommandSpec) -> tuple[int, str]:
    """Run one validated command; returns (exit code, rendered output).

    The exit code is 0 exactly when every check of the document holds."""
    build, render = COMMANDS[spec.command]
    try:
        if spec.gram is not None:
            _, squares = orthogonalize(make_form(spec.gram))
            spec = replace(spec, entries=squares)
        doc = build(spec)
    except DOMAIN_ERRORS as exc:
        return 1, f"error: {exc}"
    code = 0 if all(c["ok"] for c in doc["checks"]) else 1
    if spec.as_json:
        return code, json.dumps(doc, indent=2)
    return code, "\n".join(render(doc, spec.from_gram))


_MALFORMED = [{"name": "document_well_formed", "ok": False}]


def _document_int(data: dict, key: str) -> int:
    value = data.get(key)
    if type(value) is not int:
        raise ParseError(f"document {key} must be an integer")
    return value


def _recheck(data: dict) -> list[dict]:
    command = data.get("command")
    if command == "classify":
        return recheck_certificate_json(data)
    if command == "counterexample":
        spec = CommandSpec(command, p=_document_int(data, "p"))
    elif command in ("verify", "table", "oracle"):
        field, entries = document_literals(data)
        spec = CommandSpec(command, field=field, entries=entries)
        if command == "verify":
            spec = replace(spec, seed=_document_int(data, "seed"))
    else:
        raise ParseError("unrecognized document")
    fresh = COMMANDS[command][0](spec)
    # Compared as JSON text: in Python true == 1, in a document they differ.
    same = json.dumps(fresh, sort_keys=True) == json.dumps(data, sort_keys=True)
    return [{"name": "reproduced_identically", "ok": same}] + fresh["checks"]


def recheck_json(data: dict) -> list[dict]:
    """Re-run the checks embedded in any emitted JSON document.

    Everything is recomputed from the recorded literals, and the fresh
    document must equal the given one.  A document the checker cannot
    read, or whose literals the library rejects, fails
    `document_well_formed` instead of raising.
    """
    if not isinstance(data, dict):
        return _MALFORMED
    try:
        return _recheck(data)
    # Missing or mistyped certificate witnesses raise LookupError or
    # TypeError; literals the library rejects raise domain errors.
    except (LookupError, TypeError) + DOMAIN_ERRORS:
        return _MALFORMED


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = parse_args(sys.argv[1:] if argv is None else list(argv))
    code, output = execute(spec)
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`| head -3`): point stdout at the null device
        # so that the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
