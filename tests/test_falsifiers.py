"""A falsifier for every check name of the classify, verify, table,
oracle and counterexample documents.

Each entry of FALSIFIERS breaks one thing and names the checks that must
then fail, and no others.  A falsifier is either

- an `Edit`: one leaf of a golden document set to a new value, the
  document then rechecked by `cli.recheck_json`; or
- a `Patch`: one function of `structure`, `cli` or `liealg`, or one of
  liealg's rows, replaced for one command run through `cli.execute`, for
  checks that no well-formed document can fail.

`test_every_check_name_has_a_falsifier` reads the check names of every
golden document and fails for a name that no entry fails, so a new golden
document brings an entry for each of its new check names.
"""

import json
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path
from types import ModuleType
from typing import Callable

import pytest

from orthocurrent import cli, liealg, structure
from orthocurrent.cli import execute, parse_args, recheck_json
from orthocurrent.exact_linalg import canonicalize_subspace

GOLDEN = Path(__file__).resolve().parent / "golden"

DOCUMENTS = sorted(path.name for path in GOLDEN.glob("*.json"))


def _failed(checks: list[dict]) -> set[str]:
    return {c["name"] for c in checks if not c["ok"]}


def _names(doc) -> set[str]:
    """Every check name in a document: its checks, and the checks of
    anything it nests (the counterexample's descent_checks)."""
    if isinstance(doc, list):
        return set().union(*map(_names, doc))
    if isinstance(doc, dict):
        own = {doc["name"]} if set(doc) == {"name", "ok"} else set()
        return own.union(*map(_names, doc.values()))
    return set()


@dataclass(frozen=True)
class Edit:
    """Set the leaf at `path` of a golden document to `value` and recheck."""

    golden: str
    path: tuple
    value: object

    def failed(self, monkeypatch) -> set[str]:
        doc = json.loads((GOLDEN / self.golden).read_text())
        *parents, last = self.path
        reduce(lambda node, key: node[key], parents, doc)[last] = self.value
        return _failed(recheck_json(doc))


@dataclass(frozen=True)
class Patch:
    """Replace `<module>.<name>` by `wrap(real)` and run the command.  The
    proof's cache is keyed on liealg's rows, not on the code that proves
    them, so the command runs with it empty and proves under the patch."""

    name: str
    wrap: Callable
    argv: tuple
    module: ModuleType = structure

    def failed(self, monkeypatch) -> set[str]:
        real = getattr(self.module, self.name)
        monkeypatch.setattr(self.module, self.name, self.wrap(real))
        monkeypatch.setattr(liealg, "_PROOFS", {})
        code, out = execute(parse_args([*self.argv, "--json"]))
        doc = json.loads(out)
        failed = _failed(doc["checks"] + doc.get("descent_checks", []))
        assert code == (1 if failed else 0)
        return failed


CLASSIFY_F2 = ("classify", "--field", "F2", "--form", "1,1,1,1")
COUNTER_P2 = ("counterexample", "--p", "2")
COUNTER_P3 = ("counterexample", "--p", "3")
CLASSIFY_Q_SIMPLE = ("classify", "--field", "Q", "--form", "1/2,3,-1,6")
# The f3-split golden form.
VERIFY_F3 = ("verify", "--field", "F3", "--form", "1,2,1,2")
TABLE_F3 = ("table", "--field", "F3", "--form", "1,2,1,2")
# b = c, so a row that says c where the paper says b reads the same here.
TABLE_F3_ONES = ("table", "--field", "F3", "--form", "1,1,1,1")
ORACLE_F3 = ("oracle", "--field", "F3", "--form", "1,2,1,2")
SEMIDIRECT = "f2-semidirect.classify.json"
SPLIT = "f3-split.classify.json"
SIMPLE = "q-simple.classify.json"


def _rows(*bits: str) -> list[list[str]]:
    return [list(b) for b in bits]


def _without(fact):
    """prove_identity with one named fact of the proof read as failed."""
    return lambda real: lambda: {**real(), fact: False}


def _flip_second_call(real):
    """is_square answering the other way on its second call: in verify,
    the square class of the random W's discriminant."""
    calls = []

    def patched(x):
        calls.append(x)
        root = real(x)
        if len(calls) != 2:
            return root
        return x if root is None else None
    return patched


def _double_first_coefficient(real):
    def patched(*entries):
        brackets = real(*entries)
        row = next(iter(brackets.values()))
        k = next(iter(row))
        row[k] = row[k] + row[k]
        return brackets
    return patched


# name -> (falsifier, the checks it must fail)
FALSIFIERS = {
    "recorded-D": (Edit(SEMIDIRECT, ("D",), "0"), {"recorded_discriminant_matches"}),
    "recorded-table": (Edit(SEMIDIRECT, ("table", 0, 1, 2), "0"), {"recorded_table_matches"}),
    # Over F3 the discriminant 1 is a square in odd characteristic: split,
    # so the semidirect witnesses are not read.
    "field-F3": (Edit(SEMIDIRECT, ("field",), "F3"),
                 {"case_matches_square_class", "recorded_table_matches"}),
    "case-two-ideals": (Edit(SEMIDIRECT, ("case",), "two_simple_ideals"),
                        {"case_matches_square_class"}),
    "case-simple": (Edit(SEMIDIRECT, ("case",), "simple_by_descent"),
                    {"case_matches_square_class"}),
    "nilpotent-zero": (Edit(SEMIDIRECT, ("witnesses", "nilpotent"), ["0", "0"]),
                       {"nilpotent_nonzero"}),
    "nilpotent-unit": (Edit(SEMIDIRECT, ("witnesses", "nilpotent"), ["1", "0"]),
                       {"nilpotent_squares_to_zero"}),
    "N-not-closed": (Edit(SEMIDIRECT, ("witnesses", "N"), _rows("001000", "011100", "100111")),
                     {"N_subalgebra", "N_bracket_closed", "N_perfect"}),
    "N-a-line": (Edit(SEMIDIRECT, ("witnesses", "N"), _rows("100101")),
                 {"N_dim_3", "N_perfect", "sum_is_everything"}),
    "N-closed-not-perfect": (
        Edit(SEMIDIRECT, ("witnesses", "N"), _rows("100011", "011011", "111011")),
        {"N_perfect", "sum_direct", "sum_is_everything"}),
    "R-not-an-ideal": (Edit(SEMIDIRECT, ("witnesses", "R"), _rows("110001", "000100", "111110")),
                       {"R_ideal", "R_abelian"}),
    "R-a-line": (Edit(SEMIDIRECT, ("witnesses", "R"), _rows("110011")),
                 {"R_dim_3", "R_ideal", "sum_is_everything"}),
    "R-meets-N": (Edit(SEMIDIRECT, ("witnesses", "R"), _rows("101000")),
                  {"R_dim_3", "R_ideal", "sum_direct", "sum_is_everything"}),
    # Over F3 with D = 1, F[X]/(X^2 - 1) has the idempotents 2 + 2x and
    # 2 + x; 1 is idempotent but not orthogonal to 2 + x, and x squares to 1.
    "e-plus-unit": (Edit(SPLIT, ("witnesses", "e_plus"), ["1", "0"]),
                    {"idempotents_orthogonal", "idempotents_sum_to_unit"}),
    "e-plus-x": (Edit(SPLIT, ("witnesses", "e_plus"), ["0", "1"]),
                 {"e_plus_idempotent", "idempotents_orthogonal", "idempotents_sum_to_unit"}),
    "e-minus-x": (Edit(SPLIT, ("witnesses", "e_minus"), ["0", "1"]),
                  {"e_minus_idempotent", "idempotents_orthogonal", "idempotents_sum_to_unit"}),
    "I1-two-rows": (Edit(SPLIT, ("witnesses", "I1"), _rows("100100", "010010")),
                    {"I1_bracket_closed", "I1_dim_3", "I1_ideal", "I1_perfect",
                     "sum_is_everything"}),
    "I2-two-rows": (Edit(SPLIT, ("witnesses", "I2"), _rows("100200", "010020")),
                    {"I2_bracket_closed", "I2_dim_3", "I2_ideal", "I2_perfect",
                     "sum_is_everything"}),
    "I1-is-I2": (Edit(SPLIT, ("witnesses", "I1"), _rows("100200", "010020", "001002")),
                 {"sum_direct", "sum_is_everything"}),
    "extension-other": (Edit(SIMPLE, ("witnesses", "extension"), "Q[sqrt 6]"),
                        {"recorded_extension_matches"}),
    # The pipeline's tables_match reads the proof's table too.
    "identity-no-table": (Patch("prove_identity", _without("table"), VERIFY_F3),
                          {"random_w_tables_match", "tables_match"}),
    # The pipeline's span check and the dimension laws read the span too.
    "identity-no-span": (Patch("prove_identity", _without("span"), VERIFY_F3),
                         {"random_w_spans_match", "distinguished_basis_spans_derived",
                          "dimension_laws"}),
    # dim L is the proven law, n(n - 1)/2 plus n in characteristic 2.
    "skew-dim-off-by-one": (Patch("prove_identity", _without("laws"), VERIFY_F3),
                            {"dimension_laws"}),
    # dim [L, L] of the core is 3 because f1, f2, f3 span it.
    "core-derived-row-dropped": (Patch("prove_identity", _without("core_span"), VERIFY_F3),
                                 {"core_basis_spans_derived", "dimension_laws"}),
    "random-w-square-class-flipped": (Patch("is_square", _flip_second_call, VERIFY_F3),
                                      {"random_w_square_class_invariant"}),
    # The proof reads TABLE_ROWS through table_brackets at the symbols.
    "table-coefficient-doubled": (
        Patch("table_brackets", _double_first_coefficient, TABLE_F3, liealg),
        {"table_matches_computed"}),
    # Misstated for every diagonal but those with b = c: the proof sees it.
    "table-row-unseen-by-diagonal": (
        Patch("TABLE_ROWS", lambda rows: (("f1", "f2", "c", "f3"),) + rows[1:], TABLE_F3_ONES,
              liealg),
        {"table_matches_computed"}),
    "oracle-ideal-missing": (
        Patch("enumerate_ideals", lambda real: lambda ad: real(ad)[:-1], ORACLE_F3, cli),
        {"enumeration_complete"}),
    "D-a-square": (Patch("is_square", lambda real: lambda x: x, CLASSIFY_Q_SIMPLE),
                   {"discriminant_non_square"}),
    "no-derived-step": (
        Patch("derived_series_of_subspace", lambda real: lambda *a: real(*a)[:-1], CLASSIFY_F2),
        {"R_abelian", "R_solvable"}),
    # R = 0 is an abelian ideal, but reaches 0 in no bracket, not one.
    "R-zero": (
        Patch("analyze_quadratic",
              lambda real: lambda d: replace(real(d), nilpotent=(d.field.zero(),) * 2),
              CLASSIFY_F2),
        {"R_dim_3", "R_solvable", "sum_is_everything"}),
    # TABLE_ROWS not shown to be core (x) F[X]/(X^2 - D).
    "wrong-coefficient-ring": (Patch("prove_identity", _without("tensor"), CLASSIFY_F2),
                               {"tables_match"}),
    # M's basis not shown to span [L, L].
    "no-commutators": (Patch("prove_identity", _without("span"), CLASSIFY_F2),
                       {"distinguished_basis_spans_derived"}),
    "s-has-a-root": (Patch("pth_root", lambda real: lambda x: x, COUNTER_P2),
                     {"s_has_no_pth_root"}),
    "radical-zero": (
        Patch("local_powers", lambda real: lambda r, s, p: [(r.field.zero(),) * p], COUNTER_P2),
        {"radical_nonzero", "radical_dim", "radical_solvable", "abelian_ideal_dim_3",
         "quotient_perfect_dim_3"}),
    "radical-is-core": (
        Patch("local_powers",
              lambda real: lambda r, s, p: [(r.field.one(),) + (r.field.zero(),) * (p - 1)],
              COUNTER_P2),
        {"radical_ideal", "radical_solvable", "abelian_ideal_ideal", "abelian_ideal_abelian",
         "quotient_perfect_dim_3"}),
    # core (x) (x - u) at p = 3: not an ideal, and [R, R] = core (x) (x - u)^2.
    "radical-one-power": (
        Patch("local_powers", lambda real: lambda *a: [real(*a)[0]] * 2, COUNTER_P3),
        {"radical_dim", "radical_ideal", "radical_solvable", "abelian_ideal_ideal",
         "abelian_ideal_abelian", "quotient_perfect_dim_3"}),
    "no-complement": (
        Patch("_sum_checks",
              lambda real: lambda a, b: [{**c, "ok": False} for c in real(a, b)], COUNTER_P2),
        {"quotient_perfect_dim_3"}),
    "core-not-perfect": (
        Patch("derived_subspace",
              lambda real: lambda alg: canonicalize_subspace(alg.field, [], alg.dim), COUNTER_P2),
        {"perfect_over_extension", "simple_over_extension_dim3", "simple_over_base_by_span",
         "core_simple_over_base"}),
}


@pytest.mark.parametrize("name", FALSIFIERS)
def test_falsifier_fails_exactly_its_checks(monkeypatch, name):
    falsifier, expected = FALSIFIERS[name]
    assert falsifier.failed(monkeypatch) == expected


def test_every_check_name_has_a_falsifier():
    names = set().union(*(_names(json.loads((GOLDEN / d).read_text())) for d in DOCUMENTS))
    falsified = set().union(*(expected for _, expected in FALSIFIERS.values()))
    assert names - falsified == set()
