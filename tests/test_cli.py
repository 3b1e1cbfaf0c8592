import copy
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orthocurrent
from orthocurrent import cli, forms, liealg, structure
from orthocurrent.cli import execute, main, parse_args, recheck_json
from orthocurrent.scalars import MAX_LITERAL_DIGITS, MAX_TOWER_HEIGHT


def run(argv):
    spec = parse_args(argv)
    return execute(spec)


def test_parse_args_classify():
    spec = parse_args(["classify", "--field", "F3", "--form", "1,1,1,2", "--json"])
    assert spec.command == "classify" and spec.as_json
    assert len(spec.entries) == 4


def test_parse_args_verify_defaults():
    spec = parse_args(["verify", "--field", "Q", "--form", "1,2,3,4"])
    assert spec.command == "verify" and spec.seed == 0


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process; a usage error leaves it fit
    for the next call."""
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        parse_args(["classify", "--field", "F3", "--form", "1,1,1"])
    assert exc.value.code == 2
    assert "--form expects exactly four" in capsys.readouterr().err
    spec = parse_args(["classify", "--field", "F3", "--form", "1,1,1,2"])
    assert spec.command == "classify" and not spec.as_json
    assert [x.payload for x in spec.entries] == [1, 1, 1, 2]


def test_flag_values_do_not_leak_into_later_calls():
    spec = parse_args(["verify", "--field", "Q", "--form", "1,2,3,4",
                       "--seed", "3", "--json"])
    assert (spec.seed, spec.as_json) == (3, True)
    spec = parse_args(["verify", "--field", "Q", "--form", "1,2,3,4"])
    assert (spec.seed, spec.as_json) == (0, False)


def test_usage_errors_exit_2(capsys):
    for argv in [
        ["oracle", "--field", "Q", "--form", "1,1,1,1"],
        ["oracle", "--form", "1,1,1,1"],
        # the oracle names its field with --field only
        ["oracle", "--q", "3", "--form", "1,1,1,1"],
        ["classify", "--field", "F3", "--form", "1,1,1"],
        ["classify", "--field", "nonsense", "--form", "1,1,1,1"],
        ["counterexample", "--p", "5"],
        # beyond the deterministic Miller-Rabin bound
        ["classify", "--field", "F3825123056546413053", "--form", "1,1,1,1"],
        # the attempt bound of the random-W leg is not an option
        ["verify", "--field", "Q", "--form", "1,2,3,4", "--trials", "40"],
        # exponents above scalars.MAX_LITERAL_DEGREE = 1000
        ["table", "--field", "F3(t)", "--form", "1,1,1,t^1001"],
        ["table", "--field", "F3(t)", "--form", "1,1,1,1/(t^1001+1)"],
        ["table", "--field", "F2(t)[sqrt t+1]", "--form", "1,1,1,t+t^1001*r"],
        # an empty, a dangling, a zero-denominator and an unbalanced entry
        ["table", "--field", "F3(t)", "--form", "1,1,1,()"],
        ["table", "--field", "F3(t)", "--form", "1,1,1,t+"],
        ["table", "--field", "F3(t)", "--form", "1,1,1,1/0"],
        ["table", "--field", "F3(t)", "--form", "1,1,1,)t("],
        ["table", "--field", "F3]", "--form", "1,1,1,1"],
        [],
    ]:
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert re.match(r"orthocurrent( \w+)?: error: ", last)


def test_huge_exponent_is_refused_before_allocation(capsys):
    """Degree 1000 parses, in a numerator and a denominator; t^20000000
    exits 2 at once instead of building 20 million coefficients."""
    spec = parse_args(["table", "--field", "F3(t)", "--form", "1,1,t^1000,1/(t^1000+1)"])
    assert [x.payload[0].degree + x.payload[1].degree for x in spec.entries] == [0, 0, 1000, 1000]
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        parse_args(["table", "--field", "F3(t)", "--form", "1,1,1,t^20000000"])
    assert exc.value.code == 2 and time.perf_counter() - start < 1.0
    assert "exceeds the literal bound 1000" in capsys.readouterr().err


@pytest.mark.parametrize("str_digits", [None, 0])
def test_long_numbers_are_refused_at_the_digit_bound(str_digits, capsys):
    """A number one digit over scalars.MAX_LITERAL_DIGITS, or past Python's
    default limit of 4300 digits on str -> int conversion, exits 2 with a
    message that names only the bound, also with that limit switched off;
    a number at the bound parses."""
    at = "7" * MAX_LITERAL_DIGITS
    bound = f"exceeds the literal bound of {MAX_LITERAL_DIGITS} digits"
    previous = sys.get_int_max_str_digits()
    if str_digits is not None:
        sys.set_int_max_str_digits(str_digits)
    try:
        assert parse_args(["table", "--field", "Q", "--form", f"1,2,3,{at}"]).entries[3]
        for over in ("7" * (MAX_LITERAL_DIGITS + 1), "7" * 5000):
            gram = f"[[{over},0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
            for argv, what in [
                (["table", "--field", "Q", "--form", f"1,2,3,{over}"], "bad --form entry"),
                (["table", "--field", "Q", "--form", f"1,2,3,1/{over}"], "bad --form entry"),
                (["table", "--field", f"F{over}", "--form", "1,1,1,1"], "bad field literal"),
                (["oracle", "--field", f"F{over}", "--form", "1,1,1,1"], "bad field literal"),
                (["table", "--field", "Q", "--gram", gram], "bad --gram matrix"),
            ]:
                with pytest.raises(SystemExit) as exc:
                    parse_args(argv)
                assert exc.value.code == 2
                last = capsys.readouterr().err.splitlines()[-1]
                assert last == f"orthocurrent: error: {what}: a number {bound}"
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("digits,factor", [(300, 2), (MAX_LITERAL_DIGITS, 1)])
def test_witnesses_past_the_digit_bound_recheck(digits, factor):
    """The digit bound applies to literals, not to the computed witnesses
    of a classify document: over Q, 1,1,X,2X (simple, the extension's
    radicand 2X^2) and 1,1,X,X (split, e+/e- and the ideal rows of the
    size of sqrt D) record numbers longer than the bound, and the checker
    still passes every check."""
    x = int("7" * (digits - 1) + "3")
    form = f"1,1,{x},{factor * x}"
    code, out = run(["classify", "--field", "Q", "--form", form, "--json"])
    data = json.loads(out)
    assert code == 0 and max(map(len, re.findall(r"\d+", out))) > MAX_LITERAL_DIGITS
    checks = recheck_json(data)
    assert checks[0]["name"] != "document_well_formed" and all(c["ok"] for c in checks)


def test_output_past_the_str_digit_limit_is_a_domain_error():
    """Under a lowered limit on int -> str conversion, a result too long to
    print exits 1 with a message that names neither the limit nor the
    call that raises it."""
    x = "7" * MAX_LITERAL_DIGITS
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for args in (["--form", f"{x},{x},1,1"], ["--form", f"{x},{x},1,1", "--json"]):
            code, out = run(["table", "--field", "Q"] + args)
            assert code == 1 and out == "error: a result is too long to print in decimal"
    finally:
        sys.set_int_max_str_digits(previous)


def test_verify_command_passes():
    code, out = run(["verify", "--field", "Q", "--form", "1,2,3,4"])
    assert code == 0
    assert "D = 24" in out and out.endswith("PASS")


def test_table_command_text():
    code, out = run(["table", "--field", "Q", "--form", "1,2,3,4"])
    assert code == 0
    assert "[f1,f2] = b f3 = 2 f3" in out
    assert "[h2,h3] = D c f1 = 72 f1" in out
    assert "[h1,h2] = D b f3 = 48 f3" in out
    assert "[f1,h1] = [f2,h2] = [f3,h3] = 0" in out


def test_classify_json_case():
    code, out = run(["classify", "--field", "F2", "--form", "1,1,1,1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "semidirect_N_R"
    assert all(c["ok"] for c in data["checks"])


@pytest.mark.parametrize("gram", [
    json.dumps([["0", "1"], ["1", "0"]]),  # 2x2: not 4-dimensional
    "[1,2,3,4]",  # rows that are numbers
    json.dumps([None, ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]),
    json.dumps(["1000", "0200", "0030", "0004"]),  # rows that are strings
    pytest.param("[" * 1000 + "]" * 1000, id="nested-1000"),
    pytest.param(json.dumps([["1", "0", "0", "0"], ["0", "1", "0"], ["0", "0", "1", "0"],
                             ["0", "0", "0", "1"]]), id="ragged"),
    pytest.param(json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                             ["0", "0", "0"]]), id="four-by-three"),
])
def test_bad_gram_rows_are_usage_errors(gram, capsys):
    """Each row must be a JSON list: a number, a null or a string row exits
    2 with a usage error, where a number or a null raised TypeError and a
    string was read one character per literal.  A list nested too deeply
    for the JSON reader is a usage error too, not a RecursionError
    traceback."""
    with pytest.raises(SystemExit) as exc:
        parse_args(["classify", "--field", "Q", "--gram", gram])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "orthocurrent: error: bad --gram matrix: ")


def test_classify_gram_input():
    gram = json.dumps(
        [
            ["0", "1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1"],
        ]
    )
    code, out = run(["classify", "--field", "Q", "--gram", gram, "--json"])
    assert code == 0
    data = json.loads(out)
    # diag(2, -1/2, 1, 1); D = -1 is a non-square over Q
    assert data["case"] == "simple_by_descent"
    code, out = run(["classify", "--field", "Q", "--gram", gram])
    assert code == 0
    line = "(diagonal entries obtained by orthogonalizing the given Gram matrix)"
    assert line in out.splitlines()


def test_counterexample_json():
    code, out = run(["counterexample", "--p", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["radical_dim"] == 3 and data["quotient_perfect"]


def test_oracle_command():
    code, out = run(["oracle", "--field", "F3", "--form", "1,1,1,2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ideal_count"] == 2
    code, out = run(["oracle", "--field", "F2", "--form", "1,1,1,1"])
    assert code == 0
    assert "dimension histogram" in out


def test_oracle_q7_split_and_simple():
    code, out = run(["oracle", "--field", "F7", "--form", "1,1,1,1", "--json"])
    assert code == 0
    ideals = json.loads(out)["ideals"]
    _, out = run(["classify", "--field", "F7", "--form", "1,1,1,1", "--json"])
    witnesses = json.loads(out)["witnesses"]
    assert len(ideals) == 4 and ideals[0] == [] and len(ideals[3]) == 6
    assert sorted(ideals[1:3]) == sorted([witnesses["I1"], witnesses["I2"]])
    # D = 3 is not a square mod 7
    code, out = run(["oracle", "--field", "F7", "--form", "1,1,1,3", "--json"])
    assert code == 0
    assert [len(rows) for rows in json.loads(out)["ideals"]] == [0, 6]


def test_oracle_recheck_catches_tampering():
    data = json.loads(run(["oracle", "--field", "F3", "--form", "1,1,1,1", "--json"])[1])
    for key, value in [("ideal_count", 99), ("D", "0"),
                       ("checks", [{"name": "enumeration_complete", "ok": False}])]:
        checks = recheck_json(dict(data, **{key: value}))
        assert checks[0] == {"name": "reproduced_identically", "ok": False}
        assert checks[1:] == data["checks"]


def test_oracle_recheck_malformed_documents_fail():
    data = json.loads(run(["oracle", "--field", "F2", "--form", "1,1,1,1", "--json"])[1])
    for doc in [
        {"command": "oracle"},
        dict(data, form="1,1,1,1"),
        dict(data, form=[1, 1, 1, 1]),
        dict(data, form=["1", "1", "1"]),
        dict(data, form=["x", "1", "1", "1"]),
        dict(data, form=["1/0", "1", "1", "1"]),
        dict(data, form=["0", "1", "1", "1"]),
        dict(data, field="F11"),
        dict(data, field="Q"),
        dict(data, field=None),
    ]:
        assert recheck_json(doc) == [{"name": "document_well_formed", "ok": False}]


def test_error_exit_code_1():
    code, out = run(["classify", "--field", "Q", "--form", "1,1,1,0"])
    assert code == 1 and out.startswith("error:")
    # mathematically invalid Gram matrices are module errors, not usage errors
    singular = json.dumps([["1", "0", "0", "0"],
                           ["0", "1", "0", "0"],
                           ["0", "0", "1", "1"],
                           ["0", "0", "1", "1"]])
    code, out = run(["classify", "--field", "Q", "--gram", singular])
    assert code == 1 and out.startswith("error:")
    asymmetric = json.dumps([["1", "2", "0", "0"],
                             ["0", "1", "0", "0"],
                             ["0", "0", "1", "0"],
                             ["0", "0", "0", "1"]])
    code, out = run(["classify", "--field", "Q", "--gram", asymmetric])
    assert code == 1 and out.startswith("error:")


def test_table_and_oracle_reject_zero_entry_alike():
    """Every command reads the diagonal before anything else, the oracle
    with a reader of its own, so a zero entry stops each with one message."""
    for argv in (["table", "--field", "F3"], ["oracle", "--field", "F3"],
                 ["classify", "--field", "F3"], ["verify", "--field", "F3"]):
        for form, name in (("0,1,1,1", "a"), ("1,0,1,1", "b")):
            code, out = run([*argv, "--form", form])
            assert (code, out) == (1, f"error: diagonal entry {name} must be nonzero")


def test_json_round_trips_recheck():
    documents = [
        run(["verify", "--field", "F3", "--form", "1,1,1,2", "--json"])[1],
        run(["classify", "--field", "F3", "--form", "1,1,1,2", "--json"])[1],
        run(["table", "--field", "Q", "--form", "1,2,3,4", "--json"])[1],
        run(["oracle", "--field", "F2", "--form", "1,1,1,1", "--json"])[1],
        run(["counterexample", "--p", "2", "--json"])[1],
    ]
    for blob in documents:
        checks = recheck_json(json.loads(blob))
        assert checks and all(c["ok"] for c in checks)


def test_text_and_json_agree_on_case():
    _, text_out = run(["classify", "--field", "F5", "--form", "1,1,1,2", "--json"])
    case_json = json.loads(text_out)["case"]
    _, text = run(["classify", "--field", "F5", "--form", "1,1,1,2"])
    assert case_json in text


def test_main_prints_and_returns(capsys):
    code = main(["table", "--field", "Q", "--form", "1,1,1,1"])
    captured = capsys.readouterr()
    assert code == 0 and "[f1,f2] = b f3 = 1 f3" in captured.out


def test_a_closed_pipe_ends_quietly():
    """`classify ... --json | head -3` closes the pipe before the document
    is written: the command exits with the document's code and writes no
    traceback, where a BrokenPipeError escaped `main` with exit 1."""
    src = Path(orthocurrent.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "orthocurrent.cli", "classify", "--field", "F3",
             "--form", "1,1,1,2", "--json"],
            stdout=write, stderr=subprocess.PIPE, env=env, check=False)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (0, b"")


def test_the_seed_is_read_from_the_arguments_only(monkeypatch):
    """The environment sets no seed: verify prints the same bytes with or
    without ORTHOCURRENT_SEED, which once overrode the default of 0."""
    argv = ["verify", "--field", "Q", "--form", "1,2,3,4", "--json"]
    plain = run(argv)
    monkeypatch.setenv("ORTHOCURRENT_SEED", "7")
    assert run(argv) == plain and json.loads(plain[1])["seed"] == 0


LITERAL_FIELDS = ("Q", "F2", "F3", "F3(t)", "F2(t)", "Q[sqrt 2]", "F3[sqrt 2]",
                  "F3(t)[sqrt t]", "F2(t)[sqrt t+1]")
LITERAL_CHARS = "0123456789tr+-*/^(), "
# Small literals joined by operators, so that some forms parse and run;
# most random strings exit 2.
_PIECE = st.sampled_from(["1", "2", "-3", "t", "r", "t^2", "2*r", "(t+1)"])
_JOINED = st.tuples(
    _PIECE, st.lists(st.tuples(st.sampled_from("+-*/"), _PIECE), max_size=2),
).map(lambda parts: parts[0] + "".join(op + x for op, x in parts[1]))
_ENTRY = st.one_of(st.text(LITERAL_CHARS.replace(",", ""), min_size=1, max_size=4), _JOINED)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field=st.sampled_from(LITERAL_FIELDS),
       form=st.one_of(st.text(LITERAL_CHARS, max_size=24),
                      st.lists(_ENTRY, min_size=4, max_size=4).map(",".join)))
def test_no_form_literal_raises(field, form):
    """Whatever the --form string, `table` either exits 2 while its
    arguments are read or runs to exit 0 or 1: no other exception escapes."""
    try:
        spec = parse_args(["table", "--field", field, "--form", form])
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert execute(spec)[0] in (0, 1)


def test_table_recheck_catches_tampering():
    data = json.loads(run(["table", "--field", "F3", "--form", "1,1,1,2", "--json"])[1])
    assert recheck_json(data) == [{"name": "reproduced_identically", "ok": True}] + data["checks"]
    for key, value in [("D", "0"), ("form", ["1", "1", "1", "1"]),
                       ("checks", [{"name": "table_matches_computed", "ok": False}])]:
        checks = recheck_json(dict(data, **{key: value}))
        assert checks[0] == {"name": "reproduced_identically", "ok": False}


def test_verify_gives_up_where_the_checker_would(monkeypatch):
    """Verify documents do not record the random-W leg's attempt bound, so
    verify and the checker share one.  At this seed W is found only at
    attempt 33: with the bound an option, `--trials 40` passed with a
    document that the checker, rerunning with 32, refused as malformed.
    Now verify gives up too, with exit 1 and no document, and `--trials`
    is a usage error."""
    argv = ["verify", "--field", "F2", "--form", "1,1,1,1", "--seed", "207432", "--json"]
    assert run(argv) == (1, "error: no nondegenerate restriction found in 32 attempts")
    with pytest.raises(SystemExit) as exc:
        parse_args(argv + ["--trials", "40"])
    assert exc.value.code == 2
    # Under a larger shared bound, the document passes and rechecks.
    monkeypatch.setattr(structure, "RANDOM_W_ATTEMPTS", 33)
    code, out = run(argv)
    data = json.loads(out)
    assert code == 0 and data["random_w"]["attempts"] == 33
    assert all(c["ok"] for c in recheck_json(data))


def test_recheck_tells_true_from_one():
    """In Python True == 1, in a document they differ: the whole-document
    comparison reads them as JSON."""
    data = json.loads(run(["verify", "--field", "F3", "--form", "1,1,1,2", "--json"])[1])
    assert data["random_w"]["attempts"] == 1 and recheck_json(data)[0]["ok"]
    tampered = [
        dict(data, random_w=dict(data["random_w"], attempts=True)),
        dict(data, checks=[dict(c, ok=1) for c in data["checks"]]),
        dict(data, seed=False),
    ]
    for doc in tampered:
        checks = recheck_json(doc)
        assert checks[0]["name"] in ("reproduced_identically", "document_well_formed")
        assert not checks[0]["ok"]


GOLDEN_DOCUMENTS = sorted(
    path.name for path in (Path(__file__).resolve().parent / "golden").glob("*.json")
    if not path.name.endswith(".recheck.json")
)
_DROP = object()
# What a leaf may be replaced by: every JSON type, and a number too long
# for the literal bound.
REPLACEMENTS = (None, True, False, 0, 7, -1, "", "9" * 600, ["1"], {"name": "x"}, _DROP)


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


@pytest.mark.parametrize("name", GOLDEN_DOCUMENTS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_checker_survives_one_changed_leaf(name, data):
    """One leaf of a golden document replaced or dropped: the checker never
    raises and returns {"name", "ok"} dicts only, and some check fails.
    A classify certificate is not compared whole yet: the checker reads
    neither its recorded checks nor its descent document or sqrt_D, and
    reads a 600-digit witness literal as the field element it equals, so
    a change under `witnesses` or `checks` may pass."""
    doc = json.loads((Path(__file__).resolve().parent / "golden" / name).read_text())
    path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
    new = data.draw(st.sampled_from(REPLACEMENTS))
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    assume(json.dumps(mutated) != json.dumps(doc))
    checks = recheck_json(mutated)
    assert checks and all(
        type(c) is dict and set(c) == {"name", "ok"} and type(c["ok"]) is bool for c in checks
    )
    if doc["command"] != "classify" or path[0] not in ("witnesses", "checks"):
        assert not all(c["ok"] for c in checks)


@pytest.mark.parametrize("command", ["verify", "table", "classify", "counterexample"])
def test_recheck_malformed_documents_fail(command):
    if command == "counterexample":
        argv = ["counterexample", "--p", "2", "--json"]
    else:
        argv = [command, "--field", "F3", "--form", "1,1,1,2", "--json"]
    data = json.loads(run(argv)[1])
    data["command"] = command
    assert recheck_json(data)[0]["ok"]
    docs = [{"command": command}]
    if command == "counterexample":
        docs += [dict(data, p=5), dict(data, p="2"), dict(data, p=None)]
    else:
        docs += [
            dict(data, form="1,1,1,2"),
            # four one-character literals once splatted, and one literal too many
            dict(data, form="1112"),
            dict(data, form=["1", "1", "1", "2", "1"]),
            dict(data, form=[1, 1, 1, 2]),
            dict(data, form=["1", "1", "1"]),
            dict(data, form=["x", "1", "1", "2"]),
            dict(data, form=["0", "1", "1", "2"]),
            dict(data, field=None),
            dict(data, field="nonsense"),
            # literals past the digit bound, each equal to 2 over F3
            dict(data, form=["1", "1", "1", "2" + "0" * MAX_LITERAL_DIGITS]),
            dict(data, field=f"F3[sqrt {'2' + '0' * MAX_LITERAL_DIGITS}]"),
        ]
    if command == "verify":
        docs += [dict(data, seed="0"), {k: v for k, v in data.items() if k != "seed"}]
    if command == "classify":
        docs += [dict(data, witnesses={}), dict(data, witnesses=None)]
    for doc in docs:
        assert recheck_json(doc) == [{"name": "document_well_formed", "ok": False}], doc


def test_field_towers_are_bounded(capsys):
    """A field literal with more than scalars.MAX_TOWER_HEIGHT square roots,
    even 3000 of them, exits 2 at once; classify at the bound exits 1 when
    D is not a square, since F[sqrt D] would be one level more; the checker
    fails document_well_formed on all of them."""
    bound = f"a field tower may adjoin at most {MAX_TOWER_HEIGHT} square roots"
    at = "Q[sqrt 2][sqrt 3][sqrt 5]"
    talls = (at + "[sqrt 7]", "Q" + "[sqrt 2]" * 3000)
    for tall in talls:
        start = time.perf_counter()
        for command in ("verify", "classify", "table"):
            with pytest.raises(SystemExit) as exc:
                parse_args([command, "--field", tall, "--form", "1,1,1,1"])
            assert exc.value.code == 2
            last = capsys.readouterr().err.splitlines()[-1]
            assert last == f"orthocurrent: error: bad field literal: {bound}"
        assert time.perf_counter() - start < 1.0
    assert run(["classify", "--field", at, "--form", "1,1,1,11"]) == (1, f"error: {bound}")
    data = json.loads(run(["classify", "--field", "F3", "--form", "1,1,1,2", "--json"])[1])
    for doc in [dict(data, field=at, form=["1", "1", "1", "11"])] + [
        dict(data, field=tall, form=["1", "1", "1", "1"]) for tall in talls
    ]:
        assert recheck_json(doc) == [{"name": "document_well_formed", "ok": False}]


class _LyingForm:
    """A form that calls every vector isotropic and every pair of distinct
    vectors paired, so orthogonalization repairs without end.  Its "G v"
    is v itself, so that a pairing can tell which vector it was given."""

    def __init__(self, form):
        self.field, self.dim = form.field, form.dim
        self.nondegenerate, self.alternating = True, False

    def image(self, v):
        return v

    def pair(self, u, gv):
        return self.field.zero() if u is gv else self.field.one()

    def evaluate(self, u, v):
        return self.pair(u, self.image(v))


def test_unreachable_internal_faults_exit_1(monkeypatch):
    """The fault that orthogonalization claims unreachable is a domain
    error: forced, it exits 1 with its message and no traceback, where an
    AssertionError escaped `execute`."""
    real = forms.orthogonalize
    monkeypatch.setattr(structure, "orthogonalize",
                        lambda form, rows=None: real(_LyingForm(form), rows))
    assert run(["verify", "--field", "Q", "--form", "1,2,3,4"]) == (
        1, "error: orthogonalization failed to converge")


def test_recheck_unknown_document_fails():
    for doc in [{}, {"command": "nonsense"}, [], "classify"]:
        assert recheck_json(doc) == [{"name": "document_well_formed", "ok": False}]


@pytest.mark.parametrize("name", ["f3-split", "f2-semidirect", "q-simple"])
def test_a_classify_document_names_its_command(name):
    """A classify certificate without its command, or with a null one, is
    no document the checker knows, whatever else it holds."""
    doc = json.loads((Path(__file__).resolve().parent / "golden" / f"{name}.classify.json")
                     .read_text())
    assert all(c["ok"] for c in recheck_json(doc))
    for broken in ({k: v for k, v in doc.items() if k != "command"}, dict(doc, command=None)):
        assert recheck_json(broken) == [{"name": "document_well_formed", "ok": False}]


def _break_table_identity(monkeypatch):
    # The proof no longer shows TABLE_ROWS to be core (x) F[X]/(X^2 - D).
    real = structure.prove_identity
    monkeypatch.setattr(structure, "prove_identity", lambda: {**real(), "tensor": False})


def _misstate_a_table_row(monkeypatch):
    # [f1,f2] = c f3 instead of b f3; b and c differ in the form below.
    monkeypatch.setattr(liealg, "TABLE_ROWS", (("f1", "f2", "c", "f3"),) + liealg.TABLE_ROWS[1:])


def _drop_an_ideal(monkeypatch):
    real = cli.enumerate_ideals
    monkeypatch.setattr(cli, "enumerate_ideals", lambda ad: real(ad)[:-1])


@pytest.mark.parametrize("command, field, breaks, failed", [
    ("verify", "Q", _break_table_identity, {"tables_match"}),
    ("classify", "Q", _break_table_identity, {"tables_match"}),
    ("table", "Q", _misstate_a_table_row, {"table_matches_computed"}),
    # verify's tables_match and the random-W leg both read the proof of
    # the same rows.
    ("verify", "Q", _misstate_a_table_row, {"tables_match", "random_w_tables_match"}),
    ("oracle", "F3", _drop_an_ideal, {"enumeration_complete"}),
], ids=["verify", "classify", "table", "verify-table-row", "oracle"])
def test_a_failing_check_exits_1_in_both_formats(monkeypatch, command, field, breaks, failed):
    breaks(monkeypatch)
    argv = [command, "--field", field, "--form", "1,2,1,2"]
    code, out = run(argv + ["--json"])
    assert code == 1
    assert {c["name"] for c in json.loads(out)["checks"] if not c["ok"]} == failed
    code, out = run(argv)
    assert code == 1
    assert all(f"  check {name}: FAILED" in out.splitlines() for name in failed)
    assert out.endswith("\nFAIL")
