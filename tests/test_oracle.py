import json
import random
import time
from collections import Counter
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocurrent import cli, oracle
from orthocurrent.liealg import LieAlgebraSC
from orthocurrent.oracle import (
    SUPPORTED_Q,
    UnsupportedField,
    _adjoint_matrices,
    _graph,
    _image_tables,
    _principal_ideals,
    adjoint_tables,
    enumerate_ideals,
    enumeration_complete,
    gaussian_binomial,
    wedge_brackets,
)
from orthocurrent.scalars import prime_field, rationals
from orthocurrent.structure import CASE_SEMIDIRECT, CASE_SIMPLE, CASE_TWO_IDEALS, classify

from reference import (
    _apply,
    basis_matrix,
    brackets_of,
    current_algebra,
    dense_bracket,
    document_subspace,
    enumerate_subspaces,
    ideal_closure,
    ideal_subspaces,
    integer_brackets,
    iter_echelon,
    spin_principal_ideal,
    subspace_meet_join,
    unit,
)

F2 = prime_field(2)
F3 = prime_field(3)


def derived_orthogonal(field, values):
    return current_algebra([field.from_int(v) for v in values])


def algebra_from_brackets(field, n, brackets):
    """The algebra of {(i, j): integer vector of [e_i, e_j]}, i < j."""
    return LieAlgebraSC(field, n, brackets_of(
        {pair: [field.from_int(x) for x in vec] for pair, vec in brackets.items()}))


def ideals_of(alg):
    return enumerate_ideals(adjoint_tables(*integer_brackets(alg)))


def test_the_oracle_reads_m_as_the_matrix_route_does():
    """On every diagonal in (F_q^x)^4 for q in 2, 3, 5 and 7, 1,569 of
    them, the brackets that the oracle reads from WEDGE_ROWS in its own
    integers are the payloads of M's brackets built over F_q from the
    commutators of the wedge matrices, with the same q and dimension."""
    count = 0
    for q in SUPPORTED_Q:
        field = prime_field(q)
        for values in product(range(1, q), repeat=4):
            expected = integer_brackets(current_algebra([field.from_int(v) for v in values]))
            assert wedge_brackets(q, values) == expected, (q, values)
            count += 1
    assert count == 1569


@pytest.mark.parametrize("row, error", [
    (("h2", 4, 4, "b c"), "error: [f1, h3] leaves the wedges' span"),
    (("h2", 1, 3, "b c"), "error: two wedges share an entry"),
])
def test_a_misstated_wedge_row_stops_the_oracle_cleanly(monkeypatch, row, error):
    """A WEDGE_ROWS row that is no wedge on a pair of its own, here h2 on
    the diagonal entry (4, 4) or on f3's pair (1, 3), exits 1 with one
    error line: the reader proves each commutator on every entry and reads
    coordinates only at entries of their own.  A misstated kappa is no
    such error: it rescales one basis element, and every commutator stays
    in the span."""
    monkeypatch.setattr(oracle, "WEDGE_ROWS",
                        tuple(row if r[0] == "h2" else r for r in oracle.WEDGE_ROWS))
    argv = ["oracle", "--field", "F3", "--form", "1,2,1,2"]
    assert cli.execute(cli.parse_args(argv)) == (1, error)


def test_an_oracle_document_over_another_field_is_malformed():
    """An oracle document over a field that is not prime, F3(t) or
    F3[sqrt 2] here, fails document_well_formed on recheck: the oracle
    refuses the field before it reads the entries as integers mod q."""
    code, out = cli.execute(cli.parse_args(["oracle", "--field", "F3", "--form", "1,1,1,1",
                                            "--json"]))
    data = json.loads(out)
    for field in ("F3(t)", "F3[sqrt 2]"):
        assert cli.recheck_json(dict(data, field=field)) == [
            {"name": "document_well_formed", "ok": False}]


def histogram(ideals):
    return Counter(len(pivots) for pivots, _ in ideals)


def scan_ideals(alg):
    """Reference: test every subspace of F_q^n for ad-invariance, then sort
    by (dimension, pivots, rows), as oracle keys."""
    q, n = alg.field.p, alg.dim
    basis = [unit(alg, i) for i in range(n)]
    ads = []
    for x in basis:
        columns = [dense_bracket(alg, x, y) for y in basis]  # ad(x) e_j
        ads.append([[col[k].payload for col in columns] for k in range(n)])

    def invariant(pivots, rows):
        for v in rows:
            for ad in ads:
                w = [sum(map(mul, ad_row, v)) for ad_row in ad]
                for p, row in zip(pivots, rows):
                    t = w[p]
                    if t:
                        w = [a - t * b for a, b in zip(w, row)]
                if any(x % q for x in w):
                    return False
        return True

    found = [
        (k, pivots, rows)
        for k in range(n + 1)
        for pivots, rows in iter_echelon(q, n, k)
        if invariant(pivots, rows)
    ]
    found.sort()
    return [(pivots, tuple(rows)) for _, pivots, rows in found]


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(6, 3, 3) == 33880


def test_counts_match_gaussian_binomials_small():
    for q in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(q, n, k))
                assert count == gaussian_binomial(n, k, q)


def test_enumeration_yields_distinct_canonical_subspaces():
    seen = set()
    for space in enumerate_subspaces(2, 4, 2):
        key = basis_matrix(space).rows
        assert key not in seen
        seen.add(key)
    assert len(seen) == gaussian_binomial(4, 2, 2)


def test_unsupported_parameters():
    with pytest.raises(UnsupportedField):
        list(enumerate_subspaces(11, 3, 1))
    with pytest.raises(UnsupportedField):
        list(enumerate_subspaces(2, 8, 1))
    with pytest.raises(UnsupportedField):
        list(enumerate_subspaces(2, 3, 4))
    with pytest.raises(UnsupportedField):
        integer_brackets(LieAlgebraSC(rationals(), 1, {}))
    with pytest.raises(UnsupportedField):
        adjoint_tables(11, 6, {})
    with pytest.raises(UnsupportedField):
        adjoint_tables(3, 7, {})


def test_ideals_f3_split_form():
    ideals = ideals_of(derived_orthogonal(F3, [1, 1, 1, 1]))
    assert len(ideals) == 4
    assert histogram(ideals) == {0: 1, 3: 2, 6: 1}


def test_ideals_f3_simple_form():
    ideals = ideals_of(derived_orthogonal(F3, [1, 1, 1, 2]))
    assert len(ideals) == 2
    assert histogram(ideals) == {0: 1, 6: 1}


def test_ideals_f2_semidirect_form():
    alg = derived_orthogonal(F2, [1, 1, 1, 1])
    ideals = ideal_subspaces(alg)
    assert any(space.dim == 3 for space in ideals)
    # N = span{f1,f2,f3} is a subalgebra but not an ideal
    n_span = [unit(alg, i) for i in range(3)]
    from orthocurrent.exact_linalg import canonicalize_subspace

    n_space = canonicalize_subspace(F2, n_span, 6)
    assert n_space not in ideals
    # every 3-dimensional ideal in the list is abelian
    from orthocurrent.liealg import bracket_span

    for space in ideals:
        if space.dim == 3:
            assert bracket_span(alg, space).dim == 0


def test_ideal_lattice_closed_under_meet_join():
    for field, values in [(F3, [1, 1, 1, 1]), (F2, [1, 1, 1, 1])]:
        ideals = ideal_subspaces(derived_orthogonal(field, values))
        for a in ideals:
            for b in ideals:
                meet, join = subspace_meet_join(a, b)
                assert meet in ideals and join in ideals


def test_ideal_closure_member_and_minimal():
    alg = derived_orthogonal(F3, [1, 1, 1, 1])
    ideals = ideal_subspaces(alg)
    rng = random.Random(12)
    for _ in range(6):
        v = tuple(F3.from_int(rng.randrange(3)) for _ in range(6))
        closure = ideal_closure(alg, [v])
        assert closure in ideals
        for space in ideals:
            if space.contains(v):
                assert space.dim >= closure.dim


def test_ideals_f5_simple_form():
    f5 = prime_field(5)
    alg = derived_orthogonal(f5, [1, 1, 1, 2])
    start = time.perf_counter()
    ideals = ideals_of(alg)
    assert time.perf_counter() - start < 2.0
    assert len(ideals) == 2


def test_principal_ideals_match_subspace_scan():
    start = time.perf_counter()
    algebras = [derived_orthogonal(F2, [1, 1, 1, 1])]
    # split (D = 1) and simple (D = 2) forms over F_3
    for values in ([1, 1, 1, 1], [1, 1, 1, 2], [1, 2, 1, 2], [2, 2, 2, 1], [1, 2, 2, 2]):
        algebras.append(derived_orthogonal(F3, values))
    for field in (F2, F3):
        # abelian: every subspace is an ideal
        algebras.append(algebra_from_brackets(field, 3, {}))
        # [x, y] = y, [x, z] = z: every subspace of span{y, z} is an ideal
        algebras.append(algebra_from_brackets(field, 3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]}))
        # Heisenberg: [x, y] = z
        algebras.append(algebra_from_brackets(field, 3, {(0, 1): [0, 0, 1]}))
    for alg in algebras:
        assert ideals_of(alg) == scan_ideals(alg)
    # the reference finds every subspace of the abelian algebra over F_2
    assert len(scan_ideals(algebras[-6])) == sum(gaussian_binomial(3, k, 2) for k in range(4))
    assert time.perf_counter() - start < 5.0


def test_enumeration_complete_detects_bad_lists():
    tables = adjoint_tables(*integer_brackets(derived_orthogonal(F3, [1, 1, 1, 1])))
    ideals = enumerate_ideals(tables)
    assert enumeration_complete(tables, ideals)
    # without M, or without 0
    assert not enumeration_complete(tables, ideals[:-1])
    assert not enumeration_complete(tables, ideals[1:])
    # span{f1, f2, f3} is a subalgebra, not an ideal
    n_space = ((0, 1, 2), ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)))
    assert n_space not in ideals
    assert not enumeration_complete(tables, ideals + [n_space])
    # abelian: two lines without their sum, the plane they span
    abelian = adjoint_tables(*integer_brackets(algebra_from_brackets(F3, 3, {})))
    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    lines = [((0,), e[:1]), ((1,), e[1:2])]
    zero, whole = ((), ()), ((0, 1, 2), e)
    assert not enumeration_complete(abelian, [zero, *lines, whole])
    plane = ((0, 1), e[:2])
    assert enumeration_complete(abelian, [zero, *lines, plane, whole])


def spun_ideals(ads, q, n):
    return {spin_principal_ideal(v, ads, q, n)
            for v in _graph(_image_tables(ads, q, n), q, n)[0]}


def small_algebras(field):
    """The 3-dimensional abelian, [x, y] = y, [x, z] = z and Heisenberg
    algebras, and the algebras of dimension 0 and 1."""
    return [
        algebra_from_brackets(field, 3, {}),
        algebra_from_brackets(field, 3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]}),
        algebra_from_brackets(field, 3, {(0, 1): [0, 0, 1]}),
        LieAlgebraSC(field, 0, {}),
        LieAlgebraSC(field, 1, {}),
    ]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_principal_ideals_of_small_algebras_match_the_spins(q):
    for alg in small_algebras(prime_field(q)):
        ads, n = _adjoint_matrices(*integer_brackets(alg)), alg.dim
        assert _principal_ideals(_image_tables(ads, q, n), q, n) == spun_ideals(ads, q, n)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_principal_ideals_match_the_spins(data):
    """One pass over the point graph finds the ideals that spinning each
    projective point finds: on M for forms over F2, F3 and F5, and on
    arbitrary sparse maps, whose graphs have components of every shape."""
    q = data.draw(st.sampled_from([2, 3, 5]), label="q")
    if data.draw(st.booleans(), label="M"):
        values = data.draw(st.lists(st.integers(1, q - 1), min_size=4, max_size=4), label="form")
        ads, n = _adjoint_matrices(*integer_brackets(derived_orthogonal(prime_field(q), values))), 6
    else:
        n = data.draw(st.integers(0, 4), label="n")
        entry = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                          st.integers(1, q - 1))
        ads = [tuple(m) for m in data.draw(
            st.lists(st.lists(entry, max_size=2 * n), max_size=3 if n else 0), label="maps")]
    assert _principal_ideals(_image_tables(ads, q, n), q, n) == spun_ideals(ads, q, n)


def test_scan_reads_n_table_images_per_point_and_few_inserts(monkeypatch):
    """A work guard, not a clock: n table images per projective point, each
    one entry of each half table, and few echelon inserts.  Spinning each
    point took 3,482 inserts on F3 1,1,1,1 and 162,498 on F7 1,1,1,1; one
    pass over the graph takes 113 and 231.  An `oracle` command builds
    the tables once, for the scan and its enumeration_complete check."""
    calls = {"hi": 0, "lo": 0, "_insert": 0, "_image_tables": 0}

    def counted(table, name):
        class Counted(list):
            def __getitem__(self, i):
                calls[name] += 1
                return list.__getitem__(self, i)
        return Counted(table)

    def tables(*args, _fn=oracle._image_tables):
        calls["_image_tables"] += 1
        return [[counted(hi, "hi"), counted(lo, "lo")] for hi, lo in _fn(*args)]

    def insert(*args, _fn=oracle._insert):
        calls["_insert"] += 1
        return _fn(*args)

    monkeypatch.setattr(oracle, "_image_tables", tables)
    monkeypatch.setattr(oracle, "_insert", insert)
    for q, values, inserts in [(3, [1, 1, 1, 1], 300), (3, [1, 1, 1, 2], 300),
                               (7, [1, 1, 1, 1], 1200)]:
        calls.update(hi=0, lo=0, _insert=0)
        assert ideals_of(derived_orthogonal(prime_field(q), values))
        assert calls["hi"] == calls["lo"] == 6 * (q ** 6 - 1) // (q - 1)
        assert calls["_insert"] <= inserts
    calls["_image_tables"] = 0
    code, _ = cli.execute(cli.parse_args(["oracle", "--field", "F3", "--form", "1,1,1,1", "--json"]))
    assert code == 0 and calls["_image_tables"] == 1


def base_q(x, q):
    return int("".join(map(str, x)) or "0", q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_table_images_are_the_reduced_normalized_mat_vecs(data):
    """Every table entry has each byte below q, so hi[h] + lo[l] adds lane by
    lane with no carry, and reduced mod q it is the mat-vec ad(e_i) x; each
    graph edge goes to the point on the line of that image.  For q in
    {2, 3, 5, 7}, n up to 6 and arbitrary sparse maps, among them one that
    repeats a (k, j) until its coefficients sum past q and the map with
    every entry q - 1, applied to the vector with every entry q - 1."""
    q = data.draw(st.sampled_from([2, 3, 5, 7]), label="q")
    n = data.draw(st.integers(0, 6), label="n")
    coordinate = st.integers(0, max(n - 1, 0))
    entry = st.tuples(coordinate, coordinate, st.integers(1, q - 1))
    ads = [list(m) for m in data.draw(
        st.lists(st.lists(entry, max_size=2 * n), max_size=3 if n else 0), label="maps")]
    if n:
        k, j = data.draw(coordinate, label="k"), data.draw(coordinate, label="j")
        ads.append([(k, j, q - 1)] * data.draw(st.integers(2, 64), label="repeats"))
        ads.append([(a, b, q - 1) for a in range(n) for b in range(n)])
    vectors = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                                 max_size=6), label="x") + [[q - 1] * n]
    for ad, (hi, lo) in zip(ads, _image_tables(ads, q, n)):
        assert len(hi) == q ** (n - n // 2) and len(lo) == q ** (n // 2)
        assert all(b < q for t in hi + lo for b in t.to_bytes(n, "big"))
        for x in vectors:
            h, l = divmod(base_q(x, q), q ** (n // 2))
            image = (hi[h] + lo[l]).to_bytes(n, "big")
            lanes = zip(hi[h].to_bytes(n, "big"), lo[l].to_bytes(n, "big"))
            assert list(image) == [a + b for a, b in lanes]
            assert [b % q for b in image] == [a % q for a in _apply(ad, x, n)]

    points, succ = _graph(_image_tables(ads, q, n), q, n)
    index = {x: i for i, x in enumerate(points)}
    tops = [q ** (n - 1 - lead) for lead in range(n)]
    assert [base_q(x, q) for x in points] == [v for top in tops for v in range(top, 2 * top)]
    for i in data.draw(st.lists(st.integers(0, len(points) - 1), max_size=6) if points
                       else st.just([]), label="points"):
        edges = []
        for ad in ads:
            w = [a % q for a in _apply(ad, points[i], n)]
            if any(w):
                inv = pow(next(filter(None, w)), -1, q)
                edges.append(index[bytes(a * inv % q for a in w)])
        assert succ[i] == edges


# The census: classify and the oracle over every square class of the
# small fields.  NON_SQUARE[q] is a non-square of F_q.
NON_SQUARE = {3: 2, 5: 2, 7: 3}


def test_the_oracle_lattice_is_the_classified_one():
    """Over F3, F5 and F7 with 0 to 4 non-square entries, and over F2 with
    1,1,1,1, the oracle finds exactly the lattice that classify certifies:
    0, I1, I2 and M with I1, I2 the witnesses when D is a square, only 0
    and M when it is not, and the certified radical R in characteristic 2."""
    forms = [(q, [u] * k + [1] * (4 - k)) for q, u in NON_SQUARE.items() for k in range(5)]
    for q, values in forms + [(2, [1, 1, 1, 1])]:
        field = prime_field(q)
        entries = [field.from_int(v) for v in values]
        cert = classify(field, entries)
        ideals = ideal_subspaces(current_algebra(entries))
        witnesses = cert["witnesses"]
        if q == 2:
            assert cert["case"] == CASE_SEMIDIRECT
            assert document_subspace(witnesses["R"], field) in ideals
        elif values.count(NON_SQUARE[q]) % 2:
            assert cert["case"] == CASE_SIMPLE
            assert [space.dim for space in ideals] == [0, 6]
        else:
            assert cert["case"] == CASE_TWO_IDEALS
            assert [space.dim for space in ideals] == [0, 3, 3, 6]
            assert set(ideals[1:3]) == {document_subspace(witnesses[name], field)
                                        for name in ("I1", "I2")}


@pytest.mark.parametrize("q", [3, 5])
def test_classify_follows_the_parity_of_the_non_square_entries(q):
    """Every diagonal form over F_q: D is a square exactly when an even
    number of entries are non-squares, and the case follows."""
    field = prime_field(q)
    squares = {x * x % q for x in range(1, q)}
    for values in product(range(1, q), repeat=4):
        odd = sum(v not in squares for v in values) % 2
        case = classify(field, [field.from_int(v) for v in values])["case"]
        assert case == (CASE_SIMPLE if odd else CASE_TWO_IDEALS), values
