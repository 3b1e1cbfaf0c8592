"""Brute-force ground truth over small prime fields.

Every ideal is a sum of principal ideals, and the ideal <v> generated by v
is the span of every vector reachable from v under the maps ad(e_i).  So
`enumerate_ideals` builds one graph on the projective points of F_q^n,
with an edge from each point to the line of each nonzero image ad(e_i) x,
finds its strongly connected components (Tarjan), and spans each
component together with the ideals of the components it reaches; then it
closes {0} and the distinct principal ideals under sums.  No image is
multiplied out per point: it is the sum of two table entries, one for each
half of the coordinates, packed one byte per coordinate.  Spans are kept
as canonical reduced echelon forms `(pivots, rows)`, so equal ideals are
equal keys.  M's brackets are read from `liealg.WEDGE_ROWS` as integer
matrices (`wedge_brackets`) and tabulated once (`adjoint_tables`), so the
oracle shares no arithmetic with the library it checks.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import prod
from typing import Iterable, Optional, Sequence

from .liealg import WEDGE_ROWS


class UnsupportedField(ValueError):
    """The oracle is limited to F_2, F_3, F_5, F_7 and ambient dimension 6."""


class BadWedges(ValueError):
    """A zero diagonal entry, two wedges on one entry, or a bracket outside M."""


SUPPORTED_Q = (2, 3, 5, 7)
MAX_AMBIENT = 6

# (pivots, rows): a canonical reduced echelon basis over plain ints mod q.
Key = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]
# (q, n, the `_image_tables` of each ad(e_i)): an algebra as the oracle reads it.
Tables = tuple[int, int, list[list[list[int]]]]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _validate(q: int, n: int) -> None:
    if q not in SUPPORTED_Q:
        raise UnsupportedField(f"q must be one of {SUPPORTED_Q}")
    if n > MAX_AMBIENT or n < 0:
        raise UnsupportedField(f"ambient dimension must be at most {MAX_AMBIENT}")


def wedge_brackets(q: int, diagonal: Sequence[int]) -> tuple[int, int, dict]:
    """(q, 6, M's brackets mod q) for diag(diagonal), the arguments of
    `adjoint_tables`, read from WEDGE_ROWS: element k is the integer matrix
    with kappa g_s at (r, s), its own entry, and -kappa g_r at (s, r).  A
    commutator's coordinates are read at the own entries, and the
    commutator less their combination must vanish on every entry."""
    for name, g in zip("abcd", diagonal):
        if not g % q:
            raise BadWedges(f"diagonal entry {name} must be nonzero")
    kappas = [prod(diagonal["abcd".index(x)] for x in kappa.split()) for *_, kappa in WEDGE_ROWS]
    mats = [{(r - 1, s - 1): k * diagonal[s - 1] % q, (s - 1, r - 1): -k * diagonal[r - 1] % q}
            for (_, r, s, _), k in zip(WEDGE_ROWS, kappas)]
    if len({frozenset(m) for m in mats}) < len(mats):
        raise BadWedges("two wedges share an entry")
    own = [(p, pow(x, -1, q)) for m in mats for p, x in list(m.items())[:1]]
    brackets = {}
    for i, j in combinations(range(len(mats)), 2):
        comm = Counter()
        for (r, t), x in mats[i].items():
            for (u, c), y in mats[j].items():
                comm[r, c] += x * y * (t == u)
                comm[u, t] -= x * y * (c == r)
        coords = {k: comm[p] * inv % q for k, (p, inv) in enumerate(own) if comm[p] % q}
        for k, c in coords.items():
            comm.subtract({p: c * x for p, x in mats[k].items()})
        if any(x % q for x in comm.values()):
            raise BadWedges(f"[{WEDGE_ROWS[i][0]}, {WEDGE_ROWS[j][0]}] leaves the wedges' span")
        brackets[i, j] = coords
    return q, len(mats), {pair: coords for pair, coords in brackets.items() if coords}


def _adjoint_matrices(q: int, n: int, brackets: dict) -> list[list[tuple[int, int, int]]]:
    """Sparse integer matrices of ad(e_i): triples (k, j, c) with c the
    coordinate k of [e_i, e_j], written for ad(e_i) and, negated mod q,
    for ad(e_j) from each bracket [e_i, e_j]."""
    ads: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (i, j), row in brackets.items():
        for k, c in row.items():
            ads[i].append((k, j, c))
            ads[j].append((k, i, q - c))
    return ads


def _image_tables(ads, q: int, n: int) -> list[list[list[int]]]:
    """For each ad(e_i), tables [hi, lo] of its images of the vectors on the
    first n - n//2 and the last n//2 coordinates, indexed by the base-q value
    of those digits and packed one byte per coordinate, first coordinate
    most significant, each byte below q.  So the image of x is hi[h] + lo[l]
    with no carry, each lane at most 2q - 2 <= 12.  Entry t of a table grows
    by a coordinate j as t + d * ad(e_i) e_j for d in F_q, lanes below q^2."""
    reduce = bytes(b % q for b in range(256))
    split = n - n // 2
    tables = []
    for ad in ads:
        columns = [[0] * n for _ in range(n)]
        for k, j, c in ad:
            columns[j][k] += c
        halves = [[0], [0]]
        for j, col in enumerate(columns):
            col = int.from_bytes(bytes(a % q for a in col), "big")
            halves[j >= split] = [
                int.from_bytes((t + d * col).to_bytes(n, "big").translate(reduce), "big")
                for t in halves[j >= split] for d in range(q)]
        tables.append(halves)
    return tables


def _insert(echelon: dict[int, list[int]], w: Sequence[int], q: int) -> Optional[list[int]]:
    """Add w to a reduced echelon basis {pivot: row} and return the new row,
    or None if w is already spanned.  Every row is zero in every other
    row's pivot column, so the remainder of w is w minus w[p] times the row
    of each pivot p, in any order, reduced mod q once at the end."""
    r = w
    for p, row in echelon.items():
        t = w[p]
        if t:
            r = [a - t * b for a, b in zip(r, row)]
    r = [a % q for a in r]
    for lead, x in enumerate(r):
        if x:
            break
    else:
        return None
    if x != 1:
        inv = pow(x, -1, q)
        r = [a * inv % q for a in r]
    for p, row in echelon.items():
        t = row[lead]
        if t:
            echelon[p] = [(a - t * b) % q for a, b in zip(row, r)]
    echelon[lead] = r
    return r


def _key(echelon: dict[int, list[int]]) -> Key:
    pivots = tuple(sorted(echelon))
    return pivots, tuple(tuple(echelon[p]) for p in pivots)


def _span(rows: Iterable[Sequence[int]], q: int) -> Key:
    echelon: dict[int, list[int]] = {}
    for row in rows:
        _insert(echelon, row, q)
    return _key(echelon)


def _whole(n: int) -> Key:
    return tuple(range(n)), tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _component_ideal(members, reached: list[Key], points, q: int, n: int) -> Key:
    """span(members) plus the ideals `reached` of the components they reach."""
    reached.sort(key=lambda key: -len(key[0]))
    echelon = dict(zip(*reached[0])) if reached else {}
    for _, rows in reached[1:]:
        for row in rows:
            _insert(echelon, row, q)
    for m in members:
        if len(echelon) == n:
            break
        _insert(echelon, points[m], q)
    return _key(echelon)


def _graph(tables, q: int, n: int) -> tuple[list[bytes], list[list[int]]]:
    """The projective points of F_q^n as bytes, first nonzero byte 1, and
    for each the points on the lines of its nonzero images.  Those with lead
    j have base-q values q^(n-1-j) .. 2q^(n-1-j) - 1 in order.  Value
    h q^(n//2) + l has image hi[h] + lo[l]; its lead is its first byte not 0
    mod q, and one translation reduces it and scales the lead to 1."""
    points = [bytes((0,) * lead + (1,) + tail) for lead in range(n)
              for tail in product(range(q), repeat=n - lead - 1)]
    index = {x: i for i, x in enumerate(points)}
    size = q ** (n // 2)
    zeros = bytes(range(0, 256, q))
    inverse = [0] + [pow(c, -1, q) for c in range(1, q)]
    scale = [bytes(b * inv % q for b in range(256)) for inv in inverse]
    succ = []
    for lead in range(n):
        top = q ** (n - lead - 1)
        for h, l in (divmod(v, size) for v in range(top, 2 * top)):
            out = []
            for hi, lo in tables:
                w = (hi[h] + lo[l]).to_bytes(n, "big")
                rest = w.lstrip(zeros)
                if rest:
                    out.append(index[w.translate(scale[rest[0] % q])])
            succ.append(out)
    return points, succ


def _principal_ideals(tables, q: int, n: int) -> set[Key]:
    """The distinct ideals <x> over the projective points x of F_q^n:
    <x> is the span of Reach(x) in the graph x -> line of ad(e_i) x: it
    holds that span since it is closed under ad(e_i) and scalars, and that
    span is an ideal since ad(e_i) maps it into itself.  Tarjan's algorithm,
    run without recursion, emits each strongly connected component after
    every component it reaches, so their ideals are known when it is
    spanned.
    """
    points, succ = _graph(tables, q, n)
    number = [0] * len(points)  # discovery number, 0 while unvisited
    low = [0] * len(points)
    comp = [-1] * len(points)  # component, -1 while on the stack
    stack: list[int] = []
    keys = [_whole(n)]  # distinct ideals, the whole space first
    ids = {keys[0]: 0}
    ideal: list[int] = []  # component -> id of its ideal
    count = 0
    for root in range(len(points)):
        if number[root]:
            continue
        count += 1
        number[root] = low[root] = count
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, edges = calls[-1]
            for u in edges:
                if not number[u]:
                    count += 1
                    number[u] = low[u] = count
                    stack.append(u)
                    calls.append((u, iter(succ[u])))
                    break
                if comp[u] < 0 and number[u] < low[v]:
                    low[v] = number[u]
            else:
                calls.pop()
                if calls and low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
                if low[v] == number[v]:
                    c = len(ideal)
                    members = []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        comp[members[-1]] = c
                    reached = {ideal[comp[u]] for m in members for u in succ[m] if comp[u] != c}
                    if 0 in reached:
                        ideal.append(0)
                        continue
                    key = _component_ideal(members, [keys[i] for i in reached], points, q, n)
                    if key not in ids:
                        ids[key] = len(keys)
                        keys.append(key)
                    ideal.append(ids[key])
    return {keys[i] for i in set(ideal)}


def adjoint_tables(q: int, n: int, brackets: dict) -> Tables:
    """The oracle's one reading of a small algebra over F_q, given by its
    brackets {(i, j): {k: c}}, i < j, with each c an integer mod q: the
    maps ad(e_i), tabulated once for the scan and the check."""
    _validate(q, n)
    return q, n, _image_tables(_adjoint_matrices(q, n, brackets), q, n)


def enumerate_ideals(ad: Tables) -> list[Key]:
    """Every ideal of a small algebra over F_q, as canonical keys
    (pivots, rows) in canonical order.

    The distinct principal ideals come from one pass over the graph of
    the (q^n - 1)/(q - 1) projective points, n table images per point; the
    frontier loop then forms (#ideals x #distinct principal ideals) sums.
    For the 6-dimensional derived orthogonal algebra M that is at most
    4 x 3.  The result is sorted by (dimension, pivots, rows).
    """
    q, n, tables = ad
    principal = sorted(_principal_ideals(tables, q, n))
    found = {((), ())} | set(principal)
    frontier = principal
    while frontier:
        grown = []
        for _, rows in frontier:
            for _, generator in principal:
                total = _span(rows + generator, q)
                if total not in found:
                    found.add(total)
                    grown.append(total)
        frontier = grown
    return sorted(found, key=lambda key: (len(key[0]), *key))


def enumeration_complete(ad: Tables, ideals: Sequence[Key]) -> bool:
    """The oracle's own check on a listed lattice: it holds 0 and the whole
    space, is closed under pairwise sums, and every member is ad-invariant,
    read off the tables the scan used.  This catches a listed non-ideal or
    a missing sum, 0 or M; it cannot see an ideal left out of a list that
    is otherwise consistent."""
    q, n, tables = ad
    keys = set(ideals)
    if ((), ()) not in keys or _whole(n) not in keys:
        return False
    size = q ** (n // 2)
    for pivots, rows in keys:
        echelon = dict(zip(pivots, rows))
        for v in rows:
            value = 0
            for x in v:
                value = value * q + x
            h, l = divmod(value, size)
            if any(_insert(echelon, (hi[h] + lo[l]).to_bytes(n, "big"), q)
                   for hi, lo in tables):
                return False
    return all(_span(a[1] + b[1], q) in keys for a, b in combinations_with_replacement(keys, 2))
