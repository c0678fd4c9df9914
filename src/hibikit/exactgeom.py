"""Exact rational linear algebra and small scale polyhedral primitives.

No floating point anywhere, and no Fraction: a rational vector is an
integer tuple over one positive common denominator den. Row reduction and
the LP solver pivot on integer tableaux with one common denominator
(integer-preserving elimination). A LatticePolytope holds the integer
vertices its caller certified, over one common denominator, and the facets
when its caller certified those too; otherwise its facet kernel runs the
double description method with primitive integer rays on those ints, on
first use. Its facet normals and span equations are primitive integer
rows. Its coordinates become reduced [num, den] pairs only in
polytope_json. lp_feasible runs phase 1 of the simplex with Bland's rule,
so it terminates without any tolerance knobs, on homogeneous equalities
and integer rows a.x >= r, the systems that close a face key. Its tableau
has no artificial columns: the artificial basis is bookkeeping in the
basis list, and the phase-1 objective, the sum of the artificial rows, is
one more row that every pivot updates with the others. It has no v columns
of x = u - v either, since every row's v part is minus its u part. Bland's
rule reads only the signs of the objective row's entries, so the pivots
are those of the full tableau, and the final tableau checks the row
against the sum. The point is read off when phase 1 ends: an artificial
still basic there sits at 0, on a row whose right-hand side is 0 and so
sets no column's value, and it stays in the basis.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from math import gcd, inf
from typing import Iterable, Optional, Sequence

from .errors import TooLarge


# ---------------------------------------------------------------------------
# integer-preserving elimination
#
# A tableau is a list of integer rows M with one common denominator D > 0 and
# stands for the rational matrix M / D. Pivoting keeps every entry an integer
# (Edmonds 1967; Bareiss 1968), so no rational arithmetic runs in the loops.


def _int_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Each integer row divided by the gcd of its entries."""
    out = []
    for row in rows:
        g = gcd(*row)
        out.append([x // g for x in row] if g > 1 else list(row))
    return out


def _pivot(M, D, row, col):
    """Pivot the tableau M / D on (row, col) in place; returns the new
    denominator. Every other row becomes (p*M[i] - M[i][col]*M[row]) / D with
    p = M[row][col], a division that is exact, and p is the new denominator.
    A negative p first negates the pivot row, which leaves the pivoted
    tableau unchanged and keeps the denominator positive."""
    prow = M[row]
    p = prow[col]
    if p < 0:
        prow = M[row] = [-x for x in prow]
        p = -p
    for i, r in enumerate(M):
        f = r[col]
        if f:
            if i == row:
                continue
            if D == 1:
                M[i] = [p * x - f * y for x, y in zip(r, prow)]
            else:
                M[i] = [(p * x - f * y) // D for x, y in zip(r, prow)]
        elif p != D:
            M[i] = [x * p // D for x in r]
    return p


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], int, list[int]]:
    """Gauss-Jordan elimination of the rows; returns (M, D, pivot columns)
    with M / D the reduced row echelon form of the integer rows, zero rows
    dropped. Dividing each row by its gcd leaves the unique RREF as it is."""
    M = _int_rows(rows)
    D = 1
    pivots = []
    r = 0
    for c in range(len(M[0]) if M else 0):
        if r == len(M):
            break
        pivot_row = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        D = _pivot(M, D, r, c)
        pivots.append(c)
        r += 1
    return M[:r], D, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[2])


def nullspace(rows: Sequence[Sequence], n: int) -> list[list[int]]:
    """Basis of {x in Q^n : A x = 0}, one primitive integer row per free
    column f of the reduced row echelon form: the solution with x_f
    positive and every other free coordinate 0. With no rows every column
    is free, and the basis is the unit vectors."""
    M, D, pivots = _echelon(rows)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = D
        for row, p in zip(M, pivots):
            v[p] = -row[f]
        basis.append(v)
    return _int_rows(basis)


# ---------------------------------------------------------------------------
# exact simplex, phase 1


def _run_simplex(M, D, basis, n):
    """Phase 1 of the simplex on the tableau M / D in place: maximize minus
    the sum of the artificial variables by Bland's rule over lp_feasible's
    columns u, v and the slacks, x = u - v in Q^n. Returns the final
    denominator.

    The tableau holds u and the slacks, not v: every pivot is a row
    operation, so each row's v part stays minus its u part, and v_j's
    reduced cost is -z_j and its column -u_j. Columns and basis entries are
    numbered in the full order u, v, slacks, so Bland's rule and its ties
    are the full tableau's; a pivot on v_j is _pivot on u_j with the pivot
    row's sign kept, as the full tableau keeps it.

    Nor are there artificial columns: a row whose basis entry is past the
    full columns has its artificial variable basic. M holds one row more
    than basis, the last: the phase-1 objective row, the sum of the
    artificial rows, pivoted with the others, so it is never summed again;
    the final tableau checks that it is the sum. A column enters when its
    reduced cost is positive; it then has a positive entry in some
    artificial row, so phase 1 is never unbounded.
    """
    z = M[-1]
    lean = len(z) - 1
    while True:
        entering = next((j for j in range(n) if z[j] > 0), None)
        if entering is None:
            entering = next((n + j for j in range(n) if z[j] < 0), None)
        if entering is None:
            entering = next((n + j for j in range(n, lean) if z[j] > 0), None)
        if entering is None:
            break
        col = entering if entering < n else entering - n
        sign = -1 if n <= entering < 2 * n else 1  # -1: v_j, read off u_j
        # smallest ratio M[i][-1] / a, a the entering column's entry in row
        # i, ties to the smaller basis index
        leaving = None
        for i, (row, b) in enumerate(zip(M, basis)):  # the objective row is not a candidate
            a = sign * row[col]
            if a > 0:
                if leaving is None:
                    leaving, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and b < basis[leaving]):
                    leaving, num, den = i, row[-1], a
        D = _pivot(M, D, leaving, col)
        if sign < 0:  # _pivot negated the row to make u_j's entry positive
            M[leaving] = [-x for x in M[leaving]]
        basis[leaving] = entering
        z = M[-1]
    artificial = [row for row, b in zip(M, basis) if b >= lean + n]
    if z != ([sum(col) for col in zip(*artificial)] if artificial else [0] * len(z)):
        raise AssertionError("the objective row must be the sum of the artificial rows")
    return D


def lp_feasible(equalities: Sequence[Sequence[int]], rows: Sequence[tuple[Sequence[int], int]],
                n: int) -> Optional[tuple[tuple[int, ...], int]]:
    """A point x = num / den in Q^n with a.x = 0 for every integer equality
    row a and a.x >= r for every integer (a, r) in rows, as (num, den), or
    None when there is none.

    x = u - v with u, v >= 0, and each row gets one slack s >= 0: the
    columns are u, v, then the slacks, and a row reads -a.u + a.v + s = -r.
    The tableau keeps u and the slacks alone (see _run_simplex). Phase 1
    gives every equation one artificial variable, kept in the basis alone;
    the system is feasible iff phase 1 drives their sum to 0, and the point
    is read off the basic columns when it ends. An artificial left in the
    basis then has value 0, so its row's right-hand side is 0 and it sets
    no column's value: a pivot that drove it out would scale every other
    row's right-hand side and the denominator alike, and move no point.
    """
    m = len(rows)
    cols = 2 * n + m
    # each equation is negated where needed to make its right-hand side,
    # the artificial's starting value, nonnegative
    M = [[*a, *[0] * m, 0] for a in equalities]
    for k, (a, r) in enumerate(rows):
        slack = [0] * m
        if r > 0:
            slack[k] = -1
            M.append([*a, *slack, r])
        else:
            slack[k] = 1
            M.append([*(-x for x in a), *slack, -r])
    basis = [cols + i for i in range(len(M))]
    M.append([sum(col) for col in zip(*M)] if M else [0] * (n + m + 1))
    D = _run_simplex(M, 1, basis, n)
    if M.pop()[-1] != 0:
        return None
    y = [0] * cols
    for row, bi in zip(M, basis):
        if bi < cols:
            y[bi] = row[-1]
    return tuple(y[i] - y[n + i] for i in range(n)), D


# ---------------------------------------------------------------------------
# integer lattices


def _euclid_echelon(work: list[list[int]], ncols: int) -> int:
    """Bring integer rows to echelon form in place over their first `ncols`
    coordinates, by Euclidean row reduction and swaps; each pivot is made
    positive. Returns the number of pivot rows, which come first."""
    r = 0
    for c in range(ncols):
        active = [i for i in range(r, len(work)) if work[i][c] != 0]
        while len(active) > 1:
            i0 = min(active, key=lambda i: abs(work[i][c]))
            for i in active:
                if i == i0:
                    continue
                q = work[i][c] // work[i0][c]
                work[i] = [x - q * y for x, y in zip(work[i], work[i0])]
            active = [i for i in active if work[i][c] != 0]
        if active:
            i0 = active[0]
            work[r], work[i0] = work[i0], work[r]
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            r += 1
    return r


def integer_kernel(M: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Basis of {v in Z^n : M v = 0}; the basis generates all such v. With
    no rows nothing is reduced, and the basis is the unit vectors."""
    m = len(M)
    # row j is [column j of M | e_j]; the e-parts of the rows that reduce to
    # zero over the first m coordinates span the kernel
    work = [[int(M[i][j]) for i in range(m)] + [1 if k == j else 0 for k in range(n)]
            for j in range(n)]
    r = _euclid_echelon(work, m)
    return [row[m:] for row in work[r:]]


# ---------------------------------------------------------------------------
# polytopes


def _extreme_rays(rows: list[list[int]], max_rays: float = inf) -> list[tuple[list[int], int]]:
    """Extreme rays of the pointed cone {h : row.h >= 0 for every row}, for
    integer rows of full column rank, by the double description method
    (Motzkin et al. 1953; Fukuda & Prodon 1996). Returns (ray, tight) pairs:
    a primitive integer ray and the bit set of the rows it makes tight.

    The first n independent rows cut a simplicial cone whose rays are the
    columns of their inverse; each further row keeps the rays on its
    nonnegative side and joins every adjacent pair it separates. Two rays
    are adjacent iff their common tight set has at least n - 2 rows and no
    other ray's tight set contains it (the combinatorial test). TooLarge past max_rays rays.
    """
    n = len(rows[0])
    basis = _echelon(list(zip(*rows)))[2]
    inverse = _echelon([rows[i] + [int(j == k) for j in range(n)] for k, i in enumerate(basis)])[0]
    rays = _int_rows(list(zip(*(row[n:] for row in inverse))))
    tight = [sum(1 << i for j, i in enumerate(basis) if j != k) for k in range(n)]
    for i, row in enumerate(rows):
        if i in basis:
            continue
        bit = 1 << i
        vals = [sum(a * x for a, x in zip(row, ray)) for ray in rays]
        plus = [k for k, v in enumerate(vals) if v > 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        joined = []
        for p in plus:
            for q in minus:
                common = tight[p] & tight[q]
                if common.bit_count() < n - 2 or any(
                        z & common == common for k, z in enumerate(tight) if k != p and k != q):
                    continue
                # the positive combination of rays p and q on the row's hyperplane
                ray = [vals[p] * x - vals[q] * y for x, y in zip(rays[q], rays[p])]
                g = gcd(*ray)
                joined.append(([x // g for x in ray], common | bit))
        kept = [(rays[k], tight[k] | bit if v == 0 else tight[k])
                for k, v in enumerate(vals) if v >= 0] + joined
        rays = [ray for ray, _ in kept]
        tight = [z for _, z in kept]
        if len(rays) > max_rays:
            raise TooLarge(f"double description kept more than {max_rays} rays")
    return list(zip(rays, tight))


def facet_hyperplanes(vertices: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], int]]:
    """Facet inequalities (normal, rhs), convention normal.x <= rhs, of the
    convex hull of the given integer points, cutting within the affine span.
    Normals are primitive integer vectors; rhs is normal.p at a point p of
    the facet, on the points' own scale.

    With E the primitive integer rows of the echelon form of the points'
    differences, each facet m.y >= -b in the span coordinates y = E . x is
    an extreme ray (m, b) of the cone {h : (y_i, 1).h >= 0} over the points,
    so normal = -sum m_k E_k.
    """
    base = vertices[0]
    span_rows = _int_rows(_echelon([[x - y for x, y in zip(p, base)] for p in vertices[1:]])[0])
    d = len(span_rows)
    if d == 0:
        return []
    rows = [[sum(a * x for a, x in zip(e, p)) for e in span_rows] + [1] for p in vertices]
    out = []
    for ray, tight in _extreme_rays(rows):
        m = ray[:d]
        normal = _int_rows([[-sum(a * x for a, x in zip(m, col)) for col in zip(*span_rows)]])[0]
        on_facet = vertices[(tight & -tight).bit_length() - 1]
        out.append((tuple(normal), sum(a * x for a, x in zip(normal, on_facet))))
    out.sort()
    return out


class LatticePolytope:
    """Exact V- and H-data for a bounded polytope, with the integer lattice
    of its affine span when the vertices are integral.

    The vertices are integer tuples v standing for v / den, over one common
    denominator den >= 1. Every caller hands in points it has certified to
    be the vertices, each once; a repeated point raises ValueError.
    Hyperplanes (normal, rhs) stand for normal.x <= rhs / den, with
    primitive integer normals in the span's directions; each one is a
    facet, and they are sorted. A caller that has certified the facets too
    hands them in as hyperplanes, in that form; otherwise the double
    description kernel (facet_hyperplanes) finds them from the vertices on
    first use. The coordinates are reduced to [num, den] pairs only in
    polytope_json.
    """

    def __init__(self, vertices: Sequence[tuple[int, ...]], den: int,
                 hyperplanes: Optional[Sequence[tuple[tuple[int, ...], int]]] = None):
        if not vertices:
            raise ValueError("a polytope needs at least one vertex")
        self.vertices: tuple[tuple[int, ...], ...] = tuple(sorted(vertices))
        if len(set(self.vertices)) < len(self.vertices):
            raise ValueError("a polytope's vertices must be distinct")
        self.den = den
        if hyperplanes is not None:
            self.hyperplanes = tuple(hyperplanes)  # shadows the lazy kernel

    @cached_property
    def hyperplanes(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(facet_hyperplanes(self.vertices))

    @cached_property
    def span_equations(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Equations a.x = b / den cutting out the affine span, each a a
        primitive integer row."""
        base = self.vertices[0]
        diffs = [[x - y for x, y in zip(v, base)] for v in self.vertices[1:]]
        rows = nullspace(diffs, len(base))
        return tuple((tuple(a), sum(x * y for x, y in zip(a, base))) for a in rows)

    @cached_property
    def lattice_basis(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """Saturated integer basis of the affine span directions, when the
        vertices are integral (every coordinate a multiple of den); None
        otherwise. The directions in Z^n are the integer kernel of the span
        equations."""
        if any(x % self.den for v in self.vertices for x in v):
            return None
        rows = [a for a, _ in self.span_equations]
        return tuple(map(tuple, integer_kernel(rows, len(self.vertices[0]))))


# ---------------------------------------------------------------------------
# serialization helpers


def fraction_pair(x: int, den: int) -> list[int]:
    """x / den as a reduced [num, den] pair, for den > 0."""
    g = gcd(x, den)
    return [x // g, den // g]


def vector_pairs(v: Sequence[int], den: int = 1) -> list[list[int]]:
    """Each x / den as a reduced [num, den] pair, for den > 0."""
    if den == 1:
        return [[x, 1] for x in v]
    return [[x // g, den // g] for x, g in zip(v, map(gcd, v, repeat(den)))]


def pair_table(values: Iterable[int], den: int) -> dict[int, list[int]]:
    """Each distinct x / den of values as its reduced [num, den] pair, for
    den > 0, reduced once and shared by every row that holds x."""
    return {x: fraction_pair(x, den) for x in set(values)}


def polytope_json(poly: LatticePolytope) -> dict:
    """Canonical JSON payload: vertices, hyperplanes, lattice basis, all as
    reduced [num, den] integer pairs; the one place the polytope's
    coordinates over den are reduced, each distinct one once, its pair
    shared by every vertex row that holds it."""
    den, rows = poly.den, poly.vertices
    if den == 1:
        vertices = [vector_pairs(v) for v in rows]
    else:  # one reduced pair per distinct coordinate, which every row shares
        pair = pair_table(chain.from_iterable(rows), den).__getitem__
        vertices = [[*map(pair, v)] for v in rows]
    planes = [{"normal": vector_pairs(normal), "rhs": fraction_pair(rhs, den)}
              for normal, rhs in poly.hyperplanes]
    basis = poly.lattice_basis
    return {
        "vertices": vertices,
        "hyperplanes": planes,
        "lattice_basis": [vector_pairs(row) for row in basis] if basis else [],
    }
