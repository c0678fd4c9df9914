"""Exact rational linear algebra and small scale polyhedral primitives.

No floating point anywhere. Row reduction and the LP solver pivot on
integer tableaux with one common denominator (integer-preserving
elimination), and their results come back as reduced fractions.Fraction.
A LatticePolytope holds integer points over one common denominator: its
facet kernel runs the double description method with primitive integer
rays on those ints and reads the vertices off the facets' tight sets, its
facet normals and span equations are primitive integer rows, and its
integer points are searched on ints. Its coordinates become Fractions only
in polytope_json. The LP solver is a two phase simplex with Bland's rule,
so it terminates without any tolerance knobs; lp_feasible poses it
homogeneous equalities and rows a.x >= r, the systems that close a face
key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm
from typing import Iterable, Optional, Sequence

from .errors import TooLarge

Vec = tuple[Fraction, ...]


def to_vec(coords: Iterable) -> Vec:
    return tuple(Fraction(c) for c in coords)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


# ---------------------------------------------------------------------------
# integer-preserving elimination
#
# A tableau is a list of integer rows M with one common denominator D > 0 and
# stands for the rational matrix M / D. Pivoting keeps every entry an integer
# (Edmonds 1967; Bareiss 1968), so no Fraction arithmetic runs in the loops;
# results are turned back into reduced Fractions once, at the end.


def _as_rationals(values) -> list:
    """The values as exact rationals; ints and Fractions pass through."""
    return [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]


def _scaled(values, s: int) -> list[int]:
    """s times each rational value, for s a common multiple of the denominators."""
    return [x.numerator * (s // x.denominator) for x in values]


def _int_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Scale each rational row to a primitive integer row."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            ints = list(row)
        else:
            row = _as_rationals(row)
            ints = _scaled(row, lcm(*(x.denominator for x in row)))
        g = gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
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
        if i == row or (f == 0 and p == D):
            continue
        if f == 0:
            M[i] = [x * p // D for x in r]
        else:
            M[i] = [(p * x - f * y) // D for x, y in zip(r, prow)]
    return p


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], int, list[int]]:
    """Gauss-Jordan elimination of the rows; returns (M, D, pivot columns)
    with M / D the reduced row echelon form, zero rows dropped. Scaling the
    input rows to integers leaves the unique RREF as it is."""
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


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """One solution of A x = b, or None if inconsistent. Free variables get 0."""
    if not rows:
        return []
    aug = [list(row) + [b] for row, b in zip(rows, rhs, strict=True)]
    M, D, pivots = _echelon(aug)
    n = len(rows[0])
    x = [Fraction(0)] * n
    for row, p in zip(M, pivots):
        if p == n:
            return None
        x[p] = Fraction(row[n], D)
    return x


def nullspace(rows: Sequence[Sequence]) -> list[list[int]]:
    """Basis of {x : A x = 0}, one primitive integer row per free column f
    of the reduced row echelon form: the solution with x_f positive and
    every other free coordinate 0."""
    if not rows:
        return []
    n = len(rows[0])
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
# exact simplex


def _run_simplex(M, D, basis, cost, allowed):
    """Maximize over the tableau M / D in place by Bland's rule on the
    `allowed` columns, for an integer cost vector.

    Returns ("optimal" or "unbounded", the final denominator).
    """
    while True:
        # the sign of column j's reduced cost is that of cost_j*D - sum c_B M[.][j]
        priced = [(M[i], cost[bi]) for i, bi in enumerate(basis) if cost[bi]]
        entering = None
        for j in allowed:
            if cost[j] * D - sum(cb * row[j] for row, cb in priced) > 0:
                entering = j
                break
        if entering is None:
            return "optimal", D
        # smallest ratio M[i][-1] / M[i][entering], ties to the smaller basis index
        leaving = None
        for i, row in enumerate(M):
            a = row[entering]
            if a > 0:
                if leaving is None:
                    leaving, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, num, den = i, row[-1], a
        if leaving is None:
            return "unbounded", D
        D = _pivot(M, D, leaving, entering)
        basis[leaving] = entering


def solve_eq_nonneg(A: Sequence[Sequence], b: Sequence, c: Sequence):
    """Maximize c.y subject to A y = b, y >= 0.

    Returns (status, y, value) with status in {"optimal", "infeasible",
    "unbounded"}.
    """
    m = len(A)
    n = len(c)
    rows = [_as_rationals(row) for row in A]
    rhs = _as_rationals(b)
    # one common scale for A and b only rescales the artificial variables,
    # so both phases make the same pivot choices as over the rationals
    s = lcm(*(x.denominator for row in rows for x in row), *(x.denominator for x in rhs))
    M = []
    for i, (row, r) in enumerate(zip(rows, _scaled(rhs, s))):
        row = _scaled(row, s)
        if r < 0:
            row = [-x for x in row]
            r = -r
        # phase 1 tableau with one artificial per row
        M.append(row + [1 if j == i else 0 for j in range(m)] + [r])
    basis = [n + i for i in range(m)]
    cost1 = [0] * n + [-1] * m
    _, D = _run_simplex(M, 1, basis, cost1, range(n))
    if any(M[i][-1] != 0 for i in range(m) if basis[i] >= n):
        return "infeasible", None, None
    # drive leftover zero-valued artificials out, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if M[i][j] != 0), None)
            if col is None:
                continue
            D = _pivot(M, D, i, col)
            basis[i] = col
        keep.append(i)
    M = [M[i][:n] + [M[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost = _as_rationals(c)
    s = lcm(*(x.denominator for x in cost))
    cost = _scaled(cost, s)
    status, D = _run_simplex(M, D, basis, cost, range(n))
    y = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        y[bi] = Fraction(M[i][-1], D)
    if status == "unbounded":
        return "unbounded", y, None
    return "optimal", y, Fraction(sum(cost[bi] * row[-1] for bi, row in zip(basis, M)), s * D)


def lp_feasible(equalities: Sequence[Sequence], rows: Sequence[tuple], n: int) -> Optional[Vec]:
    """A point x in Q^n with a.x = 0 for every equality row a and a.x >= r
    for every (a, r) in rows, or None when there is none.

    x = u - v with u, v >= 0, and each row gets one slack s >= 0: the
    columns are u, v, then the slacks, and a row reads -a.u + a.v + s = -r.
    """
    m = len(rows)
    A = [list(a) + [-x for x in a] + [0] * m for a in equalities]
    A += [[-x for x in a] + list(a) + [int(j == k) for j in range(m)]
          for k, (a, _) in enumerate(rows)]
    b = [0] * len(equalities) + [-r for _, r in rows]
    status, y, _ = solve_eq_nonneg(A, b, [0] * (2 * n + m))
    if status != "optimal":
        return None
    return tuple(y[i] - y[n + i] for i in range(n))


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


def integer_kernel(M: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of {v in Z^n : M v = 0}; the basis generates all such v."""
    if not M:
        return []
    m = len(M)
    n = len(M[0])
    # row j is [column j of M | e_j]; the e-parts of the rows that reduce to
    # zero over the first m coordinates span the kernel
    work = [[int(M[i][j]) for i in range(m)] + [1 if k == j else 0 for k in range(n)]
            for j in range(n)]
    r = _euclid_echelon(work, m)
    return [row[m:] for row in work[r:]]


def int_row_echelon(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer row echelon basis of the lattice generated by the rows."""
    work = [list(map(int, row)) for row in rows if any(row)]
    if not work:
        return []
    r = _euclid_echelon(work, len(work[0]))
    return work[:r]


def lattice_member(echelon: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether v lies in the lattice given by an int_row_echelon basis."""
    rem = list(map(int, v))
    for row in echelon:
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            continue
        if rem[c] % row[c] != 0:
            return False
        q = rem[c] // row[c]
        rem = [x - q * y for x, y in zip(rem, row)]
    return not any(rem)


def same_lattice(gens_a: Sequence[Sequence[int]], gens_b: Sequence[Sequence[int]]) -> bool:
    ech_a = int_row_echelon(gens_a)
    ech_b = int_row_echelon(gens_b)
    return (all(lattice_member(ech_a, v) for v in gens_b)
            and all(lattice_member(ech_b, v) for v in gens_a))


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
    if not vertices:
        return []
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


def _facet_vertices(points: list[tuple[int, ...]], planes) -> list[tuple[int, ...]]:
    """Those of the distinct points at which the facets through the point
    meet in that point alone: no other point lies on all of them."""
    meet = [(1 << len(points)) - 1] * len(points)
    for normal, rhs in planes:
        on = [i for i, p in enumerate(points) if sum(a * x for a, x in zip(normal, p)) == rhs]
        tight = sum(1 << i for i in on)
        for i in on:
            meet[i] &= tight
    return [p for i, p in enumerate(points) if meet[i] == 1 << i]


class LatticePolytope:
    """Exact V- and H-data for a bounded polytope, with the integer lattice
    of its affine span when the vertices are integral.

    The polytope's points are integer tuples p standing for p / den, over
    one common denominator den >= 1, and so are its vertices. Built from any
    points, it runs the facet kernel once on them, keeps the facets as its
    H-description and the points the facets single out as its vertices.
    Built from `already_extreme` vertices, it finds its facets on demand.
    Hyperplanes (normal, rhs) stand for normal.x <= rhs / den, with
    primitive integer normals; each one is a facet. The coordinates become
    Fractions only in polytope_json.
    """

    def __init__(self, points: Sequence[tuple[int, ...]], den: int, already_extreme=False):
        pts = list(dict.fromkeys(points))
        if not pts:
            raise ValueError("a polytope needs at least one vertex")
        self.den = den
        if not already_extreme:
            self.hyperplanes = tuple(facet_hyperplanes(pts))
            pts = _facet_vertices(pts, self.hyperplanes)
        self.vertices: tuple[tuple[int, ...], ...] = tuple(sorted(pts))

    @cached_property
    def hyperplanes(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(facet_hyperplanes(self.vertices))

    @cached_property
    def dim(self) -> int:
        base = self.vertices[0]
        return rank([[x - y for x, y in zip(v, base)] for v in self.vertices[1:]])

    @cached_property
    def span_equations(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Equations a.x = b / den cutting out the affine span, each a a
        primitive integer row."""
        base = self.vertices[0]
        n = len(base)
        diffs = [[x - y for x, y in zip(v, base)] for v in self.vertices[1:]]
        rows = nullspace(diffs) if diffs else [[int(i == j) for j in range(n)] for i in range(n)]
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
        if not rows:
            n = len(self.vertices[0])
            return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return tuple(map(tuple, integer_kernel(rows)))

    def __repr__(self):
        return f"LatticePolytope({len(self.vertices)} vertices, dim {self.dim})"


def _box_lattice_points(lo: list[int], hi: list[int], les: list[tuple[list[int], int]]):
    """Integer points of the box satisfying the integer constraints a.x <= b,
    by depth first search with interval pruning."""
    n = len(lo)
    # the least value each constraint's terms past coordinate i take on the box
    data = []
    for a, b in les:
        rest = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            rest[i] = rest[i + 1] + min(a[i] * lo[i], a[i] * hi[i])
        data.append((a, b, rest))
    point = [0] * n

    def descend(i, partial):
        if i == n:
            yield tuple(point)
            return
        for x in range(lo[i], hi[i] + 1):
            point[i] = x
            sums = []
            for (a, b, rest), s in zip(data, partial):
                s += a[i] * x
                if s + rest[i + 1] > b:
                    break
                sums.append(s)
            else:
                yield from descend(i + 1, sums)

    yield from descend(0, [0] * len(data))


def integer_points(poly: LatticePolytope) -> list[tuple[int, ...]]:
    """All points of Z^n inside the polytope, in canonical sorted order.

    Enumeration runs over the bounding box, restricted to the affine span
    and filtered by the facets, on integers: with the polytope's rows over
    den, an integer point x meets a.x = b / den only if den divides b, and
    a.x <= b / den means a.x <= floor(b / den).
    """
    den = poly.den
    les = []
    for a, b in poly.span_equations:
        if b % den:
            return []
        les += [(a, b // den), ([-x for x in a], -(b // den))]
    les += [(normal, rhs // den) for normal, rhs in poly.hyperplanes]
    verts = poly.vertices
    lo = [min(coords) // den for coords in zip(*verts)]
    hi = [-(-max(coords) // den) for coords in zip(*verts)]
    return sorted(_box_lattice_points(lo, hi, les))


# ---------------------------------------------------------------------------
# serialization helpers


def fraction_pair(x, den: int = 1) -> list[int]:
    """x / den as a reduced [num, den] pair."""
    f = Fraction(x, den)
    return [f.numerator, f.denominator]


def vector_pairs(v: Sequence, den: int = 1) -> list[list[int]]:
    return [fraction_pair(x, den) for x in v]


def polytope_json(poly: LatticePolytope) -> dict:
    """Canonical JSON payload: vertices, hyperplanes, lattice basis, all as
    reduced [num, den] integer pairs; the one place the polytope's
    coordinates over den become Fractions."""
    den = poly.den
    planes = [{"normal": vector_pairs(normal), "rhs": fraction_pair(rhs, den)}
              for normal, rhs in poly.hyperplanes]
    basis = poly.lattice_basis
    return {
        "vertices": [vector_pairs(v, den) for v in poly.vertices],
        "hyperplanes": planes,
        "lattice_basis": [vector_pairs(row) for row in basis] if basis else [],
    }
