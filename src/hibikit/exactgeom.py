"""Exact rational linear algebra and small scale polyhedral primitives.

No floating point anywhere. Row reduction and the LP solver pivot on
integer tableaux with one common denominator (integer-preserving
elimination), and their results come back as reduced fractions.Fraction.
The polytope kernel scales its points by one common denominator, finds the
facets by the double description method with primitive integer rays, and
reads the vertices off the facets' tight sets. Every facet normal and span
equation of a LatticePolytope is a primitive integer row, so its integer
points are searched on ints. The rest works over Fraction directly. The LP
solver is a two phase simplex with Bland's rule, so it terminates without
any tolerance knobs; lp_feasible poses it homogeneous equalities and rows
a.x >= r, the systems that close a face key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, inf, lcm
from typing import Iterable, Optional, Sequence

from .errors import TooLarge

Vec = tuple[Fraction, ...]


def to_vec(coords: Iterable) -> Vec:
    return tuple(Fraction(c) for c in coords)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def vdot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def is_integral(v: Sequence) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


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


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of {x : A x = 0}."""
    if not rows:
        return []
    n = len(rows[0])
    M, D, pivots = _echelon(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(M, pivots):
            v[p] = Fraction(-row[f], D)
        basis.append(v)
    return basis


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


def affine_lattice_basis(points: Sequence[Vec]) -> list[list[int]]:
    """Integer basis of (affine span of the points) directions intersected
    with Z^n. The basis is saturated: any integer point of the affine span
    is the base point plus an integer combination.
    """
    pts = [to_vec(p) for p in points]
    if not pts:
        return []
    if not all(is_integral(p) for p in pts):
        raise ValueError("affine_lattice_basis needs integer points")
    base = pts[0]
    diffs = [vsub(p, base) for p in pts[1:]]
    diffs = [d for d in diffs if any(d)]
    n = len(base)
    if not diffs:
        return []
    complement = nullspace(diffs)
    if not complement:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    K = _int_rows(complement)
    return integer_kernel(K)


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


def _common_scale(points: Sequence[Vec]) -> tuple[list[list[int]], int]:
    """The points times s, the lcm of their denominators, as integer rows; and s."""
    s = lcm(*(x.denominator for p in points for x in p))
    return [_scaled(p, s) for p in points], s


def facet_hyperplanes(vertices: Sequence[Vec]) -> list[tuple[Vec, Fraction]]:
    """Facet inequalities (normal, rhs), convention normal.x <= rhs, of the
    convex hull of the given points, cutting within the affine span.
    Normals are primitive integer vectors.

    With the points scaled to integers X_i = s x_i and E the primitive
    integer rows of the echelon form of their differences, each facet
    m.y >= -b in the span coordinates y = E . X is an extreme ray (m, b) of
    the cone {h : (y_i, 1).h >= 0} over the points, so normal = -sum m_k E_k.
    """
    points, s = _common_scale([to_vec(v) for v in vertices])
    if not points:
        return []
    base = points[0]
    span_rows = _int_rows(_echelon([[x - y for x, y in zip(p, base)] for p in points[1:]])[0])
    d = len(span_rows)
    if d == 0:
        return []
    rows = [[sum(a * x for a, x in zip(e, p)) for e in span_rows] + [1] for p in points]
    out = []
    for ray, tight in _extreme_rays(rows):
        m = ray[:d]
        normal = _int_rows([[-sum(a * x for a, x in zip(m, col)) for col in zip(*span_rows)]])[0]
        on_facet = points[(tight & -tight).bit_length() - 1]
        out.append((to_vec(normal), Fraction(sum(a * x for a, x in zip(normal, on_facet)), s)))
    out.sort()
    return out


def _facet_vertices(points: list[Vec], planes) -> list[Vec]:
    """Those of the distinct points at which the facets through the point
    meet in that point alone: no other point lies on all of them."""
    scaled, s = _common_scale(points)
    meet = [(1 << len(points)) - 1] * len(points)
    for normal, rhs in planes:
        a = [x.numerator for x in normal]
        b = rhs.numerator * (s // rhs.denominator)
        on = [i for i, p in enumerate(scaled) if sum(x * y for x, y in zip(a, p)) == b]
        tight = sum(1 << i for i in on)
        for i in on:
            meet[i] &= tight
    return [p for i, p in enumerate(points) if meet[i] == 1 << i]


class LatticePolytope:
    """Exact V- and H-data for a bounded polytope, with the integer lattice
    of its affine span when the vertices are integral.

    Built from any points, it runs the facet kernel once on them, keeps the
    facets as its H-description and the points the facets single out as its
    vertices. Built from `already_extreme` vertices, it finds its facets on
    demand. Hyperplanes follow the convention normal.x <= rhs, with
    primitive integer normals; each one is a facet.
    """

    def __init__(self, vertices: Sequence[Vec], already_extreme=False):
        pts = list(dict.fromkeys(map(to_vec, vertices)))
        if not pts:
            raise ValueError("a polytope needs at least one vertex")
        self._hyperplanes = None
        if not already_extreme:
            self._hyperplanes = tuple(facet_hyperplanes(pts))
            pts = _facet_vertices(pts, self._hyperplanes)
        self.vertices: tuple[Vec, ...] = tuple(sorted(pts))
        self._lattice_basis_known = False
        self._lattice_basis = None
        self._span_equations = None

    @cached_property
    def dim(self) -> int:
        points, _ = _common_scale(self.vertices)
        return rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])

    @property
    def hyperplanes(self) -> tuple[tuple[Vec, Fraction], ...]:
        if self._hyperplanes is None:
            self._hyperplanes = tuple(facet_hyperplanes(self.vertices))
        return self._hyperplanes

    @property
    def lattice_basis(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """Saturated integer basis of the affine span directions, when the
        vertices are integral; None otherwise."""
        if not self._lattice_basis_known:
            self._lattice_basis_known = True
            if all(is_integral(v) for v in self.vertices):
                self._lattice_basis = tuple(
                    tuple(row) for row in affine_lattice_basis(self.vertices))
            else:
                self._lattice_basis = None
        return self._lattice_basis

    def span_equations(self) -> list[tuple[list[int], Fraction]]:
        """Equations a.x = b cutting out the affine span, each a a primitive
        integer row."""
        if self._span_equations is None:
            base = self.vertices[0]
            diffs = [vsub(v, base) for v in self.vertices[1:]]
            kernel = nullspace(diffs) if diffs else []
            if not diffs:
                kernel = [[Fraction(1) if i == j else Fraction(0) for j in range(len(base))]
                          for i in range(len(base))]
            self._span_equations = [(row, vdot(row, base)) for row in _int_rows(kernel)]
        return self._span_equations

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

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


def integer_points(poly: LatticePolytope) -> list[Vec]:
    """All points of Z^n inside the polytope, in canonical sorted order.

    Enumeration runs over the bounding box, restricted to the affine span
    and filtered by the facets, on integers: the span equations and facet
    normals are integer rows, so at an integer point a.x = b needs b to be
    an integer, and a.x <= b means a.x <= floor(b).
    """
    les = []
    for a, b in poly.span_equations():
        if b.denominator != 1:
            return []
        les += [(a, b.numerator), ([-x for x in a], -b.numerator)]
    les += [([x.numerator for x in normal], floor(rhs)) for normal, rhs in poly.hyperplanes]
    verts = poly.vertices
    lo = [floor(min(coords)) for coords in zip(*verts)]
    hi = [ceil(max(coords)) for coords in zip(*verts)]
    return sorted(to_vec(pt) for pt in _box_lattice_points(lo, hi, les))


# ---------------------------------------------------------------------------
# serialization helpers


def fraction_pair(x) -> list[int]:
    f = Fraction(x)
    return [f.numerator, f.denominator]


def vector_pairs(v: Sequence) -> list[list[int]]:
    return [fraction_pair(x) for x in v]


def polytope_json(poly: LatticePolytope) -> dict:
    """Canonical JSON payload: vertices, hyperplanes, lattice basis, all as
    reduced [num, den] integer pairs."""
    planes = [{"normal": vector_pairs(normal), "rhs": fraction_pair(rhs)}
              for normal, rhs in poly.hyperplanes]
    basis = poly.lattice_basis
    return {
        "vertices": [vector_pairs(v) for v in poly.vertices],
        "hyperplanes": planes,
        "lattice_basis": [vector_pairs(row) for row in basis] if basis else [],
    }
