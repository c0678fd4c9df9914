"""Exact rational linear algebra and small scale polyhedral primitives.

Everything here works over fractions.Fraction; no floating point anywhere.
The LP solver is a two phase simplex with Bland's rule, so it terminates
without any tolerance knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import TooLarge, UnboundedError

Vec = tuple[Fraction, ...]


def vec(*coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


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
    total = Fraction(0)
    for x, y in zip(a, b, strict=True):
        total += Fraction(x) * Fraction(y)
    return total


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def is_integral(v: Sequence) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


# ---------------------------------------------------------------------------
# dense rational elimination


def _pivot(T, row, col):
    """Scale T[row] to a unit entry in `col` and clear `col` in every other row."""
    inv = 1 / T[row][col]
    T[row] = [x * inv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [x - f * y for x, y in zip(T[i], T[row])]


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        _pivot(mat, r, c)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """One solution of A x = b, or None if inconsistent. Free variables get 0."""
    if not rows:
        return []
    aug = [list(row) + [b] for row, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    n = len(rows[0])
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return x


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of {x : A x = 0}."""
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# exact simplex


def _run_simplex(T, basis, cost, allowed):
    """Maximize over the tableau in place. Bland's rule on `allowed` columns.

    Returns "optimal" or "unbounded".
    """
    m = len(T)
    while True:
        cb = [cost[b] for b in basis]
        entering = None
        for j in allowed:
            rj = cost[j] - sum(cb[i] * T[i][j] for i in range(m))
            if rj > 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for i in range(m):
            if T[i][entering] > 0:
                ratio = T[i][-1] / T[i][entering]
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leaving = i
        if leaving is None:
            return "unbounded"
        _pivot(T, leaving, entering)
        basis[leaving] = entering


def solve_eq_nonneg(A: Sequence[Sequence], b: Sequence, c: Sequence):
    """Maximize c.y subject to A y = b, y >= 0.

    Returns (status, y, value) with status in {"optimal", "infeasible",
    "unbounded"}.
    """
    m = len(A)
    n = len(c)
    rows = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # phase 1 tableau with one artificial per row
    T = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    _run_simplex(T, basis, cost1, list(range(n)))
    if any(T[i][-1] != 0 for i in range(m) if basis[i] >= n):
        return "infeasible", None, None
    # drive leftover zero-valued artificials out, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is None:
                continue
            _pivot(T, i, col)
            basis[i] = col
        keep.append(i)
    T = [T[i][:n] + [T[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost2 = [Fraction(x) for x in c]
    status = _run_simplex(T, basis, cost2, list(range(n)))
    y = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        y[bi] = T[i][-1]
    if status == "unbounded":
        return "unbounded", y, None
    return "optimal", y, vdot(cost2, y)


def lp_feasible(constraints: Sequence[tuple], n: int) -> Optional[Vec]:
    """Exact feasibility for linear constraints over n free variables.

    Each constraint is (coeffs, rel, rhs) with rel one of "<=", "<", "=",
    ">=", ">". Strict inequalities are handled by maximizing an auxiliary
    slack capped at 1; when the system is homogeneous the witness is scaled
    so every strict constraint has slack at least 1. Returns a witness
    vector or None.
    """
    rows = []
    for coeffs, rel, rhs in constraints:
        a = [Fraction(x) for x in coeffs]
        r = Fraction(rhs)
        if rel in (">=", ">"):
            a = [-x for x in a]
            r = -r
            rel = "<=" if rel == ">=" else "<"
        rows.append((a, rel, r))
    strict = any(rel == "<" for _, rel, _ in rows)
    homogeneous = all(r == 0 for _, _, r in rows)

    # variables: u (n), v (n), then t if needed, then one slack per inequality
    nslack = sum(1 for _, rel, _ in rows if rel != "=") + (1 if strict else 0)
    t_col = 2 * n if strict else None
    base = 2 * n + (1 if strict else 0)
    total = base + nslack
    A = []
    b = []
    slack = 0
    for a, rel, r in rows:
        row = [Fraction(0)] * total
        for i in range(n):
            row[i] = a[i]
            row[n + i] = -a[i]
        if rel == "<":
            row[t_col] = Fraction(1)
        if rel != "=":
            row[base + slack] = Fraction(1)
            slack += 1
        A.append(row)
        b.append(r)
    if strict:
        row = [Fraction(0)] * total
        row[t_col] = Fraction(1)
        row[base + slack] = Fraction(1)
        slack += 1
        A.append(row)
        b.append(Fraction(1))
    c = [Fraction(0)] * total
    if strict:
        c[t_col] = Fraction(1)
    status, y, value = solve_eq_nonneg(A, b, c)
    if status != "optimal":
        return None
    if strict and value <= 0:
        return None
    x = tuple(y[i] - y[n + i] for i in range(n))
    if strict and homogeneous and value < 1:
        x = vscale(ceil(Fraction(1) / value), x)
    return x


def convex_combination(points: Sequence[Vec], target: Vec) -> Optional[list[Fraction]]:
    """Coefficients expressing target as a convex combination, or None."""
    k = len(points)
    if k == 0:
        return None
    dim = len(target)
    A = [[Fraction(p[i]) for p in points] for i in range(dim)]
    A.append([Fraction(1)] * k)
    b = list(target) + [Fraction(1)]
    status, y, _ = solve_eq_nonneg(A, b, [Fraction(0)] * k)
    if status != "optimal":
        return None
    return y


def hull_vertices(points: Sequence[Vec]) -> list[Vec]:
    """The extreme points, certified by exact LP separation."""
    seen = []
    for p in points:
        p = to_vec(p)
        if p not in seen:
            seen.append(p)
    if len(seen) <= 1:
        return seen
    out = []
    for i, p in enumerate(seen):
        others = seen[:i] + seen[i + 1:]
        if convex_combination(others, p) is None:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# integer lattices


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each rational row to a primitive integer row."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row)) if row else 1
        ints = [int(x * mult) for x in row]
        g = gcd(*ints) if any(ints) else 1
        if g:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


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
# affine maps


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix . x + offset with exact rational entries."""

    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]

    def __post_init__(self):
        for row in self.matrix:
            if len(row) != len(self.matrix[0]):
                raise ValueError("ragged matrix")
        if len(self.offset) != len(self.matrix):
            raise ValueError("offset length must match row count")

    def __call__(self, v: Sequence) -> Vec:
        return tuple(vdot(row, v) + off for row, off in zip(self.matrix, self.offset))


def affine_map_through(inputs: Sequence[Vec], outputs: Sequence[Vec]) -> Optional[AffineMap]:
    """The affine map sending each input to its output, or None if the data
    is inconsistent. Underdetermined directions get zero coefficients."""
    if not inputs:
        raise ValueError("need at least one point")
    n = len(inputs[0])
    k = len(outputs[0])
    X = [list(map(Fraction, v)) + [Fraction(1)] for v in inputs]
    matrix = []
    offset = []
    for coord in range(k):
        y = [Fraction(out[coord]) for out in outputs]
        z = solve_linear(X, y)
        if z is None:
            return None
        matrix.append(tuple(z[:n]))
        offset.append(z[n])
    return AffineMap(tuple(matrix), tuple(offset))


# ---------------------------------------------------------------------------
# polytopes


def facet_hyperplanes(vertices: Sequence[Vec]) -> list[tuple[Vec, Fraction]]:
    """Facet inequalities (normal, rhs), convention normal.x <= rhs, of the
    convex hull of the given extreme points, cutting within the affine span.
    Normals are primitive integer vectors. Guarded to dimension <= 12.
    """
    verts = [to_vec(v) for v in vertices]
    if not verts:
        return []
    base = verts[0]
    diffs = [vsub(v, base) for v in verts[1:]]
    span_rows, _ = rref(diffs)
    d = len(span_rows)
    if d == 0:
        return []
    if d > 12:
        raise TooLarge(f"H-representation limited to dimension 12, got {d}")
    out = []
    seen = set()
    for subset in combinations(range(len(verts)), d):
        pts = [verts[i] for i in subset]
        rel = [vsub(p, pts[0]) for p in pts[1:]]
        if rank(rel) != d - 1:
            continue
        # normal = m . span_rows, orthogonal to the facet directions
        system = [[vdot(span_rows[k], dv) for k in range(d)] for dv in rel]
        if system:
            kern = nullspace(system)
        else:  # d == 1, single point spans the 0-dim "facet"
            kern = [[Fraction(1)]]
        if len(kern) != 1:
            continue
        m = kern[0]
        normal = [Fraction(0)] * len(base)
        for k in range(d):
            if m[k] != 0:
                normal = [x + m[k] * y for x, y in zip(normal, span_rows[k])]
        normal = _int_rows([normal])[0]
        rhs = vdot(normal, pts[0])
        lo = any(vdot(normal, v) < rhs for v in verts)
        hi = any(vdot(normal, v) > rhs for v in verts)
        if lo and hi:
            continue
        if hi:  # all mass above the plane: flip so that normal.x <= rhs holds
            normal = [-x for x in normal]
            rhs = -rhs
        key = (tuple(normal), rhs)
        if key not in seen:
            seen.add(key)
            out.append((to_vec(normal), Fraction(rhs)))
    out.sort()
    return out


class LatticePolytope:
    """Exact V- and H-data for a bounded polytope, with the integer lattice
    of its affine span when the vertices are integral.

    Hyperplanes follow the convention normal.x <= rhs; each one listed is
    supporting. The H-representation is computed on demand and only for
    polytopes of dimension <= 12.
    """

    def __init__(self, vertices: Sequence[Vec], hyperplanes=None, already_extreme=False):
        pts = []
        for p in vertices:
            p = to_vec(p)
            if p not in pts:
                pts.append(p)
        if not pts:
            raise ValueError("a polytope needs at least one vertex")
        if not already_extreme:
            pts = hull_vertices(pts)
        self.vertices: tuple[Vec, ...] = tuple(sorted(pts))
        self._hyperplanes = None
        if hyperplanes is not None:
            kept = []
            for normal, rhs in hyperplanes:
                normal = to_vec(normal)
                rhs = Fraction(rhs)
                values = [vdot(normal, v) for v in self.vertices]
                if any(val > rhs for val in values):
                    raise ValueError("hyperplane violated by a vertex")
                if any(val == rhs for val in values):  # keep only supporting ones
                    kept.append((normal, rhs))
            self._hyperplanes = tuple(sorted(kept))
        self._lattice_basis_known = False
        self._lattice_basis = None
        self._span_equations = None

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        base = self.vertices[0]
        return rank([vsub(v, base) for v in self.vertices[1:]])

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

    def span_equations(self) -> list[tuple[list[int], int]]:
        """Integer equations a.x = b cutting out the affine span."""
        if self._span_equations is None:
            base = self.vertices[0]
            diffs = [vsub(v, base) for v in self.vertices[1:]]
            kernel = nullspace(diffs) if diffs else []
            if not diffs:
                kernel = [[Fraction(1) if i == j else Fraction(0) for j in range(len(base))]
                          for i in range(len(base))]
            rows = _int_rows(kernel)
            self._span_equations = [(row, int_or_fraction_dot(row, base)) for row in rows]
        return self._span_equations

    def contains(self, point: Vec) -> bool:
        point = to_vec(point)
        for row, b in self.span_equations():
            if vdot(row, point) != b:
                return False
        try:
            planes = self.hyperplanes
        except TooLarge:
            return convex_combination(list(self.vertices), point) is not None
        return all(vdot(n, point) <= r for n, r in planes)

    def scaled(self, k) -> "LatticePolytope":
        k = Fraction(k)
        verts = [vscale(k, v) for v in self.vertices]
        planes = None
        if self._hyperplanes is not None:
            planes = [(n, r * k) for n, r in self._hyperplanes]
        return LatticePolytope(verts, hyperplanes=planes, already_extreme=True)

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolytope({len(self.vertices)} vertices, dim {self.dim})"


def int_or_fraction_dot(row: Sequence[int], point: Vec):
    val = vdot(row, point)
    return int(val) if val.denominator == 1 else val


def _box_lattice_points(lo: list[int], hi: list[int],
                        eqs: list[tuple[list, object]],
                        les: list[tuple[list, object]]):
    """Integer points of the box satisfying a.x = b and a.x <= b constraints,
    by depth first search with interval pruning. Constraint data may be
    Fractions; arithmetic stays exact."""
    n = len(lo)
    # suffix extremes of each constraint over the remaining box
    def suffix(coeffs):
        mins = [Fraction(0)] * (n + 1)
        maxs = [Fraction(0)] * (n + 1)
        for i in range(n - 1, -1, -1):
            a = Fraction(coeffs[i])
            c1, c2 = a * lo[i], a * hi[i]
            mins[i] = mins[i + 1] + min(c1, c2)
            maxs[i] = maxs[i + 1] + max(c1, c2)
        return mins, maxs

    eq_data = [(coeffs, Fraction(b), *suffix(coeffs)) for coeffs, b in eqs]
    le_data = [(coeffs, Fraction(b), *suffix(coeffs)) for coeffs, b in les]
    point = [0] * n

    def descend(i, eq_partial, le_partial):
        if i == n:
            yield tuple(point)
            return
        for x in range(lo[i], hi[i] + 1):
            point[i] = x
            ok = True
            new_eq = []
            for (coeffs, b, mins, maxs), s in zip(eq_data, eq_partial):
                s2 = s + Fraction(coeffs[i]) * x
                if s2 + mins[i + 1] > b or s2 + maxs[i + 1] < b:
                    ok = False
                    break
                new_eq.append(s2)
            if not ok:
                continue
            new_le = []
            for (coeffs, b, mins, maxs), s in zip(le_data, le_partial):
                s2 = s + Fraction(coeffs[i]) * x
                if s2 + mins[i + 1] > b:
                    ok = False
                    break
                new_le.append(s2)
            if not ok:
                continue
            yield from descend(i + 1, new_eq, new_le)

    yield from descend(0, [Fraction(0)] * len(eq_data), [Fraction(0)] * len(le_data))


def integer_points(poly: LatticePolytope) -> list[Vec]:
    """All points of Z^n inside the polytope, in canonical sorted order.

    Enumeration runs over the bounding box, restricted to the affine span
    and filtered by the hyperplanes (or by LP membership when the
    H-representation is out of the dimension guard).
    """
    verts = poly.vertices
    if not verts:
        raise UnboundedError("no vertices")
    n = len(verts[0])
    lo = [floor(min(v[i] for v in verts)) for i in range(n)]
    hi = [ceil(max(v[i] for v in verts)) for i in range(n)]
    eqs = [(row, b) for row, b in poly.span_equations()]
    try:
        les = [(list(normal), rhs) for normal, rhs in poly.hyperplanes]
        lp_filter = False
    except TooLarge:
        les = []
        lp_filter = True
    out = []
    for pt in _box_lattice_points(lo, hi, eqs, les):
        v = to_vec(pt)
        if lp_filter and convex_combination(list(verts), v) is None:
            continue
        out.append(v)
    out.sort()
    return out


def minkowski_sum(A: Iterable[Vec], B: Iterable[Vec]) -> set[Vec]:
    return {vadd(a, b) for a in A for b in B}


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
    planes = []
    try:
        for normal, rhs in poly.hyperplanes:
            planes.append({"normal": vector_pairs(normal), "rhs": fraction_pair(rhs)})
    except TooLarge:
        planes = None
    basis = poly.lattice_basis
    return {
        "vertices": [vector_pairs(v) for v in poly.vertices],
        "hyperplanes": planes,
        "lattice_basis": [vector_pairs(row) for row in basis] if basis else [],
    }
