"""Rational oracles for hibikit's exact kernels.

These are the two-phase simplex and the Gauss-Jordan elimination that
exactgeom used before its tableaux became integer matrices over one common
denominator. Every entry here is a fractions.Fraction and every pivot
divides through, which is slow but plainly exact. solve_eq_nonneg is the
general two phase simplex, with a cost vector and an unbounded status, and
also returns its pivot count, drive-out pivots left out, so a test can
check that the integer kernel walks the same pivot sequence; phase1_point
poses it lp_feasible's system with c = 0. solve_linear is the Fraction
solve of A x = b that exactgeom kept until its callers moved to integer
ranks, rank and int_rows the Fraction rank and the scaling of rational rows
to primitive integer rows that exactgeom's elimination accepted before it
took integer rows only.

Vec, to_vec, vadd, vscale and zero_vec are the Fraction vector helpers
that exactgeom kept until every rational vector in hibikit became an
integer tuple over one denominator; the oracles here still run on them.

facet_hyperplanes is the subset scan that exactgeom used before its double
description kernel: it tries every d-subset of the points as a facet.

hull_vertices is the LP hull that exactgeom used before its polytopes read
their vertices off the facet kernel: one convex_combination LP per point,
on the rational simplex here. hull is the sorted vertices of any integer
points, which exactgeom's polytope record found until every caller handed
it certified vertices: the distinct points that the facets of
exactgeom.facet_hyperplanes single out, by the _facet_vertices filter
below.

LatticePolytope is the Fraction polytope that exactgeom kept before its
points became integers over one common denominator: every vertex, facet
rhs and span equation rhs a Fraction, with its facets from the subset scan
above, its lattice basis from affine_lattice_basis and its integer points
from integer_points, which runs lattice_points' integer box search on the
floors of its Fraction rows. vsub, vdot and is_integral are the Fraction
vector helpers it needs, and nullspace is the Fraction kernel basis, on the
Fraction rref above, that exactgeom.nullspace returned before its basis
became primitive integer rows.

lattice_points is the search for the integer points of the polytope of
integer vertices over den, on its rows over den, that exactgeom kept while
weightpoly certified each weight polytope by a hull and this search;
weightpoly now certifies them through their apex projection, and the tests
check that certificate against this search. Its rows are span_equations,
built from exactgeom.nullspace as exactgeom's polytope record built them
until nothing in the package read them, and the facets of
exactgeom.facet_hyperplanes. contains is the Fraction membership test that
the record used to carry, on the same rows over den; a brute-force box
filter with it checks lattice_points. over_den writes rational points as
integer points over the lcm of their denominators, and fraction_vertices
reads integer vertices over den back as Fractions.

MarkedPoset, _satisfies, _vertex_candidates, _fillings, _anchored,
_is_vertex and _marked_vertices are the vertex search that flaggt ran
before its points became int tuples over the base's element order: a
marking keyed by label, each candidate a dict from label to value, and
the order read through its label covers. flaggt later ran the same
search on int tuples, for the patterns, the level polytopes and every
section, until it read all of them off the chains of the flag lattice;
this search is the oracle for those readings. It raises NotStronger, an
error only the oracles raise, for an order that does not refine the
base. labelled turns a marking of flaggt, one value per cell of a poset
(None on a free cell), into this form; its MarkedPoset checks that the
extremes are marked and that the values do not increase up the order, as
flaggt's MarkedPoset did until its callers were shown to build only such
markings. level_marking is the 0/1 marking of the level-k polytope, that
flaggt's mu_k_marked_poset built to check each k-index flag point against
until _phi's construction was shown to place them there. _phi (each
flag element's ideal as a label set), _ptilde_labels and flag_point are
the ideals flaggt read the patterns off before they became bitmasks, and
_extend_to_pbar the part orders it closed from label pairs before it
wrote their masks.

gt_marked_poset is the Gelfand-Tsetlin marking that flaggt used before it
moved to the (n-1)-scaled integer lattice: p_{r,r} carries (n-r)/(n-1).
marked_order_polytope wraps a marked poset's vertices, found by the search
above, in the Fraction LatticePolytope, and gt_polytope is the
Gelfand-Tsetlin polytope itself.

gt_patterns and component_image are the Gelfand-Tsetlin pattern search and
the component shape check that flaggt ran in Fraction arithmetic before it
moved them to the (n-1)-scaled integer lattice: the patterns are the
Fraction points themselves, and each section is a marked order polytope of
its chain mapped by a Fraction AffineMap. component_image enumerates the
section's vertices, which flaggt.component_shape no longer does: it reads
the product of simplices off the chain's H-description. pbar_labels lists
the cells of Pbar, corners included, in flaggt's order. gt_poset is the
triangle, Pbar without its corners, that flaggt kept beside Pbar, one
index apart, until it addressed every cell by its index in Pbar.
gt_subdivision is
the section search that flaggt ran on the Fraction marking, with one
Fraction marked order polytope per part and the full dimension read off
gt_polytope. It checks every section against the lifted heights of its
own patterns: each part's map overestimates the lift at every pattern and
meets it exactly inside the section, which flaggt no longer evaluates.

regular_subdivision is the subdivision that hibikit ran in Fraction
arithmetic before it scaled the weight to integers: one AffineMap per
part, evaluated at every element's indicator, each extension's total order
built as a Poset (extension_poset) and the part orders intersected
(intersect_orders), and the order ideals scanned over all 2^|P| subsets.
part_map gives an integer part's constant, the bottom weight, and its
numerator at every element, read off the staircase table's peel as
regular_subdivision computed them, which a part no longer keeps;
part_value evaluates its map at a rational point.

int_row_echelon, lattice_member and same_lattice are the integer
lattice tests that weightpoly ran on zeta's columns before one more exact
solve, Z·X = the apex lattice basis, certified them: its uniqueness makes
Z injective and its integrality makes Z·Z^P the saturated apex lattice.
They run on exactgeom's Euclidean echelon step and check saturated bases
against each other.

WeightPolytope is the record weightpoly.weight_polytope returned before it
returned F's certified basis alone, and weight_record rebuilds it from that
basis: the points p_a, the basis's columns; to_apex, the apex span's
indicator rows written over the basis by one _integral_solution
(inclusion_matrix, the map dual to U(apex) ⊆ U(F)); and the distinguished
faces, each part's vertex indices read off face_subdivision's vertex masks,
which weightpoly writes out as labels.

zeta_fit is the apex certificate weightpoly ran before it read the apex
span in its indicator coordinates, three exact integer solves where it now
runs one: the affine map zeta: x -> Z·x + z0 from R^P into the coordinates
of span_of_face(apex) through every ideal indicator, fitted to the apex
points; Z·X = B, for B the saturated lattice basis of the apex points'
affine span, whose uniqueness and integrality make zeta injective and
onto that lattice; and the apex basis rows over F's basis.

AffineMap, affine_map_through and invert_affine are the Fraction affine maps
that weightpoly certified its distinguished faces with before zeta and the
projection to the apex became integer matrices: one solve_linear per output
coordinate for zeta, and one solve per point for its preimage.

sample_relative_interior and invariance_samples are the relative-interior
witness and the perturbed samples that subdivision_invariance_check drew,
taken in Fraction arithmetic before both moved to integers; structure is
what it compared at each sample, before it certified the parts from the
tight swaps and stopped sampling. subdivision_invariance_check is that
certificate, which face_subdivision ran as a second pass on every face
until regular_subdivision built the parts as the tight swap components:
one union-find over every swap edge, each of which must join one part iff
its pair is tight, with as many components as parts. grouped_subdivision
is the integer regular_subdivision it certified: one slope per extension,
interpolated along its chain, the extensions grouped by slope, and each
group's map checked on all of L. part_index is the part_at that a
Subdivision kept for that certificate, the index of the part whose
simplices hold each extension, derived from the parts.

indicator, is_full and is_apex are the Lattice and Face members that only
tests read: an element's 0/1 Fraction vector over poset_P, whether a face
has no tight pair, and whether it has every pair tight.

enumerated_faces, same_face and rank_dim are what only tests read of a
cone's faces: the faces as Faces built from enumerate_faces' masks, in its
order; whether two faces have the same lattice and tight mask; and a
face's dimension by one rank of its tight normals, the oracle grade_faces
is checked against.

cone_K is the facet certificate that cone ran before its integer witness:
one LP per diamond pair, for a point with that pair tight and every other
pair slack at least 1. Its LPs run on the rational simplex here through
lp_feasible, which takes "=", ">=" and "<=" rows with any right-hand side.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import ceil, floor, gcd, lcm
from operator import eq, lt
from typing import Iterable, NamedTuple, Optional, Sequence

from hibikit import exactgeom, flaggt, weightpoly
from hibikit.cone import (Face, MaxCone, _tight_set, enumerate_faces, enumerated_face, face_of,
                          pair_normal, span_of_face)
from hibikit.exactgeom import _euclid_echelon, integer_kernel
from hibikit.errors import HibikitError, TooLarge
from hibikit.flaggt import GelfandTsetlin, _cell, gt_poset_iso
from hibikit.lattice import Lattice, _label_of, diamond_pairs
from hibikit.poset import Poset, _bits, from_cover_relations, linear_extensions
from hibikit.subdivision import (Part, Subdivision, adjacency_graph, face_subdivision,
                                 staircase_table)
from hibikit.weightpoly import _integral_solution
from order_oracle import (LinearExtension, iota, is_stronger, label_extension, label_extensions,
                          lattice_chain, lattice_key, leq, less, order_ideals, part_order,
                          poset_from_pairs, position)


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


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vdot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def is_integral(v: Sequence) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def indicator(L: Lattice, a: str) -> Vec:
    """The 0/1 vector of iota(a) over the canonical poset_P order."""
    ideal = iota(L, a)
    return tuple(Fraction(1 if p in ideal else 0) for p in L.poset_P.elements)


def is_full(F: Face) -> bool:
    """Whether F is the full-dimensional face, with no tight pair."""
    return not F.tight


def is_apex(F: Face) -> bool:
    """Whether F is the apex, the face with every pair tight."""
    return F.tight == (1 << len(F.cone.pairs)) - 1


def enumerated_faces(K: MaxCone) -> list[Face]:
    """The faces of K as Faces, in the order of enumerate_faces, each built
    from its (tight mask, ray mask) pair."""
    return [enumerated_face(K, *masks) for masks in enumerate_faces(K)]


def same_face(F: Face, G: Face) -> bool:
    """Whether F and G are one face: the same lattice and tight mask."""
    return F.cone.lattice.elements == G.cone.lattice.elements and F.tight == G.tight


def rank_dim(K: MaxCone, tight: int) -> int:
    """The dimension of the face of K with tight mask tight: |L| minus the
    rank of its tight normals."""
    return K.lattice.size - exactgeom.rank(
        [K.normals[i] for i in range(len(K.pairs)) if tight >> i & 1])


def _pivot(T, row, col):
    """Scale T[row] to a unit entry in `col` and clear `col` in every other row."""
    inv = 1 / T[row][col]
    T[row] = [x * inv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [x - f * y for x, y in zip(T[i], T[row])]


def rref(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
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


def rank(rows) -> int:
    return len(rref(rows)[1])


def dim_of(vertices) -> int:
    """The dimension of a polytope from its vertices, Fraction or integer
    tuples: the rank of their differences from the first."""
    base = vertices[0]
    return rank([vsub(v, base) for v in vertices[1:]])


def int_rows(rows) -> list[list[int]]:
    """Scale each rational row to a primitive integer row."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in row))
        ints = [int(x * s) for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def solve_linear(rows, rhs) -> Optional[list[Fraction]]:
    """One solution of A x = b, or None if inconsistent. Free variables get 0."""
    if not rows:
        return []
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs, strict=True)])
    n = len(rows[0])
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return x


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of {x : A x = 0}: one vector per free column f of the RREF,
    with x_f = 1 and every other free coordinate 0."""
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = rref(rows)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def _run_simplex(T, basis, cost, allowed):
    """Maximize over the tableau in place by Bland's rule on the `allowed`
    columns. Returns (status, pivot count)."""
    m = len(T)
    pivots = 0
    while True:
        cb = [cost[b] for b in basis]
        entering = None
        for j in allowed:
            if cost[j] - sum(cb[i] * T[i][j] for i in range(m)) > 0:
                entering = j
                break
        if entering is None:
            return "optimal", pivots
        leaving = None
        best = None
        for i in range(m):
            if T[i][entering] > 0:
                key = (T[i][-1] / T[i][entering], basis[i])
                if best is None or key < best:
                    best = key
                    leaving = i
        if leaving is None:
            return "unbounded", pivots
        _pivot(T, leaving, entering)
        basis[leaving] = entering
        pivots += 1


def solve_eq_nonneg(A, b, c):
    """Maximize c.y subject to A y = b, y >= 0.

    Returns (status, y, value, pivots) with status in {"optimal",
    "infeasible", "unbounded"}. pivots counts the Bland pivots of both
    phases; the pivots between them that drive out the artificials left
    basic at 0 move no variable's value and are not counted.
    """
    m = len(A)
    n = len(c)
    rows = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    T = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    _, pivots = _run_simplex(T, basis, cost1, list(range(n)))
    if any(T[i][-1] != 0 for i in range(m) if basis[i] >= n):
        return "infeasible", None, None, pivots
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
    status, more = _run_simplex(T, basis, cost2, list(range(n)))
    y = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        y[bi] = T[i][-1]
    if status == "unbounded":
        return "unbounded", y, None, pivots + more
    return "optimal", y, sum(x * v for x, v in zip(cost2, y)), pivots + more


def phase1_point(equalities, rows, n: int) -> tuple[Optional[Vec], int]:
    """exactgeom.lp_feasible's system, a.x = 0 for each equality row and
    a.x >= r for each (a, r) in rows, on the rational simplex with c = 0:
    the point phase 1 reaches, or None when the system is infeasible, and
    the phase-1 pivot count. The columns and rows are lp_feasible's, so
    the two make the same Bland pivots. The point is read after the
    artificials left basic are driven out, which lp_feasible skips, and
    with c = 0 phase 2 makes no pivot."""
    m = len(rows)
    A = [list(a) + [-x for x in a] + [0] * m for a in equalities]
    A += [[-x for x in a] + list(a) + [int(j == k) for j in range(m)]
          for k, (a, _) in enumerate(rows)]
    b = [0] * len(equalities) + [-r for _, r in rows]
    status, y, _, pivots = solve_eq_nonneg(A, b, [0] * (2 * n + m))
    if status != "optimal":
        return None, pivots
    return tuple(y[i] - y[n + i] for i in range(n)), pivots


def lp_feasible(constraints, n: int) -> Optional[Vec]:
    """A point x in Q^n with a.x (rel) r for every (a, rel, r), or None.
    x = u - v with u, v >= 0, and each row gets one slack column."""
    k = len(constraints)
    sign = {"=": 0, ">=": -1, "<=": 1}
    A = [list(a) + [-x for x in a] + [sign[rel] * int(j == i) for j in range(k)]
         for i, (a, rel, _) in enumerate(constraints)]
    status, y, _, _ = solve_eq_nonneg(A, [r for _, _, r in constraints], [0] * (2 * n + k))
    if status != "optimal":
        return None
    return tuple(y[i] - y[n + i] for i in range(n))


def cone_K(L: Lattice) -> MaxCone:
    """K-bar with every inequality certified a facet by LP."""
    pairs = diamond_pairs(L)
    normals = [pair_normal(L, d) for d in pairs]
    for i in range(len(pairs)):
        cons = [(normals[i], "=", 0)]
        cons += [(normals[k], ">=", 1) for k in range(len(pairs)) if k != i]
        if lp_feasible(cons, L.size) is None:
            pair = (L.elements[pairs[i].a], L.elements[pairs[i].b])
            raise AssertionError(f"inequality for {pair} is not facet-defining")
    return MaxCone(L, pairs, normals)


def facet_hyperplanes(vertices):
    """Facet inequalities (normal, rhs), convention normal.x <= rhs, of the
    convex hull of the given extreme points, cutting within the affine span.
    Normals are primitive integer vectors. Tries all C(#points, d) subsets.
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
        normal = int_rows([normal])[0]
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


def invert_affine(m: AffineMap, point: Sequence) -> Vec:
    """The unique preimage under an injective affine map; raises if the
    point is off the image."""
    rhs = vsub(to_vec(point), m.offset)
    x = solve_linear(m.matrix, rhs)
    assert x is not None, "point is outside the affine image"
    assert m(x) == tuple(point), "point is outside the affine image"
    return tuple(x)


def convex_combination(points: Sequence[Vec], target: Vec) -> Optional[list[Fraction]]:
    """Coefficients expressing target as a convex combination, or None."""
    k = len(points)
    if k == 0:
        return None
    dim = len(target)
    A = [[Fraction(p[i]) for p in points] for i in range(dim)]
    A.append([Fraction(1)] * k)
    b = list(target) + [Fraction(1)]
    status, y, _, _ = solve_eq_nonneg(A, b, [Fraction(0)] * k)
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
    K = int_rows(complement)
    return integer_kernel(K, n)


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


def zeta_fit(F: Face) -> tuple[tuple, tuple, tuple]:
    """F's apex certificate by the three solves of zeta_fit in the module
    docstring, as (Z, z0, to_apex) with to_apex over span_of_face(apex):
    to_apex·p_i == Z·1_i + z0 for every element i. Raises AssertionError
    where a solve does."""
    L = F.cone.lattice
    apex_basis = span_of_face(F.cone.apex)
    apex_points = tuple(zip(*apex_basis))
    n = L.poset_P.size
    X = _integral_solution([[m >> j & 1 for j in range(n)] + [1] for m in L.masks], apex_points)
    z0 = X[n]
    rows = range(len(z0))
    Z = tuple(tuple(col[i] for col in X[:n]) for i in rows)  # |P| = 0 leaves its rows empty
    B = exactgeom.lattice_basis(apex_points, 1)
    _integral_solution(Z, [[v[i] for v in B] for i in rows])
    return Z, z0, inclusion_matrix(span_of_face(F), apex_basis)


def inclusion_matrix(basis_g, basis_f) -> tuple[tuple[int, ...], ...]:
    """The rows of basis_f written over basis_g, by one _integral_solution:
    it raises unless the span of basis_f lies inside that of basis_g and
    the coordinates are integers."""
    return tuple(zip(*_integral_solution(tuple(zip(*basis_g)), tuple(zip(*basis_f)))))


class WeightPolytope(NamedTuple):
    """F's weight polytope: basis spans U(F) ∩ Z^L, points[i] is the i-th
    element's point, the i-th column of basis, to_apex·points[i] is
    (1, 1_i), and distinguished holds one face per part of F's regular
    subdivision, as the part's vertex indices."""

    face: Face
    basis: tuple[tuple[int, ...], ...]
    points: tuple[tuple[int, ...], ...]
    to_apex: tuple[tuple[int, ...], ...]
    distinguished: tuple[tuple[int, ...], ...]


def weight_record(F: Face) -> WeightPolytope:
    """The WeightPolytope of F, on the basis weightpoly.weight_polytope
    certifies (so a test that patches weightpoly's span_of_face moves it)."""
    L = F.cone.lattice
    basis = weightpoly.weight_polytope(F)
    rows = [[1] * L.size] + [[m >> j & 1 for m in L.masks] for j in range(L.poset_P.size)]
    return WeightPolytope(F, basis, tuple(zip(*basis)), inclusion_matrix(basis, rows),
                          tuple(tuple(_bits(part.vertex_mask))
                                for part in face_subdivision(F).parts))


def _facet_vertices(points: list[Vec], planes) -> list[Vec]:
    """Those of the distinct points at which the facets through the point
    meet in that point alone: no other point lies on all of them. The
    points are Fraction or integer tuples; a plain sum keeps integer dot
    products ints."""
    meet = [(1 << len(points)) - 1] * len(points)
    for normal, rhs in planes:
        on = [i for i, p in enumerate(points)
              if sum(a * x for a, x in zip(normal, p, strict=True)) == rhs]
        tight = sum(1 << i for i in on)
        for i in on:
            meet[i] &= tight
    return [p for i, p in enumerate(points) if meet[i] == 1 << i]


def hull(points: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The sorted vertices of the hull of integer points, repeated or not:
    the distinct points that exactgeom.facet_hyperplanes' facets single
    out. Over any den they are the vertices of the points over den."""
    pts = list(dict.fromkeys(points))
    return sorted(_facet_vertices(pts, exactgeom.facet_hyperplanes(pts)))


class LatticePolytope:
    """Exact V- and H-data for a bounded polytope over Fraction points, with
    the integer lattice of its affine span when the vertices are integral.
    Hyperplanes follow the convention normal.x <= rhs, with primitive
    integer normals and Fraction rhs."""

    def __init__(self, vertices: Sequence[Vec], already_extreme=False):
        pts = list(dict.fromkeys(map(to_vec, vertices)))
        if not pts:
            raise ValueError("a polytope needs at least one vertex")
        if not already_extreme:
            self.hyperplanes = tuple(facet_hyperplanes(pts))
            pts = _facet_vertices(pts, self.hyperplanes)
        self.vertices: tuple[Vec, ...] = tuple(sorted(pts))

    @cached_property
    def hyperplanes(self) -> tuple[tuple[Vec, Fraction], ...]:
        return tuple(facet_hyperplanes(self.vertices))

    @cached_property
    def dim(self) -> int:
        return dim_of(self.vertices)

    @cached_property
    def lattice_basis(self) -> Optional[tuple[tuple[int, ...], ...]]:
        if not all(is_integral(v) for v in self.vertices):
            return None
        return tuple(tuple(row) for row in affine_lattice_basis(self.vertices))

    @cached_property
    def span_equations(self) -> list[tuple[list[int], Fraction]]:
        """Equations a.x = b cutting out the affine span, each a a primitive
        integer row."""
        base = self.vertices[0]
        diffs = [vsub(v, base) for v in self.vertices[1:]]
        kernel = nullspace(diffs) if diffs else []
        if not diffs:
            kernel = [[Fraction(1) if i == j else Fraction(0) for j in range(len(base))]
                      for i in range(len(base))]
        return [(row, vdot(row, base)) for row in int_rows(kernel)]


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


def span_equations(vertices: Sequence[tuple[int, ...]]) -> list[tuple[list[int], int]]:
    """Equations a.x = b, on the points' own scale, cutting out the affine
    span of integer points: a runs over exactgeom.nullspace of their
    differences, primitive integer rows, and b is a at the first point."""
    base = vertices[0]
    rows = exactgeom.nullspace([[x - y for x, y in zip(v, base)] for v in vertices[1:]], len(base))
    return [(a, sum(x * y for x, y in zip(a, base))) for a in rows]


def lattice_points(vertices: Sequence[tuple[int, ...]], den: int) -> list[tuple[int, ...]]:
    """All points of Z^n inside the polytope of the integer vertices over
    den, in canonical sorted order, by the box search on its span equations
    and exactgeom.facet_hyperplanes' facets, both over den: an integer point
    x meets a.x = b / den only if den divides b, and a.x <= b / den means
    a.x <= floor(b / den)."""
    les = []
    for a, b in span_equations(vertices):
        if b % den:
            return []
        les += [(a, b // den), ([-x for x in a], -(b // den))]
    les += [(list(normal), rhs // den) for normal, rhs in exactgeom.facet_hyperplanes(vertices)]
    lo = [min(coords) // den for coords in zip(*vertices)]
    hi = [-(-max(coords) // den) for coords in zip(*vertices)]
    return sorted(_box_lattice_points(lo, hi, les))


def integer_points(poly: LatticePolytope) -> list[Vec]:
    """All points of Z^n inside the Fraction polytope, in sorted order, by
    the same box search on the floors of its Fraction rows."""
    les = []
    for a, b in poly.span_equations:
        if b.denominator != 1:
            return []
        les += [(a, b.numerator), ([-x for x in a], -b.numerator)]
    les += [([x.numerator for x in normal], floor(rhs)) for normal, rhs in poly.hyperplanes]
    verts = poly.vertices
    lo = [floor(min(coords)) for coords in zip(*verts)]
    hi = [ceil(max(coords)) for coords in zip(*verts)]
    return sorted(to_vec(pt) for pt in _box_lattice_points(lo, hi, les))


def contains(vertices: Sequence[tuple[int, ...]], den: int, point) -> bool:
    """Whether the point satisfies the span equations and the facet
    inequalities of the polytope of the integer vertices over den, whose
    right-hand sides are over den, in Fraction arithmetic."""
    point = to_vec(point)
    return (all(vdot(row, point) == Fraction(b, den) for row, b in span_equations(vertices))
            and all(vdot(n, point) <= Fraction(r, den)
                    for n, r in exactgeom.facet_hyperplanes(vertices)))


def over_den(points) -> tuple[list[tuple[int, ...]], int]:
    """Rational points as integer points over the lcm of their denominators."""
    den = lcm(*(Fraction(x).denominator for p in points for x in p))
    return [tuple(int(x * den) for x in p) for p in points], den


def vec_over_den(v) -> tuple[tuple[int, ...], int]:
    """A rational vector as integers over the lcm of its denominators."""
    points, den = over_den([v])
    return points[0], den


def fraction_vertices(vertices: Sequence[tuple[int, ...]], den: int) -> tuple[Vec, ...]:
    """Integer vertices over den, as Fraction tuples."""
    return tuple(tuple(Fraction(x, den) for x in v) for v in vertices)


def minkowski_sum(A, B) -> set:
    return {vadd(a, b) for a in A for b in B}


# -- the label-dict marked polytope search ----------------------------------


class NotStronger(HibikitError):
    """The given order does not contain the required base order."""


@dataclass(frozen=True)
class MarkedPoset:
    """A poset with a marked subset carrying fixed integer values.

    Convention: points satisfy x_p >= x_q whenever p < q, so values must
    not increase along the order.
    """

    base: Poset
    marked: tuple[str, ...]
    values: dict[str, int]

    def __post_init__(self):
        marked = set(self.marked)
        assert marked == set(self.values)
        below = self.base.below
        for j, p in enumerate(self.base.elements):
            is_min = not below[j]
            is_max = not any(m >> j & 1 for m in below)
            if is_min or is_max:
                assert p in marked, "extreme elements must be marked"
        for a, b in itertools.permutations(self.marked, 2):
            if less(self.base, a, b):
                assert self.values[a] >= self.values[b]

    def free(self) -> list[str]:
        marked = set(self.marked)
        return [p for p in self.base.elements if p not in marked]


def labelled(base: Poset, marking: Sequence[Optional[int]]) -> MarkedPoset:
    """A marking of flaggt on base, one value per cell, None on a free
    cell, keyed by label."""
    assert len(marking) == base.size, "each cell must have one marking"
    marked = [j for j, v in enumerate(marking) if v is not None]
    return MarkedPoset(base, tuple(base.elements[j] for j in marked),
                       {base.elements[j]: marking[j] for j in marked})


def level_marking(gt: flaggt.GelfandTsetlin, k: int) -> tuple[Optional[int], ...]:
    """The 0/1 marking of Pbar whose polytope holds the k-index flag
    points: p_{r,r} is marked 1 exactly when r <= n - k."""
    return tuple(None if v is None else int(v >= k) for v in gt.marking)


def _satisfies(mp: MarkedPoset, order: Poset, point: dict[str, int]) -> bool:
    if any(point[p] != mp.values[p] for p in mp.marked):
        return False
    return all(point[a] >= point[b] for a, b in order.covers())


def _vertex_candidates(mp: MarkedPoset, order: Poset) -> list[dict[str, int]]:
    """Every point that fixes the markings, takes a marking value on each
    free cell, and satisfies x_a >= x_b for each cover a < b of `order`, as
    dicts in a fixed order.

    Every vertex coordinate propagates from a marked cell through tight
    inequalities, so this candidate set contains all vertices.
    """
    if not is_stronger(order, mp.base):
        raise NotStronger("order must refine the marked poset's base order")
    free = mp.free()
    if len(free) > 13:
        raise TooLarge("marked polytope enumeration capped at 13 free cells")
    preds = {p: [] for p in order.elements}
    for a, b in order.covers():
        preds[b].append(a)
    lower = {
        p: max(mp.values[m] for m in mp.marked if leq(order, p, m))
        for p in free
    }
    return _fillings(label_extension(order, next(linear_extensions(order))).order,
                     preds, lower, mp.values)


def _fillings(ext: Sequence[str], preds: dict, lower: dict, marking: dict) -> list[dict]:
    """The candidate search, cell by cell along the linear extension `ext`:
    a marked cell takes its marking, a free cell p any marking value between
    lower[p] and the least value of its predecessors."""
    values = sorted(set(marking.values()), reverse=True)
    assignment = {}
    out = []

    def descend(i):
        if i == len(ext):
            if len(out) == 500_000:
                raise TooLarge("marked polytope has too many candidate points")
            out.append(dict(assignment))
            return
        p = ext[i]
        cap = min((assignment[q] for q in preds[p]), default=values[0])
        for v in [marking[p]] if p in marking else values:
            if v > cap or (p in lower and v < lower[p]):
                continue
            assignment[p] = v
            descend(i + 1)
            del assignment[p]

    descend(0)
    return out


def _anchored(covers, marked, free, point) -> bool:
    # a point is a vertex iff every free cell reaches a marked cell through
    # the graph of tight cover inequalities; cells are keys of `point`
    parent = {}

    def find(x):
        while x in parent:
            parent[x] = parent.get(parent[x], parent[x])  # path halving
            x = parent[x]
        return x

    for a, b in covers:
        if point[a] == point[b]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    anchored = {find(m) for m in marked}
    return all(find(p) in anchored for p in free)


def _is_vertex(mp: MarkedPoset, order: Poset, point: dict) -> bool:
    return _anchored(order.covers(), mp.marked, mp.free(), point)


def _marked_vertices(mp: MarkedPoset, order: Poset) -> list[tuple[int, ...]]:
    """Vertices of the marked order polytope, x_p fixed to the marking on M
    and x_p >= x_q for p < q in `order`, as value tuples over
    mp.base.elements: the candidates take marking values only, and a
    candidate is extreme iff its tight graph anchors every free cell."""
    labels = mp.base.elements
    points = [tuple(cand[p] for p in labels)
              for cand in _vertex_candidates(mp, order)
              if _is_vertex(mp, order, cand)]
    assert points, "a marked polytope always has at least one vertex"
    assert len(set(points)) == len(points)
    return points


def gt_marked_poset(n: int) -> MarkedPoset:
    """Full triangular array, diagonal marked to (n-r)/(n-1)."""
    gt = flaggt.GelfandTsetlin(n)
    mp = labelled(gt.pbar, gt.marking)
    return MarkedPoset(mp.base, mp.marked, {p: Fraction(v, n - 1) for p, v in mp.values.items()})


def marked_order_polytope(mp: MarkedPoset, order: Poset) -> LatticePolytope:
    """x_p fixed to the marking on M, x_p >= x_q for p < q in `order`, with
    the vertices of the label-dict search."""
    return LatticePolytope(_marked_vertices(mp, order), already_extreme=True)


def gt_polytope(n: int) -> LatticePolytope:
    mp = gt_marked_poset(n)
    return marked_order_polytope(mp, mp.base)


def pbar_labels(n: int) -> list[str]:
    """The cells p_{r,s}, 1 <= r <= s <= n, sorted by (r, s)."""
    return [_cell(r, s) for r in range(1, n + 1) for s in range(r, n + 1)]


def gt_poset(n: int) -> Poset:
    """The cells p_{r,s}, 1 <= r <= s <= n, without the two corners,
    ordered componentwise: Pbar's order on its inner cells, so cell j here
    is cell j + 1 of Pbar."""
    pbar = GelfandTsetlin(n).pbar
    return Poset(pbar.elements[1:-1], tuple(m >> 1 for m in pbar.below[1:-1]))


def _ptilde_labels(n: int) -> list[str]:
    return [c for c in pbar_labels(n) if c not in (_cell(1, 1), _cell(n, n))]


def _phi(n: int) -> dict[str, frozenset[str]]:
    # each flag element as an order ideal of the triangular poset: column
    # n-j+1 holds rows 1..i_j-j, plus every full column left of n-k+1
    out = {}
    for k in range(1, n):
        for combo in itertools.combinations(range(1, n + 1), k):
            cells = set()
            for j, ij in enumerate(combo, start=1):
                col = n - j + 1
                cells.update(_cell(t, col) for t in range(1, ij - j + 1))
            for r in range(1, n + 1):
                for s in range(r, n + 1):
                    if s < n - k + 1:
                        cells.add(_cell(r, s))
            cells.discard(_cell(1, 1))
            out[_label_of(combo)] = frozenset(cells)
    return out


def flag_point(n: int, label: str, phi: dict) -> tuple[int, ...]:
    """0/1 indicator of the flag element's triangular ideal phi[label], with
    the two corner cells pinned to 1 and 0."""
    ideal = phi[label]
    coords = []
    for p in pbar_labels(n):
        if p == _cell(1, 1):
            coords.append(1)
        elif p == _cell(n, n):
            coords.append(0)
        else:
            coords.append(1 if p in ideal else 0)
    return tuple(coords)


def _extend_to_pbar(n: int, order_pt: Poset, iso: dict[str, str]) -> Poset:
    relabeled = [(iso[a], iso[b]) for a, b in order_pt.label_pairs()]
    bottom, top = _cell(1, 1), _cell(n, n)
    inner = [iso[p] for p in order_pt.elements]
    pairs = relabeled + [(bottom, p) for p in inner] + [(p, top) for p in inner]
    pairs.append((bottom, top))
    return from_cover_relations(pbar_labels(n), pairs)


def gt_subdivision(n: int, F: Face, flag: Lattice) -> list[tuple[Poset, LatticePolytope]]:
    """The sections of flaggt.gt_subdivision, cut on the Fraction marking:
    the same checks over the Fraction pattern points, with one marked order
    polytope per part."""
    L = F.cone.lattice
    if lattice_key(L) != lattice_key(flag):
        raise ValueError("face must come from the flag lattice's cone")
    pbar = pbar_labels(n)
    at = gt_poset_iso(GelfandTsetlin(n), flag)
    iso = {p: pbar[j] for p, j in zip(L.poset_P.elements, at)}
    mp = gt_marked_poset(n)
    sub = face_subdivision(F)
    # each pattern point with its lifted height times (n-1)·den, which is
    # the sum of the scaled weight over its chain
    lifts = {point: sum(sub.scaled[position(L, lbl)] for lbl in chain)
             for point, chain in gt_patterns(n)}
    gt_dim = gt_polytope(n).dim
    pattern_points = set(lifts)
    in_parts = {point: 0 for point in pattern_points}
    parts = []
    for part in sub.parts:
        const, _ = part_map(sub, part)
        order = _extend_to_pbar(n, part_order(L, part), iso)
        Q = marked_order_polytope(mp, order)
        assert Q.dim == gt_dim, "each section must be full-dimensional"
        member_points = set(Q.vertices)
        assert member_points <= pattern_points
        for point in pattern_points:
            coords = dict(zip(pbar, point))
            lifted = lifts[point]
            value = (n - 1) * (const + sum(a * point[k] for a, k in zip(part.alpha, at)))
            assert value >= lifted, "part maps must overestimate the lift"
            inside = _satisfies(mp, order, coords)
            assert (value == lifted) == inside
            if inside:
                in_parts[point] += 1
            assert (inside and _is_vertex(mp, order, coords)) == (
                point in member_points)
        parts.append((order, Q))
    assert all(count >= 1 for count in in_parts.values())
    assert len(parts) == len(sub.parts)
    return parts


def gt_patterns(n: int) -> list[tuple[Vec, tuple[str, ...]]]:
    """Every marking-valued point of the Gelfand-Tsetlin polytope with its
    flag-element chain, read off the superlevel sets at k/(n-1)."""
    phi = _phi(n)
    ideal_to_label = {ideal: lbl for lbl, ideal in phi.items()}
    labels = pbar_labels(n)
    ptilde = set(_ptilde_labels(n))
    mp = gt_marked_poset(n)
    out = []
    for cand in _vertex_candidates(mp, mp.base):
        point = tuple(cand[p] for p in labels)
        chain = []
        total = zero_vec(len(labels))
        for k in range(1, n):
            level = frozenset(p for p in ptilde if cand[p] >= Fraction(k, n - 1))
            lbl = ideal_to_label[level]
            chain.append(lbl)
            total = vadd(total, tuple(Fraction(x) / (n - 1) for x in flag_point(n, lbl, phi)))
        assert total == point
        out.append((point, tuple(chain)))
    return out


def component_image(ext: LinearExtension) -> tuple[tuple[int, ...], list[Vec]]:
    """Block sizes of a linearization of Pbar and the image of its section's
    vertices under the difference map, checked to be the vertices of the
    product of unit simplices of the blocks, as component_shape checked
    them before it read the product off the chain's H-description."""
    size = ext.poset.size
    n = next(m for m in range(2, 20) if m * (m + 1) // 2 == size)
    total = list(ext.order)
    position = {p: i for i, p in enumerate(total)}
    blocks = []
    for k in range(1, n):
        lo, hi = position[_cell(k, k)], position[_cell(k + 1, k + 1)]
        assert lo < hi
        blocks.append(total[lo + 1:hi])
    shape = tuple(len(b) for b in blocks)
    assert sum(shape) == n * (n - 1) // 2
    assert all(d > 0 for d in shape)

    mp = gt_marked_poset(n)
    Q = marked_order_polytope(mp, from_cover_relations(
        pbar_labels(n), list(zip(total, total[1:]))))
    col = {p: i for i, p in enumerate(mp.base.elements)}
    rows = []
    for k, block in enumerate(blocks, start=1):
        chain = block + [_cell(k + 1, k + 1)]
        for a, b in zip(chain, chain[1:]):
            row = [Fraction(0)] * len(mp.base.elements)
            row[col[a]] = Fraction(n - 1)
            row[col[b]] = Fraction(-(n - 1))
            rows.append(row)
    diff = AffineMap(tuple(tuple(r) for r in rows),
                     tuple(zero_vec(len(rows))))
    image = [diff(v) for v in Q.vertices]
    assert len(set(image)) == len(Q.vertices)
    slots = []
    offset = 0
    for d in shape:
        slots.append(range(offset, offset + d))
        offset += d
    product_vertices = set()
    for choice in itertools.product(*[[None, *s] for s in slots]):
        z = [0] * offset
        for j in choice:
            if j is not None:
                z[j] = 1
        product_vertices.add(tuple(map(Fraction, z)))
    assert set(image) == product_vertices
    free_cols = [col[p] for p in mp.free()]
    B = [[int(r[c]) // (n - 1) for c in free_cols] for r in rows]
    identity = [[1 if i == j else 0 for j in range(len(B))] for i in range(len(B))]
    assert same_lattice(B, identity), "difference map must be unimodular"
    return shape, image


def extension_poset(ext: LinearExtension) -> Poset:
    """The extension as a total-order poset on the same canonical element tuple."""
    pos = {x: k for k, x in enumerate(ext.order)}
    elems = ext.poset.elements
    rel = frozenset(
        (i, j)
        for i in range(len(elems))
        for j in range(len(elems))
        if i != j and pos[elems[i]] < pos[elems[j]]
    )
    return poset_from_pairs(elems, rel)


def intersect_orders(orders: list[Poset]) -> Poset:
    """The poset whose relation is the intersection of the given relations."""
    if not orders:
        raise ValueError("need at least one poset")
    first = orders[0]
    for other in orders[1:]:
        assert set(other.elements) == set(first.elements)
    common = orders[0].label_pairs()
    for other in orders[1:]:
        common &= other.label_pairs()
    index = {x: i for i, x in enumerate(first.elements)}
    return poset_from_pairs(first.elements, ((index[a], index[b]) for a, b in common))


def part_map(sub, part) -> tuple[int, tuple[int, ...]]:
    """An integer part's constant c, the bottom weight, as every chain
    starts at the bottom, and its map's numerator c + alpha·1_a at each
    lattice element a, each its peel parent's plus one alpha."""
    L = sub.lattice
    const = sub.scaled[L.at_mask[0]]
    values = [const] * L.size
    for i, parent, j in staircase_table(L).peel:
        values[i] = values[parent] + part.alpha[j]
    return const, tuple(values)


def part_value(sub, part, point) -> Fraction:
    """An integer part's map at a point of R^P: (const + alpha·point) / den."""
    const, _ = part_map(sub, part)
    total = const + sum(a * x for a, x in zip(part.alpha, point, strict=True))
    return Fraction(total) / sub.den


@dataclass(frozen=True)
class FractionPart:
    order: Poset
    affine: AffineMap
    simplices: tuple[LinearExtension, ...]
    vertex_elements: tuple[str, ...]


def regular_subdivision(L: Lattice, w: Sequence) -> tuple[str, list[FractionPart]]:
    """The face key of w and the parts of its subdivision, in the order of
    their (alpha, const), all in Fraction arithmetic."""
    w = to_vec(w)
    if len(w) != L.size:
        raise ValueError("weight has wrong dimension")
    pairs = diamond_pairs(L)
    key = face_of(MaxCone(L, pairs, [pair_normal(L, d) for d in pairs]), *vec_over_den(w)).key()
    P = L.poset_P
    n = P.size
    wt = {a: w[i] for i, a in enumerate(L.elements)}

    groups: dict[tuple, list[LinearExtension]] = {}
    for ext in label_extensions(P):
        const = wt[L.bottom]
        alpha = [Fraction(0)] * n
        chain = lattice_chain(L, ext)
        for p, lo, hi in zip(ext.order, chain, chain[1:]):
            alpha[position(P, p)] = wt[hi] - wt[lo]
        groups.setdefault((tuple(alpha), const), []).append(ext)

    parts = []
    for (alpha, const), exts in sorted(groups.items()):
        affine = AffineMap((tuple(alpha),), (const,))
        order = intersect_orders([extension_poset(e) for e in exts])
        assert is_stronger(order, P), "part order must refine P"
        on_chains = set().union(*(lattice_chain(L, e) for e in exts))
        assert {iota(L, a) for a in on_chains} == set(order_ideals(order)), \
            "part is not the order polytope of its order"
        vertex_elements = tuple(a for a in L.elements if a in on_chains)
        parts.append(FractionPart(order, affine, tuple(exts), vertex_elements))

    for part in parts:
        on_part = set(part.vertex_elements)
        for a in L.elements:
            value = part.affine(indicator(L, a))[0]
            if a in on_part:
                assert value == wt[a], "part map must interpolate w on its vertices"
            else:
                assert value > wt[a], "envelope inequality fails or is tight off the part"
    return key, parts


def sample_relative_interior(F) -> Vec:
    """The face's witness scaled so every loose pair has slack at least 1,
    with the least slack taken by Fraction vdot over the full normals."""
    K = F.cone
    loose = [k for k in range(len(K.pairs)) if not F.tight >> k & 1]
    if not loose:
        return zero_vec(K.lattice.size)
    num, den = F.witness
    w = tuple(Fraction(x, den) for x in num)
    low = min(vdot(K.normals[k], w) for k in loose)
    assert low > 0, "face witness is not slack on every loose pair"
    if low < 1:
        w = vscale(ceil(Fraction(1) / low), w)
    return w


def invariance_samples(F, trials: int, seed: int = 0) -> list[Vec]:
    """The samples subdivision_invariance_check drew, in Fraction
    arithmetic: the base witness, then (bound + 1)·base + shift for random
    shifts in the face's span, skipping repeats."""
    base = sample_relative_interior(F)
    rng = random.Random(seed)
    span = span_of_face(F)
    samples = [base]
    while len(samples) < trials:
        shift = zero_vec(F.cone.lattice.size)
        for row in span:
            shift = vadd(shift, vscale(rng.randint(-3, 3), to_vec(row)))
        bound = max((abs(vdot(normal, shift)) for normal in F.cone.normals),
                    default=Fraction(0))
        candidate = vadd(vscale(bound + 1, base), shift)
        if candidate not in samples:
            samples.append(candidate)
    return samples


def structure(sub) -> tuple:
    """A subdivision's weight-independent identity: its parts as (vertex
    mask, order), sorted."""
    return tuple(sorted((p.vertex_mask, part_order(sub.lattice, p).below) for p in sub.parts))


def part_index(sub) -> tuple[int, ...]:
    """For each extension of sub.lattice.extensions(), the index of the
    part whose simplices hold it."""
    index = {t: i for i, p in enumerate(sub.parts) for t in p.simplices}
    return tuple(map(index.__getitem__, sub.lattice.extensions()))


def grouped_subdivision(L: Lattice, w: Sequence[int], den: int) -> Subdivision:
    """The subdivision of the integer weight w / den, in lowest terms,
    with its parts the classes of extensions of one slope, interpolated
    along each chain, sorted by slope; each class's map must interpolate w
    on its chains, overestimate it elsewhere and be tight nowhere else,
    and a class of one extension must have |P| + 1 vertices."""
    if len(w) != L.size:
        raise ValueError("weight has wrong dimension")
    g = gcd(den, *w)
    ws = tuple(x // g for x in w)
    den //= g
    tight = _tight_set(L, ws, den)
    n = L.poset_P.size
    exts = L.extensions()
    _, peel = staircase_table(L)
    at = L.at_mask
    chains = []
    for ext in exts:
        chain, m = [at[0]], 0
        for j in ext:
            m |= 1 << j
            chain.append(at[m])
        chains.append(tuple(chain))

    groups: dict[tuple, list[int]] = {}
    for k, (ext, chain) in enumerate(zip(exts, chains)):
        steps = [ws[i] for i in chain]
        alpha = [0] * n
        for j, low, high in zip(ext, steps, steps[1:]):
            alpha[j] = high - low
        groups.setdefault(tuple(alpha), []).append(k)

    bottom = ws[at[0]]
    parts = []
    for alpha, members in sorted(groups.items()):
        on_chains = set()
        for k in members:
            on_chains.update(chains[k])
        assert len(members) > 1 or len(on_chains) == n + 1, \
            "a chain must hold |P| + 1 distinct elements"
        values = [bottom] * L.size
        for i, parent, j in peel:
            values[i] = values[parent] + alpha[j]
        assert all(values[i] == ws[i] for i in on_chains), \
            "part map must interpolate w on its vertices"
        assert not any(map(lt, values, ws)), "envelope inequality fails"
        assert sum(map(eq, values, ws)) == len(on_chains), "tight value off the part's vertex set"
        parts.append(Part(alpha, tuple(map(exts.__getitem__, members)),
                          sum(1 << i for i in on_chains)))
    return Subdivision(L, ws, den, tuple(parts), tight)


def subdivision_invariance_check(sub) -> bool:
    """Whether sub's parts are the components of the tight swap edges:
    each edge joins one part iff its pair is tight, and there are as many
    components as parts. One union-find over adjacency_graph's edges,
    whose pairs index diamond_pairs(L), the order of sub.tight."""
    part = part_index(sub)
    root = list(range(len(part)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    components = len(part)
    for pair, edges in enumerate(adjacency_graph(sub.lattice)):
        tight = bool(sub.tight >> pair & 1)
        for i, j in edges:
            if (part[i] == part[j]) != tight:
                return False
            if tight:
                i, j = find(i), find(j)
                if i != j:
                    root[i] = j
                    components -= 1
    return components == len(sub.parts)
