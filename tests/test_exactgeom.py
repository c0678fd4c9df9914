"""Exact rational geometry: LP, hulls, integer lattices, polytopes.

sympy serves as an independent oracle for ranks, nullspaces, and lattice
computations; LP witnesses are verified by direct substitution.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import (affine_lattice_basis, indicator, int_row_echelon, lattice_member,
                             lattice_points, same_lattice, solve_linear, to_vec, vdot)
from hibikit.exactgeom import (
    LatticePolytope,
    facet_hyperplanes,
    integer_kernel,
    lp_feasible,
    nullspace,
    polytope_json,
    rank,
)


def check_witness(equalities, rows, witness):
    """The witness (x, den) is integral over den > 0 and x / den is a point
    of the system."""
    x, den = witness
    assert all(type(c) is int for c in (*x, den)) and den > 0
    assert all(vdot(a, x) == 0 for a in equalities)
    assert all(vdot(a, x) >= r * den for a, r in rows)


# ---------------------------------------------------------------- elimination


def test_rank_against_sympy():
    mats = [
        [[1, 2], [2, 4]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
        [[1, 2], [1, 3]],
    ]
    for m in mats:
        assert rank(m) == sympy.Matrix(m).rank()


def test_nullspace_against_sympy():
    m = [[1, 1, 1, 0], [0, 1, 1, 1]]
    ours = nullspace(m, 4)
    assert len(ours) == len(sympy.Matrix(m).nullspace())
    for v in ours:
        assert all(vdot(row, v) == 0 for row in m)


def test_solve_linear():
    x = solve_linear([[1, 1], [1, -1]], [3, 1])
    assert x == [2, 1]
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    # underdetermined: any consistent solution is fine
    x = solve_linear([[1, 1, 0]], [5])
    assert vdot([1, 1, 0], x) == 5


# ------------------------------------------------------------------------ LP


def test_lp_infeasible_interval():
    assert lp_feasible([], [([-1], -1), ([1], 2)], 1) is None


def test_lp_equalities_and_inequalities_mix():
    eqs, rows = [[1, 1]], [([-1, 1], 1)]
    w = lp_feasible(eqs, rows, 2)
    check_witness(eqs, rows, w)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), max_size=2),
       st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                          st.integers(-4, 4)), min_size=1, max_size=5))
def test_lp_random_systems_verified_by_substitution(eqs, rows):
    w = lp_feasible(eqs, rows, 2)
    if w is not None:
        check_witness(eqs, rows, w)


def test_lp_feasibility_decision_against_brute_rational_grid():
    # small systems where a coarse rational grid finds a point whenever one
    # exists with small coordinates
    systems = [
        ([], [([-2, 1], -1), ([1, -2], -1), ([1, 1], 1)]),
        ([[1, 1]], [([1, -1], 1)]),
        ([[1, -1]], [([1, 0], 1), ([-1, 0], -2), ([0, 1], 3)]),
    ]
    grid = [Fraction(n, 2) for n in range(-8, 9)]
    for eqs, rows in systems:
        w = lp_feasible(eqs, rows, 2)
        brute = next(((x, y) for x in grid for y in grid
                      if all(vdot(a, (x, y)) == 0 for a in eqs)
                      and all(vdot(a, (x, y)) >= r for a, r in rows)), None)
        assert (w is None) == (brute is None)
        if w is not None:
            check_witness(eqs, rows, w)


# ----------------------------------------------------------------------- hull


def hull(pts):
    """The vertices of the points' hull, which the LP oracle must agree on."""
    vertices = list(oracle.fraction_vertices(oracle.hull(*oracle.over_den(pts))))
    assert vertices == sorted(oracle.hull_vertices(pts))
    return vertices


def test_hull_collinear():
    pts = [(0,), (1,), (2,)]
    assert hull(pts) == [(0,), (2,)]


def test_hull_square_plus_center():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
    assert hull(pts) == sorted([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_hull_cube_all_extreme():
    pts = [tuple(int(b) for b in f"{m:03b}") for m in range(8)]
    assert len(hull(pts)) == 8


def test_hull_idempotent_and_order_independent():
    pts = [(0, 0), (2, 0), (1, 0), (0, 2), (1, 1)]
    out = hull(pts)
    assert hull(list(reversed(pts))) == out
    assert hull(out) == out


def test_convex_combination_witness():
    pts = [(0, 0), (1, 0), (0, 1)]
    lam = oracle.convex_combination(pts, (Fraction(1, 3), Fraction(1, 3)))
    assert sum(lam) == 1 and all(c >= 0 for c in lam)
    target = [sum(c * p[i] for c, p in zip(lam, pts)) for i in range(2)]
    assert to_vec(target) == (Fraction(1, 3), Fraction(1, 3))
    assert oracle.convex_combination(pts, (2, 2)) is None


# ------------------------------------------------------------ integer lattice


def lattice_basis(points):
    """The polytope's lattice basis, which the Fraction oracle must agree on."""
    basis = LatticePolytope(points, 1).lattice_basis
    assert list(map(list, basis)) == affine_lattice_basis(points)
    return basis


def test_affine_lattice_basis_standard():
    basis = lattice_basis([(0, 0), (1, 0), (0, 1)])
    assert same_lattice(basis, [[1, 0], [0, 1]])


def test_affine_lattice_basis_saturation():
    basis = lattice_basis([(0, 0), (2, 0)])
    assert same_lattice(basis, [[1, 0]])


def test_affine_lattice_basis_diagonal():
    # direction (2, 2): saturated lattice is generated by (1, 1)
    basis = lattice_basis([(0, 0), (2, 2)])
    assert same_lattice(basis, [[1, 1]])


def test_lattice_basis_over_den():
    # the same diagonal segment over den = 2 and den = 3: the basis needs
    # integral vertices, which (2, 2) / 3 is not
    assert LatticePolytope([(0, 0), (4, 4)], 2).lattice_basis == ((1, 1),)
    assert LatticePolytope([(0, 0), (2, 2)], 3).lattice_basis is None


def test_affine_lattice_basis_grid_order_polytope():
    # vertices of the order polytope of the 2x2 grid: rank 4
    from hibikit.lattice import birkhoff
    from hibikit.poset import from_cover_relations
    P = from_cover_relations(["a", "b", "c", "d"],
                             [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    L = birkhoff(P)
    pts = [tuple(map(int, indicator(L, a))) for a in L.elements]
    basis = lattice_basis(pts)
    assert len(basis) == 4
    assert sympy.Matrix(basis).rank() == 4


def test_integer_kernel_against_sympy():
    M = [[2, 4, 6], [1, 2, 3]]
    kern = integer_kernel(M, 3)
    assert len(kern) == 2
    for v in kern:
        assert all(vdot(row, v) == 0 for row in M)
    # saturation: sympy nullspace vectors, cleared to integers, must lie in
    # the lattice generated by our kernel
    ech = int_row_echelon(kern)
    for v in sympy.Matrix(M).nullspace():
        denom = sympy.lcm([x.q for x in v])
        iv = [int(x * denom) for x in v]
        g = sympy.gcd(iv)
        iv = [x // g for x in iv]
        assert lattice_member(ech, iv)


def test_lattice_membership():
    ech = int_row_echelon([[2, 0], [0, 3]])
    assert lattice_member(ech, [4, 3])
    assert not lattice_member(ech, [1, 0])
    assert not lattice_member(ech, [2, 1])


# -------------------------------------------------------------- affine maps


def test_affine_map_through_points():
    m = oracle.affine_map_through([(0, 0), (1, 0), (0, 1)],
                                  [(1,), (3,), (0,)])
    assert m((0, 0)) == (1,)
    assert m((1, 1)) == (2,)
    assert oracle.affine_map_through([(0,), (1,), (2,)], [(0,), (0,), (1,)]) is None


def test_affine_map_shapes():
    with pytest.raises(ValueError):
        oracle.AffineMap(((Fraction(1),),), (Fraction(0), Fraction(0)))


# ------------------------------------------------------------------ polytopes


def test_facets_of_square():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    planes = facet_hyperplanes(square)
    assert len(planes) == 4
    for normal, rhs in planes:
        vals = [vdot(normal, v) for v in square]
        assert max(vals) == rhs and all(v <= rhs for v in vals)


def test_facets_of_embedded_triangle():
    # triangle inside the plane x+y+z = 1: three facets, cut within the span
    tri = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    planes = facet_hyperplanes(tri)
    assert len(planes) == 3


def test_simplex_past_dimension_12():
    # the facet kernel has no dimension guard: the 13-simplex has its 14 facets
    pts = [(0,) * 13] + [tuple(int(i == j) for j in range(13)) for i in range(13)]
    poly = LatticePolytope(pts, 1)
    assert len(poly.hyperplanes) == 14
    assert lattice_points(poly) == sorted(pts)


def test_integer_points_unit_square():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)], 1)
    assert len(lattice_points(square)) == 4


def test_integer_points_doubled_segment():
    seg = oracle.hull([(0,), (2,), (1,)], 1)
    assert lattice_points(seg) == [(0,), (1,), (2,)]


def test_integer_points_respect_affine_span():
    # segment from (0,0) to (2,2): integer points (0,0),(1,1),(2,2)
    seg = LatticePolytope([(0, 0), (2, 2)], 1)
    assert lattice_points(seg) == [(0, 0), (1, 1), (2, 2)]
    # shifted off the integer lattice: no integer points at all
    seg2 = LatticePolytope([(1, 0), (1, 2)], 2)
    assert lattice_points(seg2) == []
    # the same segment over den = 2, and one that halves its ends
    assert lattice_points(LatticePolytope([(0, 0), (4, 4)], 2)) == [(0, 0), (1, 1), (2, 2)]
    assert lattice_points(LatticePolytope([(-1, -1), (5, 5)], 2)) == [(0, 0), (1, 1), (2, 2)]


def test_polytope_contains():
    tri = LatticePolytope([(0, 0), (2, 0), (0, 2)], 1)
    assert oracle.contains(tri, (1, 1))
    assert oracle.contains(tri, (Fraction(1, 2), Fraction(1, 2)))
    assert not oracle.contains(tri, (2, 2))
    assert not oracle.contains(LatticePolytope([(0, 0), (2, 2)], 1), (1, 0))


def test_minkowski_sum():
    a = {(0, 0), (1, 0)}
    b = {(0, 0), (0, 1)}
    assert oracle.minkowski_sum(a, b) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_polytope_json_shape():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)], 1)
    payload = polytope_json(square)
    assert len(payload["vertices"]) == 4
    assert payload["vertices"][0][0] == [0, 1]
    assert len(payload["hyperplanes"]) == 4
    assert len(payload["lattice_basis"]) == 2


def test_polytope_json_reduces_over_den():
    # the segment [0, 1/2] ⊆ R stored over den = 4: Fractions reduced only here
    payload = polytope_json(LatticePolytope([(0,), (2,)], 4))
    assert payload == {
        "vertices": [[[0, 1]], [[1, 2]]],
        "hyperplanes": [{"normal": [[-1, 1]], "rhs": [0, 1]},
                        {"normal": [[1, 1]], "rhs": [1, 2]}],
        "lattice_basis": [],
    }

