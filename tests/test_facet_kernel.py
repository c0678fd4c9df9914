"""The integer polytope kernel against the code it replaced.

tests/fraction_oracle.py keeps the scan over all C(#points, d) subsets, the
LP hull and the Fraction LatticePolytope. Rational points go to the kernel
as integer points over a common denominator. On random rational point
sets, embedded in larger ambient spaces, and on degenerate non-simplicial
polytopes the kernel must return the same facet rows, in the same order,
as integer rows whose rhs over den is the oracle's Fraction, and the
oracle's hull on those facets the same vertices as one LP per point. The
oracle's lattice_points, which searches on the integer rows, must find
what Fraction membership finds in the box.
The integer vertices of those points, with their facets, lattice basis,
span equations and integer points, must agree with the Fraction polytope's
members, over the lcm of the points' denominators and over multiples of
it.
"""

import itertools
import math
import string
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import lattice_points, to_vec
from hibikit.cli import interior_weight
from hibikit.exactgeom import facet_hyperplanes, lattice_basis
from hibikit.lattice import birkhoff
from hibikit.poset import antichain
from hibikit.subdivision import generalized_permutahedron

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def assert_same_facets(points):
    ints, den = oracle.over_den(points)
    new = facet_hyperplanes(ints)
    assert all(type(x) is int for normal, rhs in new for x in (*normal, rhs))
    assert (repr([(to_vec(normal), Fraction(rhs, den)) for normal, rhs in new])
            == repr(oracle.facet_hyperplanes(points)))
    return new


@st.composite
def embedded_point_sets(draw, min_dim=1):
    """Points of Q^d (not always affinely spanning it), sent into Q^(d+e)
    by an injective affine map: the identity, e extra integer combinations
    of the coordinates, a coordinate shuffle and a rational shift."""
    d = draw(st.integers(min_dim, 5))
    e = draw(st.integers(0 if d else 1, 2))
    k = draw(st.integers(1, d + 5))
    points = [[draw(RATIONALS) for _ in range(d)] for _ in range(k)]
    extra = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(e)]
    order = draw(st.permutations(range(d + e)))
    shift = [draw(RATIONALS) for _ in range(d + e)]
    out = []
    for p in points:
        coords = p + [sum(a * x for a, x in zip(row, p)) for row in extra]
        out.append(to_vec(coords[j] + s for j, s in zip(order, shift)))
    return out


@settings(max_examples=150, deadline=None)
@given(embedded_point_sets())
def test_random_point_sets_match_subset_scan(points):
    assert_same_facets(points)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 6).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 1)] * d).map(to_vec), min_size=d + 1, max_size=d + 6)))
def test_random_01_point_sets_match_subset_scan(points):
    # 0/1 points put many points on each facet and many facets on each face,
    # which is where the combinatorial adjacency test matters
    assert_same_facets(points)


@st.composite
def hull_inputs(draw):
    """Embedded point sets of dimension 0 to 5, with the midpoints of some
    pairs added: repeated points, points inside edges and inside the hull."""
    points = draw(embedded_point_sets(min_dim=0))
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)),
                          max_size=4))
    return points + [to_vec((x + y) / 2 for x, y in zip(p, q)) for p, q in pairs]


def assert_same_vertices(points):
    ints, den = oracle.over_den(points)
    vertices = oracle.fraction_vertices(oracle.hull(ints), den)
    assert vertices == tuple(sorted(oracle.hull_vertices(points)))
    return vertices


@settings(max_examples=150, deadline=None)
@given(hull_inputs())
def test_random_point_sets_vertices_match_lp_hull(points):
    assert_same_vertices(points)


@settings(max_examples=100, deadline=None)
@given(embedded_point_sets(min_dim=0))
def test_random_point_sets_integer_points_match_box_filter(points):
    ints, den = oracle.over_den(points)
    vertices = oracle.hull(ints)
    box = [range(math.floor(min(c)), math.ceil(max(c)) + 1)
           for c in zip(*oracle.fraction_vertices(vertices, den))]
    assume(math.prod(map(len, box)) <= 3000)
    inside = [x for x in itertools.product(*box) if oracle.contains(vertices, den, x)]
    assert lattice_points(vertices, den) == inside
    assert all(type(x) is int for p in lattice_points(vertices, den) for x in p)


def assert_matches_fraction_polytope(points, scale=1):
    """The integer vertices of the points over scale times the lcm of their
    denominators against the Fraction polytope, member by member; returns
    them with that den. Their facets, found from the vertices alone, are the
    facets of all the points."""
    ints, den = oracle.over_den(points)
    ints = [tuple(scale * x for x in p) for p in ints]
    den *= scale
    want = oracle.LatticePolytope(points)
    got = oracle.hull(ints)
    assert oracle.fraction_vertices(got, den) == want.vertices
    assert all(type(x) is int for v in got for x in v)
    planes = facet_hyperplanes(got)
    assert planes == facet_hyperplanes(ints)
    assert [(normal, Fraction(rhs, den)) for normal, rhs in planes] == list(want.hyperplanes)
    assert oracle.dim_of(got) == oracle.dim_of(want.vertices)
    basis = lattice_basis(got, den)
    assert want.lattice_basis == (None if basis is None else tuple(map(tuple, basis)))
    assert [(a, Fraction(b, den)) for a, b in oracle.span_equations(got)] == want.span_equations
    assert lattice_points(got, den) == oracle.integer_points(want)
    return got, den


@settings(max_examples=100, deadline=None)
@given(hull_inputs(), st.integers(1, 3))
def test_random_point_sets_match_fraction_polytope(points, scale):
    assert_matches_fraction_polytope(points, scale)


def test_single_point_matches_fraction_polytope():
    got, den = assert_matches_fraction_polytope([(Fraction(1, 2), Fraction(-2, 3), 1)], 2)
    assert oracle.dim_of(got) == 0 and facet_hyperplanes(got) == []
    assert lattice_basis(got, den) is None


def test_collinear_and_repeated_points_match_fraction_polytope():
    points = [(Fraction(k, 3), Fraction(2 * k, 3) + 1) for k in (0, 4, 1, 4, 2, 0)]
    got, den = assert_matches_fraction_polytope(points)
    assert oracle.dim_of(got) == 1 and len(got) == 2 and den == 3


def test_integral_points_over_den_match_fraction_polytope():
    # every coordinate a multiple of den > 1, as in a Gelfand-Tsetlin
    # section, so the lattice basis exists
    points = [(0, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1)]
    got, den = assert_matches_fraction_polytope(points, 3)
    assert den == 3 and oracle.dim_of(got) == 2
    basis = lattice_basis(got, den)
    assert basis is not None and len(basis) == 2


def simplex(d):
    return [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]


def test_simplex_past_dimension_12_vertices_match_lp_hull():
    points = simplex(13)
    center = (Fraction(1, 14),) * 13
    assert assert_same_vertices(points + [center, points[1]]) == tuple(sorted(points))


def cube(d):
    return list(itertools.product([0, 1], repeat=d))


def cross_polytope(d):
    return [tuple(s if i == j else 0 for j in range(d)) for i in range(d) for s in (1, -1)]


def prism(k):
    """A prism over a convex k-gon with integer corners on the parabola."""
    return [(x, x * x, h) for x in range(k) for h in (0, 1)]


def lifted(points):
    """The points in the hyperplane sum(x) = 1 of one more coordinate."""
    return [(*p, 1 - sum(p)) for p in points]


def permutahedron(n):
    L = birkhoff(antichain(list(string.ascii_lowercase[15:15 + n])))
    return list(oracle.fraction_vertices(*generalized_permutahedron(L, interior_weight(L), 1)))


DEGENERATE = [
    ("square", cube(2), 4),
    ("cube", cube(3), 6),
    ("4-cube", cube(4), 8),
    ("octahedron", cross_polytope(3), 8),
    ("4-cross-polytope", cross_polytope(4), 16),
    ("5-cross-polytope", cross_polytope(5), 32),
    ("triangular prism", prism(3), 5),
    ("pentagonal prism", prism(5), 7),
    ("lifted cube", lifted(cube(3)), 6),
    ("lifted octahedron", lifted(cross_polytope(3)), 8),
    ("0/1 polytope", [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0), (0, 1, 0, 0, 1), (1, 0, 0, 0, 1),
                      (0, 0, 1, 1, 0), (0, 1, 1, 1, 1), (0, 0, 0, 1, 0), (1, 1, 1, 1, 1),
                      (0, 1, 1, 1, 0)], 18),
    # at an interior weight: S_n's permutahedron, with one facet per proper
    # nonempty subset of atoms (B4: 8 hexagons and 6 squares)
    ("B3 permutahedron", permutahedron(3), 6),
    ("B4 permutahedron", permutahedron(4), 14),
]


@pytest.mark.parametrize("points, facets", [(p, f) for _, p, f in DEGENERATE],
                         ids=[name for name, _, _ in DEGENERATE])
def test_degenerate_polytopes_match_subset_scan(points, facets):
    assert len(assert_same_facets(points)) == facets


def test_points_inside_facets_and_repeated_points():
    # a square with its center, an edge midpoint and a repeated corner
    points = cube(2) + [(Fraction(1, 2),) * 2, (Fraction(1, 2), 0), (1, 1)]
    assert len(assert_same_facets(points)) == 4


def test_low_dimensions():
    assert facet_hyperplanes([(1, 2), (1, 2)]) == []
    # a segment in the plane, listed with its midpoint: its two endpoints
    segment = assert_same_facets([(0, 0), (2, 4), (1, 2)])
    assert segment == [((-1, -2), 0), ((1, 2), 10)]
