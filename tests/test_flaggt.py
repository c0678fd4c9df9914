"""Grassmannian/flag lattices, marked order polytopes, and GT machinery."""

import itertools
from fractions import Fraction

import pytest

from hibikit.cone import cone_K, enumerate_faces, face_of
from hibikit.errors import BadParams, GroundSetMismatch, NotStronger, TooLarge
from hibikit.exactgeom import vadd, zero_vec
from hibikit.flaggt import (
    MarkedPoset,
    component_shape,
    flag_lattice,
    flag_point,
    gt_marked_poset,
    gt_patterns,
    gt_polytope,
    gt_poset,
    gt_poset_iso,
    gt_subdivision,
    gt_vertices,
    grassmann_lattice,
    lift_c,
    marked_integer_points,
    marked_order_polytope,
    mu_k_marked_poset,
    pbar_labels,
    scaled_marked_poset,
    shape_census,
    tight_rank,
)
from hibikit.lattice import birkhoff, diamond_pairs
from hibikit.poset import antichain, linear_extensions, order_ideals
from hibikit.subdivision import regular_subdivision


def full_face(L):
    return face_of(cone_K(L), tuple(len(L.iota[a]) ** 2 for a in L.elements))


def apex_face(L):
    return face_of(cone_K(L), zero_vec(L.size))


def free_coords(n, point):
    labels = pbar_labels(n)
    return tuple(x for p, x in zip(labels, point) if p[1] != p[2])


# -- grassmann_lattice -------------------------------------------------------


def test_grassmann_1_2_is_chain():
    G = grassmann_lattice(1, 2)
    assert G.elements == ("1", "2")
    assert G.leq("1", "2")


def test_grassmann_2_4():
    G = grassmann_lattice(2, 4)
    assert G.size == 6
    pairs = diamond_pairs(G)
    assert [{d.a, d.b} for d in pairs] == [{"14", "23"}]
    assert G.meet("14", "23") == "13"
    assert G.join("14", "23") == "24"


def test_grassmann_complementation_iso():
    # (k, n) and (n-k, n) have the same shape
    A, B = grassmann_lattice(1, 3), grassmann_lattice(2, 3)
    found = False
    for perm in itertools.permutations(B.elements):
        to = dict(zip(A.elements, perm))
        if all(
            to[A.join(a, b)] == B.join(to[a], to[b])
            and to[A.meet(a, b)] == B.meet(to[a], to[b])
            for a, b in itertools.product(A.elements, repeat=2)
        ):
            found = True
            break
    assert found


def test_grassmann_bad_params():
    with pytest.raises(BadParams):
        grassmann_lattice(0, 3)
    with pytest.raises(BadParams):
        grassmann_lattice(3, 3)


# -- flag_lattice ------------------------------------------------------------


def test_flag_2_is_chain():
    L = flag_lattice(2)
    assert L.size == 2
    assert L.leq("1", "2")


def test_flag_3():
    L = flag_lattice(3)
    assert L.size == 6
    pairs = diamond_pairs(L)
    assert [{d.a, d.b} for d in pairs] == [{"1", "23"}]
    assert L.meet("1", "23") == "13"
    assert L.join("1", "23") == "2"
    bottom = [a for a in L.elements if all(L.leq(a, b) for b in L.elements)]
    top = [a for a in L.elements if all(L.leq(b, a) for b in L.elements)]
    assert bottom == ["12"] and top == ["3"]


def test_flag_4():
    L = flag_lattice(4)
    assert L.size == 14
    assert sum(1 for _ in linear_extensions(L.poset_P)) == 12


def test_flag_order_matches_componentwise_rule():
    L = flag_lattice(4)
    for a, b in itertools.product(L.elements, repeat=2):
        s, t = tuple(map(int, a)), tuple(map(int, b))
        expected = len(s) >= len(t) and all(
            x <= y for x, y in zip(s, t))
        assert L.leq(a, b) == expected


def test_flag_bad_params():
    with pytest.raises(BadParams):
        flag_lattice(1)


# -- gt_poset and the isomorphism --------------------------------------------


def test_gt_poset_3():
    pt = gt_poset(3)
    assert pt.elements == ("p12", "p13", "p22", "p23")
    assert not pt.leq("p13", "p22") and not pt.leq("p22", "p13")
    assert sum(1 for _ in linear_extensions(pt)) == 2


def test_gt_poset_4_hasse():
    pt = gt_poset(4)
    assert pt.size == 8
    assert sorted(pt.covers()) == [
        ("p12", "p13"), ("p12", "p22"), ("p13", "p14"), ("p13", "p23"),
        ("p14", "p24"), ("p22", "p23"), ("p23", "p24"), ("p23", "p33"),
        ("p24", "p34"), ("p33", "p34"),
    ]


def test_gt_poset_iso_2():
    pt, iso = gt_poset_iso(2)
    assert pt.elements == ("p12",)
    assert iso == {"2": "p12"}


def test_gt_poset_iso_3():
    pt, iso = gt_poset_iso(3)
    assert iso == {"1": "p22", "3": "p23", "13": "p12", "23": "p13"}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gt_poset_iso_is_order_isomorphism(n):
    # the heavy lattice checks run inside gt_poset_iso; spot-check the map
    pt, iso = gt_poset_iso(n)
    P = flag_lattice(n).poset_P
    assert sorted(iso.values()) == sorted(pt.elements)
    for s, t in itertools.product(P.elements, repeat=2):
        assert P.leq(s, t) == pt.leq(iso[s], iso[t])


# -- marked order polytopes --------------------------------------------------


def test_marked_polytope_n2_is_segment():
    mp = gt_marked_poset(2)
    Q = marked_order_polytope(mp, mp.base)
    assert Q.dim == 1
    assert set(Q.vertices) == {
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(0)),
    }


def test_gt3_polytope_is_3_dimensional():
    Q = gt_polytope(3)
    assert Q.dim == 3
    assert len(Q.vertices) == 7


def test_marked_polytope_scaling():
    # O_{M,(n-1)mu} = (n-1) * O_{M,mu}
    mp = gt_marked_poset(3)
    big = marked_order_polytope(scaled_marked_poset(mp, 2), mp.base)
    assert big == gt_polytope(3).scaled(2)


def test_marked_polytope_rejects_weaker_order():
    mp = gt_marked_poset(3)
    loose = antichain(list(mp.base.elements))
    with pytest.raises(NotStronger):
        marked_order_polytope(mp, loose)


def test_marked_polytopes_reject_order_on_other_ground_set():
    mp = mu_k_marked_poset(3, 1)
    other = antichain(["x", "y"])
    with pytest.raises(GroundSetMismatch):
        marked_order_polytope(mp, other)
    with pytest.raises(GroundSetMismatch):
        marked_integer_points(mp, other)


def test_marked_polytope_too_large():
    mp = gt_marked_poset(6)  # 15 free cells
    with pytest.raises(TooLarge):
        marked_order_polytope(mp, mp.base)


def test_marked_poset_requires_marked_extremes():
    base = gt_marked_poset(2).base
    with pytest.raises(AssertionError):
        MarkedPoset(base, ("p11",), {"p11": Fraction(1)})


def test_tight_rank_detects_vertices():
    mp = gt_marked_poset(3)
    labels = mp.base.elements
    for gv in gt_vertices(3):
        assert tight_rank(mp, mp.base, dict(zip(labels, gv.point))) == 3
    # the one pattern that is not a vertex: free coords (1, 1/2, 0)
    half = Fraction(1, 2)
    loose = dict(zip(labels, (Fraction(1), Fraction(1), half, half, Fraction(0), Fraction(0))))
    assert tight_rank(mp, mp.base, loose) == 2


# -- patterns and vertices ---------------------------------------------------


@pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64)])
def test_gt_pattern_count(n, count):
    assert len(gt_patterns(n)) == count


def test_gt_patterns_are_chains():
    L = flag_lattice(3)
    for point, chain in gt_patterns(3):
        assert [len(lbl) for lbl in chain] == [1, 2]
        assert L.leq(chain[1], chain[0])


def test_gt_vertices_2():
    vs = gt_vertices(2)
    assert {gv.labels for gv in vs} == {("1",), ("2",)}


def test_gt_vertices_3():
    vs = gt_vertices(3)
    assert len(vs) == 7
    half = Fraction(1, 2)
    expected = {
        (half, 0, 0), (1, 0, 0), (half, half, 0), (1, 1, 0),
        (half, half, half), (1, half, half), (1, 1, half),
    }
    assert {free_coords(3, gv.point) for gv in vs} == expected
    # the pattern (1, 1/2, 0) is a midpoint of two vertices, not a vertex
    assert (1, half, 0) not in {free_coords(3, gv.point) for gv in vs}
    assert (1, half, 0) in {free_coords(3, p) for p, _ in gt_patterns(3)}


def test_gt_vertex_decompositions_3():
    L = flag_lattice(3)
    for gv in gt_vertices(3):
        total = zero_vec(len(gv.point))
        for part in gv.decomposition:
            total = vadd(total, part)
        assert total == gv.point
        for k, (lbl, part) in enumerate(zip(gv.labels, gv.decomposition), 1):
            assert len(lbl) == k
            assert tuple(2 * x for x in part) == flag_point(3, lbl)
        assert L.leq(gv.labels[1], gv.labels[0])


@pytest.mark.parametrize("n", [3, 4])
def test_gt_vertex_decomposition_unique(n):
    # brute force over all index tuples: each vertex has exactly one
    # representation as a sum of scaled flag points, one per index count
    by_k = {
        k: [lbl for lbl in _all_flag_labels(n) if len(lbl) == k]
        for k in range(1, n)
    }
    points = {
        combo: _scaled_sum(n, combo)
        for combo in itertools.product(*[by_k[k] for k in range(1, n)])
    }
    for gv in gt_vertices(n):
        matches = [c for c, p in points.items() if p == gv.point]
        assert matches == [gv.labels]


def _all_flag_labels(n):
    return flag_lattice(n).elements


def _scaled_sum(n, combo):
    total = zero_vec(len(pbar_labels(n)))
    for lbl in combo:
        total = vadd(total, tuple(
            x / (n - 1) for x in flag_point(n, lbl)))
    return total


def test_gt_vertices_4_hull_certified():
    # the in-module cross-check runs an exact hull over all 64 patterns
    assert len(gt_vertices(4)) == 40


def test_gt_vertices_5():
    vs = gt_vertices(5)
    assert len(vs) == 358
    assert len(gt_patterns(5)) == 1024
    L = flag_lattice(5)
    for gv in vs[:20]:
        for a, b in zip(gv.labels, gv.labels[1:]):
            assert L.leq(b, a)


def test_gt_vertices_too_large():
    with pytest.raises(TooLarge):
        gt_vertices(6)
    with pytest.raises(BadParams):
        gt_vertices(1)


def test_xi_vertex_sets_are_flag_points():
    # level polytopes have one vertex per k-index element
    n = 4
    base = gt_marked_poset(n).base
    for k in range(1, n):
        Q = marked_order_polytope(mu_k_marked_poset(n, k), base)
        expected = {
            flag_point(n, lbl)
            for lbl in _all_flag_labels(n)
            if len(lbl) == k
        }
        assert set(Q.vertices) == expected


@pytest.mark.parametrize("n", [3, 4])
def test_integer_points_of_01_levels_are_vertices(n):
    # both enumerations walk the same fillings; on a 0/1 polytope the
    # integer points are exactly the vertices
    base = gt_marked_poset(n).base
    for k in range(1, n):
        mp = mu_k_marked_poset(n, k)
        points = marked_integer_points(mp, base)
        assert len(set(points)) == len(points)
        assert set(points) == set(marked_order_polytope(mp, base).vertices)


@pytest.mark.parametrize("n", [3, 4])
def test_minkowski_sum_of_integer_points(n):
    mp = gt_marked_poset(n)
    big = set(marked_integer_points(scaled_marked_poset(mp, n - 1), mp.base))
    sums = {zero_vec(len(pbar_labels(n)))}
    for k in range(1, n):
        layer = marked_integer_points(mu_k_marked_poset(n, k), mp.base)
        sums = {vadd(s, u) for s in sums for u in layer}
    # integer points of the dilate are exactly the level-wise sums
    assert len(big) == 2 ** (n * (n - 1) // 2)
    assert big == sums


# -- lift_c ------------------------------------------------------------------


def test_lift_zero():
    c = lift_c(3, [Fraction(0)] * 6)
    assert len(c) == 7
    assert all(v == 0 for v in c.values())


def test_lift_counts_minimal_element():
    L = flag_lattice(3)
    w = [Fraction(1 if a == "12" else 0) for a in L.elements]
    c = lift_c(3, w)
    for gv in gt_vertices(3):
        assert c[gv.point] == gv.labels.count("12")


def test_lift_envelope_identity():
    # f(v) = c(w)_v / (n-1) for the ambient envelope f at every GT vertex
    n = 3
    L = flag_lattice(n)
    w = tuple(Fraction(len(L.iota[a]) ** 2) for a in L.elements)
    sub = regular_subdivision(L, w)
    pt, iso = gt_poset_iso(n)
    c = lift_c(n, w)
    pbar = pbar_labels(n)
    for gv in gt_vertices(n):
        coords = dict(zip(pbar, gv.point))
        ambient = tuple(coords[iso[p]] for p in L.poset_P.elements)
        value = min(part.value(ambient) for part in sub.parts)
        assert value == c[gv.point] / (n - 1)


def test_lift_rejects_wrong_length():
    with pytest.raises(ValueError):
        lift_c(3, [Fraction(0)] * 5)


# -- gt_subdivision ----------------------------------------------------------


def test_gt_subdivision_3_apex():
    parts = gt_subdivision(3, apex_face(flag_lattice(3)))
    assert len(parts) == 1
    assert parts[0][1] == gt_polytope(3)


def test_gt_subdivision_3_full():
    parts = gt_subdivision(3, full_face(flag_lattice(3)))
    assert len(parts) == 2
    assert [q.dim for _, q in parts] == [3, 3]
    # two products of simplices with 2*3 = 3*2 = 6 vertices each
    assert [len(q.vertices) for _, q in parts] == [6, 6]
    shared = set(parts[0][1].vertices) & set(parts[1][1].vertices)
    assert len(shared) == 4
    union = set(parts[0][1].vertices) | set(parts[1][1].vertices)
    assert {gv.point for gv in gt_vertices(3)} <= union
    assert len(union) == 8


def test_gt_subdivision_4_full():
    parts = gt_subdivision(4, full_face(flag_lattice(4)))
    assert len(parts) == 12
    # vertex counts match the product-of-simplices census
    census = shape_census(4)
    expected = sorted(
        v
        for key, mult in census.items()
        for v in [_product_count(key)] * mult
    )
    assert sorted(len(q.vertices) for _, q in parts) == expected


def _product_count(key):
    out = 1
    for d in key.split("x"):
        out *= int(d) + 1
    return out


def test_gt_subdivision_4_mid_face():
    C = cone_K(flag_lattice(4))
    mids = [F for F in enumerate_faces(C) if 0 < len(F.tight) < 5]
    picked = sorted(mids, key=lambda F: len(F.tight))[0]
    parts = gt_subdivision(4, picked)
    assert 1 < len(parts) < 12


def test_gt_subdivision_rejects_foreign_lattice():
    B2 = birkhoff(antichain(["p", "q"]))
    with pytest.raises(ValueError):
        gt_subdivision(3, full_face(B2))


def test_gt_subdivision_too_large():
    with pytest.raises(TooLarge):
        gt_subdivision(6, full_face(flag_lattice(3)))


# -- component shapes --------------------------------------------------------


def test_component_shape_n2():
    exts = list(linear_extensions(gt_poset(2)))
    assert [component_shape(e) for e in exts] == [(1,)]


def test_component_shape_n3():
    shapes = sorted(component_shape(e) for e in linear_extensions(gt_poset(3)))
    assert shapes == [(1, 2), (2, 1)]


def test_shape_census_n4():
    assert shape_census(4) == {"3x2x1": 8, "2x2x2": 2, "4x1x1": 2}


def test_component_shape_sums():
    for ext in linear_extensions(gt_poset(4)):
        shape = component_shape(ext)
        assert sum(shape) == 6
        assert len(shape) == 3


# -- the grassmannian path ---------------------------------------------------


def test_grassmann_2_4_is_a_grid_lattice():
    # the 2x2 grid lattice drives the generic modules; same tables here
    G = grassmann_lattice(2, 4)
    ideals = order_ideals(G.poset_P)
    assert len(ideals) == G.size
