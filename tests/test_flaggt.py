"""Grassmannian/flag lattices, marked order polytopes, and GT machinery."""

import itertools
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import enumerated_faces, pbar_labels, vadd, vec_over_den, vscale, zero_vec
from hibikit import exactgeom, flaggt, lattice, poset
from hibikit.cli import main
from hibikit.cone import cone_K, face_of
from hibikit.errors import BadParams, TooLarge
from hibikit.exactgeom import facet_hyperplanes, rank
from hibikit.flaggt import (
    GelfandTsetlin,
    MarkedPoset,
    _extend_to_pbar,
    _gt_marking,
    _is_vertex,
    _satisfies,
    component_shape,
    flag_point,
    gelfand_tsetlin,
    gt_marked_poset,
    gt_patterns,
    gt_poset,
    gt_poset_iso,
    gt_subdivision,
    gt_vertices,
    mu_k_marked_poset,
    section_facets,
    shape_census,
)
from hibikit.lattice import birkhoff, diamond_pairs, flag_lattice, grassmann_lattice
from hibikit.poset import Poset, antichain, from_cover_relations, linear_extensions
from hibikit.subdivision import face_subdivision, part_order, regular_subdivision
from order_oracle import (GroundSetMismatch, chain, join_of, label_extension, leq, meet_of,
                          order_ideals)


def full_face(L):
    return face_of(cone_K(L), tuple(L.height(a) ** 2 for a in L.elements), 1)


def apex_face(L):
    return face_of(cone_K(L), (0,) * L.size, 1)


def unscaled(n, point):
    """A point of the (n-1)-scaled lattice as a point of the GT polytope."""
    return tuple(Fraction(x, n - 1) for x in point)


def free_coords(n, point):
    labels = pbar_labels(n)
    return tuple(x for p, x in zip(labels, point) if p[1] != p[2])


def marked_integer_points(mp, order):
    """All integer points of the marked order polytope of an integral
    marking, by brute force over the free cells' values between the least
    and the greatest marking."""
    free = mp.free()
    marks = [v for v in mp.values if v is not None]
    out = []
    for filling in itertools.product(range(min(marks), max(marks) + 1), repeat=len(free)):
        point = list(mp.values)
        for j, x in zip(free, filling):
            point[j] = x
        if all(point[a] >= point[b] for a, b in order.cover_indices()):
            out.append(tuple(point))
    return out


def tight_rank(mp, order, point):
    """Rank of the tight constraint normals in the free coordinates. Equals
    the number of free cells exactly at vertices."""
    free = mp.free()
    col = {p: i for i, p in enumerate(free)}
    rows = []
    for a, b in order.cover_indices():
        if point[a] != point[b]:
            continue
        row = [0] * len(free)
        if a in col:
            row[col[a]] += 1
        if b in col:
            row[col[b]] -= 1
        if any(row):
            rows.append(row)
    return rank(rows) if rows else 0


# -- grassmann_lattice -------------------------------------------------------


def test_grassmann_1_2_is_chain():
    G = grassmann_lattice(1, 2)
    assert G.elements == ("1", "2")
    assert leq(G, "1", "2")


def test_grassmann_2_4():
    G = grassmann_lattice(2, 4)
    assert G.size == 6
    pairs = diamond_pairs(G)
    assert [{G.elements[d.a], G.elements[d.b]} for d in pairs] == [{"14", "23"}]
    assert meet_of(G, "14", "23") == "13"
    assert join_of(G, "14", "23") == "24"


def test_grassmann_complementation_iso():
    # (k, n) and (n-k, n) have the same shape
    A, B = grassmann_lattice(1, 3), grassmann_lattice(2, 3)
    found = False
    for perm in itertools.permutations(B.elements):
        to = dict(zip(A.elements, perm))
        if all(
            to[join_of(A, a, b)] == join_of(B, to[a], to[b])
            and to[meet_of(A, a, b)] == meet_of(B, to[a], to[b])
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
    assert leq(L, "1", "2")


def test_flag_3():
    L = flag_lattice(3)
    assert L.size == 6
    pairs = diamond_pairs(L)
    assert [{L.elements[d.a], L.elements[d.b]} for d in pairs] == [{"1", "23"}]
    assert meet_of(L, "1", "23") == "13"
    assert join_of(L, "1", "23") == "2"
    bottom = [a for a in L.elements if all(leq(L, a, b) for b in L.elements)]
    top = [a for a in L.elements if all(leq(L, b, a) for b in L.elements)]
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
        assert leq(L, a, b) == expected


def test_flag_bad_params():
    with pytest.raises(BadParams):
        flag_lattice(1)


# -- gt_poset and the isomorphism --------------------------------------------


def test_gt_poset_3():
    pt = gt_poset(3)
    assert pt.elements == ("p12", "p13", "p22", "p23")
    assert not leq(pt, "p13", "p22") and not leq(pt, "p22", "p13")
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
    gt = GelfandTsetlin(2)
    iso = gt_poset_iso(gt, flag_lattice(2))
    assert gt.poset.elements == ("p12",)
    assert iso == {"2": "p12"}


def test_gt_poset_iso_3():
    iso = gt_poset_iso(GelfandTsetlin(3), flag_lattice(3))
    assert iso == {"1": "p22", "3": "p23", "13": "p12", "23": "p13"}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gt_poset_iso_is_order_isomorphism(n):
    # the heavy lattice checks run inside gt_poset_iso; spot-check the map
    gt = GelfandTsetlin(n)
    pt, iso = gt.poset, gt_poset_iso(gt, flag_lattice(n))
    P = flag_lattice(n).poset_P
    assert sorted(iso.values()) == sorted(pt.elements)
    for s, t in itertools.product(P.elements, repeat=2):
        assert leq(P, s, t) == leq(pt, iso[s], iso[t])


@pytest.mark.parametrize("n", [3, 4])
def test_gt_poset_iso_rejects_two_ideals_swapped(n):
    # phi still lists every ideal of the triangle once, but "1" < "2" in L
    # while their swapped ideals are the other way round
    gt = GelfandTsetlin(n)
    gt.phi["1"], gt.phi["2"] = gt.phi["2"], gt.phi["1"]
    with pytest.raises(AssertionError, match="phi must preserve and reflect the order"):
        gt_poset_iso(gt, flag_lattice(n))


@pytest.mark.parametrize("n", [3, 4])
def test_gt_poset_iso_rejects_a_repeated_ideal(n):
    # two flag elements sent to one ideal: phi is no bijection onto the
    # triangle's ideals
    gt = GelfandTsetlin(n)
    gt.phi["1"] = gt.phi["2"]
    with pytest.raises(AssertionError,
                       match="phi must be a bijection onto the order ideals of the triangle"):
        gt_poset_iso(gt, flag_lattice(n))


@pytest.mark.parametrize("n", [3, 4])
def test_gt_poset_iso_checks_the_map_against_the_triangle_relation(n):
    # the map is compared with the triangle's relation as its label_pairs
    # memo holds it; with one pair dropped from the memo, they differ
    gt = GelfandTsetlin(n)
    pairs = gt.poset.label_pairs()
    gt.poset._memo[Poset.label_pairs.__wrapped__] = pairs - {min(pairs)}
    with pytest.raises(AssertionError, match="the map must be an order isomorphism"):
        gt_poset_iso(gt, flag_lattice(n))


# -- marked order polytopes --------------------------------------------------


def test_marked_polytope_n2_is_segment():
    mp = gt_marked_poset(2)
    assert sorted(gv.point for gv in gt_vertices(GelfandTsetlin(2))) == [(1, 0, 0), (1, 1, 0)]
    assert sorted(oracle._marked_vertices(oracle.labelled(mp), mp.base)) == [(1, 0, 0), (1, 1, 0)]
    assert oracle.marked_order_polytope(oracle.labelled(mp), mp.base).dim == 1


def test_gt3_polytope_is_3_dimensional():
    Q = oracle.gt_polytope(3)
    assert Q.dim == 3
    assert len(Q.vertices) == 7
    # gt_subdivision checks each section's dimension against the free cells
    for n in range(2, 6):
        assert oracle.gt_polytope(n).dim == len(gt_marked_poset(n).free()) == n * (n - 1) // 2


def test_marked_polytope_scaling():
    # O_{M,(n-1)mu} = (n-1) * O_{M,mu}: the integer marking is the dilate of
    # the Fraction one
    assert {gv.point for gv in gt_vertices(GelfandTsetlin(3))} == {
        vscale(2, v) for v in oracle.gt_polytope(3).vertices}


# the label-dict vertex search is the oracle for every vertex set flaggt
# reads off the flag chains; its guards stay pinned here


def test_marked_polytope_rejects_weaker_order():
    mp = oracle.labelled(gt_marked_poset(3))
    loose = antichain(list(mp.base.elements))
    with pytest.raises(oracle.NotStronger):
        oracle._marked_vertices(mp, loose)


def test_marked_polytopes_reject_order_on_other_ground_set():
    mp = oracle.labelled(mu_k_marked_poset(GelfandTsetlin(3), 1))
    other = antichain(["x", "y"])
    with pytest.raises(GroundSetMismatch):
        oracle._marked_vertices(mp, other)


def test_marked_polytope_too_large():
    mp = oracle.labelled(gt_marked_poset(6))  # 15 free cells
    with pytest.raises(TooLarge):
        oracle._marked_vertices(mp, mp.base)


def test_marked_poset_requires_marked_extremes():
    base = gt_marked_poset(2).base
    with pytest.raises(AssertionError, match="extreme elements must be marked"):
        MarkedPoset(base, (1, None, None))


@pytest.mark.parametrize("n", [3, 4])
def test_the_gt_marking_is_checked(n, monkeypatch):
    # the marked poset checks the marking gt_marked_poset hands it: one
    # value per cell, and values that do not increase up the order, as the
    # diagonal marked n - 1 - v in place of v does
    marking = flaggt._gt_marking
    monkeypatch.setattr(flaggt, "_gt_marking", lambda *args: marking(*args)[:-1])
    with pytest.raises(AssertionError, match="each element must have one marking"):
        GelfandTsetlin(n)
    monkeypatch.setattr(flaggt, "_gt_marking", lambda *args: tuple(
        None if v is None else n - 1 - v for v in marking(*args)))
    with pytest.raises(AssertionError, match="markings must not increase along the order"):
        GelfandTsetlin(n)


def test_tight_rank_detects_vertices():
    gt = GelfandTsetlin(3)
    mp = gt.marked
    for gv in gt_vertices(gt):
        assert tight_rank(mp, mp.base, gv.point) == 3
    # the one pattern that is not a vertex: free coords (1, 1/2, 0), scaled
    # by n - 1 = 2 over (p11, p12, p13, p22, p23, p33)
    assert tight_rank(mp, mp.base, (2, 2, 1, 1, 0, 0)) == 2


@pytest.mark.parametrize("n", [3, 4])
def test_tight_rank_agrees_with_anchoring(n):
    # the rank test and the tight-graph anchoring test pick the same patterns
    gt = GelfandTsetlin(n)
    mp = gt.marked
    for point, _ in gt_patterns(gt):
        assert _is_vertex(mp, mp.base, point) == (
            tight_rank(mp, mp.base, point) == len(mp.free()))


# -- the chain reading against the label-dict search --------------------------


def assert_reading_matches_oracle(mp, order, points):
    """`points` holds every marking-valued point of mp's polytope, and maybe
    others. Those that satisfy `order` and that the tight graph anchors,
    the rule gt_vertices and gt_subdivision read vertices by, are the
    label-dict search's vertices; and _is_vertex agrees with the oracle's
    anchoring test on every point."""
    labelled = oracle.labelled(mp)
    read = [p for p in points if _satisfies(mp, order, p) and _is_vertex(mp, order, p)]
    assert sorted(read) == sorted(oracle._marked_vertices(labelled, order))
    for point in points:
        coords = dict(zip(mp.base.elements, point))
        assert _is_vertex(mp, order, point) == oracle._is_vertex(labelled, order, coords)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_search_matches_label_dict_oracle_on_random_orders(data):
    # an order that intersects 1-4 random linear extensions of the base,
    # under the Gelfand-Tsetlin marking, whose marking-valued points are the
    # patterns, or one of its 0/1 levels, whose are the k-index flag points
    n = data.draw(st.integers(2, 4), label="n")
    gt = GelfandTsetlin(n)
    k = data.draw(st.integers(0, n - 1), label="level")
    mp = gt.marked if k == 0 else mu_k_marked_poset(gt, k)
    base = mp.base
    masks = [(1 << base.size) - 1] * base.size
    for _ in range(data.draw(st.integers(1, 4), label="extensions")):
        placed = 0
        while placed != (1 << base.size) - 1:
            ready = [j for j in range(base.size)
                     if not placed >> j & 1 and not base.below[j] & ~placed]
            j = data.draw(st.sampled_from(ready))
            masks[j] &= placed
            placed |= 1 << j
    order = Poset(base.elements, tuple(masks))
    # at n = 2 the level-1 points are the patterns themselves
    points = dict.fromkeys([p for p, _ in gt_patterns(gt)]
                           + [flag_point(gt, lbl) for lbl in gt.phi if len(lbl) == k])
    assert_reading_matches_oracle(mp, order, list(points))


def test_search_matches_label_dict_oracle_on_face_and_chain_orders():
    # every part order of every face of the Flag(3) and Flag(4) cones, and
    # each chain of shape_census: as the census marks it, and as an order
    # on the Gelfand-Tsetlin base
    for n in (2, 3, 4):
        gt = GelfandTsetlin(n)
        mp = gt.marked
        patterns = [p for p, _ in gt_patterns(gt)]
        orders = []
        if n > 2:
            C = cone_K(flag_lattice(n))
            iso = gt_poset_iso(gt, C.lattice)
            at = [mp.base.index(iso[p]) for p in C.lattice.poset_P.elements]
            orders += [_extend_to_pbar(mp.base, part_order(part), at)
                       for F in enumerated_faces(C) for part in face_subdivision(F).parts]
        for ext in linear_extensions(gt.poset):
            total = [mp.base.elements[0], *(gt.poset.elements[j] for j in ext),
                     mp.base.elements[-1]]
            orders.append(from_cover_relations(list(mp.base.elements), list(zip(total, total[1:]))))
            census = MarkedPoset(chain(total), _gt_marking(n, total))
            at = [mp.base.index(p) for p in total]
            assert_reading_matches_oracle(census, census.base,
                                          [tuple(p[i] for i in at) for p in patterns])
        for order in orders:
            assert_reading_matches_oracle(mp, order, patterns)


# -- patterns and vertices ---------------------------------------------------


@pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64), (6, 32768)])
def test_gt_pattern_count(n, count):
    assert len(gt_patterns(GelfandTsetlin(n))) == count


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gt_patterns_match_fraction_oracle(n):
    # the chain sums, divided by n - 1, are the Fraction patterns of the
    # label-dict search, in its order
    patterns = gt_patterns(GelfandTsetlin(n))
    assert all(type(x) is int for point, _ in patterns for x in point)
    assert [(unscaled(n, point), chain) for point, chain in patterns] == oracle.gt_patterns(n)


def test_gt_patterns_are_chains():
    L = flag_lattice(3)
    for point, chain in gt_patterns(GelfandTsetlin(3)):
        assert [len(lbl) for lbl in chain] == [1, 2]
        assert leq(L, chain[1], chain[0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_patterns_reject_a_dropped_flag_element(n):
    # every flag element lies on a chain, so without it the walk finds
    # fewer than 2^(n(n-1)/2) chains
    for lbl in GelfandTsetlin(n).phi:
        gt = GelfandTsetlin(n)
        del gt.phi[lbl]
        with pytest.raises(AssertionError, match=r"2\^\(n\(n-1\)/2\) chains"):
            gt_patterns(gt)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_patterns_reject_a_diagonal_cell_toggled_in_a_flag_ideal(n):
    # p22 joins an (n-1)-index ideal; every (n-2)-index ideal holds p22, so
    # each chain through the changed element survives and sums to n - 1 on
    # p22, whose marking is n - 2
    for lbl in [lbl for lbl in GelfandTsetlin(n).phi if len(lbl) == n - 1]:
        gt = GelfandTsetlin(n)
        gt.phi[lbl] ^= 1 << gt.poset.index("p22")
        with pytest.raises(AssertionError, match="sum to a Gelfand-Tsetlin point"):
            gt_patterns(gt)


def hull_of_patterns(n):
    return set(oracle.hull_vertices([unscaled(n, p) for p, _ in gt_patterns(GelfandTsetlin(n))]))


def test_gt_vertices_2():
    vs = gt_vertices(GelfandTsetlin(2))
    assert {gv.labels for gv in vs} == {("1",), ("2",)}
    assert hull_of_patterns(2) == {unscaled(2, gv.point) for gv in vs}


def test_gt_vertices_3():
    gt = GelfandTsetlin(3)
    vs = gt_vertices(gt)
    assert len(vs) == 7
    half = Fraction(1, 2)
    expected = {
        (half, 0, 0), (1, 0, 0), (half, half, 0), (1, 1, 0),
        (half, half, half), (1, half, half), (1, 1, half),
    }
    assert {free_coords(3, unscaled(3, gv.point)) for gv in vs} == expected
    # the pattern (1, 1/2, 0) is a midpoint of two vertices, not a vertex
    assert (1, half, 0) not in {free_coords(3, unscaled(3, gv.point)) for gv in vs}
    assert (1, half, 0) in {free_coords(3, unscaled(3, p)) for p, _ in gt_patterns(gt)}
    assert hull_of_patterns(3) == {unscaled(3, gv.point) for gv in vs}


def test_gt_vertex_decompositions_3():
    L = flag_lattice(3)
    gt = GelfandTsetlin(3)
    for gv in gt_vertices(gt):
        assert all(type(x) is int for x in gv.point)
        assert tuple(map(sum, zip(*gv.decomposition))) == gv.point
        for k, (lbl, part) in enumerate(zip(gv.labels, gv.decomposition), 1):
            assert len(lbl) == k
            assert part == flag_point(gt, lbl)
        assert leq(L, gv.labels[1], gv.labels[0])


@pytest.mark.parametrize("n", [3, 4])
def test_gt_vertex_decomposition_unique(n):
    # brute force over all index tuples: each vertex has exactly one
    # representation as a sum of scaled flag points, one per index count
    gt = GelfandTsetlin(n)
    by_k = {
        k: [lbl for lbl in _all_flag_labels(n) if len(lbl) == k]
        for k in range(1, n)
    }
    points = {
        combo: _scaled_sum(gt, combo)
        for combo in itertools.product(*[by_k[k] for k in range(1, n)])
    }
    for gv in gt_vertices(gt):
        matches = [c for c, p in points.items() if p == unscaled(n, gv.point)]
        assert matches == [gv.labels]


@pytest.mark.parametrize("n", [3, 4])
def test_gt_vertices_check_each_flag_point_against_its_level(n, monkeypatch):
    # each level read with the marking of the next: the k-index flag points
    # hold p_{n-k,n-k}, which that marking fixes to 0
    level = flaggt.mu_k_marked_poset
    monkeypatch.setattr(flaggt, "mu_k_marked_poset", lambda gt, k: level(gt, k % (gt.n - 1) + 1))
    with pytest.raises(AssertionError,
                       match="each k-index flag point must lie in the level-k polytope"):
        gt_vertices(GelfandTsetlin(n))


def _all_flag_labels(n):
    return flag_lattice(n).elements


def _scaled_sum(gt, combo):
    total = zero_vec(len(pbar_labels(gt.n)))
    for lbl in combo:
        total = vadd(total, unscaled(gt.n, flag_point(gt, lbl)))
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_masks_are_the_label_set_ideals(n):
    # each flag element's ideal, a bitmask over gt_poset(n), holds the
    # cells of the label-set ideal, and its flag point is the same
    gt = GelfandTsetlin(n)
    want = oracle._phi(n)
    assert list(gt.phi) == list(want)
    for lbl, mask in gt.phi.items():
        assert {p for j, p in enumerate(gt.poset.elements) if mask >> j & 1} == want[lbl]
        assert flag_point(gt, lbl) == oracle.flag_point(n, lbl, want)


def test_gt_vertices_4_hull_certified():
    # the anchoring test selects exactly the vertices of the exact hull of
    # all 64 patterns
    vs = {unscaled(4, gv.point) for gv in gt_vertices(GelfandTsetlin(4))}
    assert len(vs) == 40
    assert hull_of_patterns(4) == vs


def test_gt_vertices_5():
    gt = GelfandTsetlin(5)
    vs = gt_vertices(gt)
    assert len(vs) == 358
    assert len(gt_patterns(gt)) == 1024
    L = flag_lattice(5)
    for gv in vs[:20]:
        for a, b in zip(gv.labels, gv.labels[1:]):
            assert leq(L, b, a)


def test_gt_vertices_too_large():
    with pytest.raises(TooLarge):
        gt_vertices(GelfandTsetlin(7))
    with pytest.raises(BadParams):
        gt_vertices(GelfandTsetlin(1))


def test_xi_vertex_sets_are_flag_points():
    # level polytopes have one vertex per k-index element: the label-dict
    # search finds exactly the flag points gt_vertices takes as its vertices
    n = 4
    gt = GelfandTsetlin(n)
    base = gt.marked.base
    for k in range(1, n):
        vertices = oracle._marked_vertices(oracle.labelled(mu_k_marked_poset(gt, k)), base)
        expected = {
            flag_point(gt, lbl)
            for lbl in _all_flag_labels(n)
            if len(lbl) == k
        }
        assert set(vertices) == expected


@pytest.mark.parametrize("n", [3, 4])
def test_integer_points_of_01_levels_are_vertices(n):
    # on a 0/1 polytope the integer points are exactly the vertices, and
    # on the level-k polytope they are the k-index flag points
    gt = GelfandTsetlin(n)
    base = gt.marked.base
    for k in range(1, n):
        mp = mu_k_marked_poset(gt, k)
        points = marked_integer_points(mp, base)
        assert len(set(points)) == len(points)
        assert set(points) == {flag_point(gt, lbl) for lbl in gt.phi if len(lbl) == k}
        assert set(points) == set(oracle._marked_vertices(oracle.labelled(mp), base))


@pytest.mark.parametrize("n", [3, 4])
def test_minkowski_sum_of_integer_points(n):
    gt = GelfandTsetlin(n)
    mp = gt.marked
    big = set(marked_integer_points(mp, mp.base))
    sums = {zero_vec(len(pbar_labels(n)))}
    for k in range(1, n):
        sums = oracle.minkowski_sum(sums, marked_integer_points(mu_k_marked_poset(gt, k), mp.base))
    # integer points of the (n-1)-scaled polytope are exactly the level-wise
    # sums
    assert len(big) == 2 ** (n * (n - 1) // 2)
    assert big == sums


# -- lifted heights ----------------------------------------------------------


def assert_envelope_is_lift(n, w):
    """At every GT vertex the ambient envelope f of w is the lifted height
    over n - 1: the sum of the weights of the decomposition's flag elements."""
    L = flag_lattice(n)
    sub = regular_subdivision(L, *vec_over_den(w))
    gt = GelfandTsetlin(n)
    iso = gt_poset_iso(gt, L)
    pbar = pbar_labels(n)
    for gv in gt_vertices(gt):
        coords = dict(zip(pbar, unscaled(n, gv.point)))
        ambient = tuple(coords[iso[p]] for p in L.poset_P.elements)
        value = min(oracle.part_value(sub, part, ambient) for part in sub.parts)
        assert value == sum(w[L.index(lbl)] for lbl in gv.labels) / (n - 1)


def test_lift_zero():
    assert_envelope_is_lift(3, [Fraction(0)] * 6)


def test_lift_envelope_identity():
    L = flag_lattice(3)
    assert_envelope_is_lift(3, [Fraction(L.height(a) ** 2) for a in L.elements])


# -- gt_subdivision ----------------------------------------------------------


def sections(n, face):
    L = flag_lattice(n)
    return gt_subdivision(GelfandTsetlin(n), face(L))


def test_gt_subdivision_3_apex():
    parts = sections(3, apex_face)
    assert len(parts) == 1
    assert parts[0][1].den == 2
    assert oracle.fraction_vertices(parts[0][1]) == oracle.gt_polytope(3).vertices


def test_gt_subdivision_3_full():
    parts = sections(3, full_face)
    assert len(parts) == 2
    assert [oracle.dim_of(q) for _, q in parts] == [3, 3]
    # two products of simplices with 2*3 = 3*2 = 6 vertices each
    assert [len(q.vertices) for _, q in parts] == [6, 6]
    shared = set(parts[0][1].vertices) & set(parts[1][1].vertices)
    assert len(shared) == 4
    union = set(parts[0][1].vertices) | set(parts[1][1].vertices)
    assert {gv.point for gv in gt_vertices(GelfandTsetlin(3))} <= union
    assert len(union) == 8


def test_census_is_counted_once_per_rank(monkeypatch):
    # the census depends on n alone: one component_shape per linear
    # extension, once, and each call returns a dict of its own
    calls = []
    shape = flaggt.component_shape
    monkeypatch.setattr(flaggt, "component_shape",
                        lambda gt, ext: calls.append(ext) or shape(gt, ext))
    gt = GelfandTsetlin(4)
    first = shape_census(gt)
    first["3x2x1"] = 0
    assert shape_census(gt) == {"3x2x1": 8, "2x2x2": 2, "4x1x1": 2}
    assert len(calls) == 12


def test_gt_subdivision_4_full():
    parts = sections(4, full_face)
    assert len(parts) == 12
    # vertex counts match the product-of-simplices census
    census = shape_census(GelfandTsetlin(4))
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
    mids = [F for F in enumerated_faces(C) if 0 < F.tight.bit_count() < 5]
    picked = sorted(mids, key=lambda F: F.tight.bit_count())[0]
    parts = gt_subdivision(GelfandTsetlin(4), picked)
    assert 1 < len(parts) < 12


def test_gt_4_subdivision_facets_are_the_tight_cover_inequalities(capsys):
    # every facet of a marked order polytope is a cover inequality x_a >= x_b
    # of its order, with the marked (diagonal) cells moved to the right-hand
    # side; it is a facet iff its tight vertices have affine rank d - 1
    assert main(["gt", "--n", "4", "subdivide"]) == 0
    report = json.loads(capsys.readouterr().out)["subdivision"]
    assert report["part_count"] == len(report["parts"]) == 12
    mp = oracle.gt_marked_poset(4)
    col = {p: i for i, p in enumerate(mp.base.elements)}

    def affine_rank(points):
        return sympy.Matrix([[x - y for x, y in zip(p, points[0])] for p in points[1:]]).rank()

    for part in report["parts"]:
        poly = part["polytope"]
        verts = [[Fraction(*x) for x in v] for v in poly["vertices"]]
        d = affine_rank(verts)
        assert d == len(col) - len(mp.marked)
        expected = set()
        for a, b in part["order_covers"]:
            normal, rhs = [0] * len(col), Fraction(0)
            for p, sign in ((a, -1), (b, 1)):
                if p in mp.marked:
                    rhs -= sign * mp.values[p]
                else:
                    normal[col[p]] += sign
            tight = [v for v in verts if sum(n * x for n, x in zip(normal, v)) == rhs]
            if any(normal) and tight and affine_rank(tight) == d - 1:
                expected.add((tuple(normal), rhs))
        planes = [(tuple(Fraction(*x) for x in h["normal"]), Fraction(*h["rhs"]))
                  for h in poly["hyperplanes"]]
        assert sorted(planes) == sorted(expected)


@pytest.mark.parametrize("n, face_count", [(3, 2), (4, 32)])
def test_gt_subdivision_matches_fraction_oracle(n, face_count):
    # on every face of the cone, the integer sections over den = n - 1 and
    # the Fraction ones have the same order covers and the same vertices, in
    # the same part order
    C = cone_K(flag_lattice(n))
    faces = enumerated_faces(C)
    assert len(faces) == face_count
    for F in faces:
        got = gt_subdivision(GelfandTsetlin(n), F)
        want = oracle.gt_subdivision(n, F, C.lattice)
        assert all(Q.den == n - 1 for _, Q in got)
        assert all(type(x) is int for _, Q in got for v in Q.vertices for x in v)
        assert ([(order.covers(), oracle.fraction_vertices(Q)) for order, Q in got]
                == [(order.covers(), Q.vertices) for order, Q in want])


def every_section(n):
    """(order, polytope) of every section of every face of Flag(n)'s cone."""
    C = cone_K(flag_lattice(n))
    gt = GelfandTsetlin(n)
    return [section for F in enumerated_faces(C) for section in gt_subdivision(gt, F)]


@pytest.mark.parametrize("n, count", [(3, 3), (4, 156)])
def test_section_facets_match_the_double_description_kernel(n, count):
    # the facets read off the part order's covers are the kernel's, in its
    # order, on every section of every face
    found = every_section(n)
    assert len(found) == count
    for _, Q in found:
        assert Q.hyperplanes == tuple(facet_hyperplanes(Q.vertices))


def test_section_facets_match_the_kernel_on_the_n5_apex():
    ((_, Q),) = sections(5, apex_face)
    assert len(Q.hyperplanes) == 20
    assert Q.hyperplanes == tuple(facet_hyperplanes(Q.vertices))


def test_section_facets_reject_a_vertex_that_violates_a_cover():
    # each part's section holds vertices that the other part's order cuts off
    mp = GelfandTsetlin(3).marked
    (order0, Q0), (order1, Q1) = sections(3, full_face)
    assert section_facets(mp, order0, Q0.vertices) == list(Q0.hyperplanes)
    for order, Q in ((order0, Q1), (order1, Q0)):
        with pytest.raises(AssertionError, match="every cover"):
            section_facets(mp, order, Q.vertices)


def test_section_facets_disagree_with_the_kernel_on_a_dropped_vertex():
    # the covers describe the whole section, so with any one vertex dropped
    # their facets are no longer the hull's: the kernel comparison above
    # catches a vertex list that misses a vertex
    mp = GelfandTsetlin(3).marked
    for order, Q in every_section(3):
        for k in range(len(Q.vertices)):
            rest = Q.vertices[:k] + Q.vertices[k + 1:]
            assert section_facets(mp, order, rest) != facet_hyperplanes(rest)


def test_section_facets_reject_one_facets_vertices():
    # a facet's vertices alone span one dimension less than the section,
    # and the facet's cover is tight on every one of them: an implicit
    # equality, so they fail the full-dimension certificate, on every
    # facet of every section of every face of Flag(4)'s cone
    mp = GelfandTsetlin(4).marked
    checked = 0
    for order, Q in every_section(4):
        for normal, rhs in Q.hyperplanes:
            on = [v for v in Q.vertices if sum(a * x for a, x in zip(normal, v)) == rhs]
            with pytest.raises(AssertionError, match="each section must be full-dimensional"):
                section_facets(mp, order, on)
            checked += 1
    assert checked == 1552


def test_chain_parts_reject_a_dropped_pattern(monkeypatch):
    # a chain part takes the patterns inside it as its vertices, and there
    # must be one per vertex of its product of simplices
    patterns = gt_patterns

    def dropped(gt):
        out = patterns(gt)
        return out[:3] + out[4:]

    monkeypatch.setattr(flaggt, "gt_patterns", dropped)
    with pytest.raises(AssertionError, match="one pattern per vertex"):
        sections(3, full_face)


@pytest.mark.parametrize("argv", [
    ["gt", "--n", "3"],
    ["gt", "--n", "4", "subdivide"],
    ["gt", "--n", "3", "subdivide", "--face", '[["1","23"]]'],
    ["gt", "--n", "4", "vertices"],
    ["gt", "--n", "4", "census"],
], ids=["census and subdivide", "subdivide", "keyed face", "vertices", "census"])
def test_gt_runs_no_facet_kernel(argv, capsys, monkeypatch):
    # every section's facets are read off its part order's covers
    found = []
    kernel = exactgeom.facet_hyperplanes

    def counting(*args, **kwargs):
        found.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(exactgeom, "facet_hyperplanes", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert found == []


def _chain_parts(n, faces):
    C = cone_K(flag_lattice(n))
    gt = GelfandTsetlin(n)
    out = []
    for F in faces(C):
        parts = zip(face_subdivision(F).parts, gt_subdivision(gt, F))
        out += [(part, order, Q) for part, (order, Q) in parts if len(part.simplices) == 1]
    return out


@pytest.mark.parametrize("n, faces, count", [
    (2, enumerated_faces, 1),
    (3, enumerated_faces, 2),
    (4, enumerated_faces, 56),
    (5, lambda C: [full_face(C.lattice)], 286),
], ids=["n2 faces", "n3 faces", "n4 faces", "n5 full"])
def test_chain_parts_take_every_inside_pattern_with_no_anchoring_test(n, faces, count):
    # on a part with one simplex, every pattern inside it passes the
    # anchoring test that the other parts run
    gt = GelfandTsetlin(n)
    L = flag_lattice(n)
    patterns = [(point, {L.index(lbl) for lbl in chain}) for point, chain in gt_patterns(gt)]
    found = _chain_parts(n, faces)
    assert len(found) == count
    for part, order, Q in found:
        inside = [point for point, chain in patterns
                  if all(part.vertex_mask >> i & 1 for i in chain)]
        assert all(_is_vertex(gt.marked, order, point) for point in inside)
        assert sorted(inside) == list(Q.vertices)


def test_gt_5_full_face_sections():
    # 286 chambers, each a product of unit simplices with one facet per
    # cover of its chain: 14 covers, each touching a free cell
    found = sections(5, full_face)
    assert len(found) == 286
    assert all(len(order.cover_indices()) == len(Q.hyperplanes) == 14 for order, Q in found)
    assert sum(len(Q.hyperplanes) for _, Q in found) == 4004


@pytest.mark.parametrize("n, found", [(4, lambda: every_section(4)),
                                      (5, lambda: sections(5, full_face))],
                         ids=["n4 faces", "n5 full"])
def test_every_section_has_full_rank(n, found):
    # section_facets certifies every section full-dimensional in the free
    # cells by its covers' tight vertex sets, with no rank taken; the rank
    # of the vertex differences agrees on every section
    free = len(GelfandTsetlin(n).marked.free())
    for _, Q in found():
        assert oracle.dim_of(Q) == free


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_arguments_for_the_dropped_checks_hold(n):
    # what flaggt no longer checks, since an earlier check implies it as
    # the owning docstring argues, holds on every face of Flag(2) to
    # Flag(4) and on Flag(5)'s full face and apex
    gt = gelfand_tsetlin(n)
    L, pt, phi, mp = gt.flag, gt.poset, gt.phi, gt.marked
    # phi carries joins to unions and meets to intersections
    ph = [phi[a] for a in L.elements]
    for i, j in itertools.product(range(L.size), repeat=2):
        assert ph[L.at_mask[L.masks[i] | L.masks[j]]] == ph[i] | ph[j]
        assert ph[L.at_mask[L.masks[i] & L.masks[j]]] == ph[i] & ph[j]
    # the irreducibles go onto the cells, each to its principal ideal
    principal = {m | 1 << j: p for j, (p, m) in enumerate(zip(pt.elements, pt.below))}
    assert sorted(principal[phi[t]] for t in L.poset_P.elements) == sorted(pt.elements)
    # the chain sums are distinct
    points = [point for point, _ in gt_patterns(gt)]
    assert len(set(points)) == len(points)
    # no census block is empty
    assert all(int(d) for key in shape_census(gt) for d in key.split("x"))
    marked = [(j, v) for j, v in enumerate(mp.values) if v is not None]
    K = cone_K(L)
    checked = 0
    for F in enumerated_faces(K) if n < 5 else [full_face(L), K.apex]:
        for part, (order, Q) in zip(face_subdivision(F).parts, gt_subdivision(gt, F)):
            # every section vertex fixes the marking
            assert all(v[j] == x for v in Q.vertices for j, x in marked)
            # one facet per tight set
            tight = [frozenset(v for v in Q.vertices
                               if sum(a * x for a, x in zip(normal, v)) == rhs)
                     for normal, rhs in Q.hyperplanes]
            assert len(set(tight)) == len(tight)
            if len(part.simplices) == 1:
                # a one-simplex part's order is its chain, and no block of
                # its section is empty
                total = [0, *(gt.cell_at[j] for j in part.simplices[0]), mp.base.size - 1]
                assert order.cover_indices() == tuple(sorted(zip(total, total[1:])))
                assert all(component_shape(gt, tuple(c - 1 for c in total[1:-1])))
            checked += 1
    assert checked == {2: 1, 3: 3, 4: 156, 5: 287}[n]


@pytest.mark.parametrize("n", [3, 4])
def test_section_membership_is_the_chain_inside_the_vertex_set(n):
    # over every pattern, on every part of every face: the chain lies in the
    # part's vertex set iff the pattern satisfies the part order iff the
    # part's map attains the pattern's lift, and the map never falls below
    # the lift; gt_subdivision reads its sections off the first test alone
    gt = GelfandTsetlin(n)
    mp = gt.marked
    C = cone_K(flag_lattice(n))
    L = C.lattice
    iso = gt_poset_iso(gt, L)
    at = [mp.base.index(iso[p]) for p in L.poset_P.elements]
    patterns = gt_patterns(gt)
    seen = 0
    for F in enumerated_faces(C):
        sub = face_subdivision(F)
        for part in sub.parts:
            const, _ = oracle.part_map(sub, part)
            order = _extend_to_pbar(mp.base, part_order(part), at)
            for point, chain in patterns:
                lift = sum(sub.scaled[L.index(lbl)] for lbl in chain)
                value = const * (n - 1) + sum(a * point[k] for a, k in zip(part.alpha, at))
                inside = all(part.vertex_mask >> L.index(lbl) & 1 for lbl in chain)
                assert value >= lift
                assert inside == _satisfies(mp, order, point) == (value == lift)
                seen += inside
    assert seen > 0


def test_gt_subdivision_rejects_foreign_lattice():
    B2 = birkhoff(antichain(["p", "q"]))
    with pytest.raises(ValueError):
        gt_subdivision(GelfandTsetlin(3), full_face(B2))


def test_gt_subdivision_too_large():
    with pytest.raises(TooLarge):
        gt_subdivision(GelfandTsetlin(6), full_face(flag_lattice(3)))


@pytest.mark.parametrize("argv", [["gt", "--n", "6"], ["gt", "--n", "6", "subdivide"]],
                         ids=["census and subdivide", "subdivide"])
def test_gt_sections_stop_at_n5(argv, monkeypatch, capsys):
    # the census and the vertices run to n = 6, the sections stop at 5; a
    # job that asks for sections past that fails before any census work
    def forbidden(*args):
        raise RuntimeError("the job ran its census past the section cap")

    monkeypatch.setattr(flaggt, "shape_census", forbidden)
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "TooLarge"


# -- component shapes --------------------------------------------------------


def test_component_shape_n2():
    gt = GelfandTsetlin(2)
    assert [component_shape(gt, e) for e in linear_extensions(gt.poset)] == [(1,)]


def test_component_shape_n3():
    gt = GelfandTsetlin(3)
    shapes = sorted(component_shape(gt, e) for e in linear_extensions(gt.poset))
    assert shapes == [(1, 2), (2, 1)]


def test_shape_census_n4():
    assert shape_census(GelfandTsetlin(4)) == {"3x2x1": 8, "2x2x2": 2, "4x1x1": 2}


def test_shape_census_n5():
    # 286 linearizations; the Fraction census took about 44 s on this
    census = shape_census(GelfandTsetlin(5))
    assert census == {"3x3x2x2": 42, "3x3x3x1": 18, "4x2x2x2": 24, "4x3x2x1": 96,
                      "4x4x1x1": 16, "5x2x2x1": 40, "5x3x1x1": 30, "6x2x1x1": 20}
    assert sum(census.values()) == 286


def _oracle_linearizations():
    # every linearization for n <= 4, and a seeded 12 of n = 5's 286
    cases = [(n, ext) for n in (2, 3, 4) for ext in linear_extensions(gt_poset(n))]
    exts5 = list(linear_extensions(gt_poset(5)))
    assert len(exts5) == 286
    cases += [(5, ext) for ext in random.Random(5).sample(exts5, 12)]
    return cases


ORACLE_CASES = _oracle_linearizations()


@pytest.mark.parametrize("n, ext", ORACLE_CASES,
                         ids=[f"n{n}-{i}" for i, (n, _) in enumerate(ORACLE_CASES)])
def test_component_shape_matches_fraction_oracle(n, ext):
    # the oracle enumerates the section's vertices in Fraction and checks
    # that their difference image is the product of simplices of its blocks
    gt = GelfandTsetlin(n)
    want_shape, _ = oracle.component_image(label_extension(gt.poset, ext))
    assert component_shape(gt, ext) == want_shape


def test_census_takes_no_anchoring_test(monkeypatch, capsys):
    # the census reads each section off its chain's H-description, so it
    # walks no patterns and runs no anchoring test; it used to run the
    # vertex search on every chain and, before that, _is_vertex on every
    # point
    def forbidden(*args):
        raise RuntimeError("the census enumerated vertices")

    monkeypatch.setattr(flaggt, "_is_vertex", forbidden)
    monkeypatch.setattr(flaggt, "gt_patterns", forbidden)
    assert main(["gt", "--n", "4", "census"]) == 0
    assert json.loads(capsys.readouterr().out)["component_count"] == 12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_census_rejects_a_marker_value_off_by_one(n):
    # with one inner diagonal value lowered, a marker step is 2 and the
    # next is 0: the section is no longer a product of unit simplices
    for r in range(2, n):
        gt = GelfandTsetlin(n)
        values = list(gt.marked.values)
        values[gt.marked.base.index(f"p{r}{r}")] -= 1
        gt.marked = MarkedPoset(gt.marked.base, tuple(values))
        for ext in linear_extensions(gt.poset):
            with pytest.raises(AssertionError, match="one below the last"):
                component_shape(gt, ext)


@pytest.mark.parametrize("n", [4, 5])
def test_census_rejects_two_diagonal_markers_swapped(n):
    # swapping p_{r,r} and p_{r+1,r+1} in a linearization puts the markers
    # out of chain order
    gt = GelfandTsetlin(n)
    for r in range(2, n - 1):
        a, b = gt.poset.index(f"p{r}{r}"), gt.poset.index(f"p{r + 1}{r + 1}")
        for ext in linear_extensions(gt.poset):
            swapped = tuple(b if j == a else a if j == b else j for j in ext)
            with pytest.raises(AssertionError, match="chain order"):
                component_shape(gt, swapped)


@pytest.mark.parametrize("action, orders", [("census", 0), ("vertices", 1)])
def test_gt_scans_each_orders_covers_once(action, orders, monkeypatch, capsys):
    # Poset keeps its cover scan, one cover_pairs of its masks. The census
    # builds no poset on its chains and reads no covers (it read those of
    # each of its 12 chains); the vertex search reads those of the one base
    # order, which the patterns and the levels share. Each read used to
    # rescan: 406 and 118 scans per job. A scan is counted by its masks, a
    # tuple each poset holds; the counted masks are kept, so a freed
    # tuple's id cannot be reused by the next.
    scans, counted = {}, []
    scan = poset.cover_pairs

    def counting(below):
        counted.append(below)
        scans[id(below)] = scans.get(id(below), 0) + 1
        return scan(below)

    monkeypatch.setattr(poset, "cover_pairs", counting)
    assert main(["gt", "--n", "4", action]) == 0
    capsys.readouterr()
    assert list(scans.values()) == [1] * orders


def test_gt_subdivide_builds_the_flag_lattice_once(monkeypatch, capsys):
    # the rank's flag lattice serves cone_K, the foreign-lattice check and
    # the poset isomorphism; it used to be built three times per job, and
    # a later job on the rank builds none
    built = []
    ring = lattice._ring_of_sets
    monkeypatch.setattr(lattice, "_ring_of_sets", lambda *args: built.append(1) or ring(*args))
    assert main(["gt", "--n", "3", "subdivide"]) == 0
    assert main(["gt", "--n", "3", "subdivide", "--face", "apex"]) == 0
    capsys.readouterr()
    assert len(built) == 1


@pytest.mark.parametrize("argv, poset_file", [
    (["gt", "--n", "3"], None),
    (["cone", "--grassmann", "2", "5"], None),
    (["certify", "--flag", "3", "--lmax", "2"], None),
    (["lattice", "--poset", "FILE"], "elem a\nelem b\nelem c\ncover a c\ncover b c\n"),
    (["lattice", "--poset", "FILE"], '{"elements": ["a", "b", "c"], "covers": [["a", "c"]]}'),
], ids=["gt", "cone --grassmann", "certify --flag", "poset text", "poset JSON"])
def test_builtin_lattices_take_no_table_validation(argv, poset_file, tmp_path, monkeypatch,
                                                   capsys):
    # the builtins and poset files are rings of sets; only join/meet tables
    # from a file run the table certificate
    def forbidden(*args):
        raise RuntimeError("a lattice without tables reached the table certificate")

    path = tmp_path / "poset.txt"
    if poset_file is not None:
        path.write_text(poset_file, encoding="utf-8")
    monkeypatch.setattr(lattice, "_table_lattice", forbidden)
    assert main([str(path) if x == "FILE" else x for x in argv]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["gt", "--n", "4", "vertices"], ["gt", "--n", "3"]],
                         ids=["vertices", "census and subdivide"])
def test_gt_builds_the_triangle_once(argv, monkeypatch, capsys):
    # the job builds its GelfandTsetlin once and hands it to every step:
    # the vertex job used to build the marked poset 5 times and the ideals
    # twice, and the census-and-subdivide job each of the three twice
    built = {name: 0 for name in ("gt_poset", "gt_marked_poset", "_phi")}

    def counting(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)
        return wrapper

    for name in built:
        monkeypatch.setattr(flaggt, name, counting(name, getattr(flaggt, name)))
    assert main(argv) == 0
    capsys.readouterr()
    assert built == {"gt_poset": 1, "gt_marked_poset": 1, "_phi": 1}


def test_component_shape_sums():
    gt = GelfandTsetlin(4)
    for ext in linear_extensions(gt.poset):
        shape = component_shape(gt, ext)
        assert sum(shape) == 6
        assert len(shape) == 3


# -- the grassmannian path ---------------------------------------------------


def test_grassmann_2_4_is_a_grid_lattice():
    # the 2x2 grid lattice drives the generic modules; same tables here
    G = grassmann_lattice(2, 4)
    ideals = order_ideals(G.poset_P)
    assert len(ideals) == G.size

