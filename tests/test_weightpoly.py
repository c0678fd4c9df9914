"""Weight polytopes, projections, zeta, and distinguished faces.

The paper's claims that no subcommand reports are checked here through
helpers over the package's own maps: the projections dual to span
inclusions and their composition, the chain simplices as the full face's
distinguished faces, and the normality of the weight and order polytopes.
weightpoly certifies each weight polytope by one exact solve through its
apex projection, read in the apex span's indicator coordinates, and builds
no hull; the hulls here (the oracle's hull of the points, and its
lattice_points) recheck what that certificate implies: |L| vertices, |L|
integer points and dimension dim F - 1. What the solve implies and
weightpoly no longer checks is checked here on every face of several
lattices: the pullback identity through the fixed zeta: x -> (1, x), the
separators' span and the distinguished faces' dimension; and the three
solves weightpoly ran before, fitting zeta to the apex points
(fraction_oracle.zeta_fit), accept the same polytopes. weightpoly returns
each face's certified basis alone; fraction_oracle.weight_record rebuilds
from it the points, the apex projection to_apex and the distinguished
faces that these tests read.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import (dim_of, enumerated_faces, indicator, is_apex, is_full,
                             lattice_points, rank, rank_dim, same_face, solve_linear, vdot, vsub,
                             weight_record)
from hibikit import exactgeom, weightpoly
from hibikit.cli import main
from hibikit.cone import cone_K, face_of, span_of_face
from hibikit.exactgeom import LatticePolytope
from hibikit.lattice import birkhoff, diamond_pairs, flag_lattice, grassmann_lattice, ideal_label
from hibikit.poset import antichain, from_cover_relations
from hibikit.subdivision import face_subdivision
from hibikit.weightpoly import weight_polytope, weight_polytope_json
from order_oracle import chain, label_extensions, poset_from_pairs, vertex_labels

GRID = from_cover_relations(
    ["p", "q", "r", "s"], [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")]
)
B2 = birkhoff(antichain(["p", "q"]))
B3 = birkhoff(antichain(["p", "q", "r"]))
GRIDL = birkhoff(GRID)


def full_face(L):
    K = cone_K(L)
    return face_of(K, tuple(L.height(a) ** 2 for a in L.elements), 1)


def apex_face(L):
    K = cone_K(L)
    return face_of(K, (0,) * L.size, 1)


def hull(W):
    """The test-side hull of a weight polytope's points."""
    return oracle.hull(list(W.points), 1)


def face_hull(W, d):
    """The hull of a distinguished face's member points."""
    return oracle.hull([W.points[i] for i in d], 1)


def labels(L, d):
    """A distinguished face's members as element labels."""
    return {L.elements[i] for i in d}


def zeta(x):
    """The fixed zeta: x -> (1, x), from R^P into the apex span's indicator
    coordinates, injective and onto its lattice."""
    return (1, *x)


def pi(W, point):
    """The apex projection to_apex of a point of W, in integer dot products."""
    return tuple(sum(c * y for c, y in zip(row, point, strict=True)) for row in W.to_apex)


def _pulls_back(W, point, x) -> bool:
    """Whether pi(point) == zeta(x): then x is the unique preimage of
    pi(point) under zeta."""
    return pi(W, point) == zeta(x)


def zeta_map(n):
    """The fixed zeta on R^n as the oracle's Fraction AffineMap."""
    unit = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    return oracle.AffineMap(((Fraction(0),) * n, *unit), (Fraction(1),) + (Fraction(0),) * n)


def separators(W):
    """Each distinguished face with its separator per lattice element: the
    part's values minus the weight, as regular_subdivision certified them."""
    sub = face_subdivision(W.face)
    return [(d, [v - x for v, x in zip(oracle.part_map(sub, part)[1], sub.scaled)])
            for d, part in zip(W.distinguished, sub.parts, strict=True)]


def check_certificate(W):
    """What weight_polytope's solve and the subdivision imply, and
    weightpoly no longer checks: every point pulls back to its indicator;
    each separator is an integer combination of the basis rows, so an
    integer functional on W, zero on its face's points and at least 1 on
    the others; each distinguished face's points span dimension |P|."""
    L = W.face.cone.lattice
    n = L.poset_P.size
    for point, m in zip(W.points, L.masks, strict=True):
        assert _pulls_back(W, point, [m >> j & 1 for j in range(n)])
    for d, sep in separators(W):
        # the points have rank d, so a solution is unique
        c = solve_linear(W.points, sep)
        assert c is not None and all(x.denominator == 1 for x in c)
        assert [i for i, s in enumerate(sep) if s == 0] == list(d)
        assert all(s >= 0 for s in sep)
        base = W.points[d[0]]
        assert rank([vsub(W.points[i], base) for i in d]) == n


def project(G, F, point):
    """Dual of the span inclusion U(F) ⊆ U(G), for G's tight set inside F's,
    in dual-basis coordinates: the restriction that weight_polytope applies
    with F the apex. Carries the point of G's weight polytope of a lattice
    element to the point of F's of the same element."""
    assert G.tight & F.tight == G.tight
    return tuple(sum(c * x for c, x in zip(row, point, strict=True))
                 for row in oracle.inclusion_matrix(span_of_face(G), span_of_face(F)))


def chain_simplex(ext):
    """The coordinate face of the full-face weight polytope on the maximal
    chain of a linear extension: its element labels and its polytope."""
    P = ext.poset
    L = birkhoff(P)
    W = weight_record(full_face(L))
    ideals = tuple(ideal_label(sum(1 << P.index(x) for x in ext.order[:k]), P.elements)
                   for k in range(P.size + 1))
    poly = oracle.hull([W.points[L.index(a)] for a in ideals], 1)
    assert dim_of(poly) == P.size
    assert len(poly.vertices) == P.size + 1
    return ideals, poly


def normality_probe(Q, k_max):
    """Smallest k <= k_max whose dilation kQ has an integer point that is
    not a sum of k integer points of Q, or None when every level passes."""
    assert Q.lattice_basis is not None, "Q needs integral vertices"
    base = set(lattice_points(Q))
    sums = set(base)
    for k in range(2, k_max + 1):
        sums = oracle.minkowski_sum(sums, base)
        kQ = LatticePolytope([tuple(k * x for x in v) for v in Q.vertices], Q.den)
        if not set(lattice_points(kQ)) <= sums:
            return k
    return None


# -- weight_polytope ---------------------------------------------------------


@pytest.mark.parametrize("L", [B2, B3, GRIDL])
def test_full_face_is_standard_simplex(L):
    W = weight_record(full_face(L))
    unit = [tuple(1 if j == i else 0 for j in range(L.size)) for i in range(L.size)]
    assert list(W.basis) == unit
    assert list(W.points) == unit
    assert dim_of(hull(W)) == L.size - 1


def test_apex_b2_is_unit_square():
    W = weight_record(apex_face(B2))
    Q = hull(W)
    assert dim_of(Q) == 2
    assert len(Q.vertices) == 4
    assert len(lattice_points(Q)) == 4
    # opposite edge vectors agree, so the four points are a parallelogram
    bot, p, q, top = W.points
    assert vsub(p, bot) == vsub(top, q)
    assert vsub(q, bot) == vsub(top, p)


@pytest.mark.parametrize("L", [B2, B3, GRIDL, birkhoff(chain(["a", "b", "c"])),
                               grassmann_lattice(2, 5), flag_lattice(4)])
def test_every_face_has_lattice_point_count_of_L(L):
    # what the apex pullback implies, by a hull and a lattice-point search
    for F in enumerated_faces(cone_K(L)):
        W = hull(weight_record(F))
        assert len(W.vertices) == L.size
        assert len(lattice_points(W)) == L.size
        assert dim_of(W) == rank_dim(F.cone, F.tight) - 1


# -- project -----------------------------------------------------------------


def test_project_identity():
    F = full_face(B2)
    W = weight_record(F)
    for p in W.points:
        assert project(F, F, p) == p


def test_project_full_to_apex_b2():
    F, A = full_face(B2), apex_face(B2)
    Wf, Wa = weight_record(F), weight_record(A)
    for p, q in zip(Wf.points, Wa.points, strict=True):
        assert project(F, A, p) == q


def test_project_carries_whole_polytope():
    for L in (B3, GRIDL):
        faces = enumerated_faces(cone_K(L))
        polys = {F: weight_record(F) for F in faces}
        for G, F in itertools.permutations(faces, 2):
            if G.tight & F.tight != G.tight:
                continue
            for p, q in zip(polys[G].points, polys[F].points, strict=True):
                assert project(G, F, p) == q
            image = oracle.hull([project(G, F, v) for v in hull(polys[G]).vertices], 1)
            assert image.vertices == hull(polys[F]).vertices


def test_project_composition():
    L = B3
    K = cone_K(L)
    apex = face_of(K, (0,) * L.size, 1)
    full = full_face(L)
    mid = next(F for F in enumerated_faces(K) if not is_apex(F) and not is_full(F))
    W = weight_record(full)
    for p in W.points:
        two_step = project(mid, apex, project(full, mid, p))
        assert two_step == project(full, apex, p)


# -- zeta --------------------------------------------------------------------


@pytest.mark.parametrize("L", [birkhoff(chain(["a", "b", "c"])), B2, B3, GRIDL,
                               birkhoff(antichain([]))])
def test_zeta_bijects_order_polytope_and_apex_polytope(L):
    # on the apex, to_apex is square and unimodular, so zeta followed by
    # its inverse is an integer affine bijection carrying 1_a to p_a
    W = weight_record(apex_face(L))
    n = L.poset_P.size
    assert len(W.to_apex) == len(W.basis) == n + 1
    assert oracle.same_lattice(W.to_apex, [[int(i == j) for j in range(n + 1)]
                                           for i in range(n + 1)])
    z = zeta_map(n)
    for a, p in zip(L.elements, W.points, strict=True):
        assert solve_linear(W.to_apex, z(indicator(L, a))) == list(p)
        assert oracle.invert_affine(z, pi(W, p)) == indicator(L, a)


@pytest.mark.parametrize("face", ["full", "apex"])
def test_weightpoly_on_the_empty_poset(face, tmp_path, capsys):
    # one lattice element, the empty ideal: the apex span's indicator
    # coordinates are the all-ones row alone, and zeta takes the empty
    # indicator to (1,) (the last case of the zeta test above)
    path = tmp_path / "empty.json"
    path.write_text('{"elements": [], "covers": []}', encoding="utf-8")
    assert main(["weightpoly", "--poset", str(path), "--face", face]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["points"] == {"{}": [1]}
    assert report["distinguished"] == [["{}"]]


def test_zeta_square_to_square():
    # the order polytope's vertices through zeta and the inverse of the
    # apex's to_apex are the apex polytope's
    W = weight_record(apex_face(B2))
    z = zeta_map(2)
    order_poly = LatticePolytope([tuple(map(int, indicator(B2, a))) for a in B2.elements], 1)
    image = oracle.hull(*oracle.over_den([solve_linear(W.to_apex, z(v))
                                          for v in order_poly.vertices]))
    assert image.den == 1 and image.vertices == hull(W).vertices
    assert len(lattice_points(order_poly)) == len(lattice_points(hull(W)))


# -- chain_simplex -----------------------------------------------------------


def test_chain_simplex_whole_simplex_for_chain_lattice():
    P = chain(["a", "b", "c"])
    elements, poly = chain_simplex(label_extensions(P)[0])
    assert len(elements) == 4
    assert poly.vertices == hull(weight_record(full_face(birkhoff(P)))).vertices


def test_chain_simplex_b2():
    ext = next(e for e in label_extensions(antichain(["p", "q"]))
               if e.order == ("p", "q"))
    elements, poly = chain_simplex(ext)
    assert elements == ("{}", "{p}", "{p,q}")
    assert dim_of(poly) == 2


def test_chain_simplex_grid_has_five_vertices():
    for ext in label_extensions(GRID):
        elements, poly = chain_simplex(ext)
        assert len(elements) == GRID.size + 1 == 5
        assert dim_of(poly) == 4
        assert len(poly.vertices) == 5


# -- distinguished faces -----------------------------------------------------


def test_apex_single_distinguished_face_is_whole_polytope():
    W = weight_record(apex_face(B3))
    faces = W.distinguished
    assert len(faces) == 1
    assert face_hull(W, faces[0]).vertices == hull(W).vertices
    assert labels(B3, faces[0]) == set(B3.elements)


def test_full_face_distinguished_are_chain_simplices():
    P = antichain(["p", "q"])
    F = full_face(B2)
    W = weight_record(F)
    simplices = {chain_simplex(ext)[1].vertices for ext in label_extensions(P)}
    assert {face_hull(W, d).vertices for d in W.distinguished} == simplices


def test_b2_full_two_triangles_sharing_an_edge():
    faces = weight_record(full_face(B2)).distinguished
    assert len(faces) == 2
    assert all(len(d) == 3 for d in faces)
    shared = labels(B2, faces[0]) & labels(B2, faces[1])
    assert shared == {"{}", "{p,q}"}


def test_separator_vanishes_exactly_on_face():
    L = GRIDL
    for F in enumerated_faces(cone_K(L)):
        for d, sep in separators(weight_record(F)):
            members = set(d)
            for i, value in enumerate(sep):
                if i in members:
                    assert value == 0
                else:
                    assert value >= 1


@pytest.mark.parametrize("L", [B3, GRIDL, grassmann_lattice(2, 5), flag_lattice(4)])
def test_every_face_meets_its_certificate(L):
    for F in enumerated_faces(cone_K(L)):
        check_certificate(weight_record(F))


@pytest.mark.parametrize("L", [B3, GRIDL, grassmann_lattice(2, 5), flag_lattice(4)])
def test_zeta_fit_accepts_the_same_polytopes(L):
    # the three solves weightpoly ran before accept every face's polytope,
    # and their projection is the one solve's read through the integer
    # matrix M = [z0 | Z], square and unimodular: M·(1, 1_i) = Z·1_i + z0
    for F in enumerated_faces(cone_K(L)):
        W = weight_record(F)
        Z, z0, to_apex = oracle.zeta_fit(F)
        M = [[c0, *row] for c0, row in zip(z0, Z, strict=True)]
        assert oracle.same_lattice(M, [[int(i == j) for j in range(len(M))]
                                       for i in range(len(M))])
        assert [list(row) for row in to_apex] == [[vdot(m, col) for col in zip(*W.to_apex)]
                                                  for m in M]


def test_distinguished_images_are_subdivision_parts():
    # pulling each face back through zeta recovers the part's vertex set
    L = B3
    for F in enumerated_faces(cone_K(L)):
        sub = face_subdivision(F)
        got = {frozenset(labels(L, d)) for d in weight_record(F).distinguished}
        want = {frozenset(vertex_labels(L, p)) for p in sub.parts}
        assert got == want


# -- the integer certificate -------------------------------------------------


@st.composite
def small_posets(draw):
    """A poset on at most 5 elements: the transitive closure of random
    pairs i < j."""
    n = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    less = {ij for ij, k in zip(pairs, keep) if k}
    for k in range(n):
        into = {i for i, j in less if j == k}
        out = {j for i, j in less if i == k}
        less |= {(i, j) for i in into for j in out}
    return poset_from_pairs(tuple(f"p{i}" for i in range(n)), less)


def bump(point, i):
    return tuple(x + (j == i) for j, x in enumerate(point))


def oracle_pulls_back(zmap, to_apex, point, x):
    """The Fraction check: x is the unique preimage of to_apex·point under
    zeta, found by invert_affine's solve."""
    try:
        return oracle.invert_affine(zmap, [vdot(row, point) for row in to_apex]) == tuple(x)
    except AssertionError:
        return False


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_integer_certificate_matches_fraction_oracle(P):
    L = birkhoff(P)
    assume(len(diamond_pairs(L)) <= 8)
    # the apex span's indicator rows, and the fixed zeta as a Fraction map
    rows = [[1] * L.size] + [[m >> j & 1 for m in L.masks] for j in range(P.size)]
    zmap = zeta_map(P.size)
    indicators = [[int(x) for x in indicator(L, a)] for a in L.elements]
    for F in enumerated_faces(cone_K(L)):
        W = weight_record(F)
        assert [list(row) for row in W.to_apex] == [solve_linear(W.points, row) for row in rows]
        check_certificate(W)
        # each element's own point and indicator, a wrong indicator, and
        # the point moved by 1 in each coordinate
        for i, q in enumerate(W.points):
            cases = [(q, indicators[i]), (q, indicators[i - 1])]
            cases += [(bump(q, j), indicators[i]) for j in range(len(q))]
            for point, x in cases:
                assert (_pulls_back(W, point, x)
                        == oracle_pulls_back(zmap, W.to_apex, point, x))
        # what the pullback implies for each distinguished face: its members
        # are its vertices, and it has dimension |P|
        for d in W.distinguished:
            face = face_hull(W, d)
            assert len(face.vertices) == len(d)
            assert dim_of(face) == P.size


def with_basis(monkeypatch, F, rows):
    """Make weight_polytope read rows as F's span basis; every other face,
    the apex among them, keeps its own."""
    monkeypatch.setattr(weightpoly, "span_of_face",
                        lambda G: rows if same_face(G, F) else span_of_face(G))


@pytest.mark.parametrize("L", [B3, GRIDL])
def test_certificate_rejects_a_moved_point(L, monkeypatch):
    # each element's point moved by 1 in one coordinate, taken in turn, is
    # off the apex image of its indicator under W's own map. Handed the
    # basis that moves it, weight_polytope solves for the indicator rows
    # over the moved basis: it rejects it, or the oracle finds that the
    # moved polytope has every property the certificate claims
    rejected = 0
    for F in enumerated_faces(cone_K(L)):
        W = weight_record(F)
        for k, (point, m) in enumerate(zip(W.points, L.masks)):
            i = k % len(W.basis)
            x = [m >> j & 1 for j in range(L.poset_P.size)]
            assert _pulls_back(W, point, x)
            assert not _pulls_back(W, bump(point, i), x)
            rows = [list(row) for row in W.basis]
            rows[i][k] += 1
            with_basis(monkeypatch, F, rows)
            try:
                moved = hull(weight_record(F))
            except AssertionError:
                rejected += 1
                continue
            assert len(moved.vertices) == len(lattice_points(moved)) == L.size
            assert dim_of(moved) == rank_dim(F.cone, F.tight) - 1
    assert rejected > 0


@pytest.mark.parametrize("L", [B3, GRIDL, grassmann_lattice(2, 5), flag_lattice(4)])
def test_certificate_rejects_a_doubled_basis_row(L, monkeypatch):
    # a doubled row leaves the basis unsaturated, and the apex span's
    # indicator rows, a basis of its integer points, are then no integer
    # combination of it: the certificate fails on every face, the apex
    # among them. (The zeta fitted to the apex's own points let a single
    # doubled row through there, as the polytope it gave was again an
    # integral image of O(P) with no integer point but its |L| points.)
    for F in enumerated_faces(cone_K(L)):
        basis = span_of_face(F)
        doubled = [[[2 * x for x in row] if k == i else row for k, row in enumerate(basis)]
                   for i in range(len(basis))]
        for rows in doubled + [[[2 * x for x in row] for row in basis]]:
            with_basis(monkeypatch, F, rows)
            with pytest.raises(AssertionError, match="not integral"):
                weight_polytope(F)


def test_certificate_rejects_a_repeated_basis_row(monkeypatch):
    # a repeated row makes two columns of the solve's matrix equal, so the
    # solution is not unique, on every face
    for F in enumerated_faces(cone_K(B3)):
        basis = span_of_face(F)
        with_basis(monkeypatch, F, basis + basis[:1])
        with pytest.raises(AssertionError, match="no unique solution"):
            weight_polytope(F)


@pytest.mark.parametrize("argv", [["--boolean", "3", "--face", '[["{p,q}","{p,r}"]]'],
                                  ["--boolean", "3", "--face", "full"],
                                  ["--grassmann", "2", "5", "--face", '[["14","23"]]']],
                         ids=["B3 key", "B3 full", "Gr25 key"])
def test_weightpoly_off_the_apex_runs_one_solve(argv, capsys, monkeypatch):
    # one exact solve certifies the weight polytope, and the apex span, an
    # integer kernel of every diamond normal, is never built
    solves, spans = [], []
    solve, span = weightpoly._integral_solution, weightpoly.span_of_face
    monkeypatch.setattr(weightpoly, "_integral_solution",
                        lambda A, B: solves.append(len(B[0])) or solve(A, B))
    monkeypatch.setattr(weightpoly, "span_of_face", lambda F: spans.append(F) or span(F))
    assert main(["weightpoly", *argv]) == 0
    capsys.readouterr()
    L = spans[0].cone.lattice
    assert solves == [L.poset_P.size + 1]
    assert len(spans) == 1 and not is_apex(spans[0])


@pytest.mark.parametrize("face", ["apex", "full", '[["{p,q}","{p,r}"]]'])
def test_weightpoly_runs_no_facet_kernel(face, capsys, monkeypatch):
    # the apex pullback certifies the weight polytope and its distinguished
    # faces with no hull
    found = []
    kernel = exactgeom.facet_hyperplanes

    def counting(*args, **kwargs):
        found.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(exactgeom, "facet_hyperplanes", counting)
    assert main(["weightpoly", "--boolean", "3", "--face", face]) == 0
    capsys.readouterr()
    assert found == []


# -- normality_probe ---------------------------------------------------------


def test_probe_passes_unimodular_simplex():
    Q = LatticePolytope([(0, 0), (1, 0), (0, 1)], 1)
    assert normality_probe(Q, 4) is None


@pytest.mark.parametrize("P", [
    chain(["a", "b", "c", "d"]),
    antichain(["a", "b", "c", "d"]),
    GRID,
])
def test_probe_passes_order_polytopes(P):
    L = birkhoff(P)
    Q = LatticePolytope([tuple(map(int, indicator(L, a))) for a in L.elements], 1)
    assert normality_probe(Q, 4) is None


def test_probe_detects_nonnormal_simplex():
    # the classical empty simplex: 2Q holds a point that is not a sum
    Q = LatticePolytope([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)], 1)
    assert normality_probe(Q, 4) == 2


@pytest.mark.parametrize("L", [B2, B3])
def test_probe_weight_polytopes(L):
    outcomes = {}
    for F in enumerated_faces(cone_K(L)):
        outcomes[F.key()] = normality_probe(hull(weight_record(F)), 3)
    assert set(outcomes.values()) == {None}


# -- serialization -----------------------------------------------------------


def test_weight_polytope_json_shape():
    data = weight_polytope_json(apex_face(B2))
    assert data["face"] == '[["{p}","{q}"]]'
    assert sorted(data["points"]) == sorted(B2.elements)
    assert data["distinguished"] == [["{}", "{p}", "{q}", "{p,q}"]]
    assert all(isinstance(x, int) for row in data["basis"] for x in row)


def test_weight_polytopes_equal_on_their_face():
    # the certified basis, and every field rebuilt from it, is a function
    # of its face, so two built on two Face objects of one face agree on
    # the face and are equal, and hash alike, in every other field;
    # equality compares fields
    K = cone_K(B3)
    full, apex = face_of(K, [0, 1, 1, 1, 4, 4, 4, 9], 1), face_of(K, (0,) * 8, 1)
    W = weight_record(full)
    again = weight_record(face_of(cone_K(B3), [0, 1, 1, 1, 4, 4, 4, 9], 1))
    assert same_face(again.face, W.face)
    assert weight_polytope(again.face) == weight_polytope(W.face) == W.basis
    assert again[1:] == W[1:] and hash(again[1:]) == hash(W[1:])
    assert W._replace(points=W.points[::-1]) != W
    assert weight_record(apex)[1:] != W[1:]
