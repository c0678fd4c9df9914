"""Weight polytopes attached to faces of the maximal cone.

Each face F of the cone carries a linear span U(F) with a saturated integer
basis. Restricting the coordinate functionals of R^L to U(F) and reading them
in the dual basis yields one integer point per lattice element; their convex
hull is the weight polytope of F. The distinguished faces, one per part of
F's regular subdivision, are certified through the projection dual to the
span inclusion U(apex) ⊆ U(F) and the affine change of coordinates zeta
between the order polytope and the apex weight polytope. Both maps are
integer matrices, each found by one integer elimination, so the
certificates are integer dot products; no part needs a hull of its own.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cone import Face, face_of, span_of_face
from .exactgeom import (
    LatticePolytope,
    _echelon,
    integer_points,
    rank,
    same_lattice,
)
from .poset import ideal_masks
from .subdivision import face_subdivision


class WeightPolytope:
    """Hull of the dual-basis coordinates of the coordinate functionals.

    `basis` rows span U(F) ∩ Z^L and are saturated, so "integer point" has
    an unambiguous meaning in the dual coordinates. `points[a]` is the
    vector (b_1[a], ..., b_d[a]) for the basis rows b_i. Two weight
    polytopes are equal when their faces are.
    """

    __slots__ = ("face", "basis", "points", "polytope")

    def __init__(self, face: Face, basis: tuple[tuple[int, ...], ...],
                 points: dict[str, tuple[int, ...]], polytope: LatticePolytope):
        self.face = face
        self.basis = basis
        self.points = points
        self.polytope = polytope

    def __eq__(self, other):
        if not isinstance(other, WeightPolytope):
            return NotImplemented
        return self.face == other.face

    def __hash__(self):
        return hash(self.face)


def weight_polytope(F: Face) -> WeightPolytope:
    L = F.cone.lattice
    basis = tuple(tuple(row) for row in span_of_face(F))
    points = {
        a: tuple(row[L.index(a)] for row in basis) for a in L.elements
    }
    poly = LatticePolytope(list(points.values()), 1)
    # every coordinate functional is a vertex, and nothing else is integral
    assert len(set(points.values())) == L.size
    assert len(poly.vertices) == L.size
    assert set(integer_points(poly)) == set(points.values())
    assert poly.dim == F.dim - 1
    return WeightPolytope(F, basis, points, poly)


def _integral_solution(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list[list[int]]:
    """The unique X with A·X = B, for integer A and B, from one integer
    elimination of [A | B]. Asserts that X exists, is unique and is
    integral."""
    n = len(A[0])
    M, D, pivots = _echelon([list(a) + list(b) for a, b in zip(A, B, strict=True)])
    # a pivot past A's columns is a column of B off A's column span
    assert pivots == list(range(n)), "no unique solution"
    assert all(x % D == 0 for row in M for x in row[n:]), "solution is not integral"
    return [[x // D for x in row[n:]] for row in M]


def _inclusion_matrix(basis_g, basis_f) -> list[list[int]]:
    # rows of basis(F) written in coordinates over basis(G); the span of the
    # subface must sit inside the span, and the coordinates are integers
    X = _integral_solution(list(zip(*basis_g)), list(zip(*basis_f)))
    return [list(col) for col in zip(*X)]


def _apex_weight_polytope(K) -> WeightPolytope:
    return weight_polytope(face_of(K, (0,) * K.lattice.size, 1))


def _zeta_for(apex: WeightPolytope) -> tuple[list[list[int]], list[int]]:
    """The affine map zeta: x -> Z·x + z0 from R^P to the apex coordinates
    that sends each element's indicator 1_a to apex.points[a], as the
    integer matrix Z and offset z0. Asserts that the map exists and is
    integral, that Z has rank |P| (zeta is injective) and that its columns
    span the apex polytope's lattice."""
    L = apex.face.cone.lattice
    n = L.poset_P.size
    inputs = [[m >> j & 1 for j in range(n)] + [1] for m in L.masks]
    X = _integral_solution(inputs, [apex.points[a] for a in L.elements])
    columns, z0 = X[:n], X[n]
    Z = [[col[i] for col in columns] for i in range(len(z0))]  # |P| = 0 leaves its rows empty
    assert rank(Z) == n, "map must be injective on R^P"
    lb = apex.polytope.lattice_basis
    assert lb is not None and same_lattice(columns, [list(r) for r in lb])
    return Z, z0


def _pulls_back(to_apex, zeta, point, x) -> bool:
    """Whether to_apex·point == Z·x + z0, in integer dot products. Z has
    rank |P|, so then x is the unique preimage of to_apex·point under zeta."""
    Z, z0 = zeta
    return ([sum(c * y for c, y in zip(row, point, strict=True)) for row in to_apex]
            == [sum(c * y for c, y in zip(row, x, strict=True)) + c0 for row, c0 in zip(Z, z0)])


class DistinguishedFace(NamedTuple):
    """A face of the weight polytope cut out by one subdivision part.

    `separator` is the certifying integer functional, given per lattice
    element: it vanishes exactly on `elements` and is at least 1 elsewhere.
    """

    elements: tuple[str, ...]
    separator: tuple[int, ...]
    polytope: LatticePolytope


def distinguished_faces(W: WeightPolytope) -> list[DistinguishedFace]:
    """One face of the weight polytope W of a face F per part of F's regular
    subdivision.

    Each face is the hull of the projected chain simplices of the part's
    extensions. Certified on integers, for each part:

    - a separating functional, the part's values minus the weight, zero on
      the part's elements and positive elsewhere, that lies in the face's
      span (one integer elimination), so it cuts a genuine face;
    - the pullback through the apex: for each member a, to_apex·W.points[a]
      == Z·1_a + z0, where to_apex is the integer projection dual to
      U(apex) ⊆ U(F) and zeta = (Z, z0) the integer apex map of rank |P|,
      so 1_a is the unique preimage;
    - the members are the elements whose ideals are the order's ideals, the
      vertices of the part's order polytope;
    - the face has dimension |P|.

    The face's polytope takes the member points as its vertices without a
    hull. Distinct 0/1 points are in convex position. Z is injective and
    affine, so the images Z·1_a + z0 are distinct vertices of their hull.
    The linear map to_apex sends each W.points[a] to its image Z·1_a + z0;
    were some W.points[a] a convex combination of the others, its image
    would be the same convex combination of theirs, which is impossible.
    """
    F = W.face
    L = F.cone.lattice
    n = L.poset_P.size
    sub = face_subdivision(F)
    apex = W if F.is_apex else _apex_weight_polytope(F.cone)
    zeta = _zeta_for(apex)
    # restriction to the apex span, the projection dual to U(apex) ⊆ U(F)
    to_apex = _inclusion_matrix(W.basis, apex.basis)
    indicator = {a: [m >> j & 1 for j in range(n)] for a, m in zip(L.elements, L.masks)}
    out = []
    for part in sub.parts:
        elements = part.vertex_elements
        members = set(elements)
        # the separator: the part's map minus w, times den, an integer
        # functional, so its positive values are at least 1
        sep = tuple(v - x for v, x in zip(part.values, sub.scaled))
        assert all(x == 0 for a, x in zip(L.elements, sep) if a in members)
        assert sum(x > 0 for x in sep) == L.size - len(members)
        # the functional lives in the face's span, so it cuts a genuine face
        assert rank([*W.basis, sep]) == len(W.basis)
        for a in elements:
            assert _pulls_back(to_apex, zeta, W.points[a], indicator[a]), \
                "point is outside the apex image of its indicator"
        poly = LatticePolytope([W.points[a] for a in elements], 1,
                               already_extreme=True)
        assert len(poly.vertices) == len(members)
        assert poly.dim == n
        # the vertices are the elements whose ideals are the order's ideals
        assert members == {L.elements[L.at_mask[m]] for m in ideal_masks(part.order)}
        out.append(DistinguishedFace(elements, sep, poly))
    return out


def weight_polytope_json(F: Face) -> dict:
    W = weight_polytope(F)
    faces = distinguished_faces(W)
    return {
        "face": F.key(),
        "basis": [list(row) for row in W.basis],
        "points": {a: list(W.points[a]) for a in W.face.cone.lattice.elements},
        "distinguished": [list(d.elements) for d in faces],
    }
