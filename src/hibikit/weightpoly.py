"""Weight polytopes attached to faces of the maximal cone.

Each face F of the cone carries a linear span U(F) with a saturated integer
basis. Restricting the coordinate functionals of R^L to U(F) and reading them
in the dual basis yields one integer point p_a per lattice element a; their
convex hull is the weight polytope W of F. The paper (arXiv:2008.13243)
shows that W projects onto the order polytope O(P), with the distinguished
faces projecting into the parts of F's regular subdivision. W is
certified, on integers and with no hull, through that projection
(Sturmfels, Gröbner Bases and Convex Polytopes, 1996, ch. 4):

- pi = to_apex, the integer projection dual to U(apex) ⊆ U(F), sends each
  p_a to zeta(1_a), where zeta: x -> Z·x + z0 is the integer affine map from
  R^P into the apex coordinates that sends each ideal's indicator 1_a to
  the apex point of a. So pi(W) = zeta(O(P)).
- Z has rank |P| and its columns span the saturated lattice of the apex
  points' affine span, so zeta is injective and an integer point of
  pi(W) is zeta of an integer point of O(P), an indicator.
- The fiber of pi over a vertex zeta(1_a) of pi(W) is a face of W, the
  hull of the points p_b with zeta(1_b) = zeta(1_a); zeta is injective, so
  p_a alone. So an integer point y of W, whose image pi(y) is integral and
  lies over some zeta(1_a), is p_a: W's integer points are exactly its |L|
  points, and each is a vertex.

Both maps are found by one integer elimination each, so the certificates
are integer dot products. The distinguished faces, one per part of F's
regular subdivision, project onto the images of the parts' order
polytopes, and need no hull of their own either. What the subdivision
certified for a part, its separator's sign and its vertices' ideal set, is
not checked again; only the two ranks are taken here.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cone import Face, span_of_face
from .exactgeom import LatticePolytope, _echelon, rank, same_lattice
from .poset import _bits
from .subdivision import face_subdivision


class WeightPolytope:
    """Hull of the dual-basis coordinates of the coordinate functionals.

    `basis` rows span U(F) ∩ Z^L and are saturated, so "integer point" has
    an unambiguous meaning in the dual coordinates. `points[a]` is the
    vector (b_1[a], ..., b_d[a]) for the basis rows b_i. `zeta` = (Z, z0)
    and `to_apex` are the integer maps that certify it: to_apex·points[a]
    == Z·1_a + z0 for every a. Two weight polytopes are equal when their
    faces are.
    """

    __slots__ = ("face", "basis", "points", "zeta", "to_apex")

    def __init__(self, face: Face, basis: tuple[tuple[int, ...], ...],
                 points: dict[str, tuple[int, ...]],
                 zeta: tuple[list[list[int]], list[int]], to_apex: list[list[int]]):
        self.face = face
        self.basis = basis
        self.points = points
        self.zeta = zeta
        self.to_apex = to_apex

    def __eq__(self, other):
        if not isinstance(other, WeightPolytope):
            return NotImplemented
        return self.face == other.face

    def __hash__(self):
        return hash(self.face)


def _points(L, basis) -> dict[str, tuple[int, ...]]:
    return {a: tuple(row[i] for row in basis) for i, a in enumerate(L.elements)}


def weight_polytope(F: Face) -> WeightPolytope:
    """F's weight polytope, certified through its apex projection as the
    module docstring argues, and of dimension dim F - 1."""
    L = F.cone.lattice
    n = L.poset_P.size
    basis = span_of_face(F)
    apex_basis = span_of_face(F.cone.apex)
    points = _points(L, basis)
    zeta = _zeta_for(L, _points(L, apex_basis))
    # restriction to the apex span, the projection dual to U(apex) ⊆ U(F)
    to_apex = _inclusion_matrix(basis, apex_basis)
    for a, m in zip(L.elements, L.masks):
        assert _pulls_back(to_apex, zeta, points[a], [m >> j & 1 for j in range(n)]), \
            "point is outside the apex image of its indicator"
    base = points[L.elements[0]]
    assert rank([[x - y for x, y in zip(p, base)] for p in points.values()]) == F.dim - 1
    return WeightPolytope(F, basis, points, zeta, to_apex)


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


def _zeta_for(L, apex_points: dict[str, tuple[int, ...]]) -> tuple[list[list[int]], list[int]]:
    """The affine map zeta: x -> Z·x + z0 from R^P to the apex coordinates
    that sends each element's indicator 1_a to apex_points[a], as the
    integer matrix Z and offset z0. Asserts that the map exists and is
    integral, that Z has rank |P| (zeta is injective) and that its columns
    span the lattice of the apex points' affine span."""
    n = L.poset_P.size
    inputs = [[m >> j & 1 for j in range(n)] + [1] for m in L.masks]
    X = _integral_solution(inputs, [apex_points[a] for a in L.elements])
    columns, z0 = X[:n], X[n]
    Z = [[col[i] for col in columns] for i in range(len(z0))]  # |P| = 0 leaves its rows empty
    assert rank(Z) == n, "map must be injective on R^P"
    # the span equations alone give the lattice basis; no facet is found
    lb = LatticePolytope(list(apex_points.values()), 1).lattice_basis
    assert same_lattice(columns, [list(r) for r in lb]), "zeta misses part of the apex lattice"
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
    element: it vanishes exactly on `elements` and is at least 1 elsewhere,
    by the envelope check regular_subdivision ran on the part.
    """

    elements: tuple[str, ...]
    separator: tuple[int, ...]


def distinguished_faces(W: WeightPolytope) -> list[DistinguishedFace]:
    """One face of the weight polytope W of a face F per part of F's regular
    subdivision.

    Each face is the hull of the projected chain simplices of the part's
    extensions. For each part:

    - a separating functional, the part's values minus the weight, zero on
      the part's elements and positive elsewhere: regular_subdivision's
      envelope check certified this on the same values and weight. All of
      them together lie in the face's span (one rank here), so each cuts a
      genuine face;
    - the members are the elements whose ideals are the order's ideals, the
      vertices of the part's order polytope O_part: subdivision._cell
      checked this once per cell, and every weight asserts the part's
      vertex mask and order equal its cell's;
    - the members' points span dimension |P| (one rank here).

    The face needs no hull. weight_polytope certified pi(p_a) = zeta(1_a)
    for every a, with pi = to_apex, so pi(W) = zeta(O(P)); zeta is affine
    and injective, and its columns span the saturated apex lattice, so the
    fiber of pi over a vertex zeta(1_a) holds p_a alone and W has no other
    integer point (Sturmfels 1996, ch. 4). pi maps this face onto
    zeta(O_part), which has the members' images as its distinct vertices.
    Were some member's point a convex combination of the others, its image
    would be the same convex combination of theirs, which is impossible; so
    the members' points are the face's vertices.
    """
    F = W.face
    L = F.cone.lattice
    n = L.poset_P.size
    sub = face_subdivision(F)
    out = []
    for part in sub.parts:
        elements = tuple(L.elements[i] for i in _bits(part.vertex_mask))
        # the separator: the part's map minus w, times den, an integer
        # functional, so its positive values are at least 1
        sep = tuple(v - x for v, x in zip(part.values, sub.scaled))
        base = W.points[elements[0]]
        assert rank([[x - y for x, y in zip(W.points[a], base)] for a in elements]) == n
        out.append(DistinguishedFace(elements, sep))
    # the functionals live in the face's span, so each cuts a genuine face
    assert rank([*W.basis, *(d.separator for d in out)]) == len(W.basis)
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
