"""Weight polytopes attached to faces of the maximal cone.

Each face F of the cone carries a linear span U(F) with a saturated integer
basis. Restricting the coordinate functionals of R^L to U(F) and reading them
in the dual basis yields one integer point p_a per lattice element a, the
a-th column of the basis; their convex hull is the weight polytope W of F.
Every diamond normal's entries sum to zero, so the all-ones weight lies in
U(F): the |L| columns of the rank-d basis lie on an affine hyperplane off
the origin, and W has dimension d - 1 = dim F - 1. The paper
(arXiv:2008.13243) shows that W projects onto the order polytope O(P),
with the distinguished faces projecting into the parts of F's regular
subdivision. W is certified, on integers and with no hull, through that
projection (Sturmfels, Gröbner Bases and Convex Polytopes, 1996, ch. 4), by
three exact integer solves, each asserting that its solution exists, is
unique and is integral:

- pi = to_apex writes the apex basis rows over F's basis, so U(apex) ⊆ U(F)
  and, column by column, pi(p_a) is the apex point q_a of a.
- zeta: x -> Z·x + z0 is the integer affine map from R^P into the apex
  coordinates with zeta(1_a) = q_a for every ideal indicator 1_a. So
  pi(p_a) = zeta(1_a) for every a by construction, and pi(W) = zeta(O(P)).
- Z·X = B, for B the saturated lattice basis of the apex points' affine
  span: its solution is unique, so Z is injective; it is integral, so the
  lattice lies in Z·Z^P, and Z's integer columns span that affine span's
  directions, so Z·Z^P is the whole lattice. An integer point of pi(W) is
  then zeta of an integer point of O(P), an indicator.

The fiber of pi over a vertex zeta(1_a) of pi(W) is a face of W, the hull
of the points p_b with zeta(1_b) = zeta(1_a); zeta is injective, so p_a
alone. So an integer point y of W, whose image pi(y) is integral and lies
over some zeta(1_a), is p_a: W's integer points are exactly its |L|
points, and each is a vertex. The distinguished faces, one per part of F's
regular subdivision, project onto the images of the parts' order
polytopes, and need no hull or rank of their own either (distinguished_faces).
Points are indexed by element; labels are read only in weight_polytope_json.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cone import Face, span_of_face
from .exactgeom import LatticePolytope, _echelon
from .poset import _bits
from .subdivision import face_subdivision

Matrix = tuple[tuple[int, ...], ...]


class WeightPolytope(NamedTuple):
    """Hull of the dual-basis coordinates of the coordinate functionals.

    `basis` rows span U(F) ∩ Z^L and are saturated, so "integer point" has
    an unambiguous meaning in the dual coordinates. `points[i]` is the
    vector (b_1[i], ..., b_d[i]) for the basis rows b_k and the i-th lattice
    element. `zeta` = (Z, z0) and `to_apex` are the integer maps that
    certify it: to_apex·points[i] == Z·1_i + z0 for every i.
    """

    face: Face
    basis: Matrix
    points: Matrix
    zeta: tuple[Matrix, tuple[int, ...]]
    to_apex: Matrix


def weight_polytope(F: Face) -> WeightPolytope:
    """F's weight polytope, certified through its apex projection as the
    module docstring argues, and of dimension dim F - 1."""
    L = F.cone.lattice
    basis = span_of_face(F)
    apex_basis = span_of_face(F.cone.apex)
    zeta = _zeta_for(L, tuple(zip(*apex_basis)))
    # restriction to the apex span, the projection dual to U(apex) ⊆ U(F)
    to_apex = _inclusion_matrix(basis, apex_basis)
    return WeightPolytope(F, basis, tuple(zip(*basis)), zeta, to_apex)


def _integral_solution(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
    """The unique X with A·X = B, for integer A and B, from one integer
    elimination of [A | B]. Raises AssertionError unless X exists, is
    unique and is integral."""
    n = len(A[0])
    M, D, pivots = _echelon([list(a) + list(b) for a, b in zip(A, B, strict=True)])
    # a pivot past A's columns is a column of B off A's column span
    if pivots != list(range(n)):
        raise AssertionError("no unique solution")
    if any(x % D for row in M for x in row[n:]):
        raise AssertionError("solution is not integral")
    return tuple(tuple(x // D for x in row[n:]) for row in M)


def _inclusion_matrix(basis_g, basis_f) -> Matrix:
    # rows of basis(F) written in coordinates over basis(G); the span of the
    # subface must sit inside the span, and the coordinates are integers
    return tuple(zip(*_integral_solution(tuple(zip(*basis_g)), tuple(zip(*basis_f)))))


def _zeta_for(L, apex_points: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """The affine map zeta: x -> Z·x + z0 from R^P to the apex coordinates
    that sends the i-th element's indicator to apex_points[i], as the
    integer matrix Z and offset z0. Asserts that the map exists and is
    integral, and, by solving Z·X = B for the lattice basis B of the apex
    points' affine span, that zeta is injective and Z's columns span that
    lattice."""
    n = L.poset_P.size
    inputs = [[m >> j & 1 for j in range(n)] + [1] for m in L.masks]
    X = _integral_solution(inputs, apex_points)
    z0 = X[n]
    rows = range(len(z0))
    Z = tuple(tuple(col[i] for col in X[:n]) for i in rows)  # |P| = 0 leaves its rows empty
    # the span equations alone give the lattice basis; no facet is found
    B = LatticePolytope(apex_points, 1).lattice_basis
    _integral_solution(Z, [[v[i] for v in B] for i in rows])
    return Z, z0


def distinguished_faces(W: WeightPolytope) -> list[tuple[int, ...]]:
    """One face of the weight polytope W of a face F per part of F's regular
    subdivision, as the part's vertex indices.

    Each face is the hull of the projected chain simplices of the part's
    extensions, and what certifies it was certified before:

    - the separator, the part's values minus the weight, is zero on the
      part's vertices and at least 1 elsewhere, by regular_subdivision's
      envelope check. It lies in U(F): the values are modular (the peel
      adds one alpha per element), so they lie in U(apex), which to_apex
      certifies inside U(F), and face_subdivision asserts that the weight
      is tight on F's pairs. So, written over the saturated basis, it is
      an integer functional on W that cuts a genuine face;
    - the members are the ideals of the part's order, the vertices of its
      order polytope O_part, a sublattice C of L: regular_subdivision's
      interpolation and envelope checks imply this (the subdivision module
      docstring gives the argument);
    - the members' points span dimension |P|. At least |P|: C holds a full
      chain simplex, whose |P| + 1 indicators zeta sends to affinely
      independent points, as it is injective. At most |P|: C's covers add
      one element of P each, so C's diamonds are diamonds of L; the weight
      is affine on C, so they are tight on F, and every function in U(F)
      is modular on C's diamonds, so affine on the distributive lattice C,
      a space of dimension |P| + 1.

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
    return [tuple(_bits(part.vertex_mask)) for part in face_subdivision(W.face).parts]


def weight_polytope_json(F: Face) -> dict:
    W = weight_polytope(F)
    E = F.cone.lattice.elements
    return {
        "face": F.key(),
        "basis": [list(row) for row in W.basis],
        "points": {a: list(p) for a, p in zip(E, W.points)},
        "distinguished": [[E[i] for i in d] for d in distinguished_faces(W)],
    }
