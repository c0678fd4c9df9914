"""Weight polytopes attached to faces of the maximal cone.

Each face F of the cone carries a linear span U(F) with a saturated integer
basis. Restricting the coordinate functionals of R^L to U(F) and reading them
in the dual basis yields one integer point per lattice element; their convex
hull is the weight polytope of F. The distinguished faces, one per part of
F's regular subdivision, are certified through the projection dual to the
span inclusion U(apex) ⊆ U(F) and the affine change of coordinates between
the order polytope and the apex weight polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cone import Face, face_of, span_of_face
from .exactgeom import (
    AffineMap,
    LatticePolytope,
    Vec,
    affine_map_through,
    integer_points,
    is_integral,
    rank,
    same_lattice,
    solve_linear,
    to_vec,
    vdot,
    vsub,
    zero_vec,
)
from .poset import down_closed
from .subdivision import face_subdivision


@dataclass(frozen=True)
class WeightPolytope:
    """Hull of the dual-basis coordinates of the coordinate functionals.

    `basis` rows span U(F) ∩ Z^L and are saturated, so "integer point" has
    an unambiguous meaning in the dual coordinates. `points[a]` is the
    vector (b_1[a], ..., b_d[a]) for the basis rows b_i.
    """

    face: Face
    basis: tuple[tuple[int, ...], ...]
    points: dict[str, tuple[int, ...]]
    polytope: LatticePolytope

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
    poly = LatticePolytope(list(points.values()))
    # every coordinate functional is a vertex, and nothing else is integral
    assert len(set(points.values())) == L.size
    assert len(poly.vertices) == L.size
    assert set(integer_points(poly)) == set(points.values())
    assert poly.dim == F.dim - 1
    return WeightPolytope(F, basis, points, poly)


def _inclusion_matrix(basis_g, basis_f) -> list[list[Fraction]]:
    # rows of basis(F) written in coordinates over basis(G)
    cols = list(zip(*basis_g))
    out = []
    for row in basis_f:
        x = solve_linear(cols, row)
        assert x is not None, "span of the subface must sit inside the span"
        assert is_integral(x)
        out.append(x)
    return out


def _apex_weight_polytope(K) -> WeightPolytope:
    return weight_polytope(face_of(K, zero_vec(K.lattice.size)))


def _zeta_for(apex: WeightPolytope) -> AffineMap:
    L = apex.face.cone.lattice
    inputs = [L.indicator(a) for a in L.elements]
    outputs = [apex.points[a] for a in L.elements]
    m = affine_map_through(inputs, outputs)
    assert m is not None
    assert rank(m.matrix) == L.poset_P.size, "map must be injective on R^P"
    assert is_integral(m.offset) and all(is_integral(r) for r in m.matrix)
    columns = [list(col) for col in zip(*m.matrix)]
    lb = apex.polytope.lattice_basis
    assert lb is not None and same_lattice(columns, [list(r) for r in lb])
    return m


def invert_affine(m: AffineMap, point: Sequence) -> Vec:
    """The unique preimage under an injective affine map; raises if the
    point is off the image."""
    rhs = vsub(to_vec(point), m.offset)
    x = solve_linear(m.matrix, rhs)
    assert x is not None, "point is outside the affine image"
    assert m(x) == tuple(point), "point is outside the affine image"
    return tuple(x)


@dataclass(frozen=True)
class DistinguishedFace:
    """A face of the weight polytope cut out by one subdivision part.

    `separator` is the certifying functional, given per lattice element: it
    vanishes exactly on `elements` and is at least 1 elsewhere.
    """

    elements: tuple[str, ...]
    separator: tuple[Fraction, ...]
    polytope: LatticePolytope


def distinguished_faces(W: WeightPolytope) -> list[DistinguishedFace]:
    """One face of the weight polytope W of a face F per part of F's regular
    subdivision.

    Each face is the hull of the projected chain simplices of the part's
    extensions. Certified three ways: a separating functional inside the
    face's span, dimension |P|, and a bijection with the part's order
    polytope vertices through the apex identification.
    """
    F = W.face
    L = F.cone.lattice
    sub = face_subdivision(F)
    apex = W if F.is_apex else _apex_weight_polytope(F.cone)
    zmap = _zeta_for(apex)
    # restriction to the apex span, the projection dual to U(apex) ⊆ U(F)
    to_apex = _inclusion_matrix(W.basis, apex.basis)
    basis_cols = list(zip(*W.basis))
    masks = L.masks()
    out = []
    for part in sub.parts:
        members = set(part.vertex_elements)
        # the part's map minus w, times den; the separator scales it so its
        # least positive value is at least 1
        raw = [v - x for v, x in zip(part.values, sub.scaled)]
        positive = [x for x in raw if x > 0]
        assert all(x == 0 for a, x in zip(L.elements, raw) if a in members)
        assert len(positive) == L.size - len(members)
        scale = max([1] + [-(-sub.den // x) for x in positive])
        sep = tuple(Fraction(x * scale, sub.den) for x in raw)
        # the functional lives in the face's span, so it cuts a genuine face
        assert solve_linear(basis_cols, sep) is not None
        pts = [W.points[a] for a in part.vertex_elements]
        poly = LatticePolytope(pts)
        assert len(poly.vertices) == len(members)
        assert poly.dim == L.poset_P.size
        for a in part.vertex_elements:
            back = invert_affine(zmap, tuple(vdot(row, W.points[a]) for row in to_apex))
            assert back == L.indicator(a)
        # the vertices are the elements whose ideals are the order's ideals
        closed = down_closed(part.order, masks)
        assert members == {a for a, ok in zip(L.elements, closed) if ok}
        out.append(DistinguishedFace(part.vertex_elements, sep, poly))
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
