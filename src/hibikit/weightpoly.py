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
one exact integer solve, which asserts that its solution exists, is unique
and is integral.

The apex span U(apex), the modular functions on L, is read in its indicator
coordinates: the all-ones row, then one row per element j of P, 1 on the
ideals that hold j. These |P| + 1 rows are a basis of the integer modular
functions too, since a modular function is its value at the bottom plus one
increment per element of P, each the difference of two of its values.
The solve writes the rows over F's basis, as the integer map pi with
pi(p_a) = (1, 1_a) for every a, 1_a the indicator of a's ideal: it exists,
so U(apex) ⊆ U(F); it is integral, so it maps W's lattice Z^d into
Z^(|P|+1). So pi(W) = {1} × O(P), and the map zeta: x -> (1, x) that
pi(p_a) = zeta(1_a) reads through is injective and onto its lattice by
construction.

O(P) is a 0/1 polytope whose integer points are its vertices, the ideal
indicators. The fiber of pi over a vertex (1, 1_a) of pi(W) is a face of W,
the hull of the points p_b with 1_b = 1_a, so p_a alone. So an integer
point y of W, whose image pi(y) is an integer point of {1} × O(P) and so
some (1, 1_a), is p_a: W's integer points are exactly its |L| points, and
each is a vertex.

The distinguished faces, one per part of F's regular subdivision, are
written as the part's vertex labels, read off its vertex mask. Each face is
the hull of the projected chain simplices of the part's extensions, and
what certifies it was certified before:

- the separator, the part's values minus the weight, is zero on the part's
  vertices, the set where regular_subdivision found the values meet the
  weight, and at least 1 elsewhere, by its envelope check. It lies in
  U(F): the values are modular (the peel adds one alpha per element),
  c + alpha·1_x, a combination of the apex span's indicator rows, which
  weight_polytope's solve certifies inside U(F), and face_subdivision
  asserts that the weight is tight on F's pairs. So, written over the
  saturated basis, it is an integer functional on W that cuts a genuine
  face;
- the members are the ideals of the part's order, the vertices of its
  order polytope O_part, a sublattice C of L: the checks that
  regular_subdivision builds every part with imply this (the subdivision
  module docstring gives the argument);
- the members' points span dimension |P|. At least |P|: C holds a full
  chain simplex, whose |P| + 1 points pi sends to the affinely independent
  (1, 1_a) of the chain's ideals. At most |P|: C's covers add one element
  of P each, so C's diamonds are diamonds of L; the weight is affine on C,
  so they are tight on F, and every function in U(F) is modular on C's
  diamonds, so affine on the distributive lattice C, a space of dimension
  |P| + 1.

The face needs no hull. weight_polytope's solve certified
pi(p_a) = (1, 1_a) for every a, so pi(W) = {1} × O(P), the fiber of pi
over a vertex (1, 1_a) holds p_a alone and W has no other integer point
(Sturmfels 1996, ch. 4). pi maps the face onto {1} × O_part, which has the
members' images as its distinct vertices. Were some member's point a
convex combination of the others, its image would be the same convex
combination of theirs, which is impossible; so the members' points are the
face's vertices. Points and faces are indexed by element; labels are read
only in weight_polytope_json.
"""

from __future__ import annotations

from typing import Sequence

from .cone import Face, span_of_face
from .exactgeom import _echelon
from .poset import _bits
from .subdivision import face_subdivision

Matrix = tuple[tuple[int, ...], ...]


def weight_polytope(F: Face) -> Matrix:
    """The saturated basis of U(F), whose columns are the points of F's
    weight polytope, certified through its apex projection by one exact
    solve, as the module docstring argues."""
    L = F.cone.lattice
    basis = span_of_face(F)
    n = L.poset_P.size
    # pi, transposed: the X with p_a·X = (1, 1_a) for every element a
    indicators = [(1, *(m >> j & 1 for j in range(n))) for m in L.masks]
    _integral_solution(tuple(zip(*basis)), indicators)
    return basis


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


def weight_polytope_json(F: Face) -> dict:
    basis = weight_polytope(F)
    E = F.cone.lattice.elements
    return {
        "face": F.key(),
        "basis": [list(row) for row in basis],
        "points": {a: list(p) for a, p in zip(E, zip(*basis))},
        "distinguished": [[E[i] for i in _bits(part.vertex_mask)]
                          for part in face_subdivision(F).parts],
    }
