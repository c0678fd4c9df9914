"""The maximal Groebner cone K of a distributive lattice.

K lives in R^L. Its closure is cut out by one inequality per diamond pair
{a, b}: w_{a∧b} + w_{a∨b} - w_a - w_b >= 0. Faces are keyed by the set of
diamond equalities that hold on the whole face (the closed tight set), so
two descriptions of the same face compare equal.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import ceil
from typing import Optional, Sequence

from .errors import NotInCone, TooLarge
from .exactgeom import Vec, integer_kernel, lp_feasible, rank, to_vec, vadd, vdot, vscale, zero_vec
from .lattice import DiamondPair, Lattice, diamond_pairs

MAX_PAIRS = 20


def pair_normal(L: Lattice, d: DiamondPair) -> Vec:
    """e_{a∧b} + e_{a∨b} - e_a - e_b over the canonical element order."""
    v = [Fraction(0)] * L.size
    v[L.index(d.meet_elt)] += 1
    v[L.index(d.join_elt)] += 1
    v[L.index(d.a)] -= 1
    v[L.index(d.b)] -= 1
    return tuple(v)


class MaxCone:
    """The closed cone K-bar with its certified minimal H-description."""

    def __init__(self, lattice: Lattice, pairs: Sequence[DiamondPair], normals: Sequence[Vec]):
        self.lattice = lattice
        self.pairs: tuple[DiamondPair, ...] = tuple(pairs)
        self.normals: tuple[Vec, ...] = tuple(normals)

    @property
    def facet_inequalities(self) -> list[tuple[DiamondPair, Vec]]:
        return list(zip(self.pairs, self.normals))

    def __repr__(self):
        return f"MaxCone({len(self.pairs)} facets over {self.lattice!r})"


class Face:
    """A face of K-bar, identified by its closed tight set of diamond pairs."""

    def __init__(self, cone: MaxCone, tight_idx: frozenset[int], witness: Vec):
        self.cone = cone
        self.tight_idx = tight_idx
        self.tight: tuple[DiamondPair, ...] = tuple(
            cone.pairs[i] for i in sorted(tight_idx))
        self._witness = witness
        n = cone.lattice.size
        self.dim: int = n - rank([cone.normals[i] for i in sorted(tight_idx)])
        if len(tight_idx) == len(cone.pairs):
            # the apex is the lineality space; its dimension is |P|+1
            if self.dim != cone.lattice.poset_P.size + 1:
                raise AssertionError("apex dimension is not |P|+1")

    def key(self) -> str:
        pairs = sorted(sorted([d.a, d.b]) for d in self.tight)
        return json.dumps(pairs, separators=(",", ":"))

    @property
    def is_apex(self) -> bool:
        return len(self.tight_idx) == len(self.cone.pairs)

    @property
    def is_full(self) -> bool:
        return not self.tight_idx

    def __eq__(self, other):
        return (isinstance(other, Face)
                and self.cone.lattice.elements == other.cone.lattice.elements
                and self.tight_idx == other.tight_idx)

    def __hash__(self):
        return hash((self.cone.lattice.elements, self.tight_idx))

    def __repr__(self):
        return f"Face(dim {self.dim}, tight {self.key()})"


def cone_K(L: Lattice) -> MaxCone:
    """Build K-bar and certify every inequality facet-defining: for each
    pair there is a point with that equality exact and all others slack."""
    pairs = diamond_pairs(L)
    normals = [pair_normal(L, d) for d in pairs]
    n = L.size
    for i in range(len(pairs)):
        cons = [(normals[i], "=", 0)]
        cons += [(normals[k], ">=", 1) for k in range(len(pairs)) if k != i]
        if lp_feasible(cons, n) is None:
            raise AssertionError(
                f"inequality for {pairs[i].key()} is not facet-defining")
    return MaxCone(L, pairs, normals)


def face_of(K: MaxCone, w: Sequence) -> Face:
    """The unique face holding w in its relative interior.

    The tight set at a point is automatically closed: the facets tight at w
    are exactly the facets containing the minimal face through w.
    """
    w = to_vec(w)
    if len(w) != K.lattice.size:
        raise ValueError("point has wrong dimension")
    tight = set()
    for i, normal in enumerate(K.normals):
        value = vdot(normal, w)
        if value < 0:
            d = K.pairs[i]
            raise NotInCone(
                f"w_{{{d.meet_elt}}}+w_{{{d.join_elt}}}-w_{{{d.a}}}-w_{{{d.b}}}"
                f" = {value} < 0")
        if value == 0:
            tight.add(i)
    return Face(K, frozenset(tight), w)


def span_of_face(F: Face) -> list[list[int]]:
    """Saturated integer basis of {w : equality for every tight pair}."""
    n = F.cone.lattice.size
    rows = [[int(x) for x in F.cone.normals[i]] for i in sorted(F.tight_idx)]
    if not rows:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return integer_kernel(rows)


def sample_relative_interior(F: Face) -> Vec:
    """Exact relative-interior witness: tight equalities exact, every other
    diamond inequality slack at least 1."""
    K = F.cone
    n = K.lattice.size
    loose = [k for k in range(len(K.pairs)) if k not in F.tight_idx]
    if not loose:
        return zero_vec(n)
    w = F._witness
    low = min(vdot(K.normals[k], w) for k in loose)
    if low <= 0:
        # face_of and enumerate_faces both build witnesses slack on every
        # loose pair
        raise AssertionError("face witness is not slack on every loose pair")
    if low < 1:
        w = vscale(ceil(Fraction(1) / low), w)
    return w


def _close_tight(K: MaxCone, tight: frozenset[int]) -> tuple[frozenset[int], Optional[Vec]]:
    """Close a tight set against K-bar and produce an interior witness.

    A pair k is implied when {tight equalities, all inequalities, slack >= 1
    on k} is infeasible. Implied equalities do not change the face, so the
    implied set depends only on the input and one pass suffices.
    """
    n = K.lattice.size
    m = len(K.pairs)
    closed = set(tight)
    witness = zero_vec(n)
    any_loose = False
    base = [(K.normals[i], "=", 0) for i in sorted(tight)]
    base += [(K.normals[j], ">=", 0) for j in range(m) if j not in tight]
    for k in range(m):
        if k in tight:
            continue
        x = lp_feasible(base + [(K.normals[k], ">=", 1)], n)
        if x is None:
            closed.add(k)
        else:
            any_loose = True
            witness = vadd(witness, x)
    if not any_loose:
        witness = zero_vec(n)
    return frozenset(closed), witness


def enumerate_faces(K: MaxCone) -> list[Face]:
    """All faces of K-bar, by iterating subsets of diamond pairs and keeping
    those that equal their own closure. Exponential by design."""
    m = len(K.pairs)
    if m > MAX_PAIRS:
        raise TooLarge(f"{m} diamond pairs; enumeration is capped at {MAX_PAIRS}")
    faces = []
    for mask in range(1 << m):
        subset = frozenset(i for i in range(m) if mask >> i & 1)
        closed, witness = _close_tight(K, subset)
        if closed == subset:
            faces.append(Face(K, closed, witness))
    return faces
