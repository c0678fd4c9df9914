"""Regular subdivisions of the order polytope induced by weights in K-bar.

A weight w on the lattice elements interpolates to a unique affine map on
each staircase simplex of the order polytope (one simplex per linear
extension of P). Extensions with the same affine map merge into one part;
each part is again an order polytope O(P, order) for a stronger order.

Orientation is pinned to the inequality g_i(v_a) >= w_a: every part's map
weakly overestimates the weight off its own vertex set, with equality
exactly on it. The code verifies this on every element rather than trusting
convexity adjectives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cone import Face, MaxCone, face_of, pair_normal, sample_relative_interior, span_of_face
from .exactgeom import (
    AffineMap,
    LatticePolytope,
    Vec,
    fraction_pair,
    hull_vertices,
    to_vec,
    vadd,
    vdot,
    vscale,
)
from .lattice import Lattice, diamond_pairs
from .poset import LinearExtension, Poset, intersect_orders, is_stronger, order_ideals


@dataclass(frozen=True)
class Part:
    """One linearity domain of the envelope: the order polytope O(P, order)."""

    order: Poset
    affine: AffineMap
    simplices: tuple[LinearExtension, ...]
    vertex_elements: tuple[str, ...]

    @property
    def alpha(self) -> Vec:
        return self.affine.matrix[0]

    def value(self, point: Sequence) -> Fraction:
        return self.affine(point)[0]


class Subdivision:
    def __init__(self, lattice: Lattice, weight: Vec, parts: tuple[Part, ...], face_key: str):
        self.lattice = lattice
        self.weight = weight
        self.parts = parts
        self.face_key = face_key

    def structure(self) -> frozenset:
        """Weight-independent identity: the parts as (vertex set, order)."""
        return frozenset(
            (p.vertex_elements, p.order.label_pairs()) for p in self.parts)

    def part_of(self, ext: LinearExtension) -> int:
        for i, p in enumerate(self.parts):
            if ext in p.simplices:
                return i
        raise ValueError("extension not covered by any part")

    def __eq__(self, other):
        return (isinstance(other, Subdivision)
                and self.lattice.elements == other.lattice.elements
                and self.structure() == other.structure())

    def __hash__(self):
        return hash((self.lattice.elements, self.structure()))

    def __repr__(self):
        return f"Subdivision({len(self.parts)} parts, face {self.face_key})"


def _tight_key(L: Lattice, w: Vec) -> str:
    """Canonical key of the face holding w. NotInCone if w violates some
    diamond inequality."""
    pairs = diamond_pairs(L)
    normals = [pair_normal(L, d) for d in pairs]
    return face_of(MaxCone(L, pairs, normals), w).key()


def regular_subdivision(L: Lattice, w: Sequence) -> Subdivision:
    """Interpolate w over every staircase simplex, merge equal affine maps,
    and verify each merged class is the order polytope of the intersected
    order with the envelope inequality holding on all of L."""
    w = to_vec(w)
    if len(w) != L.size:
        raise ValueError("weight has wrong dimension")
    key = _tight_key(L, w)  # also checks w in K-bar
    P = L.poset_P
    n = P.size
    wt = {a: w[i] for i, a in enumerate(L.elements)}

    groups: dict[tuple, list[LinearExtension]] = {}
    for ext in L.extensions():
        # vertices of the simplex are the prefix-ideal indicators; the
        # interpolating map has alpha[p_k] = w_{a_k} - w_{a_{k-1}}
        const = wt[L.bottom]
        alpha = [Fraction(0)] * n
        chain = L.chain(ext)
        for p, lo, hi in zip(ext.order, chain, chain[1:]):
            alpha[P.index(p)] = wt[hi] - wt[lo]
        groups.setdefault((tuple(alpha), const), []).append(ext)

    parts = []
    for (alpha, const), exts in sorted(groups.items()):
        affine = AffineMap((tuple(alpha),), (const,))
        order = intersect_orders([e.as_poset() for e in exts])
        if not is_stronger(order, P):
            raise AssertionError("part order must refine P")
        on_chains = set().union(*(L.chain(e) for e in exts))
        if {L.iota[a] for a in on_chains} != set(order_ideals(order)):
            raise AssertionError("part is not the order polytope of its order")
        vertex_elements = tuple(a for a in L.elements if a in on_chains)
        parts.append(Part(order, affine, tuple(exts), vertex_elements))

    # envelope: every part overestimates w on all of L, tight exactly on
    # its own vertices
    for part in parts:
        on_part = set(part.vertex_elements)
        for a in L.elements:
            value = part.value(L.indicator(a))
            if a in on_part:
                if value != wt[a]:
                    raise AssertionError("part map must interpolate w on its vertices")
            elif value < wt[a]:
                raise AssertionError("envelope inequality fails")
            elif value == wt[a]:
                raise AssertionError("tight value off the part's vertex set")
    return Subdivision(L, w, tuple(parts), key)


def face_subdivision(F: Face) -> Subdivision:
    """The subdivision of the face: regular_subdivision at an interior
    sample, verified against the tightness/same-part correspondence."""
    L = F.cone.lattice
    w = sample_relative_interior(F)
    sub = regular_subdivision(L, w)
    if sub.face_key != F.key():
        raise AssertionError("sample does not lie in the face's relative interior")

    tight_pairs = {frozenset((d.a, d.b)) for d in F.tight}
    graph = adjacency_graph(L)
    seen_pairs = set()
    for i, j in graph.edges:
        ei, ej = graph.extensions[i], graph.extensions[j]
        pair = frozenset(L.chain(ei)) ^ frozenset(L.chain(ej))
        seen_pairs.add(pair)
        same_part = sub.part_of(ei) == sub.part_of(ej)
        if same_part != (pair in tight_pairs):
            raise AssertionError(
                "tight diamond pairs must match same-part adjacencies")
    all_pairs = {frozenset((d.a, d.b)) for d in diamond_pairs(L)}
    if not all_pairs <= seen_pairs:
        raise AssertionError("every diamond pair needs a witnessing adjacency")
    return sub


def subdivision_invariance_check(F: Face, trials: int, seed: int = 0) -> bool:
    """Draw `trials` distinct relative-interior points of F and compare the
    subdivisions they induce (same part set with same orders)."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    L = F.cone.lattice
    base = sample_relative_interior(F)
    span = span_of_face(F)
    rng = random.Random(seed)
    samples = [base]
    attempts = 0
    while len(samples) < trials:
        attempts += 1
        if attempts > 1000:
            raise AssertionError("could not draw enough distinct samples")
        shift = tuple(Fraction(0) for _ in L.elements)
        for row in span:
            shift = vadd(shift, vscale(rng.randint(-3, 3), to_vec(row)))
        bound = max((abs(vdot(normal, shift)) for normal in F.cone.normals),
                    default=Fraction(0))
        candidate = vadd(vscale(bound + 1, base), shift)
        if candidate not in samples:
            samples.append(candidate)
    subs = []
    for w in samples:
        if _tight_key(L, w) != F.key():
            raise AssertionError("perturbed sample left the relative interior")
        subs.append(regular_subdivision(L, w))
    return all(s.structure() == subs[0].structure() for s in subs)


@dataclass(frozen=True)
class AdjacencyGraph:
    extensions: tuple[LinearExtension, ...]
    edges: tuple[tuple[int, int], ...]

    def degree(self, i: int) -> int:
        return sum(1 for e in self.edges if i in e)


def adjacency_graph(L: Lattice) -> AdjacencyGraph:
    """Extensions adjacent when their staircase simplices share a facet.

    Three equivalent tests are computed and cross-checked: the maximal
    chains differ in exactly one element; the tuples differ by one adjacent
    transposition; the chain difference is a diamond pair.
    """
    exts = L.extensions()
    chains = [frozenset(L.chain(e)) for e in exts]
    pair_set = {frozenset((d.a, d.b)) for d in diamond_pairs(L)}
    edges = []
    for i in range(len(exts)):
        for j in range(i + 1, len(exts)):
            diff = chains[i] ^ chains[j]
            by_chain = len(diff) == 2
            oi, oj = exts[i].order, exts[j].order
            spots = [k for k in range(len(oi)) if oi[k] != oj[k]]
            by_swap = (len(spots) == 2 and spots[1] == spots[0] + 1
                       and oi[spots[0]] == oj[spots[1]]
                       and oi[spots[1]] == oj[spots[0]])
            by_diamond = len(diff) == 2 and frozenset(diff) in pair_set
            if by_chain != by_swap or by_swap != by_diamond:
                raise AssertionError(
                    "adjacency characterizations disagree on "
                    f"{exts[i].order} / {exts[j].order}")
            if by_chain:
                edges.append((i, j))
    return AdjacencyGraph(tuple(exts), tuple(edges))


def generalized_permutahedron(L: Lattice, w: Sequence) -> LatticePolytope:
    """Convex hull of the negated linear parts -alpha_i over the parts of
    the subdivision of w. For Boolean lattices, u = -w is checked
    submodular over all pairs of ideals."""
    sub = regular_subdivision(L, w)
    w = sub.weight
    wt = {a: w[i] for i, a in enumerate(L.elements)}
    points = []
    for part in sub.parts:
        if part.affine.offset[0] != wt[L.bottom]:
            raise AssertionError("part constant must be the bottom weight")
        points.append(vscale(-1, part.alpha))

    if not L.poset_P.label_pairs():  # Boolean lattice: antichain poset
        u = {frozenset(L.iota[a]): -wt[a] for a in L.elements}
        for A in u:
            for B in u:
                if u[A] + u[B] < u[A & B] + u[A | B]:
                    raise AssertionError("-w is not submodular")
    return LatticePolytope(hull_vertices(points), already_extreme=True)


def subdivision_json(sub: Subdivision) -> dict:
    parts = []
    for p in sub.parts:
        parts.append({
            "order_covers": [[a, b] for a, b in p.order.covers()],
            "elements": list(p.vertex_elements),
            "alpha": [fraction_pair(x) for x in p.alpha],
        })
    return {
        "weight": [fraction_pair(x) for x in sub.weight],
        "parts": parts,
    }
