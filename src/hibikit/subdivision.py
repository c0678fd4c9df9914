"""Regular subdivisions of the order polytope induced by weights in K-bar.

A weight w on the lattice elements interpolates to a unique affine map on
each staircase simplex of the order polytope (one simplex per linear
extension of P). Extensions with the same affine map merge into one part;
each part is again an order polytope O(P, order) for a stronger order.

The work runs on integers: the weight is an integer tuple over one
positive den, reduced once to lowest terms, so each part's map is
x -> (c + alpha·x) / den with an integer alpha, where the constant c is
the bottom weight, as every chain starts at the bottom. The tight
pairs come from each diamond pair's value at the weight, with no cone
needed, and a part holds its vertices as a mask over L's elements, whose
labels only subdivision_json reads.

Orientation is pinned to the inequality g_i(v_a) >= w_a: every part's map
weakly overestimates the weight off its own vertex set, with equality
exactly on it. The code verifies this on every element rather than trusting
convexity adjectives.

That each part is an order polytope needs no check of its own. Take a
part with members M, the extensions merged into it, map g, and vertex set
S, the union of the members' chains, whose sets are the members' prefixes.
regular_subdivision asserts that w is in K-bar, that g interpolates w on S,
and that g >= w on all of L with equality exactly on S. Its order is the
AND of the members' before masks, and four steps make the part O(P, order):

- Order: an AND of linear orders that extend P is a partial order refining
  P.
- Closure: for x, y in S, g(x∪y) + g(x∩y) = g(x) + g(y) = w(x) + w(y) <=
  w(x∪y) + w(x∩y) <= g(x∪y) + g(x∩y). The equalities hold as g is affine,
  with 1_x + 1_y = 1_{x∪y} + 1_{x∩y}, and meets w on S; the first
  inequality as w in K-bar is supermodular (local to global on a
  distributive lattice), the second by the envelope. So equality holds
  throughout, and x∪y and x∩y are vertices.
- Ideals: S is then a sublattice of 2^P that holds a full chain from ∅ to
  P, a member's, so it is the ideal set of the order "every vertex holding
  y holds x" (Birkhoff 1937). Every member extends that order, as its prefixes are
  vertices.
- Members: every linear extension of that order has its prefixes in S,
  where g interpolates w, so its own map is g and it is a member. So the
  members are that order's linear extensions, and the order, the AND of
  its linear extensions, is the AND of the members' before masks.

The argument takes one fact from the staircase table: each chain holds
|P| + 1 distinct elements. A wrong chain entry that repeats an element of
its own chain can leave the map checks passing, so a part with one member
is checked to have |P| + 1 vertices.

The parts are the same at every point of a face. Swap fact: staircase
simplices one adjacent swap apart, of p and q after the ideal m, have the
same map iff the diamond pair (m∪p, m∪q) is tight. For the first one's map
g is affine, so g(m∪q) = w(m) + w(m∪p∪q) - w(m∪p) misses w(m∪q) by exactly
the diamond's value, >= 0 at every w in K-bar; at 0, g is the second's map.
By the members step a part's simplices are the linear extensions of its
order, joined by adjacent swaps of elements incomparable there, so in P
(bubble sort). So the parts are the components of the swap edges whose
pair is tight, which depend on the face alone, as do a part's vertex set
and order, read off its members. subdivision_invariance_check tests this,
and face_subdivision runs it on every face.
"""

from __future__ import annotations

from math import gcd
from operator import and_, eq, lt
from typing import NamedTuple, Sequence

from .cone import Face, _key_of, _tight_set, key_fragments
from .exactgeom import LatticePolytope, vector_pairs
from .lattice import Lattice, diamond_pairs
from .poset import _bits, _kept, cover_pairs


class Part(NamedTuple):
    """One linearity domain of the envelope: the order polytope O(P, order).

    below holds the order's down-set masks over P's elements, the AND of
    its simplices' before masks. Its map is x -> (c + alpha·x) / den on
    R^P, with the subdivision's den and c its bottom weight. Its simplices
    are its linear extensions, index tuples over P's elements. Bit i of
    vertex_mask is set when the i-th lattice element is a vertex.
    """

    below: tuple[int, ...]
    alpha: tuple[int, ...]
    simplices: tuple[tuple[int, ...], ...]
    vertex_mask: int


class Subdivision:
    """The parts of the subdivision of the weight scaled / den, in lowest
    terms; part_at[k] is the index of the part that holds the k-th linear
    extension of L.extensions(), and tight the mask over
    diamond_pairs(lattice), the cone's pair order, of the pairs tight at
    the weight."""

    def __init__(self, lattice: Lattice, scaled: tuple[int, ...], den: int,
                 parts: tuple[Part, ...], part_at: tuple[int, ...], tight: int):
        self.lattice = lattice
        self.scaled = scaled
        self.den = den
        self.parts = parts
        self.part_at = part_at
        self.tight = tight

    @property
    def face_key(self) -> str:
        """The key of the face holding the weight in its relative interior."""
        return _key_of(key_fragments(self.lattice), self.tight)

    def __repr__(self):
        return f"Subdivision({len(self.parts)} parts, face {self.face_key})"


class StaircaseTable(NamedTuple):
    """The weight-independent half of regular_subdivision, built once per
    lattice. For the k-th linear extension t of P, chains[k]
    holds the element indices of its maximal chain, the ideals of t's
    prefixes from the bottom up, and befores[k][p] the mask of the elements
    t puts before p. peel lists (i, parent, j) for every element i but the
    bottom, each after its parent's entry: j is a maximal member of i's
    ideal and parent the element whose ideal is i's without j."""

    chains: tuple[tuple[int, ...], ...]
    befores: tuple[tuple[int, ...], ...]
    peel: tuple[tuple[int, int, int], ...]


@_kept
def staircase_table(L: Lattice) -> StaircaseTable:
    """L's staircase table, built on first use."""
    at = L.at_mask
    n = L.poset_P.size
    chains, befores = [], []
    for ext in L.extensions():
        before = [0] * n
        chain = [at[0]]
        m = 0
        for j in ext:
            before[j] = m
            m |= 1 << j
            chain.append(at[m])
        chains.append(tuple(chain))
        befores.append(tuple(before))
    peel = []
    for i in sorted(range(L.size), key=lambda i: L.masks[i].bit_count())[1:]:
        m = L.masks[i]
        # removing a maximal member of an ideal leaves an ideal
        j = next(j for j in reversed(_bits(m)) if m ^ 1 << j in at)
        peel.append((i, at[m ^ 1 << j], j))
    return StaircaseTable(tuple(chains), tuple(befores), tuple(peel))


def regular_subdivision(L: Lattice, w: Sequence[int], den: int) -> Subdivision:
    """Interpolate the weight w / den, for integer w and den > 0, over every
    staircase simplex, merge equal affine maps, and check on all of L that
    each merged class's map interpolates w on its vertices and overestimates
    it elsewhere, which makes the class the order polytope of the AND of its
    before masks (the module docstring's argument). The mask of tight
    pairs, over the cone's order of diamond_pairs(L), comes from each
    pair's value at w.

    The chains, before masks and peel order come from L's staircase table,
    so the work per weight is one difference per chain step, one AND of
    before masks and one union of chains per merged extension, and one add
    per element and part."""
    if len(w) != L.size:
        raise ValueError("weight has wrong dimension")
    g = gcd(den, *w)
    ws = tuple(x // g for x in w)
    den //= g
    tight = _tight_set(L, ws, den)  # also checks w in K-bar
    n = L.poset_P.size
    exts = L.extensions()
    chains, befores, peel = staircase_table(L)

    # vertices of a simplex are its prefix-ideal indicators; the
    # interpolating map has alpha[p_k] = w_{a_k} - w_{a_{k-1}} along the
    # extension's chain a_0 < a_1 < ..., and every chain starts at the
    # bottom, so the maps of two extensions are equal iff their alphas are
    groups: dict[tuple, list[int]] = {}
    for k, (ext, chain) in enumerate(zip(exts, chains)):
        steps = [ws[i] for i in chain]
        alpha = [0] * n
        for j, low, high in zip(ext, steps, steps[1:]):
            alpha[j] = high - low
        groups.setdefault(tuple(alpha), []).append(k)

    bottom = ws[L.at_mask[0]]
    parts, part_at = [], [0] * len(exts)
    for alpha, members in sorted(groups.items()):
        below = befores[members[0]]
        on_chains = set(chains[members[0]])
        for k in members[1:]:
            below = tuple(map(and_, below, befores[k]))
            on_chains.update(chains[k])
        if len(members) == 1 and len(on_chains) != n + 1:
            raise AssertionError("a chain must hold |P| + 1 distinct elements")
        vertex_mask = 0
        for i in on_chains:
            vertex_mask |= 1 << i
        # envelope: the part overestimates w on all of L, tight exactly on
        # its own vertices; each value is its parent's plus one alpha. Once
        # the map meets w on every vertex and nowhere below it, as many
        # equal values as vertices leave none tight off the vertex set
        values = [bottom] * L.size
        for i, parent, j in peel:
            values[i] = values[parent] + alpha[j]
        if any(values[i] != ws[i] for i in on_chains):
            raise AssertionError("part map must interpolate w on its vertices")
        if any(map(lt, values, ws)):
            raise AssertionError("envelope inequality fails")
        if sum(map(eq, values, ws)) != len(on_chains):
            raise AssertionError("tight value off the part's vertex set")
        for k in members:
            part_at[k] = len(parts)
        parts.append(Part(below, alpha, tuple(map(exts.__getitem__, members)), vertex_mask))
    return Subdivision(L, ws, den, tuple(parts), tuple(part_at), tight)


@_kept
def face_subdivision(F: Face) -> Subdivision:
    """The subdivision of the face: regular_subdivision at its witness,
    whose tight mask must be the face's, certified by
    subdivision_invariance_check to have the tight swap components for its
    parts. Built and checked once per face."""
    sub = regular_subdivision(F.cone.lattice, *F.witness)
    if sub.tight != F.tight:
        raise AssertionError("sample does not lie in the face's relative interior")
    if not subdivision_invariance_check(sub):
        raise AssertionError("the parts must be the components of the tight swap edges")
    return sub


def subdivision_invariance_check(sub: Subdivision) -> bool:
    """Whether sub's parts are the same at every point of its face, as the
    components of the tight swap edges (module docstring): each edge joins
    one part iff its pair is tight, and there are as many components as
    parts. One union-find over adjacency_graph's edges, whose pairs index
    diamond_pairs(L), the order of sub.tight; nothing is sampled."""
    graph = adjacency_graph(sub.lattice)
    part = sub.part_at
    root = list(range(len(part)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    components = len(part)
    for (i, j), pair in zip(graph.edges, graph.pairs):
        if (part[i] == part[j]) != bool(sub.tight >> pair & 1):
            return False
        if part[i] == part[j]:
            i, j = find(i), find(j)
            if i != j:
                root[i] = j
                components -= 1
    return components == len(sub.parts)


class AdjacencyGraph(NamedTuple):
    """Edges index into L.extensions(); pairs[k] is the index in
    diamond_pairs(L) of the diamond pair by which the chains of edge k
    differ."""

    edges: tuple[tuple[int, int], ...]
    pairs: tuple[int, ...]


@_kept
def adjacency_graph(L: Lattice) -> AdjacencyGraph:
    """Extensions adjacent when their staircase simplices share a facet,
    built from adjacent swaps: t[k] and t[k+1] incomparable give the
    extension with the two swapped, whose maximal chain differs from t's
    across the diamond with meet m, the ideal before them, and sides
    m + t[k] and m + t[k+1]. Edges (i, j), i < j, are listed in order.
    Every diamond pair must label some edge, or face_subdivision could not
    read its tightness off the parts. Built and checked once per lattice."""
    exts = L.extensions()
    where = {t: i for i, t in enumerate(exts)}
    pairs = diamond_pairs(L)
    pair_of = {(d.a, d.b): k for k, d in enumerate(pairs)}
    at, below = L.at_mask, L.poset_P.below
    edges, edge_pairs = [], []
    for i, t in enumerate(exts):
        found = []
        m = 0
        for k in range(len(t) - 1):
            p, q = t[k], t[k + 1]
            if not below[q] >> p & 1:
                j = where[t[:k] + (q, p) + t[k + 2:]]
                if j > i:
                    pair = pair_of.get(tuple(sorted((at[m | 1 << p], at[m | 1 << q]))))
                    if pair is None:
                        raise AssertionError(
                            f"extensions {t} and {exts[j]} differ across no diamond pair")
                    found.append((j, pair))
            m |= 1 << p
        for j, pair in sorted(found):
            edges.append((i, j))
            edge_pairs.append(pair)
    if len(set(edge_pairs)) != len(pairs):
        raise AssertionError("every diamond pair needs a witnessing adjacency")
    return AdjacencyGraph(tuple(edges), tuple(edge_pairs))


def generalized_permutahedron(L: Lattice, w: Sequence[int], den: int) -> LatticePolytope:
    """Convex hull of the negated slopes -alpha_C over the parts C of the
    subdivision of w / den, as integer points over the subdivision's den;
    its normal fan, cut to O(P), is the fan of the parts (Postnikov 2009).
    On a distributive lattice the diamond inequalities, which
    regular_subdivision checks, make w supermodular on every pair of
    elements (local to global), so u = -w is submodular with no further
    check.

    Each -alpha_C is a vertex, on any lattice, by what regular_subdivision
    certified: every part's constant is the bottom weight c, as the part's
    map takes its constant at the bottom, where every chain starts, and
    interpolates w on its chains; so g_C(x) = (c + alpha_C·x) / den; g_C is
    >= w on all of L, with equality exactly on C's vertices; and the parts
    have distinct alpha. Take x inside a staircase simplex of C, a
    positive convex combination of its vertices. For another part C', g_C'(x) is that
    combination of g_C' at those vertices, where g_C' >= w = g_C, with > at
    one of them: were all equal, g_C' would interpolate w on a
    full-dimensional simplex, as g_C does, and so equal g_C. So
    alpha_C'·x > alpha_C·x for every C' != C: the functional y -> x·y is
    maximal over the slopes -alpha at -alpha_C alone, which is therefore a
    vertex, and the slopes are distinct."""
    sub = regular_subdivision(L, w, den)
    return LatticePolytope([tuple(-x for x in part.alpha) for part in sub.parts], sub.den)


def subdivision_json(sub: Subdivision) -> dict:
    L = sub.lattice
    E, names = L.elements, L.poset_P.elements
    parts = []
    for p in sub.parts:
        # a part with one simplex has that extension's chain for its order
        ext = p.simplices[0]
        covers = sorted(zip(ext, ext[1:])) if len(p.simplices) == 1 else cover_pairs(p.below)
        parts.append({
            "order_covers": [[names[i], names[j]] for i, j in covers],
            "elements": [E[i] for i in _bits(p.vertex_mask)],
            "alpha": vector_pairs(p.alpha, sub.den),
        })
    return {
        "weight": vector_pairs(sub.scaled, sub.den),
        "parts": parts,
    }
