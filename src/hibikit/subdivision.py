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

regular_subdivision builds the parts from the swap edges: staircase
simplices one adjacent swap apart, of p and q after the ideal m, share a
facet across the diamond pair (m∪p, m∪q). It joins the extensions by the
edges of the pairs tight at w, and no others, and takes each component's
map g from one member, the differences of w along its chain. It asserts
that w is in K-bar, that g >= w on all of L, that the set S where g
equals w is the union of the members' chains, so every member's chain
lies in S, and that no two components have the same S. Each chain of
the staircase table, built once per lattice, is a full chain: the
prefixes of a linear extension of P are |P| + 1 ideals of distinct sizes.
Four steps make the components the parts:

1. A map that interpolates w on a full chain is that chain's map: the
   chain's indicators are the vertices of its simplex, affinely
   independent.
2. So every member of a component, whose chain lies in S, has the
   component's map g.
3. S is the set where g meets w, so distinct S come from distinct maps:
   two components never share a map, and an extension's map, by step 2
   its component's, is no other component's. So no part is split, and
   the components are exactly the classes of equal maps.
4. A loose swap edge inside a component would give two extensions one
   map. The first one's map g is affine, so g(m∪q) = w(m) + w(m∪p∪q) -
   w(m∪p), which exceeds w(m∪q) by exactly the diamond's value; one map
   for both, which meets w at m∪q, makes that value 0 and the pair
   tight. So an edge joins one part iff its pair is tight, the per-edge
   test that a separate pass once ran.

The components depend on the tight mask alone, so the parts are the same
at every point of a face, as are a part's vertex set and order, read off
its members below by part_order. The steps read only that each chain lies
in S; that S holds nothing more, as the members step below shows it must,
checks the values the peel gives.

That each part is an order polytope needs no further check. Take a part
with members M, map g, and vertex set S. Its order is the AND of the
members' before masks, and four steps make the part O(P, order):

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
  y holds x" (Birkhoff 1937). Every member extends that order, as its
  prefixes are vertices.
- Members: every linear extension of that order has its prefixes in S,
  where g interpolates w, so its own map is g (step 1) and, by step 3, it
  is a member. So the members are that order's linear extensions, the
  order, the AND of its linear extensions, is the AND of the members'
  before masks, and S, each of whose ideals lies on some maximal chain, is
  the union of the members' chains.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd
from operator import attrgetter, eq, lt
from typing import NamedTuple, Sequence

from .cone import Face, _key_of, _tight_set, key_fragments
from .exactgeom import vector_pairs
from .lattice import Lattice, diamond_pairs
from .poset import _bits, _kept, cover_pairs


class Part(NamedTuple):
    """One linearity domain of the envelope: the order polytope O(P, order).

    Its map is x -> (c + alpha·x) / den on R^P, with the subdivision's den
    and c its bottom weight. Its simplices are its linear extensions, index
    tuples over P's elements, and part_order reads its order off them. Bit
    i of vertex_mask is set when the i-th lattice element is a vertex.
    """

    alpha: tuple[int, ...]
    simplices: tuple[tuple[int, ...], ...]
    vertex_mask: int


class Subdivision:
    """The parts of the subdivision of the weight scaled / den, in lowest
    terms, sorted by alpha, and tight the mask over diamond_pairs(lattice),
    the cone's pair order, of the pairs tight at the weight."""

    def __init__(self, lattice: Lattice, scaled: tuple[int, ...], den: int,
                 parts: tuple[Part, ...], tight: int):
        self.lattice = lattice
        self.scaled = scaled
        self.den = den
        self.parts = parts
        self.tight = tight

    @property
    def face_key(self) -> str:
        """The key of the face holding the weight in its relative interior."""
        return _key_of(key_fragments(self.lattice), self.tight)


class StaircaseTable(NamedTuple):
    """The weight-independent half of regular_subdivision, built once per
    lattice. For the k-th linear extension t of P, chains[k] is the mask
    over L's elements of its maximal chain, the ideals of t's prefixes,
    which hold 0, 1, ..., |P| elements and so are |P| + 1 distinct
    elements of L. peel lists (i, parent, j) for every
    element i but the bottom, each after its parent's entry: j is a maximal
    member of i's ideal and parent the element whose ideal is i's without
    j."""

    chains: tuple[int, ...]
    peel: tuple[tuple[int, int, int], ...]


@_kept
def staircase_table(L: Lattice) -> StaircaseTable:
    """L's staircase table, built on first use."""
    at = L.at_mask
    chains = []
    for ext in L.extensions():
        chain = 1 << at[0]
        m = 0
        for j in ext:
            m |= 1 << j
            chain |= 1 << at[m]
        chains.append(chain)
    peel = []
    for i in sorted(range(L.size), key=lambda i: L.masks[i].bit_count())[1:]:
        m = L.masks[i]
        # removing a maximal member of an ideal leaves an ideal
        j = next(j for j in reversed(_bits(m)) if m ^ 1 << j in at)
        peel.append((i, at[m ^ 1 << j], j))
    return StaircaseTable(tuple(chains), tuple(peel))


def regular_subdivision(L: Lattice, w: Sequence[int], den: int) -> Subdivision:
    """The parts of the subdivision of the weight w / den, for integer w
    and den > 0, built as the components of the swap edges whose diamond
    pair is tight at w and certified by the checks of the module
    docstring's argument: each component's map, read off one member's
    chain, is >= w on all of L and meets w on its members' chains alone,
    and no two components meet w on the same set. The mask of tight
    pairs, over the cone's order of diamond_pairs(L), comes from each
    pair's value at w.

    The chains and peel order come from L's staircase table, and the
    edges from its adjacency graph, read only when some pair is tight; so
    the work per weight is one union per tight edge, one difference per
    chain step and one add per element for each part, and one OR of a
    chain mask per extension."""
    if len(w) != L.size:
        raise ValueError("weight has wrong dimension")
    g = gcd(den, *w)
    ws = tuple(x // g for x in w)
    den //= g
    tight = _tight_set(L, ws, den)  # also checks w in K-bar
    n = L.poset_P.size
    exts = L.extensions()
    chains, peel = staircase_table(L)

    root = list(range(len(exts)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    edges = adjacency_graph(L) if tight else ()
    for pair in _bits(tight):
        for i, j in edges[pair]:
            root[find(i)] = find(j)
    components: dict[int, list[int]] = {}
    for k in range(len(exts)):
        components.setdefault(find(k), []).append(k)

    at = L.at_mask
    bottom = ws[at[0]]
    parts, vertex_sets = [], set()
    for members in components.values():
        # the first member's map: alpha[p_k] = w_{a_k} - w_{a_{k-1}} along
        # its chain a_0 < a_1 < ..., which starts at the bottom
        alpha = [0] * n
        m, low = 0, bottom
        for j in exts[members[0]]:
            m |= 1 << j
            high = ws[at[m]]
            alpha[j] = high - low
            low = high
        # its value at every element is its parent's plus one alpha
        values = [bottom] * L.size
        for i, parent, j in peel:
            values[i] = values[parent] + alpha[j]
        if any(map(lt, values, ws)):
            raise AssertionError("envelope inequality fails")
        vertex_mask = sum(1 << i for i in compress(count(), map(eq, values, ws)))
        on_chains = 0
        for k in members:
            on_chains |= chains[k]
        if on_chains != vertex_mask:
            raise AssertionError("a part's map must meet w on its members' chains alone")
        if vertex_mask in vertex_sets:
            raise AssertionError("two components must not share a vertex set")
        vertex_sets.add(vertex_mask)
        parts.append(Part(tuple(alpha), tuple(map(exts.__getitem__, members)), vertex_mask))
    parts.sort(key=attrgetter("alpha"))
    return Subdivision(L, ws, den, tuple(parts), tight)


def part_order(part: Part) -> tuple[int, ...]:
    """The part's order as down-set masks over P's elements: the AND of its
    simplices' before masks, bit i of entry p set when every simplex puts
    element i before p (the module docstring's Members step)."""
    below = [-1] * len(part.simplices[0])
    for ext in part.simplices:
        m = 0
        for j in ext:
            below[j] &= m
            m |= 1 << j
    return tuple(below)


@_kept
def face_subdivision(F: Face) -> Subdivision:
    """The subdivision of the face: regular_subdivision at its witness,
    whose tight mask must be the face's. Its construction certifies that
    its parts are the tight swap components, which depend on the face
    alone. Built once per face."""
    sub = regular_subdivision(F.cone.lattice, *F.witness)
    if sub.tight != F.tight:
        raise AssertionError("sample does not lie in the face's relative interior")
    return sub


@_kept
def adjacency_graph(L: Lattice) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The swap edges between L's staircase simplices, grouped by diamond
    pair: entry k lists the edges (i, j), i < j, indices into
    L.extensions(), in order, whose chains differ across the k-th pair of
    diamond_pairs(L). t[k] and t[k+1] incomparable give the extension with
    the two swapped, whose maximal chain differs from t's across the
    diamond with meet m, the ideal before them, and sides m + t[k] and
    m + t[k+1]. Built once per lattice.

    Every such swap lies across a diamond pair, and every diamond pair
    labels some edge, so the graph needs no check. What lies below t[k] or
    below t[k+1] comes before it in t, and t[k] is not below t[k+1], so it
    lies in m: both are minimal in m's complement, the addable elements p
    and q of a diamond that diamond_pairs lists at m. Conversely, for the diamond of m and
    its addable p and q, which are incomparable, a linear extension of m
    followed by p, q and a linear extension of the rest is an extension
    of P, whose swap of p and q is the edge."""
    exts = L.extensions()
    where = {t: i for i, t in enumerate(exts)}
    pairs = diamond_pairs(L)
    pair_of = {(d.a, d.b): k for k, d in enumerate(pairs)}
    at, below = L.at_mask, L.poset_P.below
    by_pair: list[list[tuple[int, int]]] = [[] for _ in pairs]
    for i, t in enumerate(exts):
        m = 0
        for k in range(len(t) - 1):
            p, q = t[k], t[k + 1]
            if not below[q] >> p & 1:
                j = where[t[:k] + (q, p) + t[k + 2:]]
                if j > i:
                    pair = pair_of[tuple(sorted((at[m | 1 << p], at[m | 1 << q])))]
                    by_pair[pair].append((i, j))
            m |= 1 << p
    return tuple(map(tuple, by_pair))


def generalized_permutahedron(L: Lattice, w: Sequence[int],
                              den: int) -> tuple[list[tuple[int, ...]], int]:
    """The vertices of the convex hull of the negated slopes -alpha_C over
    the parts C of the subdivision of w / den, as sorted integer points,
    and the subdivision's den, over which they stand; the hull's normal
    fan, cut to O(P), is the fan of the parts (Postnikov 2009). On a
    distributive lattice the diamond inequalities, which
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
    vertex, and the slopes are distinct. So the vertices are the slopes,
    each once, and there is at least one: every subdivision has a part, as
    every finite poset has a linear extension (the empty one has the empty
    extension), and each extension lies in a part."""
    sub = regular_subdivision(L, w, den)
    return sorted(tuple(-x for x in part.alpha) for part in sub.parts), sub.den


def subdivision_json(sub: Subdivision) -> dict:
    L = sub.lattice
    E, names = L.elements, L.poset_P.elements
    parts = []
    for p in sub.parts:
        # a part with one simplex has that extension's chain for its order
        ext = p.simplices[0]
        covers = (sorted(zip(ext, ext[1:])) if len(p.simplices) == 1
                  else cover_pairs(part_order(p)))
        parts.append({
            "order_covers": [[names[i], names[j]] for i, j in covers],
            "elements": [E[i] for i in _bits(p.vertex_mask)],
            "alpha": vector_pairs(p.alpha, sub.den),
        })
    return {
        "weight": vector_pairs(sub.scaled, sub.den),
        "parts": parts,
    }
