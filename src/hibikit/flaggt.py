"""Marked order polytopes and the Gelfand-Tsetlin specialization of the
flag lattices.

Flag lattice elements (lattice.flag_lattice) are increasing index tuples
written as digit strings ("13" for a_{1,3}). The triangular poset lives on
labels "p{r}{s}" for 1 <= r <= s <= n; the two corner cells p11 and pnn
only appear in the extended ground set that marked polytopes are defined
on. Pbar sorts the cells by (r, s), so the corners are its first and
last cells, and cell j of the triangular poset gt_poset(n) is cell j + 1
of Pbar.

Every computation holds one point format: a point of R^{Pbar}, or of any
marked poset's ground set, is an int tuple over the base poset's element
order, and a marking is one value per index (None on a free element).
Orders are read through Poset.below masks and cover index pairs, and each
flag element's order ideal is a bitmask over gt_poset(n). These, and the
sections' inputs, the vertices and the census from their first use, are
built once per rank and process as one GelfandTsetlin (gelfand_tsetlin(n)),
which every step of a job reads; so a job on a rank built before pays for
its own face, sections and output alone. The command line keeps each
face's sections too, for the last 32 (context, face) pairs that gt jobs
named (cli._gt_sections), so a job on a face named before on its rank, by
any spelling, pays for its output alone; one face's sections hold
2.6-4.6 KB for n = 3, 4.7-43 KB for n = 4 and up to 1.8 MB for n = 5's
full face (tracemalloc). Every rank's context, with its
section inputs for n <= MAX_SECTION_RANK, holds about 0.8 MB in all
(tracemalloc). The vertices hold 0.16 MB more for n <= 5 and 2.2 MB for
n = 6, whose 4,884 vertices take about 3 s to build.

Every Gelfand-Tsetlin computation runs on the (n-1)-scaled integer
lattice, where the marking of p_{r,r} is n - r: the census, the patterns,
the vertices and the sections of a subdivision. Nothing searches for
points. The census reads each chain's section off its H-description. The
patterns are walked off the chains of the flag lattice, each the sum of
its chain's 0/1 flag points; the vertices are the patterns the tight
graph anchors, and each section's points are the patterns whose chain
lies in its part's vertex set. A GTVertex keeps its scaled integer point
and decomposition, and each section's polytope its scaled integer points
over den = n - 1; they are divided by n - 1 only when written out.

Nothing runs a double description either. A section is the marked order
polytope of its part's order, which its covers cut out (Ardila, Bliem &
Salazar 2011; Pegel, Order 2018), so its facets are the covers touching a
free cell whose tight vertex sets are proper and inclusion-maximal among
the covers' tight sets (section_facets). No cover touching a free cell may
be tight on every vertex: that certifies the section full-dimensional, with
no rank.

The census and the vertices run to n = MAX_GT_RANK; the sections, whose
full face at n = 6 would have 33,592 parts, stop at MAX_SECTION_RANK.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from typing import NamedTuple, Optional, Sequence

from .cone import Face
from .errors import BadParams, TooLarge
from .exactgeom import LatticePolytope
from .lattice import Lattice, _label_of, flag_lattice
from .poset import Poset, _bits, _kept, ideal_masks, linear_extensions
from .subdivision import face_subdivision, part_order

MAX_GT_RANK = 6
MAX_SECTION_RANK = 5


# -- the triangular poset ----------------------------------------------------


def _cell(r: int, s: int) -> str:
    return f"p{r}{s}"


def _triangle(n: int, corners: bool) -> Poset:
    """The cells p_{r,s}, 1 <= r <= s <= n, sorted by (r, s) and ordered
    componentwise, which is already transitive; the two corners p11
    and pnn only when `corners` is set."""
    if n < 2:
        raise BadParams("need n >= 2")
    cells = [(r, s) for r in range(1, n + 1) for s in range(r, n + 1)
             if corners or (r, s) not in ((1, 1), (n, n))]
    below = [sum(1 << i for i, (a, b) in enumerate(cells)
                 if a <= r and b <= s and (a, b) != (r, s))
             for r, s in cells]
    return Poset(tuple(_cell(r, s) for r, s in cells), tuple(below))


def gt_poset(n: int) -> Poset:
    """Cells p_{r,s}, 1 <= r <= s <= n without the two corners, ordered
    componentwise."""
    return _triangle(n, corners=False)


def _phi(n: int, pt: Poset) -> dict[str, int]:
    # each flag element as an order ideal of the triangular poset pt, a
    # bitmask over its cells: column n-j+1 holds rows 1..i_j-j, plus every
    # full column left of n-k+1
    out = {}
    for k in range(1, n):
        for combo in itertools.combinations(range(1, n + 1), k):
            cells = {(t, n - j + 1) for j, ij in enumerate(combo, start=1)
                     for t in range(1, ij - j + 1)}
            cells |= {(r, s) for s in range(1, n - k + 1) for r in range(1, s + 1)}
            cells.discard((1, 1))
            out[_label_of(combo)] = sum(1 << pt.index(_cell(r, s)) for r, s in cells)
    return out


def gt_poset_iso(gt: GelfandTsetlin, L: Lattice) -> dict[str, str]:
    """The label map that identifies the triangular poset gt.poset with the
    poset of join-irreducibles of L, which must be flag_lattice(gt.n).

    phi is checked to be a bijection onto the triangle's order ideals that
    preserves and reflects the order: the identification of L with the
    triangle's ideals (Ardila, Bliem & Salazar 2011). Such a bijection
    between two lattices is a lattice isomorphism, so phi takes joins to
    unions and meets to intersections, and join-irreducibles to
    join-irreducibles. In a lattice of order ideals those are the
    principal ideals, one per cell, so each irreducible of L maps to a
    principal ideal, and the irreducibles go one-to-one onto the cells.
    The mapping is then an order isomorphism, which is checked on the two
    posets' relations."""
    pt, phi = gt.poset, gt.phi
    if sorted(phi.values()) != sorted(ideal_masks(pt)):
        raise AssertionError("phi must be a bijection onto the order ideals of the triangle")
    # phi as a list over L's element indices, compared on L's ideal masks
    ph = [phi[a] for a in L.elements]
    for (ma, pa), (mb, pb) in itertools.product(zip(L.masks, ph), repeat=2):
        if (not ma & ~mb) != (not pa & ~pb):
            raise AssertionError("phi must preserve and reflect the order")
    principal = {m | 1 << j: p for j, (p, m) in enumerate(zip(pt.elements, pt.below))}
    mapping = {t: principal[phi[t]] for t in L.poset_P.elements}
    if {(mapping[s], mapping[t]) for s, t in L.poset_P.label_pairs()} != pt.label_pairs():
        raise AssertionError("the map must be an order isomorphism")
    return mapping


# -- marked order polytopes --------------------------------------------------


class MarkedPoset:
    """A poset with a marked subset carrying fixed integer values:
    values[j] is the marking of base.elements[j], None when it is free.

    Convention: points satisfy x_p >= x_q whenever p < q, so values must
    not increase along the order.
    """

    __slots__ = ("base", "values")

    def __init__(self, base: Poset, values: tuple[Optional[int], ...]):
        self.base = base
        self.values = values
        if len(values) != base.size:
            raise AssertionError("each element must have one marking")
        below = base.below
        for j, m in enumerate(below):
            is_min = not m
            is_max = not any(b >> j & 1 for b in below)
            if (is_min or is_max) and values[j] is None:
                raise AssertionError("extreme elements must be marked")
        for b in self.marked():
            for a in _bits(below[b]):
                if values[a] is not None and values[a] < values[b]:
                    raise AssertionError("markings must not increase along the order")

    def marked(self) -> list[int]:
        return [j for j, v in enumerate(self.values) if v is not None]

    def free(self) -> list[int]:
        return [j for j, v in enumerate(self.values) if v is None]


def _gt_marking(n: int, labels: Sequence[str]) -> tuple[Optional[int], ...]:
    """The Gelfand-Tsetlin marking of the cells `labels` on the (n-1)-scaled
    lattice: p_{r,r} carries n - r, every other cell is free."""
    return tuple(n - int(p[1]) if p[1] == p[2] else None for p in labels)


def gt_marked_poset(n: int) -> MarkedPoset:
    """Full triangular array, diagonal marked to n - r: the Gelfand-Tsetlin
    polytope scaled by n - 1, so every marking is an integer."""
    base = _triangle(n, corners=True)
    return MarkedPoset(base, _gt_marking(n, base.elements))


class GelfandTsetlin:
    """What a Gelfand-Tsetlin job of rank n reads, built once per rank and
    process by gelfand_tsetlin(n): the triangular poset (gt_poset), the
    marked poset on Pbar (gt_marked_poset), and phi, each flag element's
    order ideal as a bitmask over the triangular poset.

    The sections' inputs are built on first use and kept, each certified
    once: the flag lattice (flag); P's cells in Pbar (cell_at), through
    gt_poset_iso; and the patterns with their chains as masks over flag's
    elements (pattern_masks). What else depends on n alone is kept in its
    memo by the function that builds it (poset._kept)."""

    def __init__(self, n: int):
        if n > MAX_GT_RANK:
            raise TooLarge(f"Gelfand-Tsetlin work is capped at n = {MAX_GT_RANK}")
        self.n = n
        self.poset = gt_poset(n)
        self.marked = gt_marked_poset(n)
        self.phi = _phi(n, self.poset)
        self._memo: dict = {}  # _kept

    @cached_property
    def flag(self) -> Lattice:
        """flag_lattice(n), for the sections alone: past MAX_SECTION_RANK,
        TooLarge."""
        if self.n > MAX_SECTION_RANK:
            raise TooLarge(f"Gelfand-Tsetlin sections are capped at n = {MAX_SECTION_RANK}")
        return flag_lattice(self.n)

    @cached_property
    def cell_at(self) -> tuple[int, ...]:
        """The index in Pbar of each element of flag.poset_P."""
        iso = gt_poset_iso(self, self.flag)
        return tuple(self.marked.base.index(iso[p]) for p in self.flag.poset_P.elements)

    @cached_property
    def pattern_masks(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """gt_patterns, each chain as a mask over flag's element indices."""
        index = self.flag.index
        return tuple((point, sum(1 << index(lbl) for lbl in chain))
                     for point, chain in gt_patterns(self))


@cache
def gelfand_tsetlin(n: int) -> GelfandTsetlin:
    """The GelfandTsetlin of rank n, one per rank for the life of the
    process, so a job on a rank an earlier job built reads its structures
    and their certificates. A rank the constructor rejects is not kept."""
    return GelfandTsetlin(n)


def mu_k_marked_poset(gt: GelfandTsetlin, k: int) -> MarkedPoset:
    """0/1 diagonal marking whose polytope holds the k-index flag points:
    p_{r,r} is marked 1 exactly when r <= n-k."""
    if not 1 <= k <= gt.n - 1:
        raise BadParams("need 1 <= k <= n-1")
    return MarkedPoset(gt.marked.base,
                       tuple(None if v is None else int(v >= k) for v in gt.marked.values))


def _satisfies(mp: MarkedPoset, order: Poset, point: Sequence[int]) -> bool:
    if any(v is not None and point[j] != v for j, v in enumerate(mp.values)):
        return False
    return all(point[a] >= point[b] for a, b in order.cover_indices())


def _is_vertex(mp: MarkedPoset, order: Poset, point: Sequence[int]) -> bool:
    # a point is a vertex iff every free cell reaches a marked cell through
    # the graph of tight cover inequalities
    root = list(range(len(point)))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]  # path halving
            x = root[x]
        return x

    for a, b in order.cover_indices():
        if point[a] == point[b]:
            root[find(a)] = find(b)
    anchored = {find(m) for m in mp.marked()}
    return all(find(p) in anchored for p in mp.free())


# -- Gelfand-Tsetlin vertices ------------------------------------------------


class GTVertex(NamedTuple):
    """A vertex with its Minkowski decomposition, on the (n-1)-scaled
    integer lattice: (n-1) times the vertex is point = sum(decomposition),
    and the k-th entry is the flag point of the k-index element named by
    labels[k-1]."""

    point: tuple[int, ...]
    decomposition: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]


def flag_point(gt: GelfandTsetlin, label: str) -> tuple[int, ...]:
    """0/1 indicator of the flag element's triangular ideal gt.phi[label],
    over Pbar, with the two corner cells pinned to 1 and 0."""
    mask = gt.phi[label] << 1 | 1  # cell j of gt.poset is cell j + 1 of Pbar
    return tuple(mask >> j & 1 for j in range(gt.marked.base.size))


def gt_patterns(gt: GelfandTsetlin) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Every point of the Gelfand-Tsetlin polytope whose coordinates all
    take marking values, with its flag-element chain, on the (n-1)-scaled
    integer lattice, in descending lexicographic order of the points: each
    point is n - 1 times a point of the polytope.

    The points are walked off the chains a_1, ..., a_{n-1} of the flag
    lattice with a_k a k-index element and gt.phi[a_{k+1}] inside
    gt.phi[a_k]: each point is the sum of its chain's 0/1 flag points
    (Ardila, Bliem & Salazar 2011). Every sum must fix the marking and
    satisfy the base covers, and there must be 2^(n(n-1)/2) of them.

    Conversely, every marking-valued point x is such a sum. Its superlevel
    sets L_k = {c : x_c >= k} over the triangle's cells, k = 1, ..., n-1,
    are nested, L_1 ⊇ ... ⊇ L_{n-1}, and each is an order ideal of the
    triangle, because x does not increase up the order. The marking fixes
    each one's diagonal: p_{r,r} lies in L_k iff n - r >= k. phi is a
    bijection from the flag elements onto the triangle's ideals, and the
    k-index elements go onto the ideals with that diagonal, so
    L_k = phi[a_k] for one k-index a_k, and the a_k form a chain. Since x
    takes the values 0, ..., n-1, it is the sum of the indicators of its
    superlevel sets, with the corners p11 and pnn at n - 1 and 0.

    So the sums are distinct: a chain's sum has the chain's ideals
    phi[a_k] for its superlevel sets, and phi is injective, since the
    diagonal of phi[a] gives the length k of a and its column n - j + 1
    the index i_j.
    """
    n, mp, phi = gt.n, gt.marked, gt.phi
    flag_points = {lbl: flag_point(gt, lbl) for lbl in phi}
    by_size = [[lbl for lbl in phi if len(lbl) == k] for k in range(n)]
    chains = [(lbl,) for lbl in by_size[1]]
    for k in range(2, n):
        chains = [(*chain, lbl) for chain in chains for lbl in by_size[k]
                  if not phi[lbl] & ~phi[chain[-1]]]
    out = sorted(((tuple(map(sum, zip(*(flag_points[lbl] for lbl in chain)))), chain)
                  for chain in chains), reverse=True)
    if not all(_satisfies(mp, mp.base, point) for point, _ in out):
        raise AssertionError("each chain must sum to a Gelfand-Tsetlin point")
    if len(out) != 2 ** (n * (n - 1) // 2):
        raise AssertionError("there must be 2^(n(n-1)/2) chains")
    return out


@_kept
def gt_vertices(gt: GelfandTsetlin) -> tuple[GTVertex, ...]:
    """Vertices of the Gelfand-Tsetlin polytope with exact decompositions,
    on the (n-1)-scaled integer lattice: each vertex keeps its scaled point
    and the flag points of its chain.

    Every vertex coordinate is tied to a marked cell through tight
    inequalities, so every vertex is a pattern, and the vertices are the
    patterns whose tight-constraint graph anchors every free cell. The k-th
    flag point of a chain is a vertex of the level-k polytope, the marked
    order polytope of mu_k_marked_poset(gt, k): its 0/1 marking makes that
    polytope a face of the order polytope O(Pbar), so its vertices are
    exactly its 0/1 points (Stanley, "Two poset polytopes", 1986), which
    are the k-index flag points. Each k-index flag point must lie in it.

    Built once per rank.
    """
    mp = gt.marked
    flag_points = {lbl: flag_point(gt, lbl) for lbl in gt.phi}
    for k in range(1, gt.n):
        level = mu_k_marked_poset(gt, k)
        if not all(_satisfies(level, mp.base, flag_points[lbl]) for lbl in gt.phi if len(lbl) == k):
            raise AssertionError("each k-index flag point must lie in the level-k polytope")
    return tuple(GTVertex(point, tuple(flag_points[lbl] for lbl in chain), chain)
                 for point, chain in gt_patterns(gt) if _is_vertex(mp, mp.base, point))


# -- sections of the ambient subdivision -------------------------------------


def _extend_to_pbar(base: Poset, below_pt: Sequence[int], at: Sequence[int]) -> Poset:
    # the part order, given by its down-set masks over P, on Pbar's cells,
    # with P's element j at index at[j], the corner p11 (index 0) below
    # every cell and pnn (the last index) above every cell
    below = [0] * base.size
    for j, m in enumerate(below_pt):
        below[at[j]] = 1 | sum(1 << at[i] for i in _bits(m))
    below[-1] = (1 << base.size - 1) - 1
    return Poset(base.elements, tuple(below))


def section_facets(mp: MarkedPoset, order: Poset,
                   vertices: Sequence[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """Facets (normal, rhs), normal.x <= rhs, of the marked order polytope
    of mp's marking under order, from all its vertices, in the form and
    order exactgeom.facet_hyperplanes gives them. The polytope must be
    full-dimensional in the free cells, which is checked here.

    The polytope is cut out by its marking and its covers x_a >= x_b
    (Ardila, Bliem & Salazar 2011; Pegel, Order 2018), so each facet is
    one of the covers that touch a free cell: x_b - x_a <= 0 with the
    marked cells' values moved to the right-hand side, so its normal
    e_b - e_a lives on the free cells, the span's directions, and is
    primitive. Every vertex must satisfy every cover. Each fixes the
    marking, as every vertex handed in is a pattern, and gt_patterns
    certified every pattern against the marking. A candidate's tight
    vertices are the vertices of a face, and the facets are the proper
    faces no other face contains, so a candidate is a facet iff its tight
    set is nonempty, proper and strictly inside no other candidate's set.
    Candidates with one such set are one facet and so one (normal, rhs):
    in the free cells the polytope is full-dimensional (checked below), so
    a facet has one outer normal up to a positive factor, and the
    candidates' normals are primitive.

    The affine hull of {x : Ax <= b} is cut out by the inequalities tight
    on all of it (Schrijver 1986, §8.2), and an inequality is tight on the
    hull of the vertices iff it is tight on every vertex. Here those are
    the marking and the candidates whose tight set holds every vertex; so
    the polytope is full-dimensional in the free cells iff there is no
    such candidate, and AssertionError is raised otherwise.

    Every cover of the order touches a free cell when the order extends
    the triangle's on Pbar, as every part order does: p11 is covered only
    by the triangle's minimum p12, pnn covers only its maximum
    p_{n-1,n}, and p_{k,k} < p_{k,k+1} < p_{k+1,k+1} puts a free cell
    between any two diagonal cells.
    """
    values = mp.values
    cols = list(zip(*vertices))
    full = (1 << len(vertices)) - 1
    planes: dict[int, set[tuple[tuple[int, ...], int]]] = {}  # tight mask -> candidates
    for a, b in order.cover_indices():
        if not all(x >= y for x, y in zip(cols[a], cols[b])):
            raise AssertionError("each vertex must satisfy every cover")
        normal = [0] * len(values)
        rhs = 0
        for c, sign in ((a, -1), (b, 1)):
            if values[c] is None:
                normal[c] = sign
            else:
                rhs -= sign * values[c]
        tight = sum(1 << i for i, (x, y) in enumerate(zip(cols[a], cols[b])) if x == y)
        planes.setdefault(tight, set()).add((tuple(normal), rhs))
    if full in planes:
        raise AssertionError("each section must be full-dimensional")
    proper = [m for m in planes if m]
    facets = []
    for m in proper:
        if any(m != t and not m & ~t for t in proper):
            continue
        facets += planes[m]
    return sorted(facets)


def gt_subdivision(gt: GelfandTsetlin, F: Face) -> list[tuple[Poset, LatticePolytope]]:
    """Parts of the Gelfand-Tsetlin polytope induced by a face of the cone
    of gt.flag = flag_lattice(gt.n): the diagonal-pinned sections of the
    ambient parts, cut on the (n-1)-scaled integer lattice. Each section's
    polytope holds its integer vertices over den = n - 1 and its facets.

    A section is the marked order polytope of its part's order. A pattern
    lies in the section iff its chain lies in part.vertex_mask: the pattern
    is the sum of its chain's ideal indicators, so it respects the part
    order iff each of those ideals is an ideal of the order, and
    regular_subdivision's construction certified vertex_mask as exactly
    those elements. The lifted heights need no check: a part's value at a
    pattern minus the pattern's lift is the sum over its chain of g(a_k) -
    w[a_k], g the part's map, which is at least 0, and 0 iff every a_k is a
    vertex of the part, by the envelope check regular_subdivision ran.

    A part with one simplex has that simplex's chain for its order, since
    part_order reads the order off the simplices, and component_shape
    certifies its section as a product of unit simplices on the scaled
    lattice, all of whose lattice points are vertices: its vertices are
    the patterns inside it, and there must be one per vertex of the
    product. On any other part, as in gt_vertices, the vertices are the
    patterns inside whose tight graph under the order anchors every free
    cell.

    The facets are read off the part order's covers by section_facets,
    since a marked order polytope is cut out by its covers (Ardila, Bliem
    & Salazar 2011; Pegel, Order 2018): no double description runs and no
    rank is taken. section_facets also certifies that every section is
    full-dimensional in the free cells, by the covers' tight vertex sets.
    """
    n, mp = gt.n, gt.marked
    if F.cone.lattice != gt.flag:  # past MAX_SECTION_RANK, TooLarge
        raise ValueError("face must come from the flag lattice's cone")
    at, patterns = gt.cell_at, gt.pattern_masks
    parts = []
    for part in face_subdivision(F).parts:
        order = _extend_to_pbar(mp.base, part_order(part), at)
        inside = [point for point, chain in patterns if not chain & ~part.vertex_mask]
        if len(part.simplices) == 1:
            shape = component_shape(gt, tuple(at[j] - 1 for j in part.simplices[0]))
            if len(inside) != math.prod(d + 1 for d in shape):
                raise AssertionError("a product of unit simplices must have one pattern per vertex")
            vertices = inside
        else:
            vertices = [point for point in inside if _is_vertex(mp, order, point)]
        parts.append((order, LatticePolytope(vertices, n - 1,
                                             section_facets(mp, order, vertices))))
    return parts


# -- component shapes --------------------------------------------------------


def component_shape(gt: GelfandTsetlin, ext: tuple[int, ...]) -> tuple[int, ...]:
    """Block sizes of a linearization ext of gt.poset, an index tuple: the
    number of cells strictly between consecutive diagonal markers once the
    corners are added back.

    Certifies, from the chain's H-description, that the section of the
    Gelfand-Tsetlin polytope on the chain p11, ext's cells, pnn is the
    product of unit simplices of these dimensions, up to a unimodular map
    of the (n-1)-scaled lattice (Ardila, Bliem & Salazar 2011). The section
    is the marked order polytope of the chain: x_c >= x_d for each step c,
    d of the chain, with each marker p_kk fixed to its marking v(p_kk).
    Give each free cell c the coordinate z_c = x_c - x_d, d the cell after
    it. The map is unit triangular in chain order, so it is unimodular. In
    z, the step out of each free cell becomes z_c >= 0, and the step out of
    marker p_kk becomes the sum of z over block k at most
    v(p_kk) - v(p_{k+1,k+1}). So the section is the product of the unit
    simplices of the block sizes when the markers come in chain order with
    values n - 1, ..., 0, each one below the last. No block is empty: in
    any linearization, p_{k,k+1} lies between p_{k,k} and p_{k+1,k+1}."""
    n, values, cells = gt.n, gt.marked.values, gt.marked.base.elements
    # the chain as indices of Pbar: cell j of gt.poset is cell j + 1 of Pbar
    total = [0, *(j + 1 for j in ext), len(values) - 1]
    markers = [i for i, c in enumerate(total) if values[c] is not None]
    if [cells[total[i]] for i in markers] != [_cell(k, k) for k in range(1, n + 1)]:
        raise AssertionError("the markers must come in chain order")
    marks = [values[total[i]] for i in markers]
    if marks[0] != n - 1 or any(a - b != 1 for a, b in zip(marks, marks[1:])):
        raise AssertionError("each marker value must be one below the last")
    return tuple(b - a - 1 for a, b in zip(markers, markers[1:]))


def shape_census(gt: GelfandTsetlin) -> dict[str, int]:
    """How many linearizations produce each multiset of block sizes, as a
    new dict on every call; counted once per rank."""
    return dict(_census(gt))


@_kept
def _census(gt: GelfandTsetlin) -> tuple[tuple[str, int], ...]:
    census: dict[str, int] = {}
    for ext in linear_extensions(gt.poset):
        shape = component_shape(gt, ext)
        key = "x".join(str(d) for d in sorted(shape, reverse=True))
        census[key] = census.get(key, 0) + 1
    return tuple(census.items())
