"""Marked order polytopes and the Gelfand-Tsetlin specialization of the
flag lattices.

Flag lattice elements (lattice.flag_lattice) are increasing index tuples
written as digit strings ("13" for a_{1,3}). Pbar is the triangle of cells
labelled "p{r}{s}" for 1 <= r <= s <= n, ordered componentwise and sorted
by (r, s), so the corners p11, its minimum, and pnn, its maximum, are its
first and last cells. Every cell is addressed by its index in Pbar, which
is the one order every computation reads.

Every computation holds one point format: a point of R^{Pbar} is an int
tuple over Pbar's cell order, and a marking is one value per cell (None on
a free cell). Orders are read through Poset.below masks and cover index
pairs, and each flag element's order ideal is a bitmask over Pbar, which
holds p11 and not pnn (the triangle's ideals with p11 added). These, Pbar
and its marking, and the sections' inputs, the vertices and the census
from their first use, are built once per rank and process as
one GelfandTsetlin (gelfand_tsetlin(n)), which every step of a job reads;
so a job on a rank built before pays for its own face, sections and output
alone. The command line keeps each face's sections too, for the last 32
(context, face) pairs that gt jobs named (cli._gt_sections), so a job on a
face named before on its rank, by any spelling, pays for its output alone;
one face's sections hold 2.6-4.6 KB for n = 3, 4.7-43 KB for n = 4 and up
to 1.8 MB for n = 5's full face (tracemalloc). Every rank's context, with
its section inputs for n <= MAX_SECTION_RANK, holds about 0.8 MB in all
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
and decomposition, and each section is its order, its sorted scaled
integer vertices and its facets; they are divided by n - 1 only when
written out (exactgeom.polytope_json).

Nothing runs a double description either. A section is the marked order
polytope of its part's order, which its covers cut out (Ardila, Bliem &
Salazar 2011; Pegel, Order 2018), so its facets are the covers touching a
free cell whose tight vertex sets are proper and inclusion-maximal among
the covers' tight sets (section_facets). No cover touching a free cell may
be tight on every vertex: that certifies the section full-dimensional, with
no rank.

The command line runs the census and the vertices to n = MAX_GT_RANK and
the sections, whose full face at n = 6 would have 33,592 parts, to
MAX_SECTION_RANK (cli.cmd_gt); it rejects every other rank before any
work.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import NamedTuple, Optional, Sequence

from .cone import Face
from .lattice import Lattice, _label_of, flag_lattice
from .poset import Poset, _bits, _kept, ideal_masks, linear_extensions
from .subdivision import face_subdivision, part_order

MAX_GT_RANK = 6
MAX_SECTION_RANK = 5


# -- Pbar and the flag ideals -------------------------------------------------


def _cell(r: int, s: int) -> str:
    return f"p{r}{s}"


def _triangle(n: int) -> Poset:
    """Pbar: the cells p_{r,s}, 1 <= r <= s <= n, sorted by (r, s) and
    ordered componentwise, which is already transitive."""
    cells = [(r, s) for r in range(1, n + 1) for s in range(r, n + 1)]
    below = [sum(1 << i for i, (a, b) in enumerate(cells)
                 if a <= r and b <= s and (a, b) != (r, s))
             for r, s in cells]
    return Poset(tuple(_cell(r, s) for r, s in cells), tuple(below))


def _phi(n: int, pbar: Poset) -> dict[str, int]:
    # each flag element as an order ideal of Pbar, a bitmask over its cells:
    # column n-j+1 holds rows 1..i_j-j, plus every full column left of
    # n-k+1, which for k <= n-1 takes in p11; pnn is in no column it fills
    at = {p: j for j, p in enumerate(pbar.elements)}
    out = {}
    for k in range(1, n):
        for combo in itertools.combinations(range(1, n + 1), k):
            cells = {(t, n - j + 1) for j, ij in enumerate(combo, start=1)
                     for t in range(1, ij - j + 1)}
            cells |= {(r, s) for s in range(1, n - k + 1) for r in range(1, s + 1)}
            out[_label_of(combo)] = sum(1 << at[_cell(r, s)] for r, s in cells)
    return out


def gt_poset_iso(gt: GelfandTsetlin, L: Lattice) -> tuple[int, ...]:
    """The index in gt.pbar of the cell that each element of L.poset_P, the
    join-irreducibles of L, which must be flag_lattice(gt.n), is
    identified with.

    phi is checked to be a bijection onto the order ideals of Pbar other
    than the empty one and Pbar, which preserves and reflects the order:
    the identification of L with the ideals of the triangle, Pbar without
    its corners, each with p11 added (Ardila, Bliem & Salazar 2011). Such a
    bijection between two lattices is a lattice isomorphism, so phi takes
    joins to unions and meets to intersections, and join-irreducibles to
    join-irreducibles. Those are the principal ideals of Pbar's cells
    other than the corners, so each irreducible of L maps to one, and the
    irreducibles go one-to-one onto those cells. The mapping is then an
    order isomorphism, which is checked on the two posets' relations."""
    pbar, phi = gt.pbar, gt.phi
    if sorted(phi.values()) != sorted(ideal_masks(pbar)[1:-1]):
        raise AssertionError("phi must be a bijection onto the order ideals of Pbar "
                             "other than the empty one and Pbar")
    # phi as a list over L's element indices, compared on L's ideal masks
    ph = [phi[a] for a in L.elements]
    for (ma, pa), (mb, pb) in itertools.product(zip(L.masks, ph), repeat=2):
        if (not ma & ~mb) != (not pa & ~pb):
            raise AssertionError("phi must preserve and reflect the order")
    principal = {pbar.below[j] | 1 << j: j for j in range(1, pbar.size - 1)}
    at = tuple(principal[phi[t]] for t in L.poset_P.elements)
    cell = dict(zip(L.poset_P.elements, (pbar.elements[j] for j in at)))
    p11, pnn = pbar.elements[0], pbar.elements[-1]  # Pbar's minimum and maximum
    if ({(cell[s], cell[t]) for s, t in L.poset_P.label_pairs()}
            != {(a, b) for a, b in pbar.label_pairs() if a != p11 and b != pnn}):
        raise AssertionError("the map must be an order isomorphism")
    return at


# -- marked order polytopes --------------------------------------------------


def _gt_marking(n: int, labels: Sequence[str]) -> tuple[Optional[int], ...]:
    """The Gelfand-Tsetlin marking of the cells `labels` on the (n-1)-scaled
    lattice: p_{r,r} carries n - r, every other cell is free.

    On Pbar it is a marking of a marked order polytope, whose points x have
    x_a >= x_b for a < b, by construction: it has one value per cell; the
    extremes of Pbar, p11 below every cell and pnn above every cell, are
    marked; and the marked cells p11 < p22 < ... < pnn form a chain whose
    values n - 1, ..., 0 fall by one up the order."""
    return tuple(n - int(p[1]) if p[1] == p[2] else None for p in labels)


class GelfandTsetlin:
    """What a Gelfand-Tsetlin job of rank n reads, built once per rank and
    process by gelfand_tsetlin(n): the triangle with its corners (pbar),
    Pbar's Gelfand-Tsetlin marking (marking), and phi, each flag element's
    order ideal as a bitmask over Pbar.

    The sections' inputs are built on first use and kept in its memo
    (poset._kept), each certified once: the flag lattice (flag); P's cells
    in Pbar (cell_at), through gt_poset_iso; and the patterns with their
    chains as masks over flag's elements (pattern_masks). What else
    depends on n alone is kept there too, by the function that builds
    it."""

    def __init__(self, n: int):
        self.n = n
        self.pbar = _triangle(n)
        self.marking = _gt_marking(n, self.pbar.elements)
        self.phi = _phi(n, self.pbar)
        self._memo: dict = {}  # _kept

    @_kept
    def flag(self) -> Lattice:
        """flag_lattice(n), for the sections alone."""
        return flag_lattice(self.n)

    @_kept
    def cell_at(self) -> tuple[int, ...]:
        """The index in Pbar of each element of flag().poset_P."""
        return gt_poset_iso(self, self.flag())

    @_kept
    def pattern_masks(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """gt_patterns, each chain as a mask over flag()'s element indices."""
        at = {a: i for i, a in enumerate(self.flag().elements)}
        return tuple((point, sum(1 << at[a] for a in chain)) for point, chain in gt_patterns(self))


@cache
def gelfand_tsetlin(n: int) -> GelfandTsetlin:
    """The GelfandTsetlin of rank n, one per rank for the life of the
    process, so a job on a rank an earlier job built reads its structures
    and their certificates."""
    return GelfandTsetlin(n)


def _satisfies(marking: Sequence[Optional[int]], order: Poset, point: Sequence[int]) -> bool:
    if any(v is not None and point[j] != v for j, v in enumerate(marking)):
        return False
    return all(point[a] >= point[b] for a, b in order.cover_indices())


def _is_vertex(marking: Sequence[Optional[int]], order: Poset, point: Sequence[int]) -> bool:
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
    anchored = {find(j) for j, v in enumerate(marking) if v is not None}
    return all(find(j) in anchored for j, v in enumerate(marking) if v is None)


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
    """0/1 indicator over Pbar of the flag element's ideal gt.phi[label],
    which holds the corner p11 and not pnn."""
    mask = gt.phi[label]
    return tuple(mask >> j & 1 for j in range(gt.pbar.size))


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
    sets L_k = {c : x_c >= k} over Pbar's cells, k = 1, ..., n-1, are
    nested, L_1 ⊇ ... ⊇ L_{n-1}, and each is an order ideal of Pbar,
    because x does not increase up the order. The marking fixes each one's
    diagonal: p_{r,r} lies in L_k iff n - r >= k, so p11 is in and pnn is
    out. phi is a bijection from the flag elements onto the ideals of Pbar
    other than the empty one and Pbar, and the k-index elements go onto
    the ideals with that diagonal, so L_k = phi[a_k] for one k-index a_k,
    and the a_k form a chain. Since x takes the values 0, ..., n-1, it is
    the sum of the indicators of its superlevel sets.

    So the sums are distinct: a chain's sum has the chain's ideals
    phi[a_k] for its superlevel sets, and phi is injective, since the
    diagonal of phi[a] gives the length k of a and its column n - j + 1
    the index i_j.
    """
    n, phi = gt.n, gt.phi
    flag_points = {lbl: flag_point(gt, lbl) for lbl in phi}
    by_size = [[lbl for lbl in phi if len(lbl) == k] for k in range(n)]
    chains = [(lbl,) for lbl in by_size[1]]
    for k in range(2, n):
        chains = [(*chain, lbl) for chain in chains for lbl in by_size[k]
                  if not phi[lbl] & ~phi[chain[-1]]]
    out = sorted(((tuple(map(sum, zip(*(flag_points[lbl] for lbl in chain)))), chain)
                  for chain in chains), reverse=True)
    if not all(_satisfies(gt.marking, gt.pbar, point) for point, _ in out):
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
    order polytope of Pbar whose 0/1 marking puts 1 on p_{r,r} exactly when
    r <= n - k: that marking makes the polytope a face of the order
    polytope O(Pbar), so its vertices are exactly its 0/1 points (Stanley,
    "Two poset polytopes", 1986), which are the k-index flag points.

    Each k-index flag point lies in the level-k polytope by _phi's
    construction, with no check. For a = (i_1, ..., i_k), phi[a] is an
    order ideal of Pbar: its column n - j + 1 holds rows 1..i_j - j, a
    bound that does not fall as j grows and the column moves left, since
    i_{j+1} > i_j, and the columns left of n - k + 1 are full. Its diagonal
    cells are the p_{r,r} with r <= n - k, p11 among them and pnn not, as
    i_j <= n keeps p_{s,s} out of column s = n - j + 1. So the indicator of
    phi[a] fixes the level's marking and does not increase up Pbar.

    Built once per rank.
    """
    flag_points = {lbl: flag_point(gt, lbl) for lbl in gt.phi}
    return tuple(GTVertex(point, tuple(flag_points[lbl] for lbl in chain), chain)
                 for point, chain in gt_patterns(gt)
                 if _is_vertex(gt.marking, gt.pbar, point))


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


def section_facets(marking: Sequence[Optional[int]], order: Poset,
                   vertices: Sequence[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """Facets (normal, rhs), normal.x <= rhs, of the marked order polytope
    of the marking under order, from all its vertices, in the form and
    order exactgeom.facet_hyperplanes gives them. The polytope must be
    full-dimensional in the free cells, which is checked here.

    The polytope is cut out by its marking and its covers x_a >= x_b
    (Ardila, Bliem & Salazar 2011; Pegel, Order 2018), so each facet is
    one of the covers that touch a free cell: x_b - x_a <= 0 with the
    marked cells' values moved to the right-hand side, so its normal
    e_b - e_a lives on the free cells, the span's directions, and is
    primitive. Every vertex handed in lies in the polytope, with no check:
    it is a pattern, which gt_patterns certified against the marking, and
    it satisfies every cover of the order, as gt_subdivision takes it from
    the patterns whose chain lies in the part's vertex set. A candidate's
    tight vertices are the vertices of a face, and the facets are the
    proper faces no other face contains, so a candidate is a facet iff its
    tight set is nonempty, proper and strictly inside no other candidate's
    set.
    Candidates with one such set are one facet and so one (normal, rhs):
    in the free cells the polytope is full-dimensional (checked below), so
    a facet has one outer normal up to a positive factor, and the
    candidates' normals are primitive.

    The affine hull of {x : Ax <= b} is cut out by the inequalities tight
    on all of it (Schrijver 1986, §8.2), and an inequality is tight on the
    hull of the vertices iff it is tight on every vertex. Here those are
    the marking and the candidates whose tight set holds every vertex; so
    the polytope is full-dimensional in the free cells iff there is no
    such candidate, and AssertionError is raised otherwise. With no
    vertices every candidate is tight on all of them, so an empty section
    raises too.

    Every cover of the order touches a free cell when the order extends
    the triangle's on Pbar, as every part order does: p11 is covered only
    by the triangle's minimum p12, pnn covers only its maximum
    p_{n-1,n}, and p_{k,k} < p_{k,k+1} < p_{k+1,k+1} puts a free cell
    between any two diagonal cells.
    """
    full = (1 << len(vertices)) - 1
    planes: dict[int, set[tuple[tuple[int, ...], int]]] = {}  # tight mask -> candidates
    for a, b in order.cover_indices():
        normal = [0] * len(marking)
        rhs = 0
        for c, sign in ((a, -1), (b, 1)):
            if marking[c] is None:
                normal[c] = sign
            else:
                rhs -= sign * marking[c]
        tight = sum(1 << i for i, v in enumerate(vertices) if v[a] == v[b])
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


def gt_subdivision(gt: GelfandTsetlin, F: Face) -> list[tuple[Poset, list, list]]:
    """Parts of the Gelfand-Tsetlin polytope induced by a face F of the cone
    of gt.flag() = flag_lattice(gt.n), which the caller resolves F on (in
    the command line, cli._gt_sections): the diagonal-pinned sections of
    the ambient parts, cut on the (n-1)-scaled integer lattice. Each
    section is (order, vertices, facets): its part order on Pbar, its
    sorted integer vertices over den = n - 1 and its facets in the form
    and order of exactgeom.facet_hyperplanes, which polytope_json writes.

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

    The vertices are distinct, as gt_patterns proved the pattern sums are,
    and there is at least one: a chain section holds its checked product
    count of patterns, at least 1, and section_facets certifies every
    section full-dimensional, which no empty one is.

    The facets are read off the part order's covers by section_facets,
    since a marked order polytope is cut out by its covers (Ardila, Bliem
    & Salazar 2011; Pegel, Order 2018): no double description runs and no
    rank is taken. section_facets also certifies that every section is
    full-dimensional in the free cells, by the covers' tight vertex sets.
    """
    marking, at, patterns = gt.marking, gt.cell_at(), gt.pattern_masks()
    last = gt.pbar.size - 1
    parts = []
    for part in face_subdivision(F).parts:
        order = _extend_to_pbar(gt.pbar, part_order(part), at)
        inside = [point for point, chain in patterns if not chain & ~part.vertex_mask]
        if len(part.simplices) == 1:
            shape = component_shape(gt, (0, *(at[j] for j in part.simplices[0]), last))
            if len(inside) != math.prod(d + 1 for d in shape):
                raise AssertionError("a product of unit simplices must have one pattern per vertex")
            vertices = inside
        else:
            vertices = [point for point in inside if _is_vertex(marking, order, point)]
        parts.append((order, sorted(vertices), section_facets(marking, order, vertices)))
    return parts


# -- component shapes --------------------------------------------------------


def component_shape(gt: GelfandTsetlin, ext: tuple[int, ...]) -> tuple[int, ...]:
    """Block sizes of a linearization ext of gt.pbar, a tuple of Pbar's
    cell indices that starts at the corner p11 and ends at pnn: the number
    of cells strictly between consecutive diagonal markers.

    Certifies, from the chain's H-description, that the section of the
    Gelfand-Tsetlin polytope on the chain ext is the product of unit
    simplices of these dimensions, up to a unimodular map of the
    (n-1)-scaled lattice (Ardila, Bliem & Salazar 2011). The section is the
    marked order polytope of the chain: x_c >= x_d for each step c, d of the
    chain, with each marker p_kk fixed to its marking v(p_kk). Give each
    free cell c the coordinate z_c = x_c - x_d, d the cell after it. The map
    is unit triangular in chain order, so it is unimodular. In z, the step
    out of each free cell becomes z_c >= 0, and the step out of marker p_kk
    becomes the sum of z over block k at most v(p_kk) - v(p_{k+1,k+1}). So
    the section is the product of the unit simplices of the block sizes when
    the markers come in chain order with values n - 1, ..., 0, each one
    below the last.

    Both hold with no check, as ext is a linear extension of Pbar in both
    callers: the census lists them, and gt_subdivision moves a part's one
    simplex, an extension of flag().poset_P, onto the cells by cell_at(),
    which gt_poset_iso certified an order isomorphism onto Pbar without its
    corners, with p11, Pbar's minimum, first and pnn, its maximum, last. In
    Pbar p11 < p22 < ... < pnn, so the markers come in that order, marked
    n - 1, ..., 0 (_gt_marking). No block is empty: in any linearization,
    p_{k,k+1} lies between p_{k,k} and p_{k+1,k+1}."""
    marking = gt.marking
    markers = [i for i, c in enumerate(ext) if marking[c] is not None]
    return tuple(b - a - 1 for a, b in zip(markers, markers[1:]))


def shape_census(gt: GelfandTsetlin) -> dict[str, int]:
    """How many linearizations produce each multiset of block sizes, as a
    new dict on every call; counted once per rank."""
    return dict(_census(gt))


@_kept
def _census(gt: GelfandTsetlin) -> tuple[tuple[str, int], ...]:
    census: dict[str, int] = {}
    for ext in linear_extensions(gt.pbar):
        shape = component_shape(gt, ext)
        key = "x".join(str(d) for d in sorted(shape, reverse=True))
        census[key] = census.get(key, 0) + 1
    return tuple(census.items())
