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
flag element's order ideal is a bitmask over gt_poset(n). A job builds
the triangular poset, the marked poset and the ideals once, as one
GelfandTsetlin, and hands it to every step it runs.

Every Gelfand-Tsetlin computation runs on the (n-1)-scaled integer
lattice, where the marking of p_{r,r} is n - r: the census, the patterns,
the vertex search and the sections of a subdivision. The census reads
each chain's section off its H-description and enumerates no vertices. A
GTVertex keeps its scaled integer point and decomposition, and each
section's polytope its scaled integer points over den = n - 1; they are
divided by n - 1 only when written out.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

from .cone import Face
from .errors import BadParams, GroundSetMismatch, NotStronger, TooLarge
from .exactgeom import LatticePolytope
from .lattice import Lattice, _label_of
from .poset import Poset, _bits, ideal_masks, linear_extensions
from .subdivision import face_subdivision

MAX_GT_RANK = 5


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
    poset of join-irreducibles of L, which must be flag_lattice(gt.n)."""
    pt, phi = gt.poset, gt.phi
    assert sorted(phi.values()) == sorted(ideal_masks(pt))
    for a, b in itertools.product(L.elements, repeat=2):
        assert L.leq(a, b) == (not phi[a] & ~phi[b])
        assert phi[L.join(a, b)] == phi[a] | phi[b]
        assert phi[L.meet(a, b)] == phi[a] & phi[b]
    principal = {m | 1 << j: p for j, (p, m) in enumerate(zip(pt.elements, pt.below))}
    mapping = {}
    for t in L.poset_P.elements:
        assert phi[t] in principal, "irreducibles must map to principal ideals"
        mapping[t] = principal[phi[t]]
    assert sorted(mapping.values()) == sorted(pt.elements)
    for s, t in itertools.product(L.poset_P.elements, repeat=2):
        assert L.poset_P.leq(s, t) == pt.leq(mapping[s], mapping[t])
    return mapping


# -- marked order polytopes --------------------------------------------------


class MarkedPoset:
    """A poset with a marked subset carrying fixed integer values:
    values[j] is the marking of base.elements[j], None when it is free.
    Equal when the base and the values are.

    Convention: points satisfy x_p >= x_q whenever p < q, so values must
    not increase along the order.
    """

    __slots__ = ("base", "values")

    def __init__(self, base: Poset, values: tuple[Optional[int], ...]):
        self.base = base
        self.values = values
        assert len(values) == base.size
        below = base.below
        for j, m in enumerate(below):
            is_min = not m
            is_max = not any(b >> j & 1 for b in below)
            if is_min or is_max:
                assert values[j] is not None, "extreme elements must be marked"
        for b in self.marked():
            for a in _bits(below[b]):
                if values[a] is not None:
                    assert values[a] >= values[b]

    def __eq__(self, other):
        if not isinstance(other, MarkedPoset):
            return NotImplemented
        return self.base == other.base and self.values == other.values

    def __hash__(self):
        return hash((self.base, self.values))

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
    """What a Gelfand-Tsetlin job of rank n reads, built once per job: the
    triangular poset (gt_poset), the marked poset on Pbar
    (gt_marked_poset), and phi, each flag element's order ideal as a
    bitmask over the triangular poset."""

    def __init__(self, n: int):
        if n > MAX_GT_RANK:
            raise TooLarge(f"Gelfand-Tsetlin work is capped at n = {MAX_GT_RANK}")
        self.n = n
        self.poset = gt_poset(n)
        self.marked = gt_marked_poset(n)
        self.phi = _phi(n, self.poset)


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


def _vertex_candidates(mp: MarkedPoset, order: Poset) -> list[tuple[int, ...]]:
    """Every point that fixes the markings, takes a marking value on each
    free cell, and satisfies x_a >= x_b for each cover a < b of `order`, in
    a fixed order. `order` lists the base's elements in the base's order.

    Every vertex coordinate propagates from a marked cell through tight
    inequalities, so this candidate set contains all vertices. The search
    runs index by index along a linear extension of `order`: a marked index
    takes its marking, a free index p any marking value between the largest
    marking above p and the least value of its predecessors.
    """
    if order.elements != mp.base.elements:
        raise GroundSetMismatch("order must list the marked poset's elements in its order")
    if any(m & ~s for m, s in zip(mp.base.below, order.below)):
        raise NotStronger("order must refine the marked poset's base order")
    marking, free = mp.values, mp.free()
    if len(free) > 13:
        raise TooLarge("marked polytope enumeration capped at 13 free cells")
    preds = [[] for _ in marking]
    for a, b in order.cover_indices():
        preds[b].append(a)
    lower = list(marking)  # a marked index is bounded by its own marking
    for p in free:
        lower[p] = max(marking[m] for m in mp.marked() if order.below[m] >> p & 1)
    ext = next(linear_extensions(order))
    values = sorted({v for v in marking if v is not None}, reverse=True)
    point = [0] * len(marking)
    out = []

    def descend(i):
        if i == len(ext):
            if len(out) == 500_000:
                raise TooLarge("marked polytope has too many candidate points")
            out.append(tuple(point))
            return
        p = ext[i]
        cap = min((point[q] for q in preds[p]), default=values[0])
        for v in values if marking[p] is None else [marking[p]]:
            if lower[p] <= v <= cap:
                point[p] = v
                descend(i + 1)

    descend(0)
    return out


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


def _marked_vertices(mp: MarkedPoset, order: Poset) -> list[tuple[int, ...]]:
    """Vertices of the marked order polytope, x_p fixed to the marking on M
    and x_p >= x_q for p < q in `order`, as value tuples over
    mp.base.elements: the candidates take marking values only, and a
    candidate is extreme iff its tight graph anchors every free cell."""
    points = [point for point in _vertex_candidates(mp, order)
              if _is_vertex(mp, order, point)]
    assert points, "a marked polytope always has at least one vertex"
    assert len(set(points)) == len(points)
    return points


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
    integer lattice: each point is n - 1 times a point of the polytope.

    The k-th chain entry is read off the superlevel set at k: that ideal's
    flag element has exactly k indices, and the point is the sum of the 0/1
    flag points of its chain. Patterns are exactly the chains
    a_1 > a_2 > ... > a_{n-1} with a_k a k-index element, so there are
    2^(n(n-1)/2) of them; the polytope's vertices, scaled, are among them.
    """
    n, mp = gt.n, gt.marked
    ideal_to_label = {ideal: lbl for lbl, ideal in gt.phi.items()}
    assert len(ideal_to_label) == len(gt.phi)
    flag_points = {lbl: flag_point(gt, lbl) for lbl in gt.phi}
    out = []
    for point in _vertex_candidates(mp, mp.base):
        chain = []
        for k in range(1, n):
            # the superlevel set over the cells of gt.poset, Pbar's inner cells
            level = sum(1 << j for j, x in enumerate(point[1:-1]) if x >= k)
            lbl = ideal_to_label.get(level)
            assert lbl is not None and len(lbl) == k
            chain.append(lbl)
        total = tuple(map(sum, zip(*(flag_points[lbl] for lbl in chain))))
        assert total == point
        out.append((point, tuple(chain)))
    assert len(out) == 2 ** (n * (n - 1) // 2)
    return out


def gt_vertices(gt: GelfandTsetlin) -> list[GTVertex]:
    """Vertices of the Gelfand-Tsetlin polytope with exact decompositions.

    Vertices are the patterns whose tight-constraint graph anchors every
    free cell. The search runs on the (n-1)-scaled integer lattice, and
    each vertex keeps its scaled point and flag points.
    """
    mp = gt.marked
    flag_points = {lbl: flag_point(gt, lbl) for lbl in gt.phi}
    xi = {k: set(_marked_vertices(mu_k_marked_poset(gt, k), mp.base))
          for k in range(1, gt.n)}
    for k in range(1, gt.n):
        k_points = {flag_points[lbl] for lbl in gt.phi if len(lbl) == k}
        assert xi[k] == k_points, "level-k vertices must be k-index flag points"
    out = []
    for point, chain in gt_patterns(gt):
        if not _is_vertex(mp, mp.base, point):
            continue
        for k, lbl in enumerate(chain, start=1):
            assert flag_points[lbl] in xi[k]
        out.append(GTVertex(point, tuple(flag_points[lbl] for lbl in chain), chain))
    return out


# -- sections of the ambient subdivision -------------------------------------


def _extend_to_pbar(base: Poset, order_pt: Poset, at: Sequence[int]) -> Poset:
    # the part order on Pbar's cells, with order_pt's element j at index
    # at[j], the corner p11 (index 0) below every cell and pnn (the last
    # index) above every cell
    below = [0] * base.size
    for j, m in enumerate(order_pt.below):
        below[at[j]] = 1 | sum(1 << at[i] for i in _bits(m))
    below[-1] = (1 << base.size - 1) - 1
    return Poset(base.elements, tuple(below))


def gt_subdivision(gt: GelfandTsetlin, F: Face, flag: Lattice) -> list[tuple[Poset, LatticePolytope]]:
    """Parts of the Gelfand-Tsetlin polytope induced by a face of the cone
    of flag = flag_lattice(gt.n): the diagonal-pinned sections of the
    ambient parts.

    Cross-checked against the subdivision the lifted heights define
    directly: over every pattern point x, each part's affine map
    overestimates the lifted height, meets it exactly when x lies in that
    section, and the minimum over parts always attains it. Since section
    vertices are pattern points, this pins the same cell structure.

    The sections are cut on the (n-1)-scaled integer lattice, over the
    patterns of gt_patterns; each section's polytope holds those integer
    vertices over den = n - 1.
    """
    n, mp = gt.n, gt.marked
    L = F.cone.lattice
    if L != flag:
        raise ValueError("face must come from the flag lattice's cone")
    iso = gt_poset_iso(gt, flag)
    sub = face_subdivision(F)
    # each scaled pattern point with its lifted height times (n-1)·den,
    # which is the sum of the scaled weight over its chain
    lifts = {point: sum(sub.scaled[L.index(lbl)] for lbl in chain)
             for point, chain in gt_patterns(gt)}
    at = [mp.base.index(iso[p]) for p in L.poset_P.elements]  # P's cells in Pbar
    in_parts = dict.fromkeys(lifts, 0)
    parts = []
    for part in sub.parts:
        order = _extend_to_pbar(mp.base, part.order, at)
        vertices = _marked_vertices(mp, order)
        member_points = set(vertices)
        assert member_points <= lifts.keys()
        for point, lifted in lifts.items():
            value = part.const * (n - 1) + sum(a * point[k] for a, k in zip(part.alpha, at))
            assert value >= lifted, "part maps must overestimate the lift"
            inside = _satisfies(mp, order, point)
            assert (value == lifted) == inside
            if inside:
                in_parts[point] += 1
            assert (inside and _is_vertex(mp, order, point)) == (
                point in member_points)
        Q = LatticePolytope(vertices, n - 1, already_extreme=True)
        assert Q.dim == len(mp.free()), "each section must be full-dimensional"
        parts.append((order, Q))
    assert all(count >= 1 for count in in_parts.values())
    assert len(parts) == len(sub.parts)
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
    values n - 1, ..., 0, each one below the last, and no block is
    empty."""
    n, values, cells = gt.n, gt.marked.values, gt.marked.base.elements
    # the chain as indices of Pbar: cell j of gt.poset is cell j + 1 of Pbar
    total = [0, *(j + 1 for j in ext), len(values) - 1]
    markers = [i for i, c in enumerate(total) if values[c] is not None]
    assert [cells[total[i]] for i in markers] == [_cell(k, k) for k in range(1, n + 1)], \
        "the markers must come in chain order"
    marks = [values[total[i]] for i in markers]
    assert marks[0] == n - 1 and all(a - b == 1 for a, b in zip(marks, marks[1:])), \
        "each marker value must be one below the last"
    shape = tuple(b - a - 1 for a, b in zip(markers, markers[1:]))
    assert all(shape), "every block must be nonempty"
    return shape


def shape_census(gt: GelfandTsetlin) -> dict[str, int]:
    """How many linearizations produce each multiset of block sizes."""
    census: dict[str, int] = {}
    for ext in linear_extensions(gt.poset):
        shape = component_shape(gt, ext)
        key = "x".join(str(d) for d in sorted(shape, reverse=True))
        census[key] = census.get(key, 0) + 1
    return census
