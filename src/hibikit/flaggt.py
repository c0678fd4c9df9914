"""Grassmannian and flag lattices, marked order polytopes, and
Gelfand-Tsetlin specializations.

Flag lattice elements are increasing index tuples written as digit strings
("13" for a_{1,3}). The triangular poset lives on labels "p{r}{s}" for
1 <= r <= s <= n; the two corner cells p11 and pnn only appear in the
extended ground set that marked polytopes are defined on. Points of the
ambient space R^{Pbar} are tuples over pbar_labels(n), which sorts cells
by (r, s).

Every Gelfand-Tsetlin computation runs on the (n-1)-scaled integer
lattice, where the marking of p_{r,r} is n - r: the census, the patterns,
the vertex search and the sections of a subdivision. A GTVertex keeps its
scaled integer point and decomposition, and each section's polytope its
scaled integer points over den = n - 1; they are divided by n - 1 only
when written out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .cone import Face
from .errors import BadParams, NotStronger, TooLarge
from .exactgeom import LatticePolytope, same_lattice
from .lattice import Lattice, from_ops
from .poset import (
    LinearExtension,
    Poset,
    from_cover_relations,
    is_stronger,
    linear_extensions,
    order_ideals,
)
from .subdivision import face_subdivision

MAX_GT_RANK = 5
MAX_INDEX = 9  # a label spells each index as one digit


def _tuple_of(label: str) -> tuple[int, ...]:
    return tuple(int(c) for c in label)


def _label_of(indices: Sequence[int]) -> str:
    return "".join(str(i) for i in indices)


def _check_single_digits(n: int):
    if n > MAX_INDEX:
        raise BadParams(f"need n <= {MAX_INDEX}: an element's label spells each "
                        "of its indices 1..n as one digit")


def grassmann_lattice(k: int, n: int) -> Lattice:
    """All k-element index sets with componentwise min/max as meet/join."""
    if not 1 <= k <= n - 1:
        raise BadParams("need 1 <= k <= n-1")
    _check_single_digits(n)
    elements = [_label_of(c) for c in itertools.combinations(range(1, n + 1), k)]

    def meet(a, b):
        return _label_of(min(x, y) for x, y in zip(_tuple_of(a), _tuple_of(b)))

    def join(a, b):
        return _label_of(max(x, y) for x, y in zip(_tuple_of(a), _tuple_of(b)))

    return from_ops(elements, join, meet)


def flag_lattice(n: int) -> Lattice:
    """Index tuples of every length 1..n-1; the shorter tuple wins the join."""
    if n < 2:
        raise BadParams("need n >= 2")
    _check_single_digits(n)
    elements = [
        _label_of(c)
        for k in range(1, n)
        for c in itertools.combinations(range(1, n + 1), k)
    ]

    def meet(a, b):
        s, t = _tuple_of(a), _tuple_of(b)
        if len(s) < len(t):
            s, t = t, s
        return _label_of(
            [min(x, y) for x, y in zip(s, t)] + list(s[len(t):]))

    def join(a, b):
        s, t = _tuple_of(a), _tuple_of(b)
        return _label_of(max(x, y) for x, y in zip(s, t))

    return from_ops(sorted(elements, key=lambda s: (len(s), s)), join, meet)


# -- the triangular poset ----------------------------------------------------


def _cell(r: int, s: int) -> str:
    return f"p{r}{s}"


def pbar_labels(n: int) -> list[str]:
    return [_cell(r, s) for r in range(1, n + 1) for s in range(r, n + 1)]


def _ptilde_labels(n: int) -> list[str]:
    return [c for c in pbar_labels(n) if c not in (_cell(1, 1), _cell(n, n))]


def gt_poset(n: int) -> Poset:
    """Cells p_{r,s}, 1 <= r <= s <= n without the two corners, ordered
    componentwise."""
    if n < 2:
        raise BadParams("need n >= 2")
    labels = _ptilde_labels(n)
    pairs = [
        (a, b)
        for a, b in itertools.permutations(labels, 2)
        if a != b and int(a[1]) <= int(b[1]) and int(a[2]) <= int(b[2])
    ]
    return from_cover_relations(labels, pairs)


def _phi(n: int) -> dict[str, frozenset[str]]:
    # each flag element as an order ideal of the triangular poset: column
    # n-j+1 holds rows 1..i_j-j, plus every full column left of n-k+1
    out = {}
    for k in range(1, n):
        for combo in itertools.combinations(range(1, n + 1), k):
            cells = set()
            for j, ij in enumerate(combo, start=1):
                col = n - j + 1
                cells.update(_cell(t, col) for t in range(1, ij - j + 1))
            for r in range(1, n + 1):
                for s in range(r, n + 1):
                    if s < n - k + 1:
                        cells.add(_cell(r, s))
            cells.discard(_cell(1, 1))
            out[_label_of(combo)] = frozenset(cells)
    return out


def gt_poset_iso(n: int, L: Lattice) -> tuple[Poset, dict[str, str]]:
    """The triangular poset together with the label map that identifies it
    with the poset of join-irreducibles of L, which must be flag_lattice(n)."""
    pt = gt_poset(n)
    phi = _phi(n)
    assert set(phi.values()) == set(order_ideals(pt))
    for a, b in itertools.product(L.elements, repeat=2):
        assert L.leq(a, b) == (phi[a] <= phi[b])
        assert phi[L.join(a, b)] == phi[a] | phi[b]
        assert phi[L.meet(a, b)] == phi[a] & phi[b]
    mapping = {}
    for t in L.poset_P.elements:
        ideal = phi[t]
        tops = [p for p in ideal
                if not any(p != q and pt.leq(p, q) for q in ideal)]
        assert len(tops) == 1, "irreducibles must map to principal ideals"
        mapping[t] = tops[0]
    assert sorted(mapping.values()) == sorted(pt.elements)
    for s, t in itertools.product(L.poset_P.elements, repeat=2):
        assert L.poset_P.leq(s, t) == pt.leq(mapping[s], mapping[t])
    return pt, mapping


# -- marked order polytopes --------------------------------------------------


@dataclass(frozen=True)
class MarkedPoset:
    """A poset with a marked subset carrying fixed integer values.

    Convention: points satisfy x_p >= x_q whenever p < q, so values must
    not increase along the order.
    """

    base: Poset
    marked: tuple[str, ...]
    values: dict[str, int]

    def __post_init__(self):
        marked = set(self.marked)
        assert marked == set(self.values)
        below = self.base.below
        for j, p in enumerate(self.base.elements):
            is_min = not below[j]
            is_max = not any(m >> j & 1 for m in below)
            if is_min or is_max:
                assert p in marked, "extreme elements must be marked"
        for a, b in itertools.permutations(self.marked, 2):
            if self.base.less(a, b):
                assert self.values[a] >= self.values[b]

    def free(self) -> list[str]:
        marked = set(self.marked)
        return [p for p in self.base.elements if p not in marked]


def _gt_marking(n: int) -> dict[str, int]:
    """The Gelfand-Tsetlin marking on the (n-1)-scaled lattice: p_{r,r}
    carries n - r."""
    return {_cell(r, r): n - r for r in range(1, n + 1)}


def gt_marked_poset(n: int) -> MarkedPoset:
    """Full triangular array, diagonal marked to n - r: the Gelfand-Tsetlin
    polytope scaled by n - 1, so every marking is an integer."""
    if n < 2:
        raise BadParams("need n >= 2")
    labels = pbar_labels(n)
    pairs = [
        (a, b)
        for a, b in itertools.permutations(labels, 2)
        if int(a[1]) <= int(b[1]) and int(a[2]) <= int(b[2])
    ]
    base = from_cover_relations(labels, pairs)
    marked = tuple(_cell(r, r) for r in range(1, n + 1))
    return MarkedPoset(base, marked, _gt_marking(n))


def mu_k_marked_poset(n: int, k: int) -> MarkedPoset:
    """0/1 diagonal marking whose polytope holds the k-index flag points:
    p_{r,r} is marked 1 exactly when r <= n-k."""
    if not 1 <= k <= n - 1:
        raise BadParams("need 1 <= k <= n-1")
    mp = gt_marked_poset(n)
    return MarkedPoset(mp.base, mp.marked,
                       {p: 1 if v >= k else 0 for p, v in mp.values.items()})


def _satisfies(mp: MarkedPoset, order: Poset, point: dict[str, int]) -> bool:
    if any(point[p] != mp.values[p] for p in mp.marked):
        return False
    return all(point[a] >= point[b] for a, b in order.covers())


def _vertex_candidates(mp: MarkedPoset, order: Poset) -> list[dict[str, int]]:
    """Every point that fixes the markings, takes a marking value on each
    free cell, and satisfies x_a >= x_b for each cover a < b of `order`, as
    dicts in a fixed order.

    Every vertex coordinate propagates from a marked cell through tight
    inequalities, so this candidate set contains all vertices.
    """
    if not is_stronger(order, mp.base):
        raise NotStronger("order must refine the marked poset's base order")
    free = mp.free()
    if len(free) > 13:
        raise TooLarge("marked polytope enumeration capped at 13 free cells")
    preds = {p: [] for p in order.elements}
    for a, b in order.covers():
        preds[b].append(a)
    lower = {
        p: max(mp.values[m] for m in mp.marked if order.leq(p, m))
        for p in free
    }
    return _fillings(next(linear_extensions(order)).order, preds, lower, mp.values)


def _fillings(ext: Sequence[str], preds: dict, lower: dict, marking: dict) -> list[dict]:
    """The candidate search, cell by cell along the linear extension `ext`:
    a marked cell takes its marking, a free cell p any marking value between
    lower[p] and the least value of its predecessors."""
    values = sorted(set(marking.values()), reverse=True)
    assignment = {}
    out = []

    def descend(i):
        if i == len(ext):
            if len(out) == 500_000:
                raise TooLarge("marked polytope has too many candidate points")
            out.append(dict(assignment))
            return
        p = ext[i]
        cap = min((assignment[q] for q in preds[p]), default=values[0])
        for v in [marking[p]] if p in marking else values:
            if v > cap or (p in lower and v < lower[p]):
                continue
            assignment[p] = v
            descend(i + 1)
            del assignment[p]

    descend(0)
    return out


def _anchored(covers, marked, free, point) -> bool:
    # a point is a vertex iff every free cell reaches a marked cell through
    # the graph of tight cover inequalities; cells are keys of `point`
    parent = {}

    def find(x):
        while x in parent:
            parent[x] = parent.get(parent[x], parent[x])  # path halving
            x = parent[x]
        return x

    for a, b in covers:
        if point[a] == point[b]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    anchored = {find(m) for m in marked}
    return all(find(p) in anchored for p in free)


def _is_vertex(mp: MarkedPoset, order: Poset, point: dict) -> bool:
    return _anchored(order.covers(), mp.marked, mp.free(), point)


def _marked_vertices(mp: MarkedPoset, order: Poset) -> list[tuple[int, ...]]:
    """Vertices of the marked order polytope, x_p fixed to the marking on M
    and x_p >= x_q for p < q in `order`, as value tuples over
    mp.base.elements: the candidates take marking values only, and a
    candidate is extreme iff its tight graph anchors every free cell."""
    labels = mp.base.elements
    points = [tuple(cand[p] for p in labels)
              for cand in _vertex_candidates(mp, order)
              if _is_vertex(mp, order, cand)]
    assert points, "a marked polytope always has at least one vertex"
    assert len(set(points)) == len(points)
    return points


# -- Gelfand-Tsetlin vertices ------------------------------------------------


@dataclass(frozen=True)
class GTVertex:
    """A vertex with its Minkowski decomposition, on the (n-1)-scaled
    integer lattice: (n-1) times the vertex is point = sum(decomposition),
    and the k-th entry is the flag point of the k-index element named by
    labels[k-1]."""

    point: tuple[int, ...]
    decomposition: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]


def flag_point(n: int, label: str, phi: dict) -> tuple[int, ...]:
    """0/1 indicator of the flag element's triangular ideal phi[label], with
    the two corner cells pinned to 1 and 0."""
    ideal = phi[label]
    coords = []
    for p in pbar_labels(n):
        if p == _cell(1, 1):
            coords.append(1)
        elif p == _cell(n, n):
            coords.append(0)
        else:
            coords.append(1 if p in ideal else 0)
    return tuple(coords)


def gt_patterns(n: int) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Every point of the Gelfand-Tsetlin polytope whose coordinates all
    take marking values, with its flag-element chain, on the (n-1)-scaled
    integer lattice: each point is n - 1 times a point of the polytope.

    The k-th chain entry is read off the superlevel set at k: that ideal's
    flag element has exactly k indices, and the point is the sum of the 0/1
    flag points of its chain. Patterns are exactly the chains
    a_1 > a_2 > ... > a_{n-1} with a_k a k-index element, so there are
    2^(n(n-1)/2) of them; the polytope's vertices, scaled, are among them.
    """
    if n < 2:
        raise BadParams("need n >= 2")
    if n > MAX_GT_RANK:
        raise TooLarge(f"Gelfand-Tsetlin work is capped at n = {MAX_GT_RANK}")
    phi = _phi(n)
    ideal_to_label = {ideal: lbl for lbl, ideal in phi.items()}
    assert len(ideal_to_label) == len(phi)
    flag_points = {lbl: flag_point(n, lbl, phi) for lbl in phi}
    labels = pbar_labels(n)
    ptilde = _ptilde_labels(n)
    mp = gt_marked_poset(n)
    out = []
    for cand in _vertex_candidates(mp, mp.base):
        point = tuple(cand[p] for p in labels)
        chain = []
        for k in range(1, n):
            level = frozenset(p for p in ptilde if cand[p] >= k)
            lbl = ideal_to_label.get(level)
            assert lbl is not None and len(lbl) == k
            chain.append(lbl)
        total = tuple(map(sum, zip(*(flag_points[lbl] for lbl in chain))))
        assert total == point
        out.append((point, tuple(chain)))
    assert len(out) == 2 ** (n * (n - 1) // 2)
    return out


def gt_vertices(n: int) -> list[GTVertex]:
    """Vertices of the Gelfand-Tsetlin polytope with exact decompositions.

    Vertices are the patterns whose tight-constraint graph anchors every
    free cell. The search runs on the (n-1)-scaled integer lattice, and
    each vertex keeps its scaled point and flag points.
    """
    mp = gt_marked_poset(n)
    phi = _phi(n)
    flag_points = {lbl: flag_point(n, lbl, phi) for lbl in phi}
    xi = {k: set(_marked_vertices(mu_k_marked_poset(n, k), mp.base)) for k in range(1, n)}
    for k in range(1, n):
        k_points = {flag_points[lbl] for lbl in phi if len(lbl) == k}
        assert xi[k] == k_points, "level-k vertices must be k-index flag points"
    labels = mp.base.elements
    out = []
    for point, chain in gt_patterns(n):
        if not _is_vertex(mp, mp.base, dict(zip(labels, point))):
            continue
        for k, lbl in enumerate(chain, start=1):
            assert flag_points[lbl] in xi[k]
        out.append(GTVertex(point, tuple(flag_points[lbl] for lbl in chain), chain))
    return out


# -- sections of the ambient subdivision -------------------------------------


def _extend_to_pbar(n: int, order_pt: Poset, iso: dict[str, str]) -> Poset:
    relabeled = [(iso[a], iso[b]) for a, b in order_pt.label_pairs()]
    bottom, top = _cell(1, 1), _cell(n, n)
    inner = [iso[p] for p in order_pt.elements]
    pairs = relabeled + [(bottom, p) for p in inner] + [(p, top) for p in inner]
    pairs.append((bottom, top))
    return from_cover_relations(pbar_labels(n), pairs)


def gt_subdivision(n: int, F: Face, flag: Lattice) -> list[tuple[Poset, LatticePolytope]]:
    """Parts of the Gelfand-Tsetlin polytope induced by a face of the cone
    of flag = flag_lattice(n): the diagonal-pinned sections of the ambient
    parts.

    Cross-checked against the subdivision the lifted heights define
    directly: over every pattern point x, each part's affine map
    overestimates the lifted height, meets it exactly when x lies in that
    section, and the minimum over parts always attains it. Since section
    vertices are pattern points, this pins the same cell structure.

    The sections are cut on the (n-1)-scaled integer lattice, over the
    patterns of gt_patterns; each section's polytope holds those integer
    vertices over den = n - 1.
    """
    if n > MAX_GT_RANK:
        raise TooLarge(f"Gelfand-Tsetlin work is capped at n = {MAX_GT_RANK}")
    L = F.cone.lattice
    if L != flag:
        raise ValueError("face must come from the flag lattice's cone")
    _, iso = gt_poset_iso(n, flag)
    mp = gt_marked_poset(n)
    sub = face_subdivision(F)
    pbar = pbar_labels(n)
    # each scaled pattern point with its cells and its lifted height times
    # (n-1)·den, which is the sum of the scaled weight over its chain
    lifts = {point: (dict(zip(pbar, point)), sum(sub.scaled[L.index(lbl)] for lbl in chain))
             for point, chain in gt_patterns(n)}
    at = [pbar.index(iso[p]) for p in L.poset_P.elements]
    in_parts = dict.fromkeys(lifts, 0)
    parts = []
    for part in sub.parts:
        order = _extend_to_pbar(n, part.order, iso)
        vertices = _marked_vertices(mp, order)
        member_points = set(vertices)
        assert member_points <= lifts.keys()
        for point, (coords, lifted) in lifts.items():
            value = part.const * (n - 1) + sum(a * point[k] for a, k in zip(part.alpha, at))
            assert value >= lifted, "part maps must overestimate the lift"
            inside = _satisfies(mp, order, coords)
            assert (value == lifted) == inside
            if inside:
                in_parts[point] += 1
            assert (inside and _is_vertex(mp, order, coords)) == (
                point in member_points)
        Q = LatticePolytope(vertices, n - 1, already_extreme=True)
        assert Q.dim == len(mp.free()), "each section must be full-dimensional"
        parts.append((order, Q))
    assert all(count >= 1 for count in in_parts.values())
    assert len(parts) == len(sub.parts)
    return parts


# -- component shapes --------------------------------------------------------


def _chain_vertices(chain: Sequence[str], marking: dict[str, int]) -> list[tuple[int, ...]]:
    """Vertices of the marked order polytope of a chain, x_c >= x_d for
    each step c, d of it, as value tuples along the chain: the candidates
    of the search that _marked_vertices runs, kept by the same anchoring
    test."""
    preds = {d: [c] for c, d in zip(chain, chain[1:])}
    preds[chain[0]] = []
    lower = {}
    bound = None  # the marking of the next marked cell
    for p in reversed(chain):
        if p in marking:
            bound = marking[p]
        else:
            lower[p] = bound
    covers = list(zip(chain, chain[1:]))
    free = list(lower)
    return [tuple(point[p] for p in chain)
            for point in _fillings(chain, preds, lower, marking)
            if _anchored(covers, marking, free, point)]


def _shape_and_image(ext: LinearExtension) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """component_shape's block sizes, with the image of its section's
    vertices under the difference map, on the (n-1)-scaled lattice."""
    size = ext.poset.size
    n = next(m for m in range(2, 20) if m * (m + 1) // 2 - 2 == size)
    total = [_cell(1, 1), *ext.order, _cell(n, n)]
    position = {p: i for i, p in enumerate(total)}
    blocks = []
    for k in range(1, n):
        lo, hi = position[_cell(k, k)], position[_cell(k + 1, k + 1)]
        assert lo < hi
        blocks.append(total[lo + 1:hi])
    shape = tuple(len(b) for b in blocks)
    assert sum(shape) == n * (n - 1) // 2
    assert all(d > 0 for d in shape)

    # the difference map sends x to x_c - x_d over the steps c, d of each
    # block followed by the next marker: one row per free cell c, in
    # chain order, and d is the cell after c
    marking = _gt_marking(n)
    vertices = _chain_vertices(total, marking)
    rows = [i for i, p in enumerate(total) if p not in marking]
    image = [tuple(v[i] - v[i + 1] for i in rows) for v in vertices]
    assert len(set(image)) == len(vertices)
    slots = []
    offset = 0
    for d in shape:
        slots.append(range(offset, offset + d))
        offset += d
    product_vertices = set()
    for choice in itertools.product(*[[None, *s] for s in slots]):
        z = [0] * offset
        for j in choice:
            if j is not None:
                z[j] = 1
        product_vertices.add(tuple(z))
    assert set(image) == product_vertices
    col = {p: j for j, p in enumerate(p for p in pbar_labels(n) if p not in marking)}
    B = []
    for i in rows:
        row = [0] * len(col)
        row[col[total[i]]] = 1
        if total[i + 1] in col:
            row[col[total[i + 1]]] = -1
        B.append(row)
    identity = [[1 if i == j else 0 for j in range(len(B))] for i in range(len(B))]
    assert same_lattice(B, identity), "difference map must be unimodular"
    return shape, image


def component_shape(ext: LinearExtension) -> tuple[int, ...]:
    """Block sizes of a linearization: the number of cells strictly between
    consecutive diagonal markers once the corners are added back.

    Verifies that the corresponding section is a product of unit simplices
    of these dimensions, up to a unimodular change of the (n-1)-scaled
    lattice. The section's vertices are enumerated on that lattice, where
    the marking of p_{r,r} is n - r, and compared as integer tuples."""
    return _shape_and_image(ext)[0]


def shape_census(n: int) -> dict[str, int]:
    """How many linearizations produce each multiset of block sizes."""
    census: dict[str, int] = {}
    for ext in linear_extensions(gt_poset(n)):
        shape = component_shape(ext)
        key = "x".join(str(d) for d in sorted(shape, reverse=True))
        census[key] = census.get(key, 0) + 1
    return census
