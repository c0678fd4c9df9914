"""Grassmannian and flag lattices, marked order polytopes, and
Gelfand-Tsetlin specializations.

Flag lattice elements are increasing index tuples written as digit strings
("13" for a_{1,3}). The triangular poset lives on labels "p{r}{s}" for
1 <= r <= s <= n; the two corner cells p11 and pnn only appear in the
extended ground set that marked polytopes are defined on. Points of the
ambient space R^{Pbar} are tuples over pbar_labels(n), which sorts cells
by (r, s).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cone import Face, sample_relative_interior
from .errors import BadParams, NotStronger, TooLarge
from .exactgeom import (
    AffineMap,
    LatticePolytope,
    Vec,
    hull_vertices,
    rank,
    same_lattice,
    to_vec,
    vadd,
    zero_vec,
)
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


def _tuple_of(label: str) -> tuple[int, ...]:
    return tuple(int(c) for c in label)


def _label_of(indices: Sequence[int]) -> str:
    return "".join(str(i) for i in indices)


def grassmann_lattice(k: int, n: int) -> Lattice:
    """All k-element index sets with componentwise min/max as meet/join."""
    if not 1 <= k <= n - 1:
        raise BadParams("need 1 <= k <= n-1")
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


def gt_poset_iso(n: int) -> tuple[Poset, dict[str, str]]:
    """The triangular poset together with the label map that identifies it
    with the flag lattice's poset of join-irreducibles."""
    L = flag_lattice(n)
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
    """A poset with a marked subset carrying fixed rational values.

    Convention: points satisfy x_p >= x_q whenever p < q, so values must
    not increase along the order.
    """

    base: Poset
    marked: tuple[str, ...]
    values: dict[str, Fraction]

    def __post_init__(self):
        marked = set(self.marked)
        assert marked == set(self.values)
        for p in self.base.elements:
            is_min = not any(self.base.less(q, p) for q in self.base.elements)
            is_max = not any(self.base.less(p, q) for q in self.base.elements)
            if is_min or is_max:
                assert p in marked, "extreme elements must be marked"
        for a, b in itertools.permutations(self.marked, 2):
            if self.base.less(a, b):
                assert self.values[a] >= self.values[b]

    def free(self) -> list[str]:
        marked = set(self.marked)
        return [p for p in self.base.elements if p not in marked]


def _diagonal_values(n: int, value_of_r) -> dict[str, Fraction]:
    return {_cell(r, r): Fraction(value_of_r(r)) for r in range(1, n + 1)}


def gt_marked_poset(n: int) -> MarkedPoset:
    """Full triangular array, diagonal marked to (n-r)/(n-1)."""
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
    return MarkedPoset(base, marked, _diagonal_values(n, lambda r: Fraction(n - r, n - 1)))


def mu_k_marked_poset(n: int, k: int) -> MarkedPoset:
    """0/1 diagonal marking whose polytope holds the k-index flag points:
    p_{r,r} is marked 1 exactly when r <= n-k."""
    if not 1 <= k <= n - 1:
        raise BadParams("need 1 <= k <= n-1")
    mp = gt_marked_poset(n)
    return MarkedPoset(mp.base, mp.marked,
                       _diagonal_values(n, lambda r: 1 if r <= n - k else 0))


def scaled_marked_poset(mp: MarkedPoset, c) -> MarkedPoset:
    return MarkedPoset(mp.base, mp.marked,
                       {p: Fraction(c) * v for p, v in mp.values.items()})


def _satisfies(mp: MarkedPoset, order: Poset, point: dict[str, Fraction]) -> bool:
    if any(point[p] != mp.values[p] for p in mp.marked):
        return False
    return all(point[a] >= point[b] for a, b in order.covers())


def _monotone_fillings(mp: MarkedPoset, order: Poset, values: Sequence[Fraction]):
    """Every point that fixes the markings, takes one of `values` (given in
    descending order) on each free cell, and satisfies x_a >= x_b for each
    cover a < b of `order`. Points come as dicts, in a fixed order."""
    if not is_stronger(order, mp.base):
        raise NotStronger("order must refine the marked poset's base order")
    free = mp.free()
    if len(free) > 13:
        raise TooLarge("marked polytope enumeration capped at 13 free cells")
    ext = next(linear_extensions(order)).order
    preds = {p: [a for a, b in order.covers() if b == p] for p in order.elements}
    lower = {
        p: max(mp.values[m] for m in mp.marked if order.leq(p, m))
        for p in free
    }
    assignment = {}

    def descend(i):
        if i == len(ext):
            yield dict(assignment)
            return
        p = ext[i]
        cap = min((assignment[q] for q in preds[p]), default=values[0])
        for v in [mp.values[p]] if p in mp.values else values:
            if v > cap or (p in lower and v < lower[p]):
                continue
            assignment[p] = v
            yield from descend(i + 1)
            del assignment[p]

    return descend(0)


def _vertex_candidates(mp: MarkedPoset, order: Poset) -> list[dict[str, Fraction]]:
    """Monotone completions of the markings using marking values only.

    Every vertex coordinate propagates from a marked cell through tight
    inequalities, so this candidate set contains all vertices.
    """
    values = sorted(set(mp.values.values()), reverse=True)
    out = []
    for point in _monotone_fillings(mp, order, values):
        if len(out) == 500_000:
            raise TooLarge("marked polytope has too many candidate points")
        out.append(point)
    return out


def _is_vertex(mp: MarkedPoset, order: Poset, point: dict[str, Fraction]) -> bool:
    # a point is a vertex iff every free cell reaches a marked cell through
    # the graph of tight cover inequalities
    parent = {p: p for p in order.elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in order.covers():
        if point[a] == point[b]:
            parent[find(a)] = find(b)
    anchored = {find(m) for m in mp.marked}
    return all(find(p) in anchored for p in mp.free())


def tight_rank(mp: MarkedPoset, order: Poset, point: dict[str, Fraction]) -> int:
    """Rank of the tight constraint normals in the free coordinates. Equals
    the number of free cells exactly at vertices."""
    free = mp.free()
    col = {p: i for i, p in enumerate(free)}
    rows = []
    for a, b in order.covers():
        if point[a] != point[b]:
            continue
        row = [Fraction(0)] * len(free)
        if a in col:
            row[col[a]] += 1
        if b in col:
            row[col[b]] -= 1
        if any(row):
            rows.append(row)
    return rank(rows) if rows else 0


def marked_order_polytope(mp: MarkedPoset, order: Poset) -> LatticePolytope:
    """x_p fixed to the marking on M, x_p >= x_q for p < q in `order`.

    Vertices enumerated exactly: candidates take marking values only, and a
    candidate is extreme iff its tight graph anchors every free cell.
    """
    labels = mp.base.elements
    points = []
    for cand in _vertex_candidates(mp, order):
        if _is_vertex(mp, order, cand):
            points.append(tuple(cand[p] for p in labels))
    assert points, "a marked polytope always has at least one vertex"
    assert len(set(points)) == len(points)
    return LatticePolytope(points, already_extreme=True)


def marked_integer_points(mp: MarkedPoset, order: Poset) -> list[Vec]:
    """All integer points, for integral markings, by direct enumeration."""
    assert all(v.denominator == 1 for v in mp.values.values())
    top = max(v for v in mp.values.values())
    bottom = min(v for v in mp.values.values())
    values = [Fraction(x) for x in range(int(top), int(bottom) - 1, -1)]
    labels = mp.base.elements
    return [tuple(point[p] for p in labels)
            for point in _monotone_fillings(mp, order, values)]


# -- Gelfand-Tsetlin vertices ------------------------------------------------


@dataclass(frozen=True)
class GTVertex:
    """A vertex with its Minkowski decomposition: point = sum(decomposition),
    and (n-1) times the k-th entry is the flag point of the k-index element
    named by labels[k-1]."""

    point: Vec
    decomposition: tuple[Vec, ...]
    labels: tuple[str, ...]


def flag_point(n: int, label: str, phi: Optional[dict] = None) -> Vec:
    """0/1 indicator of the flag element's triangular ideal, with the two
    corner cells pinned to 1 and 0."""
    if phi is None:
        phi = _phi(n)
    ideal = phi[label]
    coords = []
    for p in pbar_labels(n):
        if p == _cell(1, 1):
            coords.append(Fraction(1))
        elif p == _cell(n, n):
            coords.append(Fraction(0))
        else:
            coords.append(Fraction(1 if p in ideal else 0))
    return tuple(coords)


def gt_polytope(n: int) -> LatticePolytope:
    mp = gt_marked_poset(n)
    return marked_order_polytope(mp, mp.base)


def gt_patterns(n: int) -> list[tuple[Vec, tuple[str, ...]]]:
    """Every point of the Gelfand-Tsetlin polytope whose coordinates all
    take marking values, with its flag-element chain.

    The k-th chain entry is read off the superlevel set at k/(n-1): that
    ideal's flag element has exactly k indices, and the point is the sum of
    the scaled flag points of its chain. Patterns are exactly the chains
    a_1 > a_2 > ... > a_{n-1} with a_k a k-index element, so there are
    2^(n(n-1)/2) of them; the polytope's vertices are among them.
    """
    if n < 2:
        raise BadParams("need n >= 2")
    if n > MAX_GT_RANK:
        raise TooLarge(f"Gelfand-Tsetlin work is capped at n = {MAX_GT_RANK}")
    phi = _phi(n)
    ideal_to_label = {ideal: lbl for lbl, ideal in phi.items()}
    assert len(ideal_to_label) == len(phi)
    labels = pbar_labels(n)
    ptilde = set(_ptilde_labels(n))
    mp = gt_marked_poset(n)
    out = []
    for cand in _vertex_candidates(mp, mp.base):
        point = tuple(cand[p] for p in labels)
        chain = []
        total = zero_vec(len(labels))
        for k in range(1, n):
            level = frozenset(
                p for p in ptilde if cand[p] >= Fraction(k, n - 1))
            lbl = ideal_to_label.get(level)
            assert lbl is not None and len(lbl) == k
            chain.append(lbl)
            total = vadd(total, tuple(
                x / (n - 1) for x in flag_point(n, lbl, phi)))
        assert total == point
        out.append((point, tuple(chain)))
    assert len(out) == 2 ** (n * (n - 1) // 2)
    return out


def gt_vertices(n: int) -> list[GTVertex]:
    """Vertices of the Gelfand-Tsetlin polytope with exact decompositions.

    Vertices are the patterns whose tight-constraint graph anchors every
    free cell; for n <= 4 the set is cross-checked by an exact hull
    computation over all patterns.
    """
    phi = _phi(n)
    xi = {
        k: set(marked_order_polytope(mu_k_marked_poset(n, k),
                                     gt_marked_poset(n).base).vertices)
        for k in range(1, n)
    }
    for k in range(1, n):
        k_points = {flag_point(n, lbl, phi) for lbl in phi if len(lbl) == k}
        assert xi[k] == k_points, "level-k vertices must be k-index flag points"
    mp = gt_marked_poset(n)
    labels = mp.base.elements
    patterns = gt_patterns(n)
    out = []
    for point, chain in patterns:
        if not _is_vertex(mp, mp.base, dict(zip(labels, point))):
            continue
        decomposition = tuple(
            tuple(x / (n - 1) for x in flag_point(n, lbl, phi))
            for lbl in chain)
        for k, lbl in enumerate(chain, start=1):
            assert flag_point(n, lbl, phi) in xi[k]
        out.append(GTVertex(point, decomposition, chain))
    if n <= 4:
        assert set(hull_vertices([p for p, _ in patterns])) == {
            gv.point for gv in out}
    return out


def lift_c(n: int, w: Sequence) -> dict[Vec, Fraction]:
    """Height per GT vertex: the sum of the weights of its decomposition's
    flag elements. `w` is indexed like flag_lattice(n).elements."""
    L = flag_lattice(n)
    w = to_vec(w)
    if len(w) != L.size:
        raise ValueError("weight vector must be indexed by the flag lattice")
    return {
        gv.point: sum((w[L.index(lbl)] for lbl in gv.labels), Fraction(0))
        for gv in gt_vertices(n)
    }


# -- sections of the ambient subdivision -------------------------------------


def _extend_to_pbar(n: int, order_pt: Poset, iso: dict[str, str]) -> Poset:
    relabeled = [(iso[a], iso[b]) for a, b in order_pt.label_pairs()]
    bottom, top = _cell(1, 1), _cell(n, n)
    inner = [iso[p] for p in order_pt.elements]
    pairs = relabeled + [(bottom, p) for p in inner] + [(p, top) for p in inner]
    pairs.append((bottom, top))
    return from_cover_relations(pbar_labels(n), pairs)


def gt_subdivision(n: int, F: Face) -> list[tuple[Poset, LatticePolytope]]:
    """Parts of the Gelfand-Tsetlin polytope induced by a face of the flag
    lattice's cone: the diagonal-pinned sections of the ambient parts.

    Cross-checked against the subdivision the lifted heights define
    directly: over every pattern point x, each part's affine map
    overestimates the lifted height, meets it exactly when x lies in that
    section, and the minimum over parts always attains it. Since section
    vertices are pattern points, this pins the same cell structure.
    """
    if n > MAX_GT_RANK:
        raise TooLarge(f"Gelfand-Tsetlin work is capped at n = {MAX_GT_RANK}")
    L = F.cone.lattice
    if L != flag_lattice(n):
        raise ValueError("face must come from the flag lattice's cone")
    pt, iso = gt_poset_iso(n)
    mp = gt_marked_poset(n)
    sub = face_subdivision(F)
    w = sample_relative_interior(F)
    patterns = gt_patterns(n)
    heights = {
        point: sum((Fraction(w[L.index(lbl)]) for lbl in chain), Fraction(0))
        for point, chain in patterns
    }
    gt_dim = gt_polytope(n).dim
    pbar = pbar_labels(n)
    pattern_points = set(heights)
    in_parts = {point: 0 for point in pattern_points}
    parts = []
    for part in sub.parts:
        order = _extend_to_pbar(n, part.order, iso)
        Q = marked_order_polytope(mp, order)
        assert Q.dim == gt_dim, "each section must be full-dimensional"
        member_points = set(Q.vertices)
        assert member_points <= pattern_points
        for point in pattern_points:
            coords = dict(zip(pbar, point))
            ambient = tuple(coords[iso[p]] for p in L.poset_P.elements)
            value = part.value(ambient)
            lifted = heights[point] / (n - 1)
            assert value >= lifted, "part maps must overestimate the lift"
            inside = _satisfies(mp, order, coords)
            assert (value == lifted) == inside
            if inside:
                in_parts[point] += 1
            assert (inside and _is_vertex(mp, order, coords)) == (
                point in member_points)
        parts.append((order, Q))
    assert all(count >= 1 for count in in_parts.values())
    assert len(parts) == len(sub.parts)
    return parts


# -- component shapes --------------------------------------------------------


def component_shape(ext: LinearExtension) -> tuple[int, ...]:
    """Block sizes of a linearization: the number of cells strictly between
    consecutive diagonal markers once the corners are added back.

    Verifies that the corresponding section is a product of unit simplices
    of these dimensions, up to a unimodular change of the (n-1)-scaled
    lattice."""
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

    mp = gt_marked_poset(n)
    Q = marked_order_polytope(mp, from_cover_relations(
        pbar_labels(n), list(zip(total, total[1:]))))
    col = {p: i for i, p in enumerate(mp.base.elements)}
    rows = []
    for k, block in enumerate(blocks, start=1):
        chain = block + [_cell(k + 1, k + 1)]
        for a, b in zip(chain, chain[1:]):
            row = [Fraction(0)] * len(mp.base.elements)
            row[col[a]] = Fraction(n - 1)
            row[col[b]] = Fraction(-(n - 1))
            rows.append(row)
    diff = AffineMap(tuple(tuple(r) for r in rows),
                     tuple(zero_vec(len(rows))))
    image = [diff(v) for v in Q.vertices]
    assert len(set(image)) == len(Q.vertices)
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
        product_vertices.add(tuple(map(Fraction, z)))
    assert set(image) == product_vertices
    free_cols = [col[p] for p in mp.free()]
    B = [[int(r[c]) // (n - 1) for c in free_cols] for r in rows]
    identity = [[1 if i == j else 0 for j in range(len(B))] for i in range(len(B))]
    assert same_lattice(B, identity), "difference map must be unimodular"
    return shape


def shape_census(n: int) -> dict[str, int]:
    """How many linearizations produce each multiset of block sizes."""
    census: dict[str, int] = {}
    for ext in linear_extensions(gt_poset(n)):
        shape = component_shape(ext)
        key = "x".join(str(d) for d in sorted(shape, reverse=True))
        census[key] = census.get(key, 0) + 1
    return census
