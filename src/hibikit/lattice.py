"""Finite distributive lattices and the Birkhoff correspondence.

A lattice is stored as the poset poset_P of its join-irreducible elements
and, per element a, the bitmask of its order ideal iota(a) of poset_P, bit j
for poset_P.elements[j]. Join and meet are OR and AND of the masks, and
a <= b is mask containment. birkhoff reads the masks straight off the
ideals of a poset. from_ops, whose operations are not set operations, goes
through one validator that checks every lattice axiom and the Birkhoff
invariants on n×n tables before it reads the masks off them; from_tables
validates a text file's tables so, then relabels through birkhoff.

The builtin Grassmann and flag families label their elements by index
tuples written as digit strings ("13" for {1, 3}), so n is capped at 9.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import BadParams, NotALattice, NotDistributive, UnknownLabel
from .poset import (
    Poset,
    _bits,
    check_labels,
    ideal_masks,
    linear_extensions,
    parse_poset,
)


def ideal_label(mask: int, ground: Sequence[str]) -> str:
    """The label of an ideal given as a bitmask, bit j for ground[j]: its
    members in ground order, comma separated, in braces."""
    return "{" + ",".join(ground[j] for j in _bits(mask)) + "}"


class Lattice:
    """A finite distributive lattice.

    elements: canonical label tuple
    poset_P: poset of join-irreducibles
    masks: per element, its order ideal of poset_P as a bitmask
    at_mask: the element index of each mask

    The tables that depend on the lattice alone are built on first use and
    kept here, so every face of one lattice reads the same ones: the linear
    extensions (extensions), the diamond pairs (diamond_pairs), the
    subdivision's staircase table and adjacency graph
    (subdivision.staircase_table, subdivision.adjacency_graph), and the
    degree-wise monomial states and tables of hibi.degree_table.
    """

    def __init__(self, elements, poset_P, masks):
        self.elements: tuple[str, ...] = tuple(elements)
        self.poset_P: Poset = poset_P
        self.masks: tuple[int, ...] = tuple(masks)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self.at_mask = {m: i for i, m in enumerate(self.masks)}
        self._extensions: Optional[tuple[tuple[int, ...], ...]] = None
        self._diamond_pairs: Optional[tuple[DiamondPair, ...]] = None
        self._staircases = None  # subdivision.staircase_table
        self._adjacency_graph = None  # subdivision.adjacency_graph
        self._degree_states: list[set[int]] = []  # hibi.degree_table
        self._degree_tables: dict[int, tuple] = {}  # hibi.degree_table

    # -- basic structure ----------------------------------------------------

    def index(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise UnknownLabel(f"unknown lattice element {a!r}") from None

    @property
    def size(self) -> int:
        return len(self.elements)

    def _mask(self, a: str) -> int:
        return self.masks[self.index(a)]

    def join(self, a: str, b: str) -> str:
        return self.elements[self.at_mask[self._mask(a) | self._mask(b)]]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self.at_mask[self._mask(a) & self._mask(b)]]

    def leq(self, a: str, b: str) -> bool:
        return not self._mask(a) & ~self._mask(b)

    @property
    def bottom(self) -> str:
        return self.elements[self.at_mask[0]]

    @property
    def top(self) -> str:
        return self.elements[self.at_mask[(1 << self.poset_P.size) - 1]]

    def height(self, a: str) -> int:
        return self._mask(a).bit_count()

    def extensions(self) -> tuple[tuple[int, ...], ...]:
        """The linear extensions of poset_P, as linear_extensions yields
        them; built once per lattice."""
        if self._extensions is None:
            self._extensions = tuple(linear_extensions(self.poset_P))
        return self._extensions

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.elements == other.elements
                and self.poset_P == other.poset_P and self.masks == other.masks)

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Lattice({self.size} elements, P of size {self.poset_P.size})"


class DiamondPair(NamedTuple):
    """Incomparable a, b whose join covers both and which cover their meet."""

    a: str
    b: str
    meet_elt: str
    join_elt: str

    def key(self) -> tuple[str, str]:
        return (self.a, self.b)


# ---------------------------------------------------------------------------
# the shared validator


def _assemble(elements: Sequence[str],
              join_idx: list[list[int]],
              meet_idx: list[list[int]]) -> Lattice:
    """Validate tables, compute join-irreducibles, poset_P, and the ideal
    masks.

    Raises NotALattice / NotDistributive with details on any violation.
    """
    n = len(elements)
    if n == 0:
        raise NotALattice("empty element list")
    rng = range(n)

    def chk(cond, msg):
        if not cond:
            raise NotALattice(msg)

    for i in rng:
        chk(join_idx[i][i] == i, f"join not idempotent at {elements[i]}")
        chk(meet_idx[i][i] == i, f"meet not idempotent at {elements[i]}")
        for j in rng:
            chk(join_idx[i][j] == join_idx[j][i], "join not commutative")
            chk(meet_idx[i][j] == meet_idx[j][i], "meet not commutative")
            chk(meet_idx[i][join_idx[i][j]] == i, "absorption fails")
            chk(join_idx[i][meet_idx[i][j]] == i, "absorption fails")
    for i in rng:
        for j in rng:
            for k in rng:
                chk(join_idx[join_idx[i][j]][k] == join_idx[i][join_idx[j][k]],
                    "join not associative")
                chk(meet_idx[meet_idx[i][j]][k] == meet_idx[i][meet_idx[j][k]],
                    "meet not associative")
    for i in rng:
        for j in rng:
            for k in rng:
                if meet_idx[i][join_idx[j][k]] != join_idx[meet_idx[i][j]][meet_idx[i][k]]:
                    raise NotDistributive(
                        f"meet does not distribute over join on "
                        f"({elements[i]}, {elements[j]}, {elements[k]})",
                        witness=(elements[i], elements[j], elements[k]))
                if join_idx[i][meet_idx[j][k]] != meet_idx[join_idx[i][j]][join_idx[i][k]]:
                    raise NotDistributive(
                        f"join does not distribute over meet on "
                        f"({elements[i]}, {elements[j]}, {elements[k]})",
                        witness=(elements[i], elements[j], elements[k]))

    leq = [[join_idx[i][j] == j for j in rng] for i in rng]
    less = [[leq[i][j] and i != j for j in rng] for i in rng]

    def is_cover(i, j):
        return less[i][j] and not any(less[i][k] and less[k][j] for k in rng)

    irreducibles = []
    for j in rng:
        covered = [i for i in rng if is_cover(i, j)]
        if len(covered) == 1:
            irreducibles.append(j)

    poset_P = Poset(tuple(elements[j] for j in irreducibles), tuple(
        sum(1 << s for s, i in enumerate(irreducibles) if less[i][j]) for j in irreducibles))
    masks = [sum(1 << t for t, i in enumerate(irreducibles) if leq[i][j]) for j in rng]

    # Birkhoff invariants: iota is a bijection onto the ideals of poset_P,
    # joins go to unions and meets to intersections
    images = set(masks)
    chk(len(images) == n and images == set(ideal_masks(poset_P)),
        "iota is not a bijection onto the order ideals")
    for i in rng:
        for j in rng:
            chk(masks[join_idx[i][j]] == masks[i] | masks[j],
                "join does not correspond to union of ideals")
            chk(masks[meet_idx[i][j]] == masks[i] & masks[j],
                "meet does not correspond to intersection of ideals")
    # every element is the join of the irreducibles below it
    for j in rng:
        acc = None
        for i in irreducibles:
            if leq[i][j]:
                acc = i if acc is None else join_idx[acc][i]
        if acc is None:
            acc = next(i for i in rng if all(leq[i][k] for k in rng))
        chk(acc == j, f"{elements[j]} is not the join of its irreducibles")
    # graded structure: |iota(a)| is the height of a, lattice height |P|+1
    for i in rng:
        for j in rng:
            if is_cover(i, j):
                chk(masks[j].bit_count() == masks[i].bit_count() + 1,
                    "cover steps must raise height by exactly one")
    return Lattice(elements, poset_P, masks)


# ---------------------------------------------------------------------------
# constructors

MAX_INDEX = 9  # a label spells each index as one digit


def birkhoff(P: Poset) -> Lattice:
    """The lattice of order ideals of P, with join union and meet
    intersection, read straight off the ideal masks: a family of sets closed
    under union and intersection is a distributive lattice, so closure is
    the one check. The elements are the ideals in canonical order, labelled
    in P's element order. poset_P holds P's elements as the principal
    ideals, in the lattice's element order, and the masks follow it."""
    ideals = ideal_masks(P)
    at = {m: k for k, m in enumerate(ideals)}
    if any(x | y not in at or x & y not in at for x, y in combinations(ideals, 2)):
        raise AssertionError("order ideals are not closed under union and intersection")
    order = sorted(range(P.size), key=lambda j: at[P.below[j] | 1 << j])
    bit = [0] * P.size
    for t, j in enumerate(order):
        bit[j] = 1 << t

    def moved(m: int) -> int:
        return sum(bit[j] for j in _bits(m))

    poset_P = Poset(tuple(P.elements[j] for j in order),
                    tuple(moved(P.below[j]) for j in order))
    return Lattice([ideal_label(m, P.elements) for m in ideals], poset_P,
                   [moved(m) for m in ideals])


def from_ops(elements: Sequence[str],
             join_fn: Callable[[str, str], str],
             meet_fn: Callable[[str, str], str]) -> Lattice:
    """Build a lattice from join/meet callables, keeping the given labels."""
    elems = tuple(elements)
    index = {x: i for i, x in enumerate(elems)}

    def idx_table(fn):
        table = []
        for a in elems:
            row = []
            for b in elems:
                c = fn(a, b)
                if c not in index:
                    raise UnknownLabel(f"operation result {c!r} is not an element")
                row.append(index[c])
            table.append(row)
        return table

    return _assemble(elems, idx_table(join_fn), idx_table(meet_fn))


def from_tables(elements: Sequence[str],
                join: Mapping[tuple[str, str], str],
                meet: Mapping[tuple[str, str], str]) -> Lattice:
    """Validate explicit tables and canonically rename elements to their
    ideals of join-irreducibles (the original irreducible labels survive as
    the ground set of poset_P): once the tables pass, the lattice is the
    Birkhoff lattice of its irreducibles."""

    def lookup(table, a, b, what):
        if (a, b) in table:
            return table[(a, b)]
        if (b, a) in table:
            return table[(b, a)]
        if a == b:
            return a
        raise NotALattice(f"{what} table is not total: missing ({a}, {b})")

    raw = from_ops(elements,
                   lambda a, b: lookup(join, a, b, "join"),
                   lambda a, b: lookup(meet, a, b, "meet"))
    return birkhoff(raw.poset_P)


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
    elements = [_label_of(c) for c in combinations(range(1, n + 1), k)]

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
        for c in combinations(range(1, n + 1), k)
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


# ---------------------------------------------------------------------------
# structure maps


def diamond_pairs(L: Lattice) -> tuple[DiamondPair, ...]:
    """All unordered diamond pairs, in canonical element order; built once
    per lattice and kept on L. A diamond is an ideal m, its meet, with two
    addable elements p and q: minimal elements of its complement. Its sides
    are m + p and m + q and its join m + p + q."""
    if L._diamond_pairs is not None:
        return L._diamond_pairs
    at = L.at_mask
    found = []
    for m in L.masks:
        addable = [1 << j for j, b in enumerate(L.poset_P.below)
                   if not (m >> j & 1 or b & ~m)]
        for p, q in combinations(addable, 2):
            a, b = sorted((at[m | p], at[m | q]))
            found.append((a, b, at[m], at[m | p | q]))
    E = L.elements
    L._diamond_pairs = tuple(DiamondPair(E[a], E[b], E[m], E[j]) for a, b, m, j in sorted(found))
    return L._diamond_pairs


def maximal_chain_count(L: Lattice) -> int:
    """The number of maximal chains, counted twice: as paths from bottom to
    top over the cover relation, and as linear extensions of poset_P, built
    one maximal element at a time over the ideal masks. The two counts are
    the two sides of the chain/extension bijection and must agree."""
    masks = L.masks
    height = [m.bit_count() for m in masks]
    # b covers a iff a < b and b is one higher: L is graded; only the
    # bottom has no lower cover
    paths = [0] * L.size  # element index -> chains from the bottom to it
    for j in sorted(range(L.size), key=height.__getitem__):
        paths[j] = sum(paths[i] for i in range(L.size)
                       if height[i] == height[j] - 1 and not masks[i] & ~masks[j]) or 1
    extensions = {0: 1}  # ideal mask -> linear extensions of the ideal
    for m in sorted(masks, key=int.bit_count)[1:]:
        extensions[m] = sum(extensions.get(m & ~(1 << j), 0) for j in _bits(m))
    count = paths[L.index(L.top)]
    if count != extensions[(1 << L.poset_P.size) - 1]:
        raise AssertionError("chain/extension bijection failed")
    return count


# ---------------------------------------------------------------------------
# text format


def parse_lattice(text: str) -> Lattice:
    """Either a poset file (interpreted via birkhoff) or `join a b c` /
    `meet a b c` triples fed to from_tables."""
    join: dict[tuple[str, str], str] = {}
    meet: dict[tuple[str, str], str] = {}
    labels: list[str] = []
    tables_mode = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("join", "meet") and len(parts) == 4:
            tables_mode = True
            table = join if parts[0] == "join" else meet
            table[(parts[1], parts[2])] = parts[3]
            for x in parts[1:]:
                if x not in labels:
                    labels.append(x)
        elif parts[0] == "elem" and len(parts) == 2:
            if parts[1] not in labels:
                labels.append(parts[1])
        elif parts[0] == "cover" and len(parts) == 3:
            tables_mode = False
            break
        else:
            raise ValueError(f"bad lattice line: {raw!r}")
    if tables_mode:
        check_labels(labels)
        return from_tables(labels, join, meet)
    return birkhoff(parse_poset(text))
