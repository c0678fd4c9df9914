"""Reference orders for the bitmask posets and lattices.

hibikit holds an order as one down-set bitmask per element: bit i of
Poset.below[j] is set when elements[i] < elements[j], and a lattice element
is the bitmask of its order ideal of poset_P. PairPoset is the earlier
format it replaced: the relation as a frozenset of index pairs (i, j),
validated pair by pair, with brute-force covers, linear extensions over all
permutations and order ideals over all subsets. order_ideals labels the
bitmasks of poset.ideal_masks as the label sets that poset returned until
its last caller in the package, flaggt, moved to the bitmasks. The lattice
helpers read a lattice element as the label set of its ideal, iota(a), as
the lattice did when it kept those sets.

LinearExtension is the validated label tuple that poset.linear_extensions
yielded before it yielded index tuples; label_extension labels and
validates one index tuple, label_extensions all that linear_extensions
yields. lattice_chain is the maximal chain
of a labelled extension, as Lattice.chain read it; down_closed is the
per-mask closure test that regular_subdivision and distinguished_faces ran
before they read a part's vertices off ideal_masks of its order; and
pairwise_adjacency is the scan of all pairs of extensions, cross-checking
three characterizations of adjacency, that adjacency_graph ran before it
built its edges from adjacent swaps.

is_stronger compares two posets' down-set masks, as poset.is_stronger did
until regular_subdivision, its last caller in the package, tested each part
order's masks against poset_P's directly; it raises GroundSetMismatch, which
left hibikit.errors with it. label_pair_stronger is is_stronger as it
compared the relations' label pairs, before it compared down-set masks.

chain is the total order on a label list, which poset built until its last
caller in the package, the Gelfand-Tsetlin census, moved to the chain's
H-description. _assemble is the validator of join/meet index tables that
lattice.from_tables ran before it certified the tables by their embedding
into a ring of sets (lattice._table_lattice): every lattice axiom and both
distributive laws, entry by entry in O(n³) loops, then the sets of
irreducibles below each element handed to lattice._ring_of_sets. from_ops
builds the tables of join/meet callables and hands them to _assemble.
grassmann_by_ops and flag_by_ops are the builtin Grassmann and flag
lattices as lattice.grassmann_lattice and lattice.flag_lattice built them
before they read their elements as rings of sets: string join and meet
closures on the digit labels, validated by from_ops on the full n×n tables.

less and leq compare two labels of a Poset or a Lattice, and join_of and
meet_of combine two labels of a Lattice, as the Poset.less, Poset.leq,
Lattice.leq, Lattice.join and Lattice.meet methods did until the package
compared and combined the masks themselves.

vertex_labels names a subdivision part's vertices by their labels, as
Part.vertex_elements did while a part kept the lattice's labels. part_order
is a part's order as a validated Poset, as Part.order held it before a part
kept only the order's down-set masks, and then none. check_part runs, by
check_order, the four checks that regular_subdivision made on each part's
order and vertices (once per cell of a per-lattice table) before its
interpolation and envelope checks were shown to imply them: the order is a
partial order, it refines P, its ideals are the part's vertices, and those
are closed under union and intersection.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from hibikit import subdivision
from hibikit.errors import CycleError, HibikitError, NotALattice, NotDistributive, UnknownLabel
from hibikit.lattice import DiamondPair, Lattice, _ring_of_sets, diamond_pairs
from hibikit.poset import (Poset, _bits, from_cover_relations, ideal_masks, ideal_set,
                           linear_extensions)


class GroundSetMismatch(HibikitError):
    """Two posets that must share a ground set do not."""


def is_stronger(strong: Poset, weak: Poset) -> bool:
    """True iff every weak relation also holds in `strong` (same ground set):
    with weak's indices carried to strong's, every bit of a weak down-set is
    set in the strong down-set of the same element."""
    if set(strong.elements) != set(weak.elements):
        raise GroundSetMismatch("posets are not on the same ground set")
    at = [strong.index(x) for x in weak.elements]
    return all(strong.below[at[j]] >> at[i] & 1
               for j, m in enumerate(weak.below) for i in _bits(m))


def less(P: Poset, a: str, b: str) -> bool:
    """a < b in the poset, by labels."""
    return bool(P.below[P.index(b)] >> P.index(a) & 1)


def leq(order, a: str, b: str) -> bool:
    """a <= b in a Poset or a Lattice, by labels."""
    if isinstance(order, Lattice):
        return not order.masks[order.index(a)] & ~order.masks[order.index(b)]
    return a == b or less(order, a, b)


def join_of(L: Lattice, a: str, b: str) -> str:
    return L.elements[L.at_mask[L.masks[L.index(a)] | L.masks[L.index(b)]]]


def meet_of(L: Lattice, a: str, b: str) -> str:
    return L.elements[L.at_mask[L.masks[L.index(a)] & L.masks[L.index(b)]]]


def chain(labels: list[str]) -> Poset:
    """The total order labels[0] < labels[1] < ..."""
    return from_cover_relations(labels, list(zip(labels, labels[1:])))


def label_pair_stronger(strong: Poset, weak: Poset) -> bool:
    """True iff every weak relation, as a label pair, is a strong one."""
    if set(strong.elements) != set(weak.elements):
        raise GroundSetMismatch("posets are not on the same ground set")
    return weak.label_pairs() <= strong.label_pairs()


def order_ideals(P: Poset) -> list[frozenset[str]]:
    """All down-closed subsets as label sets, in the order of ideal_masks."""
    return [frozenset(P.elements[j] for j in _bits(m)) for m in ideal_masks(P)]


def closure(n: int, pairs) -> set[tuple[int, int]]:
    """The transitive closure of index pairs, by a fixed-point loop."""
    adj = {i: set() for i in range(n)}
    for i, j in pairs:
        adj[i].add(j)
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for i, j in list(closed):
            for k in adj[j]:
                if (i, k) not in closed:
                    closed.add((i, k))
                    adj[i].add(k)
                    changed = True
    return closed


def pairs_of(P: Poset) -> frozenset[tuple[int, int]]:
    """The relation of P as index pairs (i, j), i below j."""
    return frozenset((i, j) for j, m in enumerate(P.below)
                     for i in range(m.bit_length()) if m >> i & 1)


def poset_from_pairs(elements, pairs) -> Poset:
    """The mask Poset of a transitively closed set of index pairs."""
    below = [0] * len(elements)
    for i, j in pairs:
        below[j] |= 1 << i
    return Poset(tuple(elements), tuple(below))


class PairPoset:
    """A finite strict partial order on index pairs; `relation` must
    already be transitively closed."""

    def __init__(self, elements, relation):
        self.elements = tuple(elements)
        self.relation = frozenset(relation)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("element labels must be pairwise distinct")
        for i, j in self.relation:
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownLabel(f"relation index out of range: {(i, j)}")
            if i == j:
                raise CycleError(f"relation is not irreflexive at {self.elements[i]}")
            if (j, i) in self.relation:
                raise CycleError(
                    f"antisymmetry fails on {self.elements[i]}, {self.elements[j]}")
        for i, j in self.relation:
            for k, l in self.relation:
                if j == k and (i, l) not in self.relation:
                    raise ValueError("relation is not transitively closed")

    def covers(self) -> list[tuple[str, str]]:
        out = []
        for i, j in sorted(self.relation):
            if not any((i, k) in self.relation and (k, j) in self.relation
                       for k in range(len(self.elements))):
                out.append((self.elements[i], self.elements[j]))
        return out

    def label_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((self.elements[i], self.elements[j]) for i, j in self.relation)

    def linear_extensions(self) -> list[tuple[str, ...]]:
        """The permutations that respect every pair, in lexicographic order
        of positions."""
        return [tuple(self.elements[j] for j in perm)
                for perm in itertools.permutations(range(len(self.elements)))
                if all(perm.index(i) < perm.index(j) for i, j in self.relation)]

    def order_ideals(self) -> list[frozenset[str]]:
        """The down-closed subsets of all 2^n, by size, then positions."""
        n = len(self.elements)
        found = [t for k in range(n + 1) for t in itertools.combinations(range(n), k)
                 if all(i in t for i, j in self.relation if j in t)]
        return [frozenset(self.elements[j] for j in t) for t in found]

    def down_closed(self, masks) -> list[bool]:
        return [all(m >> i & 1 for i, j in self.relation if m >> j & 1) for m in masks]

    def is_stronger(self, weak: "PairPoset") -> bool:
        if set(self.elements) != set(weak.elements):
            raise GroundSetMismatch("posets are not on the same ground set")
        return weak.label_pairs() <= self.label_pairs()


# -- a lattice element read as the label set of its ideal ---------------------


def iota(L, a) -> frozenset[str]:
    """The order ideal of poset_P that the element a stands for."""
    m = L.masks[L.index(a)]
    return frozenset(p for j, p in enumerate(L.poset_P.elements) if m >> j & 1)


def iota_inv(L, ideal) -> str:
    """The element whose ideal is the given label set."""
    return next(a for a in L.elements if iota(L, a) == frozenset(ideal))


def incomparable(L, a, b) -> bool:
    return not leq(L, a, b) and not leq(L, b, a)


def covers(L, a, b) -> bool:
    """Whether b covers a in L."""
    return (a != b and leq(L, a, b)
            and not any(c not in (a, b) and leq(L, a, c) and leq(L, c, b) for c in L.elements))


def diamond_pairs_by_covers(L) -> tuple[DiamondPair, ...]:
    """The diamond pairs by their definition, scanning the element pairs in
    canonical order: incomparable a, b whose join covers both and which
    cover their meet; as element indices, like diamond_pairs."""
    out = []
    for a, b in itertools.combinations(L.elements, 2):
        m, j = meet_of(L, a, b), join_of(L, a, b)
        if (incomparable(L, a, b) and covers(L, a, j) and covers(L, b, j)
                and covers(L, m, a) and covers(L, m, b)):
            out.append(DiamondPair(*map(L.index, (a, b, m, j))))
    return tuple(out)


def vertex_labels(L, part) -> tuple[str, ...]:
    """The labels of a subdivision part's vertices, the elements of L its
    vertex mask holds, in L's element order."""
    return tuple(L.elements[i] for i in _bits(part.vertex_mask))


def part_order(L, part) -> Poset:
    """A subdivision part's order, the down-set masks subdivision.part_order
    reads off its simplices, as a Poset on L.poset_P's elements; the
    constructor validates it."""
    return Poset(L.poset_P.elements, subdivision.part_order(part))


def check_part(L, part) -> None:
    """check_order on the part's order and vertices."""
    check_order(L, subdivision.part_order(part), part.vertex_mask)


def check_order(L, below: Sequence[int], vertex_mask: int) -> None:
    """Raise AssertionError unless the order of the down-set masks below is
    a partial order refining L.poset_P whose ideals are the elements of L
    in vertex_mask, and those are closed under union and intersection."""
    try:
        order = Poset(L.poset_P.elements, tuple(below))
    except (HibikitError, ValueError) as exc:
        raise AssertionError(f"part order is not a partial order: {exc}") from None
    if any(b & ~o for b, o in zip(L.poset_P.below, below)):
        raise AssertionError("part order must refine P")
    # every ideal of the stronger order is an ideal of P, so an element of L
    if vertex_mask != sum(1 << L.at_mask[m] for m in ideal_set(order)):
        raise AssertionError("part is not the order polytope of its order")
    ideals = {L.masks[i] for i in _bits(vertex_mask)}
    if any(x | y not in ideals or x & y not in ideals
           for x, y in itertools.combinations(ideals, 2)):
        raise AssertionError("sublattice is not closed")


# -- labelled linear extensions and the pairwise adjacency scan ---------------


@dataclass(frozen=True)
class LinearExtension:
    """A linearization of a poset: a total order refining it."""

    order: tuple[str, ...]
    poset: Poset

    def __post_init__(self):
        if sorted(self.order) != sorted(self.poset.elements):
            raise GroundSetMismatch("extension is not a permutation of the ground set")
        placed = 0
        for x in self.order:
            j = self.poset.index(x)
            missing = self.poset.below[j] & ~placed
            if missing:
                a = self.poset.elements[_bits(missing)[0]]
                raise ValueError(f"order violates {a} < {x}")
            placed |= 1 << j


def label_extension(P: Poset, ext) -> LinearExtension:
    """The index tuple ext as a validated label extension of P."""
    return LinearExtension(tuple(P.elements[j] for j in ext), P)


def label_extensions(P: Poset) -> list[LinearExtension]:
    return [label_extension(P, ext) for ext in linear_extensions(P)]


def lattice_chain(L, ext: LinearExtension) -> tuple[str, ...]:
    """The maximal chain of a linear extension of L.poset_P: the elements
    whose ideals are the extension's prefixes, bottom first."""
    m = 0
    members = [L.bottom]
    for p in ext.order:
        m |= 1 << L.poset_P.index(p)
        members.append(L.elements[L.at_mask[m]])
    return tuple(members)


def down_closed(P: Poset, masks) -> list[bool]:
    """For each bitmask (bit j for P.elements[j]), whether the set it holds
    is down-closed in P."""
    return [all(not P.below[j] & ~m for j in _bits(m)) for m in masks]


def pairwise_adjacency(L) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Extensions adjacent when their staircase simplices share a facet,
    over all pairs of extensions. Three equivalent tests are computed and
    cross-checked: the maximal chains differ in exactly one element; the
    tuples differ by one adjacent transposition; the chain difference is a
    diamond pair. Entry k lists, in order, the edges across the k-th pair
    of diamond_pairs(L)."""
    exts = L.extensions()
    chains = [frozenset(lattice_chain(L, label_extension(L.poset_P, e))) for e in exts]
    pair_index = {frozenset((L.elements[d.a], L.elements[d.b])): k
                  for k, d in enumerate(diamond_pairs(L))}
    by_pair = [[] for _ in pair_index]
    for i in range(len(exts)):
        for j in range(i + 1, len(exts)):
            diff = chains[i] ^ chains[j]
            by_chain = len(diff) == 2
            oi, oj = exts[i], exts[j]
            spots = [k for k in range(len(oi)) if oi[k] != oj[k]]
            by_swap = (len(spots) == 2 and spots[1] == spots[0] + 1
                       and oi[spots[0]] == oj[spots[1]]
                       and oi[spots[1]] == oj[spots[0]])
            by_diamond = len(diff) == 2 and diff in pair_index
            if by_chain != by_swap or by_swap != by_diamond:
                raise AssertionError(
                    f"adjacency characterizations disagree on {oi} / {oj}")
            if by_chain:
                by_pair[pair_index[diff]].append((i, j))
    return tuple(map(tuple, by_pair))


# -- join/meet tables, validated axiom by axiom --------------------------------


def _assemble(elements: Sequence[str],
              join_idx: list[list[int]],
              meet_idx: list[list[int]]) -> Lattice:
    """Validate join/meet tables from outside, then build their lattice
    through _ring_of_sets: every lattice axiom and both distributive laws
    are checked on the tables; each element then gets the set of
    irreducibles below it, and the tables' join and meet must be OR and AND
    on those sets.

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

    # the irreducibles are the elements other than the bottom that are not
    # the join of the elements strictly below them
    leq = [[join_idx[i][j] == j for j in rng] for i in rng]
    bottom = 0
    for i in rng:
        bottom = meet_idx[bottom][i]
    irreducibles = []
    for j in rng:
        below = bottom
        for i in rng:
            if leq[i][j] and i != j:
                below = join_idx[below][i]
        if below != j:
            irreducibles.append(j)
    sets = [sum(1 << t for t, i in enumerate(irreducibles) if leq[i][j]) for j in rng]
    for i in rng:
        for j in rng:
            chk(sets[join_idx[i][j]] == sets[i] | sets[j],
                "join does not correspond to union of ideals")
            chk(sets[meet_idx[i][j]] == sets[i] & sets[j],
                "meet does not correspond to intersection of ideals")
    return _ring_of_sets(elements, sets)


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


# -- the builtin lattices on their join/meet tables ---------------------------


def _tuple_of(label: str) -> tuple[int, ...]:
    return tuple(int(c) for c in label)


def _label_of(indices) -> str:
    return "".join(str(i) for i in indices)


def grassmann_by_ops(k: int, n: int):
    """All k-element index sets with componentwise min/max as meet/join."""
    elements = [_label_of(c) for c in itertools.combinations(range(1, n + 1), k)]

    def meet(a, b):
        return _label_of(min(x, y) for x, y in zip(_tuple_of(a), _tuple_of(b)))

    def join(a, b):
        return _label_of(max(x, y) for x, y in zip(_tuple_of(a), _tuple_of(b)))

    return from_ops(elements, join, meet)


def flag_by_ops(n: int):
    """Index tuples of every length 1..n-1; the shorter tuple wins the join."""
    elements = [_label_of(c) for k in range(1, n)
                for c in itertools.combinations(range(1, n + 1), k)]

    def meet(a, b):
        s, t = _tuple_of(a), _tuple_of(b)
        if len(s) < len(t):
            s, t = t, s
        return _label_of([min(x, y) for x, y in zip(s, t)] + list(s[len(t):]))

    def join(a, b):
        s, t = _tuple_of(a), _tuple_of(b)
        return _label_of(max(x, y) for x, y in zip(s, t))

    return from_ops(sorted(elements, key=lambda s: (len(s), s)), join, meet)
