"""Finite distributive lattices and the Birkhoff correspondence.

A lattice is stored as the poset poset_P of its join-irreducible elements
and, per element a, the bitmask of its order ideal iota(a) of poset_P, bit j
for poset_P.elements[j]. Join and meet are OR and AND of the masks, and
a <= b is mask containment. Elements are addressed by index, and a's
height is the bit count of its mask.

Every constructor ends in a family of sets closed under union and
intersection, which is a distributive lattice (Birkhoff 1937). birkhoff
reads the masks straight off the ideals of a poset, closed under union
and intersection by construction. The builtin Grassmann and flag lattices
encode each index a_i as the bits v < a_i of block i, so componentwise
max and min are OR and AND, and _ring_of_sets checks the closure and
reads poset_P off the sets. Join/meet tables, which come from
outside, are certified by one embedding into a ring of sets: each element
goes to the set of join-irreducibles below it, which must carry the
tables' join to union (_table_lattice). from_tables relabels the result
through birkhoff. parse_lattice reads every lattice file format: a JSON
poset, `elem`/`cover` lines, or `join`/`meet` lines.

A diamond pair is held as four element indices, (a, b, meet, join), and
evaluated at a point w of R^L by DiamondPair.value, which reads four
entries of w; labels are read off L.elements only where text is written.

The builtin Grassmann and flag families label their elements by index
tuples written as digit strings ("13" for {1, 3}), so n is capped at 9.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .errors import BadParams, NotALattice, NotDistributive, TooLarge, UnknownLabel
from .poset import (
    Poset,
    _bits,
    _kept,
    check_labels,
    from_cover_relations,
    ideal_masks,
    linear_extensions,
)

# linear extensions a lattice may list: `subdivide --grassmann 3 9 --face
# full` lists 87,516 in 9 s and 802 MB (2-CPU host); Gr(4,9) has 1,662,804
MAX_EXTENSIONS = 90000


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

    What depends on the lattice alone is kept in its memo by the function
    that builds it (poset._kept), so every face of one lattice reads the
    same tables.
    """

    def __init__(self, elements, poset_P, masks):
        self.elements: tuple[str, ...] = tuple(elements)
        self.poset_P: Poset = poset_P
        self.masks: tuple[int, ...] = tuple(masks)
        self.at_mask = {m: i for i, m in enumerate(self.masks)}
        self._memo: dict = {}  # _kept

    # -- basic structure ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def bottom(self) -> str:
        return self.elements[self.at_mask[0]]

    @property
    def top(self) -> str:
        return self.elements[self.at_mask[(1 << self.poset_P.size) - 1]]

    @_kept
    def extensions(self) -> tuple[tuple[int, ...], ...]:
        """The linear extensions of poset_P, as linear_extensions yields
        them; built once per lattice. They are counted first, by
        maximal_chain_count, and past MAX_EXTENSIONS none is listed:
        TooLarge."""
        count = maximal_chain_count(self)
        if count > MAX_EXTENSIONS:
            raise TooLarge(f"{count} linear extensions; listing them is capped at "
                           f"{MAX_EXTENSIONS}")
        return tuple(linear_extensions(self.poset_P))


class DiamondPair(NamedTuple):
    """Incomparable a, b whose join covers both and which cover their meet,
    as indices into L.elements; a < b."""

    a: int
    b: int
    meet: int
    join: int

    def value(self, w: Sequence[int]) -> int:
        """w_{a∧b} + w_{a∨b} - w_a - w_b at a point w of R^L, read off four
        entries of w; K-bar is where every pair's value is >= 0."""
        return w[self.meet] + w[self.join] - w[self.a] - w[self.b]


# ---------------------------------------------------------------------------
# rings of sets, and join/meet tables


def _ring_of_sets(elements: Sequence[str], sets: Sequence[int]) -> Lattice:
    """The lattice of distinct bit sets closed under OR and AND, one per
    element, with join OR and meet AND. A family of sets closed under union
    and intersection is a distributive lattice (Birkhoff 1937), so closure
    is the one check.

    Its join-irreducibles are the sets that differ from the union of the
    bottom and the sets strictly inside them. poset_P lists them in element
    order, ordered by inclusion, and each element's mask holds the
    irreducibles inside it. That map is the isomorphism of Birkhoff's
    theorem from a finite distributive lattice onto the order ideals of its
    join-irreducibles, so the masks are exactly the ideals of poset_P, one
    per element, with no second enumeration to compare them against."""
    at = {x: k for k, x in enumerate(sets)}
    if len(at) != len(sets) or any(x | y not in at or x & y not in at
                                   for x, y in combinations(sets, 2)):
        raise AssertionError("the sets are not distinct and closed under union and intersection")
    bottom = sets[0]
    for x in sets:
        bottom &= x
    irreducibles = []
    for k, x in enumerate(sets):
        inner = bottom
        for y in sets:
            if y != x and not y & ~x:
                inner |= y
        if inner != x:
            irreducibles.append(k)
    irr = [sets[k] for k in irreducibles]
    poset_P = Poset(tuple(elements[k] for k in irreducibles), tuple(
        sum(1 << s for s, y in enumerate(irr) if y != x and not y & ~x) for x in irr))
    masks = [sum(1 << t for t, y in enumerate(irr) if not y & ~x) for x in sets]
    return Lattice(elements, poset_P, masks)


def _table_lattice(elements: Sequence[str],
                   join: Mapping[tuple[str, str], str],
                   meet: Mapping[tuple[str, str], str]) -> Lattice:
    """The lattice of join/meet tables from outside, with their labels,
    certified by one embedding into a ring of sets in O(n²) bitmask steps.

    An entry (a, b) may be given as (b, a), and (a, a) defaults to a; a
    missing entry raises NotALattice, a result that is not an element
    UnknownLabel. With up[a] the set of b with a ∨ b = b, the tables are a
    lattice iff that relation is a partial order whose joins are the least
    upper bounds and whose meets the greatest lower bounds; else NotALattice.

    In a finite lattice the join-irreducibles are the elements with exactly
    one lower cover, and sending each element to the set of irreducibles
    below it is injective and carries meet to intersection. The lattice is
    distributive iff it also carries join to union (Birkhoff 1937): where
    union fails on a, b, some irreducible x lies below a ∨ b but below
    neither, so x ∧ a and x ∧ b lie below x's one lower cover and
    x ∧ (a ∨ b) = x ≠ (x ∧ a) ∨ (x ∧ b), the witness of NotDistributive."""
    if not elements:
        raise NotALattice("empty element list")
    n, index = len(elements), {x: i for i, x in enumerate(elements)}

    def entry(table, a, b, what):
        c = table.get((a, b), table.get((b, a), a if a == b else None))
        if c is None:
            raise NotALattice(f"{what} table is not total: missing ({a}, {b})")
        if c not in index:
            raise UnknownLabel(f"operation result {c!r} is not an element")
        return index[c]

    J = [[entry(join, a, b, "join") for b in elements] for a in elements]
    M = [[entry(meet, a, b, "meet") for b in elements] for a in elements]
    up = [sum(1 << j for j in range(n) if J[i][j] == j) for i in range(n)]
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    for i, a in enumerate(elements):
        if up[i] & down[i] != 1 << i or any(up[j] & ~up[i] for j in _bits(up[i])):
            raise NotALattice(f"a <= b, read as a join b = b, is not a partial order at {a}")
        for j, b in enumerate(elements):
            if up[J[i][j]] != up[i] & up[j]:
                raise NotALattice(f"the join of {a} and {b} is not their least upper bound")
            if down[M[i][j]] != down[i] & down[j]:
                raise NotALattice(f"the meet of {a} and {b} is not their greatest lower bound")
    irreducible = 0
    for j in range(n):
        strict = down[j] & ~(1 << j)
        if sum(up[i] & strict == 1 << i for i in _bits(strict)) == 1:
            irreducible |= 1 << j
    sets = [m & irreducible for m in down]
    for i, j in combinations(range(n), 2):
        lost = sets[J[i][j]] & ~(sets[i] | sets[j])
        if lost:
            x, a, b = (elements[k] for k in (lost.bit_length() - 1, i, j))
            raise NotDistributive(f"meet does not distribute over join on ({x}, {a}, {b}): "
                                  f"{x} is below the join of {a} and {b} but below neither",
                                  (x, a, b))
    return _ring_of_sets(elements, sets)


# ---------------------------------------------------------------------------
# constructors

MAX_INDEX = 9  # a label spells each index as one digit


def birkhoff(P: Poset) -> Lattice:
    """The lattice of order ideals of P, with join union and meet
    intersection, read straight off the ideal masks: a family of sets closed
    under union and intersection is a distributive lattice. The closure
    needs no check, as the union and the intersection of two down-closed
    sets are down-closed and ideal_masks lists every down-closed set. The
    elements are the ideals in canonical order, labelled in P's element
    order. poset_P holds P's elements as the principal ideals, in the
    lattice's element order, and the masks follow it."""
    ideals = ideal_masks(P)
    at = {m: k for k, m in enumerate(ideals)}
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


def from_tables(elements: Sequence[str],
                join: Mapping[tuple[str, str], str],
                meet: Mapping[tuple[str, str], str]) -> Lattice:
    """The lattice of explicit tables, certified by _table_lattice, with
    each element renamed to its ideal of join-irreducibles: the lattice is
    the Birkhoff lattice of its irreducibles, whose table labels survive as
    the elements of poset_P."""
    return birkhoff(_table_lattice(elements, join, meet).poset_P)


def _label_of(indices: Sequence[int]) -> str:
    return "".join(str(i) for i in indices)


def _check_single_digits(n: int):
    if n > MAX_INDEX:
        raise BadParams(f"need n <= {MAX_INDEX}: an element's label spells each "
                        "of its indices 1..n as one digit")


def _index_lattice(tuples: Sequence[tuple[int, ...]], n: int, blocks: int) -> Lattice:
    """The lattice of increasing tuples of indices 1..n, each read as the
    bit set that holds, in block i of n + 1 bits, the bits v < a_i. OR and
    AND are componentwise max and min. A tuple shorter than `blocks` fills
    every block past its length, as if its missing indices were n + 1."""
    width = n + 1
    sets = [sum(((1 << a) - 1) << width * i
                for i, a in enumerate(t + (width,) * (blocks - len(t))))
            for t in tuples]
    return _ring_of_sets([_label_of(t) for t in tuples], sets)


def grassmann_lattice(k: int, n: int) -> Lattice:
    """All k-element index sets with componentwise min/max as meet/join."""
    if not 1 <= k <= n - 1:
        raise BadParams("need 1 <= k <= n-1")
    _check_single_digits(n)
    return _index_lattice(list(combinations(range(1, n + 1), k)), n, k)


def flag_lattice(n: int) -> Lattice:
    """Index tuples of every length 1..n-1, shortest first. The join is the
    componentwise max, so the shorter tuple wins its length; the meet is
    the componentwise min, followed by the longer tuple's tail. Filled
    blocks give both: OR keeps the shorter length and AND the longer
    tail."""
    if n < 2:
        raise BadParams("need n >= 2")
    _check_single_digits(n)
    return _index_lattice([c for k in range(1, n) for c in combinations(range(1, n + 1), k)],
                          n, n - 1)


# ---------------------------------------------------------------------------
# structure maps


@_kept
def diamond_pairs(L: Lattice) -> tuple[DiamondPair, ...]:
    """All unordered diamond pairs, as element indices in increasing order;
    built once per lattice. A diamond is an ideal m, its meet, with two
    addable elements p and q: minimal elements of its complement. Its sides
    are m + p and m + q and its join m + p + q."""
    at = L.at_mask
    found = []
    for m in L.masks:
        addable = [1 << j for j, b in enumerate(L.poset_P.below)
                   if not (m >> j & 1 or b & ~m)]
        for p, q in combinations(addable, 2):
            a, b = sorted((at[m | p], at[m | q]))
            found.append((a, b, at[m], at[m | p | q]))
    return tuple(DiamondPair(*pair) for pair in sorted(found))


def maximal_chain_count(L: Lattice) -> int:
    """The number of maximal chains of L, counted as the linear extensions
    of poset_P, one maximal element at a time over the ideal masks, in
    O(|L| |P|) steps.

    A maximal chain of the lattice of ideals adds one element of poset_P
    per cover, and the elements in the order the chain adds them are a
    linear extension: the bijection between maximal chains and linear
    extensions (Stanley, Enumerative Combinatorics I, §3.5). The lower
    covers of an ideal m are m less one of its maximal elements, so the
    count up to m sums theirs; m less any other element is no ideal, which
    count.get reads as 0."""
    count = {0: 1}  # ideal mask -> maximal chains from the bottom to it
    for m in sorted(L.masks, key=int.bit_count)[1:]:
        count[m] = sum(count.get(m & ~(1 << j), 0) for j in _bits(m))
    return count[(1 << L.poset_P.size) - 1]


# ---------------------------------------------------------------------------
# lattice files


def parse_lattice(text: str) -> Lattice:
    """The lattice of a file, read in one pass. Text starting with `{` is a
    JSON poset: `elements`, a list of strings, and `covers`, a list of
    string pairs. Other text holds `elem a` and `cover a b` lines, a poset,
    or `join a b c` and `meet a b c` lines (and optional `elem` lines),
    tables whose labels come in order of first appearance; a file may not
    mix the two. `#` starts a comment. Labels follow check_labels. A poset
    gives its lattice through birkhoff, tables through from_tables.

    Raises ValueError on a bad line, a mixed file, a repeated poset element
    or a JSON field of the wrong type, KeyError or TypeError on a JSON value
    of the wrong shape, and BadParams on JSON nested past the decoder's
    recursion limit."""
    labels, covers, tables = [], [], {"join": {}, "meet": {}}
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except RecursionError:
            raise BadParams("poset JSON is nested too deep") from None
        labels, covers = data["elements"], data["covers"]
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ValueError("poset JSON elements must be a list of strings")
        if not (isinstance(covers, list) and all(
                isinstance(c, list) and len(c) == 2 and all(isinstance(x, str) for x in c)
                for c in covers)):
            raise ValueError("poset JSON covers must be a list of string pairs")
    else:
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "elem" and len(parts) == 2:
                labels.append(parts[1])
            elif parts[0] == "cover" and len(parts) == 3:
                covers.append(parts[1:])
            elif parts[0] in tables and len(parts) == 4:
                tables[parts[0]][parts[1], parts[2]] = parts[3]
                labels += parts[1:]
            else:
                raise ValueError(f"bad lattice line: {raw!r}")
    if not (tables["join"] or tables["meet"]):
        check_labels(labels)
        return birkhoff(from_cover_relations(labels, covers))
    if covers:
        raise ValueError("a lattice file holds cover lines or join/meet lines, not both")
    labels = list(dict.fromkeys(labels))
    check_labels(labels)
    return from_tables(labels, tables["join"], tables["meet"])
