"""Finite posets: construction, validation, linear extensions and order
ideals.

Elements carry opaque string labels but are addressed by index: a label is
read only where text is parsed or written. The order is held as one
down-set bitmask per element: bit i of below[j] is set when
elements[i] < elements[j]. A linear extension is a tuple of element
indices.
"""

from __future__ import annotations

from functools import wraps
from typing import Iterator, Sequence

from .errors import BadParams, CycleError, TooLarge, UnknownLabel

# order ideals a poset may have, which bounds a `lattice --poset` job's work,
# at most |L| |P|^2 steps: at 1,024 (a 10-element antichain) lattice.birkhoff
# takes 0.007 s, lattice.maximal_chain_count 0.002 s and
# lattice.diamond_pairs, the job's largest cost, 0.019 s for its 11,520
# pairs, and the cold job 0.040 s (in process, one core); Flag(9), the
# largest builtin, has 510
MAX_IDEALS = 1024


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending: the lowest set bit
    is popped until none is left, so the work is one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _kept(build):
    """build(obj, *args), built on the first call with obj and args and
    kept in obj's memo dict, obj._memo, under build and args, so every
    later call reads the same table. A kept table lives as long as obj and
    goes with it; a build that raises keeps nothing, so the next call builds
    again. Every table that depends on one lattice, cone, face, poset or
    rank alone is kept this way, by the function that builds it."""

    @wraps(build)
    def kept(obj, *args):
        key = (build, *args) if args else build
        memo = obj._memo
        try:
            return memo[key]
        except KeyError:
            pass
        memo[key] = table = build(obj, *args)
        return table

    return kept


def cover_pairs(below: Sequence[int]) -> list[tuple[int, int]]:
    """The cover pairs (i, j), sorted, of the order whose transitively
    closed down-set masks are below: i is covered by j iff i is below j but
    below nothing below j."""
    pairs = []
    for j, m in enumerate(below):
        inner = 0
        for k in _bits(m):
            inner |= below[k]
        pairs += [(i, j) for i in _bits(m & ~inner)]
    return sorted(pairs)


class Poset:
    """A finite strict partial order.

    `below[j]` is the bitmask of the indices strictly below element j; the
    masks must already be transitively closed. The constructor checks
    nothing, because every caller builds a strict order with one mask per
    element and distinct labels:

    - from_cover_relations rejects repeated or unknown labels and closes
      the covers by Warshall's pass, so its masks are transitive; it then
      rejects an element below itself, and a closed relation in which
      nothing lies below itself is antisymmetric too, as i < j < i would
      put i below i.
    - lattice.birkhoff renames the elements of a poset by a permutation.
    - lattice._ring_of_sets orders distinct sets by strict inclusion.
    - flaggt's triangle orders distinct cells componentwise, and its
      section orders move a part order, an AND of linear orders, onto
      Pbar's cells one-to-one, with the corner p11 below every cell and
      pnn above every cell.
    """

    __slots__ = ("elements", "below", "_memo")

    def __init__(self, elements: tuple[str, ...], below: tuple[int, ...]):
        self.elements = elements
        self.below = below
        self._memo: dict = {}  # _kept

    @property
    def size(self) -> int:
        return len(self.elements)

    @_kept
    def cover_indices(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j) of indices, elements[i] < elements[j] with
        nothing in between, ordered by i, then j; scanned once per poset."""
        return tuple(cover_pairs(self.below))

    def covers(self) -> list[tuple[str, str]]:
        """Cover pairs (a, b) with a < b and nothing in between, as labels,
        in the order of cover_indices."""
        return [(self.elements[i], self.elements[j]) for i, j in self.cover_indices()]

    @_kept
    def label_pairs(self) -> frozenset[tuple[str, str]]:
        """The relation as (a, b) label pairs, a < b; built once per poset."""
        return frozenset((self.elements[i], self.elements[j])
                         for j, m in enumerate(self.below) for i in _bits(m))


def from_cover_relations(labels: list[str], covers: list[tuple[str, str]]) -> Poset:
    """Build the poset generated by the given cover pairs, closed by one
    Warshall pass over the masks.

    Raises CycleError if the closure is not irreflexive, UnknownLabel for
    covers mentioning labels outside `labels`.
    """
    elements = tuple(labels)
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("element labels must be pairwise distinct")
    below = [0] * len(elements)
    for a, b in covers:
        if a not in index:
            raise UnknownLabel(f"unknown element {a!r}")
        if b not in index:
            raise UnknownLabel(f"unknown element {b!r}")
        below[index[b]] |= 1 << index[a]
    for k in range(len(below)):
        for j, m in enumerate(below):
            if m >> k & 1:
                below[j] |= below[k]
    if any(m >> j & 1 for j, m in enumerate(below)):
        raise CycleError("cover relations contain a cycle")
    return Poset(elements, tuple(below))


def antichain(labels: list[str]) -> Poset:
    return from_cover_relations(labels, [])


def linear_extensions(P: Poset) -> Iterator[tuple[int, ...]]:
    """All linearizations, lazily, each as the tuple of P's element indices
    in its order, the tuples in lexicographic order."""
    n = P.size

    def emit(placed: list[int], used: int) -> Iterator[tuple[int, ...]]:
        if len(placed) == n:
            yield tuple(placed)
            return
        for j in range(n):
            if not (used >> j & 1 or P.below[j] & ~used):
                placed.append(j)
                yield from emit(placed, used | 1 << j)
                placed.pop()

    yield from emit([], 0)


def ideal_masks(P: Poset) -> list[int]:
    """All down-closed subsets as bitmasks, in canonical order (by size,
    then positions)."""
    return sorted(ideal_set(P), key=lambda m: (m.bit_count(), _bits(m)))


def ideal_set(P: Poset) -> set[int]:
    """All down-closed subsets as bitmasks, unordered. Past MAX_IDEALS of
    them, TooLarge: the count is checked as they are found, so the work
    stops near the cap.

    The ideals are grown upward from the empty one: adding a minimal element
    of an ideal's complement gives an ideal, and every nonempty ideal comes
    from a smaller one by adding one of its maximal elements."""
    found = {0}
    stack = [0]
    while stack:
        m = stack.pop()
        for j, b in enumerate(P.below):
            grown = m | 1 << j
            if grown not in found and not b & ~m:
                found.add(grown)
                stack.append(grown)
        if len(found) > MAX_IDEALS:
            raise TooLarge(f"more than {MAX_IDEALS} order ideals; lattices are capped there")
    return found


def check_labels(labels: Sequence[str]) -> None:
    """Reject a label a file may not use: an ideal is labelled by its
    members joined by commas in braces, so a label that is empty or holds a
    comma, a brace or whitespace could make two ideal labels collide."""
    for x in labels:
        if not x or any(c in ",{}" or c.isspace() for c in x):
            raise BadParams(f"element label {x!r} is empty or holds a comma, "
                            "a brace or whitespace")

