"""Finite posets: construction, validation, linear extensions, order ideals,
and order-strength comparisons.

Elements carry opaque string labels; relations are stored positionally
against the canonical element tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import CycleError, GroundSetMismatch, UnknownLabel


@dataclass(frozen=True)
class Poset:
    """A finite strict partial order.

    `relation` holds index pairs (i, j) meaning elements[i] < elements[j];
    it must already be transitively closed.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[int, int]]
    _covers: Optional[tuple[tuple[str, str], ...]] = field(
        default=None, init=False, repr=False, compare=False)  # covers()

    def __post_init__(self):
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
                    f"antisymmetry fails on {self.elements[i]}, {self.elements[j]}"
                )
        for i, j in self.relation:
            for k, l in self.relation:
                if j == k and (i, l) not in self.relation:
                    raise ValueError("relation is not transitively closed")

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown element {label!r}") from None

    def less(self, a: str, b: str) -> bool:
        return (self.index(a), self.index(b)) in self.relation

    def leq(self, a: str, b: str) -> bool:
        return a == b or self.less(a, b)

    @property
    def size(self) -> int:
        return len(self.elements)

    def below(self, j: int) -> frozenset[int]:
        """Indices strictly below element j."""
        return frozenset(i for i, k in self.relation if k == j)

    def covers(self) -> list[tuple[str, str]]:
        """Cover pairs (a, b) with a < b and nothing in between, scanned
        once per poset."""
        if self._covers is None:
            object.__setattr__(self, "_covers", tuple(self._scan_covers()))
        return list(self._covers)

    def _scan_covers(self) -> list[tuple[str, str]]:
        out = []
        for i, j in sorted(self.relation):
            if not any((i, k) in self.relation and (k, j) in self.relation
                       for k in range(len(self.elements))):
                out.append((self.elements[i], self.elements[j]))
        return out

    def label_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((self.elements[i], self.elements[j]) for i, j in self.relation)


@dataclass(frozen=True)
class LinearExtension:
    """A linearization of a poset: a total order refining it."""

    order: tuple[str, ...]
    poset: Poset

    def __post_init__(self):
        if sorted(self.order) != sorted(self.poset.elements):
            raise GroundSetMismatch("extension is not a permutation of the ground set")
        pos = {x: k for k, x in enumerate(self.order)}
        for a, b in self.poset.label_pairs():
            if pos[a] > pos[b]:
                raise ValueError(f"order violates {a} < {b}")


def _transitive_closure(n: int, pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
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


def from_cover_relations(labels: list[str], covers: list[tuple[str, str]]) -> Poset:
    """Build the poset generated by the given cover pairs.

    Raises CycleError if the closure is not irreflexive, UnknownLabel for
    covers mentioning labels outside `labels`.
    """
    elements = tuple(labels)
    if len(set(elements)) != len(elements):
        raise ValueError("element labels must be pairwise distinct")
    index = {x: i for i, x in enumerate(elements)}
    pairs = set()
    for a, b in covers:
        if a not in index:
            raise UnknownLabel(f"unknown element {a!r}")
        if b not in index:
            raise UnknownLabel(f"unknown element {b!r}")
        pairs.add((index[a], index[b]))
    closed = _transitive_closure(len(elements), pairs)
    for i, j in closed:
        if i == j or (j, i) in closed:
            raise CycleError("cover relations contain a cycle")
    return Poset(elements, frozenset(closed))


def antichain(labels: list[str]) -> Poset:
    return from_cover_relations(labels, [])


def chain(labels: list[str]) -> Poset:
    return from_cover_relations(labels, list(zip(labels, labels[1:])))


def linear_extensions(P: Poset) -> Iterator[LinearExtension]:
    """All linearizations, lazily, in lexicographic order of label positions."""
    n = P.size
    below = [P.below(j) for j in range(n)]

    def emit(placed: list[int], used: set[int]) -> Iterator[tuple[int, ...]]:
        if len(placed) == n:
            yield tuple(placed)
            return
        for j in range(n):
            if j not in used and below[j] <= used:
                placed.append(j)
                used.add(j)
                yield from emit(placed, used)
                placed.pop()
                used.remove(j)

    for perm in emit([], set()):
        yield LinearExtension(tuple(P.elements[j] for j in perm), P)


def order_ideals(P: Poset) -> list[frozenset[str]]:
    """All down-closed subsets, in canonical order (by size, then positions).

    The ideals are grown upward from the empty one: adding a minimal element
    of an ideal's complement gives an ideal, and every nonempty ideal comes
    from a smaller one by adding one of its maximal elements."""
    n = P.size
    below = [0] * n
    for i, j in P.relation:
        below[j] |= 1 << i
    found = {0}
    stack = [0]
    while stack:
        m = stack.pop()
        for j in range(n):
            grown = m | 1 << j
            if grown not in found and not below[j] & ~m:
                found.add(grown)
                stack.append(grown)
    ideals = sorted((tuple(j for j in range(n) if m >> j & 1) for m in found),
                    key=lambda t: (len(t), t))
    return [frozenset(P.elements[j] for j in t) for t in ideals]


def down_closed(P: Poset, masks: Sequence[int]) -> list[bool]:
    """For each bitmask (bit j for P.elements[j]), whether the set it holds
    is down-closed in P."""
    below = [0] * P.size
    for i, j in P.relation:
        below[j] |= 1 << i
    return [all(not below[j] & ~m for j in range(P.size) if m >> j & 1) for m in masks]


def _check_same_ground(a: Poset, b: Poset):
    if set(a.elements) != set(b.elements):
        raise GroundSetMismatch("posets are not on the same ground set")


def is_stronger(strong: Poset, weak: Poset) -> bool:
    """True iff every weak relation also holds in `strong` (same ground set)."""
    _check_same_ground(strong, weak)
    return weak.label_pairs() <= strong.label_pairs()


def parse_poset(text: str) -> Poset:
    """Parse the poset text format: `elem <label>` and `cover <a> <b>` lines.

    `#` starts a comment; blank lines are ignored.
    """
    labels: list[str] = []
    covers: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "elem" and len(parts) == 2:
            labels.append(parts[1])
        elif parts[0] == "cover" and len(parts) == 3:
            covers.append((parts[1], parts[2]))
        else:
            raise ValueError(f"bad poset line: {raw!r}")
    return from_cover_relations(labels, covers)
