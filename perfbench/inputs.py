"""Seeded inputs for the benchmark workloads.

Everything here is computed by the benchmark itself, independently of
hibikit: the catalogue of small posets up to isomorphism, the size of
their ideal lattices and diamond-pair counts (used by the output checks),
random relabelings, and cone weights for the permutahedron jobs.  The
program only ever sees the argv lists and poset files built from these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class PosetClass:
    """One isomorphism class of finite posets, naturally labelled:
    `up[i]` is the bitmask of elements strictly above element i, and
    every relation i < j has i < j as integers."""

    n: int
    up: tuple[int, ...]
    ideals: int  # size of the distributive lattice J(P)
    diamonds: int  # number of diamond pairs of J(P)

    def covers(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            for j in range(self.n):
                if self.up[i] >> j & 1 and not any(
                        self.up[i] >> k & 1 and self.up[k] >> j & 1
                        for k in range(self.n)):
                    out.append((i, j))
        return out


def _ideals(n: int, down: list[int]) -> list[int]:
    return [mask for mask in range(1 << n)
            if all(down[j] & ~mask == 0 for j in range(n) if mask >> j & 1)]


def _lattice_stats(n: int, down: list[int]) -> tuple[int, int]:
    """|J(P)| and the diamond-pair count: a diamond of J(P) is an ideal I
    with two distinct elements that can each be added to it."""
    ideals = _ideals(n, down)
    diamonds = 0
    for mask in ideals:
        addable = sum(1 for j in range(n)
                      if not mask >> j & 1 and down[j] & ~mask == 0)
        diamonds += comb(addable, 2)
    return len(ideals), diamonds


def _extensions(n: int, down: list[int]):
    def emit(placed: list[int], used: int):
        if len(placed) == n:
            yield tuple(placed)
            return
        for j in range(n):
            if not used >> j & 1 and down[j] & ~used == 0:
                placed.append(j)
                yield from emit(placed, used | 1 << j)
                placed.pop()
    yield from emit([], 0)


def canonical(n: int, down: list[int]) -> tuple[int, ...]:
    """Smallest `up` table over all natural relabelings (one per linear
    extension), which identifies the isomorphism class."""
    best = None
    for ext in _extensions(n, down):
        pos = {x: k for k, x in enumerate(ext)}
        up = [0] * n
        for x in range(n):
            for y in range(n):
                if down[y] >> x & 1:
                    up[pos[x]] |= 1 << pos[y]
        key = tuple(up)
        if best is None or key < best:
            best = key
    return best


def poset_catalogue(n_min: int, n_max: int, max_ideals: int) -> list[PosetClass]:
    """Every poset on n_min..n_max elements with |J(P)| <= max_ideals, one per
    isomorphism class, in a fixed order.

    Posets are grown one new maximal element at a time, whose down-set is an
    ideal of the smaller poset; |J(P)| only grows along the way, so branches
    past the cap are cut early.
    """
    found: dict[tuple[int, ...], PosetClass] = {}

    def grow(down: list[int]):
        n = len(down)
        size, diamonds = _lattice_stats(n, down)
        if size > max_ideals:
            return
        if n >= n_min:
            key = canonical(n, down)
            if key not in found:
                found[key] = PosetClass(n, key, size, diamonds)
        if n == n_max:
            return
        for ideal in _ideals(n, down):
            grow(down + [ideal])

    grow([])
    return sorted(found.values(), key=lambda c: (c.n, c.ideals, c.diamonds, c.up))


def chain_product(a: int, b: int) -> list[int]:
    """Down-sets of the product of an a-chain and a b-chain, naturally
    labelled: the poset of Gr(2, a+b), and of Flag(3) for a = b = 2."""
    cells = sorted(((i, j) for i in range(a) for j in range(b)),
                   key=lambda c: (c[0] + c[1], c))
    return [sum(1 << k for k, (i2, j2) in enumerate(cells)
                if (i2, j2) != (i, j) and i2 <= i and j2 <= j)
            for i, j in cells]


def relabel(cls: PosetClass, rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    """Random distinct labels and a random listing order for the elements,
    so that jobs on one class do not share input bytes."""
    labels = set()
    while len(labels) < cls.n:
        labels.add(rng.choice("abcdefghijkmnpqrstuvwxyz") + str(rng.randrange(100)))
    labels = sorted(labels)
    rng.shuffle(labels)
    elements = labels[:]
    rng.shuffle(elements)
    covers = [(labels[i], labels[j]) for i, j in cls.covers()]
    rng.shuffle(covers)
    return elements, covers


def poset_text(elements: list[str], covers: list[tuple[str, str]]) -> str:
    lines = [f"elem {x}" for x in elements] + [f"cover {a} {b}" for a, b in covers]
    return "\n".join(lines) + "\n"


class Strata:
    """Classes grouped by a cost key; draw(k) hands out the classes of
    stratum k in a seeded order, so every round of jobs can take one class
    per stratum and keep the same cost profile.  A stratum that runs dry is
    reshuffled and served again; draw() flags those repeats."""

    def __init__(self, classes, key, rng: random.Random):
        self._rng = rng
        self._pools: dict = {}
        for c in classes:
            self._pools.setdefault(key(c), []).append(c)
        self._queues = {k: [] for k in self._pools}
        self._refills = {k: 0 for k in self._pools}

    def draw(self, k) -> tuple[PosetClass, bool]:
        queue = self._queues[k]
        if not queue:
            queue.extend(self._pools[k])
            self._rng.shuffle(queue)
            self._refills[k] += 1
        return queue.pop(), self._refills[k] > 1


def proportional_pattern(counts: dict) -> list:
    """Stratum keys interleaved in proportion to their sizes, so that every
    prefix of one pass holds each stratum in about its share of the whole."""
    slots = [((i + 0.5) / count, k) for k, count in counts.items()
             for i in range(count)]
    return [k for _, k in sorted(slots)]


def boolean_weight(n: int, rng: random.Random, interior: bool) -> list[int]:
    """A weight on the Boolean lattice of n atoms that lies in the closed
    cone by construction: a random modular part plus a nonnegative
    combination of |iota(a) & S|^2 terms (x -> x^2 is convex, so each term
    is supermodular).  A diamond on atoms p, q is slack exactly when some S
    holds both.  `interior` uses S = all atoms (every diamond slack); the
    boundary weight keeps S inside all atoms but one, so the diamonds of
    that atom are tight.

    Entries follow hibikit's element order for --boolean n: ideals by
    size, then by atom positions.
    """
    atoms = list(range(n))
    if interior:
        pool = atoms
    else:
        dropped = rng.randrange(n)
        pool = [p for p in atoms if p != dropped]
    subsets = [frozenset(pool)]
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(2, len(pool))
        subsets.append(frozenset(rng.sample(pool, k)))
    coeffs = [rng.randint(1, 5) for _ in subsets]
    base = rng.randint(-5, 5)
    modular = [rng.randint(-4, 6) for _ in atoms]
    ideals = sorted((frozenset(p for p in atoms if mask >> p & 1)
                     for mask in range(1 << n)),
                    key=lambda s: (len(s), sorted(s)))
    return [base + sum(modular[p] for p in I)
            + sum(c * len(I & S) ** 2 for c, S in zip(coeffs, subsets))
            for I in ideals]
