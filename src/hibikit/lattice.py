"""Finite distributive lattices and the Birkhoff correspondence.

A lattice is stored with explicit join/meet tables plus the poset of its
join-irreducible elements and the isomorphism iota onto the order ideals
of that poset. Every constructor funnels through one validator, so any
Lattice in circulation has had all axioms and the Birkhoff invariants
checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import NotALattice, NotDistributive, NotStronger, UnknownLabel
from .exactgeom import Vec
from .poset import (
    LinearExtension,
    Poset,
    is_stronger,
    linear_extensions,
    order_ideals,
    parse_poset,
)


def ideal_label(ideal: frozenset[str], ground_order: Sequence[str]) -> str:
    members = sorted(ideal, key=list(ground_order).index)
    return "{" + ",".join(members) + "}"


class Lattice:
    """A finite distributive lattice.

    elements: canonical label tuple
    join/meet: total binary tables (index based)
    poset_P: poset of join-irreducibles
    iota: element label -> order ideal of poset_P (a frozenset of labels)
    """

    def __init__(self, elements, join_idx, meet_idx, poset_P, iota):
        self.elements: tuple[str, ...] = tuple(elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._join = join_idx
        self._meet = meet_idx
        self.poset_P: Poset = poset_P
        self.iota: dict[str, frozenset[str]] = dict(iota)
        self._iota_inv = {v: k for k, v in self.iota.items()}
        self._extensions: Optional[tuple[LinearExtension, ...]] = None

    # -- basic structure ----------------------------------------------------

    def index(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise UnknownLabel(f"unknown lattice element {a!r}") from None

    @property
    def size(self) -> int:
        return len(self.elements)

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self.index(a)][self.index(b)]]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self.index(a)][self.index(b)]]

    def leq(self, a: str, b: str) -> bool:
        return self.join(a, b) == b

    def less(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def incomparable(self, a: str, b: str) -> bool:
        return not self.leq(a, b) and not self.leq(b, a)

    def covers(self, a: str, b: str) -> bool:
        """Whether b covers a."""
        if not self.less(a, b):
            return False
        return not any(self.less(a, c) and self.less(c, b) for c in self.elements)

    @property
    def bottom(self) -> str:
        return self._iota_inv[frozenset()]

    @property
    def top(self) -> str:
        return self._iota_inv[frozenset(self.poset_P.elements)]

    def height(self, a: str) -> int:
        return len(self.iota[a])

    def iota_inv(self, ideal: frozenset[str]) -> str:
        try:
            return self._iota_inv[frozenset(ideal)]
        except KeyError:
            raise UnknownLabel(f"no element with ideal {set(ideal)}") from None

    def indicator(self, a: str) -> Vec:
        """The 0/1 vector of iota(a) over the canonical poset_P order."""
        ideal = self.iota[a]
        return tuple(Fraction(1 if p in ideal else 0) for p in self.poset_P.elements)

    def chain(self, ext: LinearExtension) -> tuple[str, ...]:
        """The maximal chain of a linear extension of poset_P: the elements
        whose ideals are the extension's prefixes, bottom first."""
        members = [self.bottom]
        prefix: set[str] = set()
        for p in ext.order:
            prefix.add(p)
            members.append(self.iota_inv(frozenset(prefix)))
        return tuple(members)

    def extensions(self) -> tuple[LinearExtension, ...]:
        if self._extensions is None:
            self._extensions = tuple(linear_extensions(self.poset_P))
        return self._extensions

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.elements == other.elements
                and self._join == other._join and self._meet == other._meet)

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Lattice({self.size} elements, P of size {self.poset_P.size})"


@dataclass(frozen=True)
class DiamondPair:
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
              meet_idx: list[list[int]],
              irreducible_name: Callable[[str], str] = lambda x: x) -> Lattice:
    """Validate tables, compute join-irreducibles, poset_P, and iota.

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

    names = [irreducible_name(elements[j]) for j in irreducibles]
    if len(set(names)) != len(names):
        raise NotALattice("irreducible names collide")
    rel = frozenset((a, b)
                    for a, ia in enumerate(irreducibles)
                    for b, ib in enumerate(irreducibles)
                    if less[ia][ib])
    poset_P = Poset(tuple(names), rel)

    iota = {}
    for j in rng:
        iota[elements[j]] = frozenset(
            names[t] for t, i in enumerate(irreducibles) if leq[i][j])

    # Birkhoff invariants: iota is a bijection onto the ideals of poset_P,
    # joins go to unions and meets to intersections
    ideals = set(order_ideals(poset_P))
    images = set(iota.values())
    chk(len(images) == n and images == ideals,
        "iota is not a bijection onto the order ideals")
    for i in rng:
        for j in rng:
            a, b = elements[i], elements[j]
            chk(iota[elements[join_idx[i][j]]] == iota[a] | iota[b],
                "join does not correspond to union of ideals")
            chk(iota[elements[meet_idx[i][j]]] == iota[a] & iota[b],
                "meet does not correspond to intersection of ideals")
    # every element is the join of the irreducibles below it
    for j in rng:
        acc = None
        for t, i in enumerate(irreducibles):
            if leq[i][j]:
                acc = i if acc is None else join_idx[acc][i]
        if acc is None:
            acc = next(i for i in rng if all(leq[i][k] for k in rng))
        chk(acc == j, f"{elements[j]} is not the join of its irreducibles")
    # graded structure: |iota(a)| is the height of a, lattice height |P|+1
    for i in rng:
        for j in rng:
            if is_cover(i, j):
                chk(len(iota[elements[j]]) == len(iota[elements[i]]) + 1,
                    "cover steps must raise height by exactly one")
    return Lattice(elements, join_idx, meet_idx, poset_P, iota)


# ---------------------------------------------------------------------------
# constructors


def birkhoff(P: Poset) -> Lattice:
    """The lattice of order ideals of P, with join union and meet
    intersection. poset_P comes back equal to P and iota is the identity."""
    ideals = order_ideals(P)
    labels = [ideal_label(s, P.elements) for s in ideals]
    by_set = {s: i for i, s in enumerate(ideals)}
    n = len(ideals)
    join_idx = [[by_set[ideals[i] | ideals[j]] for j in range(n)] for i in range(n)]
    meet_idx = [[by_set[ideals[i] & ideals[j]] for j in range(n)] for i in range(n)]

    # a principal ideal is named by its generator
    principal = {}
    for i, s in enumerate(ideals):
        for p in P.elements:
            if s == frozenset(q for q in P.elements if P.leq(q, p)):
                principal[labels[i]] = p
    L = _assemble(labels, join_idx, meet_idx,
                  irreducible_name=lambda lab: principal[lab])
    if L.poset_P.label_pairs() != P.label_pairs() or set(L.poset_P.elements) != set(P.elements):
        raise AssertionError("birkhoff lattice does not reproduce its poset")
    for lab, s in zip(labels, ideals):
        if L.iota[lab] != s:
            raise AssertionError("iota is not the identity on ideals")
    return L


def from_ops(elements: Sequence[str],
             join_fn: Callable[[str, str], str],
             meet_fn: Callable[[str, str], str]) -> Lattice:
    """Build a lattice from join/meet callables, keeping the given labels."""
    elems = tuple(elements)
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)

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
    the ground set of poset_P)."""

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
    # canonical renaming: element -> label of its ideal, canonical order
    ground = raw.poset_P.elements
    relabel = {a: ideal_label(raw.iota[a], ground) for a in raw.elements}
    order = sorted(raw.elements,
                   key=lambda a: (len(raw.iota[a]),
                                  tuple(ground.index(p) for p in sorted(raw.iota[a], key=ground.index))))
    new_elements = [relabel[a] for a in order]
    pos = {a: i for i, a in enumerate(order)}
    n = len(order)
    join_idx = [[pos[raw.join(order[i], order[j])] for j in range(n)] for i in range(n)]
    meet_idx = [[pos[raw.meet(order[i], order[j])] for j in range(n)] for i in range(n)]
    irr_name = {relabel[a]: p for a in raw.elements for p in ground
                if raw.iota[a] == frozenset(q for q in ground if raw.poset_P.leq(q, p))}
    return _assemble(new_elements, join_idx, meet_idx,
                     irreducible_name=lambda lab: irr_name[lab])


# ---------------------------------------------------------------------------
# structure maps


def diamond_pairs(L: Lattice) -> list[DiamondPair]:
    """All unordered diamond pairs, in canonical element order."""
    out = []
    for i, a in enumerate(L.elements):
        for b in L.elements[i + 1:]:
            if not L.incomparable(a, b):
                continue
            m = L.meet(a, b)
            j = L.join(a, b)
            if (L.covers(a, j) and L.covers(b, j)
                    and L.covers(m, a) and L.covers(m, b)):
                if L.height(a) != L.height(b):
                    raise AssertionError("diamond pair members differ in height")
                out.append(DiamondPair(a, b, m, j))
    return out


@dataclass(frozen=True)
class MaximalChain:
    elements: tuple[str, ...]
    extension: LinearExtension


def maximal_chains(L: Lattice) -> list[MaximalChain]:
    """All maximal chains, each |P|+1 long, paired with the linear extension
    it comes from (prefix ideals of the extension, pulled back through iota).
    The pairing is the explicit bijection between chains and extensions."""
    chains = [MaximalChain(L.chain(ext), ext) for ext in L.extensions()]

    # independent check: depth first walk over covers finds the same chains
    walked = set()

    def walk(a, acc):
        uppers = [b for b in L.elements if L.covers(a, b)]
        if not uppers:
            walked.add(tuple(acc))
            return
        for b in uppers:
            walk(b, acc + [b])

    walk(L.bottom, [L.bottom])
    if walked != {c.elements for c in chains}:
        raise AssertionError("chain/extension bijection failed")
    for c in chains:
        if len(c.elements) != L.poset_P.size + 1:
            raise AssertionError("maximal chain of unexpected length")
    return chains


def sublattice_for_order(L: Lattice, stronger: Poset) -> tuple[str, ...]:
    """iota^{-1} of the ideals of a stronger order on poset_P: the elements
    that survive in the component indexed by that order."""
    if not is_stronger(stronger, L.poset_P):
        raise NotStronger("order does not refine the lattice's poset")
    members = []
    ideal_set = set(order_ideals(stronger))
    for a in L.elements:
        if L.iota[a] in ideal_set:
            members.append(a)
    for a in members:  # closure under both operations, by construction
        for b in members:
            if L.join(a, b) not in members or L.meet(a, b) not in members:
                raise AssertionError("sublattice is not closed")
    return tuple(members)


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
        return from_tables(labels, join, meet)
    return birkhoff(parse_poset(text))


def format_lattice(L: Lattice) -> str:
    """Serialize as the poset file of poset_P; reload via birkhoff."""
    from .poset import format_poset
    return format_poset(L.poset_P)
