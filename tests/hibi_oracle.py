"""Independent oracles for the columns of the degeneration certificate.

straighten rewrites a monomial, one meet/join swap at a time, to the
standard monomial with the same exponent sum; counting its distinct results
over all degree-l monomials gives `standard_count` without the multichain
recursion. component_ideal writes the ideal of one degeneration component
out as polynomials, so union_find_ideal_dim of it gives `dim_cap` for a
face with one part.

Monomial, Polynomial and union_find_ideal_dim are the polynomial ring model
and the general union-find that hibi used before it packed monomials into
ints and took only the Hibi binomials: union_find_ideal_dim takes any
monomials and binomials c(M - M') and rejects other shapes.
generator_polynomials writes hibi_generators' index pairs out as
polynomials. sublattice_for_order is the per-order sublattice that hibi
built from order_ideals before it took each component's members from its
part of the subdivision; member_masks gives them as the parts' vertex
masks. maximal_chains lists the chains that the lattice command used to
list only to count them.

The rest computes dim of the intersection of a face's component ideals,
which hibi no longer computes: its module docstring's cover step gives it
as dimR minus the standard monomial count. exponent_sum_count sums
indicator vectors, elimination_ideal_dim and per_monomial_intersection_dim
eliminate sparse Fraction rows. support_table lists each exponent-sum
class's distinct supports, one class per standard monomial.
per_support_intersection_dim tests every support of every class against
every member and ranks every class with two or more distinct nonzero hit
vectors; class_hit_vectors lists those hit vectors per class, so a test can
tell the members whose classes split.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Mapping, Optional, Sequence

from fraction_oracle import NotStronger, indicator, vadd, zero_vec
from hibikit.errors import BadParams
from hibikit.exactgeom import rank
from hibikit.hibi import _check_caps, hibi_generators
from hibikit.lattice import Lattice
from hibikit.poset import Poset
from order_oracle import (LinearExtension, covers, incomparable, iota, is_stronger, join_of,
                          label_extensions, lattice_chain, meet_of, order_ideals)


@dataclass(frozen=True)
class Monomial:
    """Dense exponent tuple over the canonical lattice element order."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError("exponents must be nonnegative")

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(x + y for x, y in zip(self.exps, other.exps, strict=True)))


def monomial(L: Lattice, exps: Mapping[str, int]) -> Monomial:
    dense = [0] * L.size
    for a, e in exps.items():
        dense[L.index(a)] += e
    return Monomial(tuple(dense))


class Polynomial:
    """Terms mapped to exact rational coefficients; zeros dropped."""

    def __init__(self, terms: Mapping[Monomial, object]):
        cleaned = {}
        for m, c in terms.items():
            c = Fraction(c)
            if c != 0:
                cleaned[m] = c
        self.terms: dict[Monomial, Fraction] = cleaned

    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms)"


def generator_polynomials(L):
    """hibi.hibi_generators written out as polynomials."""
    def term(i, j):
        exps = [0] * L.size
        exps[i] += 1
        exps[j] += 1
        return Monomial(tuple(exps))

    return [Polynomial({term(*lead): 1, term(*tail): -1})
            for lead, tail in hibi_generators(L)]


def _degree_monomials(n: int, l: int) -> list[Monomial]:
    out = []
    for combo in combinations_with_replacement(range(n), l):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(Monomial(tuple(exps)))
    return out


def _ambient_size(generators: Sequence[Polynomial]) -> Optional[int]:
    for g in generators:
        for m in g.terms:
            return len(m.exps)
    return None


def union_find_ideal_dim(generators: Sequence[Polynomial], l: int) -> int:
    """dim of the degree-l piece of the ideal the generators span.

    Each generator must be a monomial or a binomial c(M - M'), as the Hibi
    binomials and the component ideals' generators are; any other shape
    raises BadParams. Every degree-l row m*g is then e_u or c(e_u - e_v), so
    the rank is the number of union-find merges over the degree-l monomials
    and a sink (None): e_u joins u to the sink, e_u - e_v joins u to v."""
    n = _ambient_size(generators)
    if n is None:
        return 0
    _check_caps(n, l)
    parent: dict[Optional[Monomial], Optional[Monomial]] = {}  # roots are absent

    def find(x):
        while x in parent:
            parent[x] = parent.get(parent[x], parent[x])  # path halving
            x = parent[x]
        return x

    merges = 0
    for g in generators:
        if not g.is_homogeneous():
            raise BadParams("generators must be homogeneous")
        ends: list[Optional[Monomial]] = list(g.terms)
        if len(ends) == 1:
            ends.append(None)
        elif len(ends) > 2 or len(ends) == 2 and sum(g.terms.values()) != 0:
            raise BadParams("generators must be monomials or binomials c*(M - M')")
        d = g.degree()
        if not ends or d > l:
            continue
        for m in _degree_monomials(n, l - d):
            u, v = (find(None if e is None else m.times(e)) for e in ends)
            if u != v:
                parent[u] = v
                merges += 1
    return merges


def sublattice_for_order(L: Lattice, stronger: Poset) -> tuple[str, ...]:
    """iota^{-1} of the ideals of a stronger order on poset_P: the elements
    that survive in the component indexed by that order."""
    if not is_stronger(stronger, L.poset_P):
        raise NotStronger("order does not refine the lattice's poset")
    ideal_set = set(order_ideals(stronger))
    members = [a for a in L.elements if iota(L, a) in ideal_set]
    for a in members:  # closure under both operations, by construction
        for b in members:
            if join_of(L, a, b) not in members or meet_of(L, a, b) not in members:
                raise AssertionError("sublattice is not closed")
    return tuple(members)


def member_masks(L, orders):
    """The bitmask of each order's sublattice, as a part's vertex mask
    holds it."""
    return [sum(1 << L.index(a) for a in sublattice_for_order(L, o)) for o in orders]


@dataclass(frozen=True)
class MaximalChain:
    elements: tuple[str, ...]
    extension: LinearExtension


def maximal_chains(L: Lattice) -> list[MaximalChain]:
    """All maximal chains, each |P|+1 long, paired with the linear extension
    it comes from (prefix ideals of the extension, pulled back through iota).
    The pairing is the explicit bijection between chains and extensions."""
    chains = [MaximalChain(lattice_chain(L, ext), ext) for ext in label_extensions(L.poset_P)]

    # independent check: depth first walk over covers finds the same chains
    walked = set()

    def walk(a, acc):
        uppers = [b for b in L.elements if covers(L, a, b)]
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


def factor_indices(m):
    """Element indices of m with multiplicity, ascending."""
    out = []
    for i, e in enumerate(m.exps):
        out.extend([i] * e)
    return out


def is_standard(L, m):
    """Whether the factors of m form a multichain of L."""
    f = factor_indices(m)
    return all(
        not incomparable(L, L.elements[f[i]], L.elements[f[j]])
        for i in range(len(f))
        for j in range(i + 1, len(f)))


def straighten(L, m):
    """Rewrite to the standard monomial with the same exponent sum by
    repeatedly replacing an incomparable factor pair with meet and join.
    Each step strictly increases the sum of squared heights, which bounds
    the number of steps."""
    factors = factor_indices(m)
    target = zero_vec(L.poset_P.size)
    for i in factors:
        target = vadd(target, indicator(L, L.elements[i]))

    def badness():
        return sum(L.height(L.elements[i]) ** 2 for i in factors)

    score = badness()
    while True:
        swap = None
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if incomparable(L, L.elements[factors[i]], L.elements[factors[j]]):
                    swap = (i, j)
                    break
            if swap:
                break
        if swap is None:
            break
        i, j = swap
        a, b = L.elements[factors[i]], L.elements[factors[j]]
        factors[i] = L.index(meet_of(L, a, b))
        factors[j] = L.index(join_of(L, a, b))
        factors.sort()
        new_score = badness()
        if new_score <= score:
            raise AssertionError("straightening step must increase squared heights")
        score = new_score

    total = zero_vec(L.poset_P.size)
    exps = [0] * L.size
    for i in factors:
        exps[i] += 1
        total = vadd(total, indicator(L, L.elements[i]))
    if total != target:
        raise AssertionError("straightening changed the exponent sum")
    return Monomial(tuple(exps))


def component_ideal(L, order):
    """Hibi binomials of the sublattice that survives under a stronger order,
    plus one variable per excluded element, all in the ambient variables."""
    members = sublattice_for_order(L, order)
    gens = []
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if incomparable(L, a, b):
                gens.append(Polynomial({
                    monomial(L, {a: 1, b: 1}): 1,
                    monomial(L, {join_of(L, a, b): 1, meet_of(L, a, b): 1}): -1,
                }))
    inside = set(members)
    gens += [Polynomial({monomial(L, {c: 1}): 1})
             for c in L.elements if c not in inside]
    return gens


def exponent_sum_count(L, l):
    """The number of distinct l-fold sums of indicator vectors."""
    sums = {zero_vec(L.poset_P.size)}
    for _ in range(l):
        sums = {vadd(u, indicator(L, a)) for u in sums for a in L.elements}
    return len(sums)


def _degree_rows(generators, n, l, col_index):
    """Sparse coefficient rows of { m*g : deg = l } over the degree-l basis."""
    rows = []
    for g in generators:
        if not g.is_homogeneous():
            raise BadParams("generators must be homogeneous")
        if not g.terms:
            continue
        d = g.degree()
        if d > l:
            continue
        for m in _degree_monomials(n, l - d):
            row = {}
            for mono, coef in g.terms.items():
                row[col_index[m.times(mono)]] = coef
            rows.append(row)
    return rows


def _eliminate(rows):
    """Gauss-Jordan over sparse rows, pivoting on each row's lowest column.
    Returns fully reduced pivot rows keyed by their pivot column: each pivot
    column appears in exactly one row."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead in pivots:
                factor = row[lead]
                for c, v in pivots[lead].items():
                    new = row.get(c, Fraction(0)) - factor * v
                    if new == 0:
                        row.pop(c, None)
                    else:
                        row[c] = new
            else:
                inv = 1 / row[lead]
                row = {c: v * inv for c, v in row.items()}
                for prow in pivots.values():
                    if lead in prow:
                        f = prow[lead]
                        for c, v in row.items():
                            new = prow.get(c, Fraction(0)) - f * v
                            if new == 0:
                                prow.pop(c, None)
                            else:
                                prow[c] = new
                pivots[lead] = row
                break
    return pivots


def elimination_ideal_dim(generators, l):
    """dim of the degree-l piece of the ideal, by eliminating every row m*g,
    whatever the generators' shape."""
    n = _ambient_size(generators)
    if n is None:
        return 0
    _check_caps(n, l)
    basis = _degree_monomials(n, l)
    col_index = {m: i for i, m in enumerate(basis)}
    return len(_eliminate(_degree_rows(generators, n, l, col_index)))


def per_monomial_intersection_dim(L, orders, l):
    """dim of the degree-l piece of the intersection of the component
    ideals, one monomial at a time: each exponent-sum class's distinct hit
    sets are eliminated as Fraction rows."""
    _check_caps(L.size, l)
    members = [frozenset(sublattice_for_order(L, o)) for o in orders]
    k = len(members)
    blocks = {}
    for m in _degree_monomials(L.size, l):
        u = zero_vec(L.poset_P.size)
        labels = [L.elements[i] for i in factor_indices(m)]
        for a in labels:
            u = vadd(u, indicator(L, a))
        hits = frozenset(
            i for i in range(k) if all(a in members[i] for a in labels))
        if hits:
            blocks.setdefault(u, set()).add(hits)
    total_rank = 0
    for hit_sets in blocks.values():
        rows = [{i: Fraction(1) for i in hits} for hits in hit_sets]
        total_rank += len(_eliminate(rows))
    return comb(L.size + l - 1, l) - total_rank


def support_table(L, l):
    """The distinct supports, as bit masks over L's elements, of the
    degree-l monomials of each exponent-sum class, keyed by the sum."""
    table = {}
    for combo in combinations_with_replacement(range(L.size), l):
        total = tuple(sum(L.masks[i] >> j & 1 for i in combo) for j in range(L.poset_P.size))
        table.setdefault(total, set()).add(sum(1 << i for i in set(combo)))
    return table


def class_hit_vectors(L, members, l):
    """Per exponent-sum class of the degree-l monomials, the distinct
    nonzero hit vectors of its supports over the bitmasks of members, each
    as a mask over the members."""
    out = []
    for supports in support_table(L, l).values():
        hits = {sum(1 << i for i, m in enumerate(members) if s & m == s) for s in supports}
        out.append(hits - {0})
    return out


def per_support_intersection_dim(L, members, l):
    """dim of the degree-l piece of the intersection of the component
    ideals, each given by a bitmask of members: every support of every class
    is tested against every member, and a class with two or more distinct
    nonzero hit vectors is ranked."""
    _check_caps(L.size, l)
    total_rank = 0
    for hits in class_hit_vectors(L, members, l):
        if len(hits) > 1:
            total_rank += rank([[h >> i & 1 for i in range(len(members))]
                                for h in sorted(hits)])
        else:
            total_rank += len(hits)
    return comb(L.size + l - 1, l) - total_rank
