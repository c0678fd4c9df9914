"""Independent oracles for the columns of the degeneration certificate.

straighten rewrites a monomial, one meet/join swap at a time, to the
standard monomial with the same exponent sum; counting its distinct results
over all degree-l monomials gives `standard_count` without the multichain
recursion. component_ideal writes the ideal of one degeneration component
out as polynomials, so hibi.ideal_dim of it gives the single-order
`dim_cap` that hibi.intersection_dim computes without building any ideal.

The rest is the per-monomial Fraction code that hibi's integer degree tables
replaced, kept as the reference they are compared against:
exponent_sum_count sums indicator vectors, elimination_ideal_dim and
per_monomial_intersection_dim eliminate sparse Fraction rows.
"""

from fractions import Fraction
from math import comb

from fraction_oracle import indicator
from hibikit.errors import BadParams
from hibikit.exactgeom import vadd, zero_vec
from hibikit.hibi import (
    Monomial,
    Polynomial,
    _ambient_size,
    _check_caps,
    _degree_monomials,
    monomial,
)
from hibikit.lattice import sublattice_for_order


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
        not L.incomparable(L.elements[f[i]], L.elements[f[j]])
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
        return sum(len(L.iota[L.elements[i]]) ** 2 for i in factors)

    score = badness()
    while True:
        swap = None
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if L.incomparable(L.elements[factors[i]], L.elements[factors[j]]):
                    swap = (i, j)
                    break
            if swap:
                break
        if swap is None:
            break
        i, j = swap
        a, b = L.elements[factors[i]], L.elements[factors[j]]
        factors[i] = L.index(L.meet(a, b))
        factors[j] = L.index(L.join(a, b))
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
            if L.incomparable(a, b):
                gens.append(Polynomial({
                    monomial(L, {a: 1, b: 1}): 1,
                    monomial(L, {L.join(a, b): 1, L.meet(a, b): 1}): -1,
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
