"""Independent oracles for two columns of the degeneration certificate.

straighten rewrites a monomial, one meet/join swap at a time, to the
standard monomial with the same exponent sum; counting its distinct results
over all degree-l monomials gives `standard_count` without the multichain
recursion. component_ideal writes the ideal of one degeneration component
out as polynomials, so hibi.ideal_dim of it gives the single-order
`dim_cap` that hibi.intersection_dim computes without building any ideal.
"""

from hibikit.exactgeom import vadd, zero_vec
from hibikit.hibi import Monomial, Polynomial, monomial
from hibikit.lattice import sublattice_for_order


def is_standard(L, m):
    """Whether the factors of m form a multichain of L."""
    f = m.factors()
    return all(
        not L.incomparable(L.elements[f[i]], L.elements[f[j]])
        for i in range(len(f))
        for j in range(i + 1, len(f)))


def straighten(L, m):
    """Rewrite to the standard monomial with the same exponent sum by
    repeatedly replacing an incomparable factor pair with meet and join.
    Each step strictly increases the sum of squared heights, which bounds
    the number of steps."""
    factors = m.factors()
    target = zero_vec(L.poset_P.size)
    for i in factors:
        target = vadd(target, L.indicator(L.elements[i]))

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
        total = vadd(total, L.indicator(L.elements[i]))
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
