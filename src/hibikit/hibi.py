"""The Hibi ideal of a distributive lattice and its degree-wise dimensions.

All ideal computations are degree-truncated linear algebra over the monomial
basis of R_l, in integers; no Groebner bases.

The degree table of L groups the degree-l monomials by exponent sum, the sum
of the indicator vectors of their factors' ideals. It maps each class to the
distinct supports of its monomials, as bit masks over L's elements, and is
built once per degree and kept on the Lattice. The classes are as many as the
standard monomials. The intersection of a face's component ideals has one
small rank per class: a support's row is the set of components containing it.

dim I_l is the rank of the degree-l rows m*g. Every generator used here is a
binomial c(M - M') or a monomial, so each row is e_u - e_v or e_u, and the
rank is the number of union-find merges over the degree-l monomials and a
sink.

The certificate's dim in_w(I)_l is computed as dim I_l. A Groebner
degeneration of a homogeneous ideal is flat: in_w(I) has the Hilbert function
of I for every weight w (Sturmfels, Groebner Bases and Convex Polytopes, ch.
1-2). So the number does not depend on the face, and only the intersection of
the component ideals does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Mapping, Optional, Sequence

from .errors import BadParams
from .exactgeom import rank
from .lattice import Lattice, sublattice_for_order
from .poset import Poset

MAX_ELEMENTS = 12
MAX_DEGREE = 6


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


# ---------------------------------------------------------------------------
# generators and standard monomials


def hibi_generators(L: Lattice) -> list[Polynomial]:
    """X_a X_b - X_{a∨b} X_{a∧b} for each incomparable unordered pair."""
    gens = []
    for i, a in enumerate(L.elements):
        for b in L.elements[i + 1:]:
            if not L.incomparable(a, b):
                continue
            lead = monomial(L, {a: 1, b: 1})
            tail = monomial(L, {L.join(a, b): 1, L.meet(a, b): 1})
            gens.append(Polynomial({lead: 1, tail: -1}))
    return gens


def _check_caps(n: int, l: int):
    if n > MAX_ELEMENTS:
        raise BadParams(f"lattice has {n} elements; degree oracles cap at {MAX_ELEMENTS}")
    if l > MAX_DEGREE:
        raise BadParams(f"degree {l} exceeds the cap {MAX_DEGREE}")
    if l < 0:
        raise BadParams("degree must be nonnegative")


def degree_table(L: Lattice, l: int) -> dict[int, tuple[int, ...]]:
    """The degree-l monomials of L by exponent-sum class: each class's packed
    sum maps to the distinct supports of its monomials, ascending bit masks
    over L's elements. A sum is packed with one digit per element of poset_P
    in base l + 1, so adding l indicators never carries. Built once per
    degree and kept on L."""
    _check_caps(L.size, l)
    table = L._degree_tables.get(l)
    if table is None:
        table = L._degree_tables[l] = _build_degree_table(L, l)
    return table


def _build_degree_table(L: Lattice, l: int) -> dict[int, tuple[int, ...]]:
    digit = {p: (l + 1) ** j for j, p in enumerate(L.poset_P.elements)}
    packed = [sum(digit[p] for p in L.iota[a]) for a in L.elements]
    states = {(0, 0)}  # (packed sum, support mask) over the degree-k monomials
    for _ in range(l):
        states = {(s + packed[i], mask | 1 << i)
                  for s, mask in states for i in range(L.size)}
    table: dict[int, list[int]] = {}
    for s, mask in sorted(states):
        table.setdefault(s, []).append(mask)
    return {s: tuple(masks) for s, masks in table.items()}


def standard_monomial_count(L: Lattice, l: int) -> int:
    """Multichains of length l, cross-checked against the number of
    exponent-sum classes in the degree table."""
    _check_caps(L.size, l)
    if l == 0:
        return 1
    ladder = [1] * L.size  # multichains of length 1 ending at each element
    for _ in range(l - 1):
        ladder = [
            sum(ladder[i] for i in range(L.size)
                if L.leq(L.elements[i], b))
            for b in L.elements
        ]
    count = sum(ladder)
    if len(degree_table(L, l)) != count:
        raise AssertionError("multichain count must equal the exponent-sum count")
    return count


# ---------------------------------------------------------------------------
# degree-truncated linear algebra


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


def ideal_dim(generators: Sequence[Polynomial], l: int) -> int:
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


# ---------------------------------------------------------------------------
# intersections of the component ideals


def intersection_dim(L: Lattice, orders: Sequence[Poset], l: int) -> int:
    """dim of the degree-l piece of the intersection of the component
    ideals I_i attached to the given stronger orders.

    The intersection is the kernel of the evaluation map sending a degree-l
    monomial M to, per component i, its exponent-sum class when every
    factor survives in component i and zero otherwise. So M's image is fixed
    by its class and by its hit vector, the components whose members contain
    its support. Classes hit disjoint coordinates, so the rank is the sum,
    over the classes of the degree table, of the rank of their distinct
    nonzero hit vectors; a class with at most one needs no elimination.
    """
    _check_caps(L.size, l)
    members = [sum(1 << L.index(a) for a in sublattice_for_order(L, o)) for o in orders]
    total_rank = 0
    for supports in degree_table(L, l).values():
        hits = {sum(1 << i for i, m in enumerate(members) if s & m == s) for s in supports}
        hits.discard(0)
        if len(hits) > 1:
            total_rank += rank([[h >> i & 1 for i in range(len(members))]
                                for h in sorted(hits)])
        else:
            total_rank += len(hits)
    return comb(L.size + l - 1, l) - total_rank


# ---------------------------------------------------------------------------
# the degeneration certificate


def degeneration_certificate(L: Lattice, lmax: int) -> list[dict]:
    """One row per (face of K, degree l <= lmax) checking the three-way
    dimension identity dim in_w(I)_l = dim of the intersection of the face's
    component ideals = dim R_l minus the standard monomial count.

    dim in_w(I)_l is reported as dim I_l: the degeneration is flat, so it
    is the same for every weight w. It and the standard monomial count are
    computed once per degree, before the cone is built, so the element and
    degree caps fail fast; only the intersection is computed per face."""
    from .cone import cone_K, enumerate_faces
    from .subdivision import face_subdivision

    gens = hibi_generators(L)
    degrees = [(l, comb(L.size + l - 1, l), ideal_dim(gens, l),
                standard_monomial_count(L, l)) for l in range(1, lmax + 1)]
    rows = []
    for face in enumerate_faces(cone_K(L)):
        orders = [part.order for part in face_subdivision(face).parts]
        for l, dim_r, dim_in, standard in degrees:
            dim_cap = intersection_dim(L, orders, l)
            rows.append({
                "face_key": face.key(),
                "l": l,
                "dimR": dim_r,
                "dim_in": dim_in,
                "dim_cap": dim_cap,
                "standard_count": standard,
                "pass": dim_in == dim_cap == dim_r - standard,
            })
    return rows
