"""The Hibi ideal of a distributive lattice and its degree-wise oracles.

All ideal computations are degree-truncated exact linear algebra over the
monomial basis of R_l; no Groebner bases. Generators are binomials
X_a X_b - X_{a∨b} X_{a∧b}, so rows stay two-sparse through elimination.

Initial forms use the min convention: in_w keeps the terms of minimal
w-weight. Ties keep every minimizing term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Mapping, Optional, Sequence

from .errors import BadParams
from .exactgeom import Vec, to_vec, vadd, zero_vec
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

    def factors(self) -> list[int]:
        """Element indices with multiplicity, ascending."""
        out = []
        for i, e in enumerate(self.exps):
            out.extend([i] * e)
        return out

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(x + y for x, y in zip(self.exps, other.exps, strict=True)))

    def exponent_map(self, labels: Sequence[str]) -> dict[str, int]:
        return {a: e for a, e in zip(labels, self.exps, strict=True) if e}

    def sort_key(self) -> tuple:
        # graded lexicographic on the canonical element order
        return (self.degree, self.exps)


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

    @property
    def is_zero(self) -> bool:
        return not self.terms

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


def format_polynomial(poly: Polynomial, labels: Sequence[str]) -> str:
    if poly.is_zero:
        return "0"
    parts = []
    for m in sorted(poly.terms, key=Monomial.sort_key, reverse=True):
        factors = " ".join(
            f"X[{a}]^{e}" for a, e in zip(labels, m.exps) if e)
        parts.append(f"{poly.terms[m]} * {factors}" if factors else str(poly.terms[m]))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# generators and straightening


def hibi_generators(L: Lattice) -> list[Polynomial]:
    """X_a X_b - X_{a∨b} X_{a∧b} for each incomparable unordered pair."""
    return _binomials(L, L.elements)


def _binomials(L: Lattice, members: Sequence[str]) -> list[Polynomial]:
    """The Hibi binomials of the incomparable pairs among `members`, in the
    ambient variables of L."""
    gens = []
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if not L.incomparable(a, b):
                continue
            lead = monomial(L, {a: 1, b: 1})
            tail = monomial(L, {L.join(a, b): 1, L.meet(a, b): 1})
            gens.append(Polynomial({lead: 1, tail: -1}))
    return gens


def is_standard(L: Lattice, m: Monomial) -> bool:
    f = m.factors()
    return all(
        not L.incomparable(L.elements[f[i]], L.elements[f[j]])
        for i in range(len(f))
        for j in range(i + 1, len(f)))


def straighten(L: Lattice, m: Monomial) -> Monomial:
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


def _check_caps(n: int, l: int):
    if n > MAX_ELEMENTS:
        raise BadParams(f"lattice has {n} elements; degree oracles cap at {MAX_ELEMENTS}")
    if l > MAX_DEGREE:
        raise BadParams(f"degree {l} exceeds the cap {MAX_DEGREE}")
    if l < 0:
        raise BadParams("degree must be nonnegative")


def standard_monomial_count(L: Lattice, l: int) -> int:
    """Multichains of length l, cross-checked against the number of
    distinct l-fold sums of indicator vectors."""
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

    sums = {zero_vec(L.poset_P.size)}
    for _ in range(l):
        sums = {vadd(u, L.indicator(a)) for u in sums for a in L.elements}
    if len(sums) != count:
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


def _degree_rows(generators: Sequence[Polynomial], n: int, l: int,
                 col_index: Mapping[Monomial, int]) -> list[dict[int, Fraction]]:
    """Sparse coefficient rows of { m*g : deg = l } over the degree-l basis."""
    rows = []
    for g in generators:
        if not g.is_homogeneous():
            raise BadParams("generators must be homogeneous")
        if g.is_zero:
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


def _eliminate(rows: list[dict[int, Fraction]], order: Sequence[int]
               ) -> dict[int, dict[int, Fraction]]:
    """Gauss-Jordan over sparse rows. `order[c]` is the pivot priority of
    column c (lower first). Returns fully reduced pivot rows keyed by their
    pivot column: each pivot column appears in exactly one row."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row, key=lambda c: order[c])
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


def _ambient_size(generators: Sequence[Polynomial]) -> Optional[int]:
    for g in generators:
        for m in g.terms:
            return len(m.exps)
    return None


def ideal_dim(generators: Sequence[Polynomial], l: int) -> int:
    """dim of the degree-l piece of the ideal the generators span."""
    n = _ambient_size(generators)
    if n is None:
        return 0
    _check_caps(n, l)
    basis = _degree_monomials(n, l)
    col_index = {m: i for i, m in enumerate(basis)}
    rows = _degree_rows(generators, n, l, col_index)
    order = list(range(len(basis)))
    return len(_eliminate(rows, order))


def initial_ideal_dim(generators: Sequence[Polynomial], w: Sequence, l: int
                      ) -> tuple[int, list[Polynomial]]:
    """Dimension of in_w(I)_l together with a basis of initial forms.

    The degree-l row space is put in reduced echelon form under a column
    order refining ascending w-weight, so each pivot is a minimal-weight
    term of its row and the rows' initial forms are independent and span
    in_w(I)_l. dim in_w(I)_l = dim I_l by construction.
    """
    n = _ambient_size(generators)
    if n is None:
        return 0, []
    _check_caps(n, l)
    w = to_vec(w)
    if len(w) != n:
        raise ValueError("weight has wrong dimension")
    basis = _degree_monomials(n, l)
    col_index = {m: i for i, m in enumerate(basis)}

    def weight(m: Monomial) -> Fraction:
        return sum((w[i] * e for i, e in enumerate(m.exps)), Fraction(0))

    ranked = sorted(range(len(basis)), key=lambda c: (weight(basis[c]), c))
    order = [0] * len(basis)
    for pos, c in enumerate(ranked):
        order[c] = pos

    rows = _degree_rows(generators, n, l, col_index)
    pivots = _eliminate(rows, order)
    forms = []
    for lead in sorted(pivots, key=lambda c: order[c]):
        row = pivots[lead]
        low = min(weight(basis[c]) for c in row)
        forms.append(Polynomial(
            {basis[c]: v for c, v in row.items() if weight(basis[c]) == low}))
    return len(pivots), forms


def span_contains(basis_polys: Sequence[Polynomial], target: Polynomial) -> bool:
    """Whether target lies in the rational span of the given polynomials."""
    cols: dict[Monomial, int] = {}
    for p in list(basis_polys) + [target]:
        for m in p.terms:
            cols.setdefault(m, len(cols))
    rows = [{cols[m]: c for m, c in p.terms.items()} for p in basis_polys]
    order = list(range(len(cols)))
    pivots = _eliminate(rows, order)
    rest = {cols[m]: c for m, c in target.terms.items()}
    while rest:
        lead = min(rest)
        if lead not in pivots:
            return False
        factor = rest[lead]
        for c, v in pivots[lead].items():
            new = rest.get(c, Fraction(0)) - factor * v
            if new == 0:
                rest.pop(c, None)
            else:
                rest[c] = new
    return True


# ---------------------------------------------------------------------------
# components and intersections


def component_ideal(L: Lattice, order: Poset) -> list[Polynomial]:
    """Hibi binomials of the surviving sublattice plus one variable per
    excluded element, all in the ambient variable set."""
    members = sublattice_for_order(L, order)
    inside = set(members)
    gens = _binomials(L, members)
    for c in L.elements:
        if c not in inside:
            gens.append(Polynomial({monomial(L, {c: 1}): 1}))
    return gens


def intersection_dim(L: Lattice, orders: Sequence[Poset], l: int) -> int:
    """dim of the degree-l piece of the intersection of the component
    ideals I_i attached to the given stronger orders.

    The intersection is the kernel of the evaluation map sending a degree-l
    monomial M to, per component i, its exponent-sum class when every
    factor survives in component i and zero otherwise. Monomials with
    different exponent sums hit disjoint coordinates, so the rank splits
    into one honest matrix rank per exponent-sum class.
    """
    _check_caps(L.size, l)
    members = [frozenset(sublattice_for_order(L, o)) for o in orders]
    k = len(members)
    blocks: dict[Vec, set[frozenset[int]]] = {}
    for m in _degree_monomials(L.size, l):
        u = zero_vec(L.poset_P.size)
        labels = [L.elements[i] for i in m.factors()]
        for a in labels:
            u = vadd(u, L.indicator(a))
        hits = frozenset(
            i for i in range(k) if all(a in members[i] for a in labels))
        if hits:
            blocks.setdefault(u, set()).add(hits)
    total_rank = 0
    for hit_sets in blocks.values():
        rows = [{i: Fraction(1) for i in hits} for hits in hit_sets]
        total_rank += len(_eliminate(rows, list(range(k))))
    return comb(L.size + l - 1, l) - total_rank


# ---------------------------------------------------------------------------
# the degeneration certificate


def degeneration_certificate(L: Lattice, lmax: int) -> list[dict]:
    """One row per (face of K, degree l <= lmax) checking the three-way
    dimension identity: dim in_w(I)_l at an interior sample of the face,
    dim of the intersection of the face's component ideals, and
    dim R_l minus the standard monomial count."""
    from .cone import cone_K, enumerate_faces, sample_relative_interior
    from .subdivision import face_subdivision

    gens = hibi_generators(L)
    rows = []
    for face in enumerate_faces(cone_K(L)):
        w = sample_relative_interior(face)
        orders = [part.order for part in face_subdivision(face).parts]
        for l in range(1, lmax + 1):
            dim_r = comb(L.size + l - 1, l)
            dim_in, _ = initial_ideal_dim(gens, w, l)
            dim_cap = intersection_dim(L, orders, l)
            standard = standard_monomial_count(L, l)
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
