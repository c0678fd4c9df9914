"""The Hibi ideal of a distributive lattice and its degeneration certificate.

All ideal computations are degree-truncated linear algebra over the monomial
basis of R_l, in integers; no Groebner bases. The lattice is read only
through its ideal bitmasks, L.masks: two elements are incomparable iff
neither mask contains the other, and join and meet are OR and AND.

The Hibi ideal I is spanned by the binomials g = X_a X_b - X_{a∨b} X_{a∧b},
one per incomparable pair: its sides a, b and its corners a∨b, a∧b. Each
degree-l row m*g is e_u - e_v, so dim I_l is the number of union-find
merges over the degree-l monomials, packed as ints with one base-(l + 1)
digit per element. The standard monomials are the multichains (Hibi 1987),
one per exponent-sum class: a multichain's ideals are the level sets of its
sum, and straightening keeps the sum.

On a face with witness w, regular_subdivision certifies for each part C an
affine map g_C >= w on L, equal to w exactly on its vertex set S_C, a
sublattice. C's ideal I_C is spanned by S_C's Hibi binomials and the
variables off S_C, and R/I_C is S_C's toric ring: a monomial with support
in S_C goes to its exponent sum, any other to 0. g is tight at w if its
corners weigh what its sides weigh, and slack otherwise. in_w keeps the
terms of least weight, K's sign, so in_w(g) is X_a X_b for a slack g and g
for a tight one; J_w is the ideal they span. A passing row certifies
in_w(I)_l = the intersection of the I_{C,l} by three steps.

Containment, J_w in every I_C. If S_C holds both sides it holds both
corners, and g_C, affine and equal to w on S_C, makes g tight. If it holds
both corners of a tight g, g_C(a) + g_C(b) = w(a) + w(b) with g_C >= w, so
it holds both sides. So a part holds a generator's sides iff the generator
is tight and the part holds its corners: the mask rule, which
check_containment asserts on every face. X_a X_b lies in I_C iff S_C misses
a side, and a tight g lies in I_C when S_C holds all four of its elements
or misses a side and a corner, so the rule puts each in_w(g) in each I_C.

Cover, dim (∩ I_C)_l = dimR - standard_count. ∩ I_C is the kernel of the
map to the R/I_C, so each class adds the rank of its supports' distinct
nonzero hit vectors, the sets of parts holding them. For monomials M, M' of
one class, supp M in S_C and supp M' in S_C', sum_M' w <= sum_M' g_C =
sum_M g_C = sum_M w and the reverse, so g_C = w on supp M': both parts hold
both supports, and the rank is at most 1. It is 1: the class holds a
multichain, which lies on some extension's chain, which lies in some S_C by
regular_subdivision's on_chains == vertex_mask check.

Equality. Each in_w(g) leads with X_a X_b in a term order in which every g
does (Hibi 1987), so the leading terms of J_w hold every X_a X_b, and
dim J_{w,l} >= dimR - standard_count = dim (∩ I_C)_l >= dim J_{w,l}, the
last by containment: J_{w,l} = (∩ I_C)_l. in_w(I) contains J_w and has the
Hilbert function of I (Sturmfels, Groebner Bases and Convex Polytopes,
1996, ch. 1-2), so the row's dim_in = dim I_l = dimR - standard_count
gives in_w(I)_l = J_{w,l}.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import BadParams
from .lattice import Lattice

MAX_ELEMENTS = 12
MAX_DEGREE = 6


# ---------------------------------------------------------------------------
# generators and standard monomials


def hibi_generators(L: Lattice) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """X_a X_b - X_{a∨b} X_{a∧b} for each incomparable unordered pair, as
    element indices ((a, b), (a∨b, a∧b))."""
    at_mask = L.at_mask
    return [((i, j), (at_mask[a | b], at_mask[a & b]))
            for (i, a), (j, b) in combinations(enumerate(L.masks), 2)
            if a & b not in (a, b)]


def _check_caps(n: int, l: int):
    if n > MAX_ELEMENTS:
        raise BadParams(f"lattice has {n} elements; degree oracles cap at {MAX_ELEMENTS}")
    if l > MAX_DEGREE:
        raise BadParams(f"degree {l} exceeds the cap {MAX_DEGREE}")
    if l < 0:
        raise BadParams("degree must be nonnegative")


def standard_monomial_count(L: Lattice, l: int) -> int:
    """Multichains of length l, the standard monomials of degree l."""
    _check_caps(L.size, l)
    if l == 0:
        return 1
    masks = L.masks
    ladder = [1] * L.size  # multichains of length 1 ending at each element
    for _ in range(l - 1):
        ladder = [sum(x for x, a in zip(ladder, masks) if a & b == a) for b in masks]
    return sum(ladder)


# ---------------------------------------------------------------------------
# degree-truncated linear algebra


def ideal_dim(L: Lattice, l: int) -> int:
    """dim I_l of the Hibi ideal: the rank of the degree-l rows m*g.

    A degree-l monomial is an int with one base-(l + 1) digit per element,
    so multiplying monomials adds their ints and no digit carries. Every row
    m*g is e_u - e_v, so the rank is the number of union-find merges of u
    and v over the degree-l monomials."""
    _check_caps(L.size, l)
    if l < 2:
        return 0
    digit = [(l + 1) ** i for i in range(L.size)]
    shifts = [sum(m) for m in combinations_with_replacement(digit, l - 2)]
    parent: dict[int, int] = {}  # roots are absent

    def find(x):
        while x in parent:
            parent[x] = parent.get(parent[x], parent[x])  # path halving
            x = parent[x]
        return x

    merges = 0
    for (a, b), (join, meet) in hibi_generators(L):
        lead, tail = digit[a] + digit[b], digit[join] + digit[meet]
        for shift in shifts:
            u, v = find(shift + lead), find(shift + tail)
            if u != v:
                parent[u] = v
                merges += 1
    return merges


# ---------------------------------------------------------------------------
# the degeneration certificate


def check_containment(generators: list[tuple[tuple[int, int], tuple[int, int]]],
                      w: tuple[int, ...], members: list[int]) -> None:
    """Assert the mask rule of the module docstring's containment step on
    one face: generators are hibi_generators(L), w the face's witness and
    members its parts' vertex masks: no part holds both sides of a
    generator slack at w, and a part holds both sides of a tight one iff it
    holds both its corners."""
    for (a, b), (join, meet) in generators:
        sides, corners = 1 << a | 1 << b, 1 << join | 1 << meet
        if w[join] + w[meet] == w[a] + w[b]:
            broken = [m for m in members if (m & sides == sides) != (m & corners == corners)]
        else:
            broken = [m for m in members if m & sides == sides]
        if broken:
            raise AssertionError(
                "a part must hold a generator's sides iff it is tight and holds its corners")


def degeneration_certificate(L: Lattice, lmax: int) -> list[dict]:
    """One row per (face of K, degree l <= lmax) certifying in_w(I)_l = the
    intersection of the face's part ideals, by the module docstring's
    three steps: dim_in, dim I_l, equals dimR minus the standard monomial
    count, and dim_cap is that difference, which the cover gives on every
    face. Both numbers are computed once per degree, before the cone is
    built, so the element and degree caps fail fast; per face, only the
    containment mask test runs, at the face's witness."""
    from .cone import cone_K, enumerate_faces, enumerated_face
    from .subdivision import face_subdivision

    degrees = [(l, comb(L.size + l - 1, l), ideal_dim(L, l),
                standard_monomial_count(L, l)) for l in range(1, lmax + 1)]
    generators = hibi_generators(L)
    rows = []
    K = cone_K(L)
    faces = enumerate_faces(K)[::-1]
    while faces:
        # built when popped, so each face goes, with the subdivision it
        # keeps, once its rows are written
        face = enumerated_face(K, *faces.pop())
        members = [part.vertex_mask for part in face_subdivision(face).parts]
        check_containment(generators, face.witness[0], members)
        for l, dim_r, dim_in, standard in degrees:
            dim_cap = dim_r - standard
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
