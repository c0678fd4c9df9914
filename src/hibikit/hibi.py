"""The Hibi ideal of a distributive lattice and its degree-wise dimensions.

All ideal computations are degree-truncated linear algebra over the monomial
basis of R_l, in integers; no Groebner bases. The lattice is read only
through its ideal bitmasks, L.masks: two elements are incomparable iff
neither mask contains the other, and join and meet are OR and AND.

The Hibi ideal I is spanned by the binomials X_a X_b - X_{a∨b} X_{a∧b},
one per incomparable pair. Each degree-l row m*g is e_u - e_v, so dim I_l
is the number of union-find merges over the degree-l monomials, packed as
ints with one base-(l + 1) digit per element.

The degree table of L lays the degree-l monomials out as bits. They fall
into exponent-sum classes, a class being the sum of the indicator vectors of
its monomials' factors' ideals, as many as the standard monomials. Each class
gives its distinct supports, as bit masks over L's elements, consecutive bit
positions: a block, followed by one guard bit. The table keeps, per element
e, one int of the positions whose support contains e; it is built once per
lattice and degree. The intersection of a face's component ideals has, per
class, the rank of its supports' distinct nonzero hit vectors, the sets of
components containing them. That rank is 0 or 1, by the envelope that
regular_subdivision certifies for each part C: an affine map g_C(x) = c +
alpha·1_x, >= w on L and equal to w exactly on C's vertices. Let degree-l
monomials M, M' of one class have supp M in C and supp M' in C'. Equal
exponent sums give sum_M g = sum_M' g for every affine g, so sum_M' w <=
sum_M' g_C = sum_M g_C = sum_M w, and the same with the roles swapped. So
the sums are equal, g_C = w on supp M', and supp M' lies in C: within a
class every nonzero hit vector is the same, on every face and in every
degree, and the bit layout reads every class's rank at once.

A certificate row checks that three dimensions are equal: dim in_w(I)_l, the
dimension of the intersection of the face's component ideals, and dim R_l
minus the standard monomial count. dim in_w(I)_l is computed as dim I_l: a
Groebner degeneration of a homogeneous ideal is flat, so in_w(I) has the
Hilbert function of I for every weight w (Sturmfels, Groebner Bases and
Convex Polytopes, 1996, ch. 1-2). No row uses w, and equal dimensions alone
do not certify in_w(I)_l = the intersection of the I_{i,l}: that also needs
one space to contain the other, which the certificate does not check.
"""

from __future__ import annotations

import sys
from array import array
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import NamedTuple, Sequence

from .errors import BadParams
from .lattice import Lattice
from .poset import _bits, _kept

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


class DegreeTable(NamedTuple):
    """The bit layout of the degree-l monomials of L. Each exponent-sum class
    is a block of consecutive positions, one per distinct support, followed
    by one guard bit."""

    within: tuple[int, ...]  # per element e, the positions whose support contains e
    guards: int  # the guard bit above each block
    lows: int  # the lowest position of each block


@_kept
def degree_table(L: Lattice, l: int) -> DegreeTable:
    """The degree-l monomials of L by exponent-sum class, laid out as bits,
    built once per lattice and degree from the degree's monomial states."""
    _check_caps(L.size, l)
    n = L.size
    # per position, its support; at a guard, the item's top bit, above every
    # element while L.size < width (MAX_ELEMENTS keeps it so). Sorted, the
    # states of one class sit next to each other, so a guard goes wherever
    # the packed sum changes
    cells = array("I")
    width = 8 * cells.itemsize
    guard = 1 << width - 1
    support = (1 << n) - 1
    ordered = sorted(_degree_states(L, l))
    last = ordered[0] >> n
    for state in ordered:
        if state >> n != last:
            cells.append(guard)
            last = state >> n
        cells.append(state & support)
    cells.append(guard)
    # the cells' bits, most significant position first: bit e of every cell
    # is one slice of the string, and so one int
    digits = format(int.from_bytes(cells.tobytes(), sys.byteorder), f"0{width * len(cells)}b")
    within = tuple(int(digits[width - 1 - e::width], 2) for e in range(L.size))
    guards = int(digits[::width], 2)
    lows = (guards << 1 | 1) & ~(1 << len(cells))  # position 0 and the one above each guard
    return DegreeTable(within, guards, lows)


@_kept
def _degree_states(L: Lattice, l: int) -> set[int]:
    """The (packed sum, support) states of the degree-l monomials of L, each
    one int with the support in its low L.size bits, built once per lattice
    and degree by extending the degree below's states by one factor. A
    state is extended only by the factors at or above its support's top
    element, so each multiset of factors is built once, in increasing order,
    and every monomial's state is still reached. The classes are told apart
    by their packed sums, one digit per element of poset_P in base
    MAX_DEGREE + 1, so adding up to MAX_DEGREE indicators never carries."""
    if not l:
        return {0}
    base, n = MAX_DEGREE + 1, L.size
    factors = [(sum(base ** j for j in _bits(m)) << n, 1 << i) for i, m in enumerate(L.masks)]
    # the factors from element t on, at index t + 1, the bit length of a
    # support whose top element is t; all of them for the empty support
    tails = [factors] + [factors[t:] for t in range(n)]
    support = (1 << n) - 1
    return {state + packed | bit for state in _degree_states(L, l - 1)
            for packed, bit in tails[(state & support).bit_length()]}


def standard_monomial_count(L: Lattice, l: int) -> int:
    """Multichains of length l, cross-checked against the number of
    exponent-sum classes in the degree table."""
    _check_caps(L.size, l)
    if l == 0:
        return 1
    masks = L.masks
    ladder = [1] * L.size  # multichains of length 1 ending at each element
    for _ in range(l - 1):
        ladder = [sum(x for x, a in zip(ladder, masks) if a & b == a) for b in masks]
    count = sum(ladder)
    if degree_table(L, l).guards.bit_count() != count:
        raise AssertionError("multichain count must equal the exponent-sum count")
    return count


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
# intersections of the component ideals


def intersection_dim(L: Lattice, members: Sequence[int], l: int) -> int:
    """dim of the degree-l piece of the intersection of the component
    ideals I_i, each given by the bitmask of the elements that survive in
    component i: members are the vertex masks of one face's parts.

    The intersection is the kernel of the evaluation map sending a degree-l
    monomial M to, per component i, its exponent-sum class when every
    factor survives in component i and zero otherwise. So M's image is fixed
    by its class and by its hit vector, the components whose members contain
    its support. Classes hit disjoint coordinates, so the rank is the sum,
    over the classes, of the rank of their distinct nonzero hit vectors,
    which is 1 for every class some component meets (module docstring).

    The work runs on the degree table's bit layout, for all classes at once.
    Component i's inside_i is every position whose support avoids all the
    elements outside its members: one OR of within[e] per such element.
    A block holds a bit of x iff its guard survives ((x | guards) - lows) &
    guards: the subtraction borrows through the block's positions only when
    they are all clear, and the guard stops the borrow at the block's edge.
    A class has a nonzero hit vector iff its block meets hit, the OR of the
    inside_i; it has two distinct ones iff, for some i, its block meets
    both inside_i and hit & ~inside_i, which members of one face's parts
    never give.
    """
    _check_caps(L.size, l)
    within, guards, lows = degree_table(L, l)
    positions = guards - lows  # every block's positions, no guard

    def occupied(x: int) -> int:
        """The guard of each block that holds a bit of x."""
        return ((x | guards) - lows) & guards

    insides = []
    for m in members:
        outside = 0
        for e, column in enumerate(within):
            if not m >> e & 1:
                outside |= column
        insides.append(positions & ~outside)
    hit = 0
    for inside in insides:
        hit |= inside
    for inside in insides:
        if occupied(hit & ~inside) & occupied(inside):
            raise AssertionError("a class must have one nonzero hit vector")
    return comb(L.size + l - 1, l) - occupied(hit).bit_count()


# ---------------------------------------------------------------------------
# the degeneration certificate


def degeneration_certificate(L: Lattice, lmax: int) -> list[dict]:
    """One row per (face of K, degree l <= lmax) checking the three-way
    dimension identity dim in_w(I)_l = dim of the intersection of the face's
    component ideals = dim R_l minus the standard monomial count.

    dim in_w(I)_l is reported as dim I_l: the degeneration is flat, so it
    is the same for every weight w, and the row checks dimensions only (see
    the module docstring). It and the standard monomial count are
    computed once per degree, before the cone is built, so the element and
    degree caps fail fast; only the intersection is computed per face.

    A component's members are its part's vertex mask. They are the ideals
    of the part's order and a sublattice of L by the checks that
    regular_subdivision builds every part with, on every face (the
    argument is in the subdivision module docstring)."""
    from .cone import cone_K, enumerate_faces, enumerated_face
    from .subdivision import face_subdivision

    degrees = [(l, comb(L.size + l - 1, l), ideal_dim(L, l),
                standard_monomial_count(L, l)) for l in range(1, lmax + 1)]
    rows = []
    K = cone_K(L)
    faces = enumerate_faces(K)[::-1]
    while faces:
        # built when popped, so each face goes, with the subdivision it
        # keeps, once its rows are written
        face = enumerated_face(K, *faces.pop())
        members = [part.vertex_mask for part in face_subdivision(face).parts]
        for l, dim_r, dim_in, standard in degrees:
            dim_cap = intersection_dim(L, members, l)
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

