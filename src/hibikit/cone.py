"""The maximal Groebner cone K of a distributive lattice.

K lives in R^L. Its closure is cut out by one inequality per diamond pair
{a, b}: w_{a∧b} + w_{a∨b} - w_a - w_b >= 0, each certified a facet by an
explicit integer point. Every evaluation of an inequality at a point reads
four entries, DiamondPair.value; the dense normals serve only the linear
algebra: the apex's rank, the span's integer kernel, the LPs, the double
description and the `cone` output. A face is keyed by its closed tight set,
the diamond equalities that hold on all of it, held as an int mask whose
bit k stands for the pair K.pairs[k]. The faces are read off the tight
sets of the cone's rays; a single key is closed by LP. A point of R^L
is an integer tuple w over one positive denominator den, standing for
w / den, and a NotInCone message prints the violated value as a reduced
num/den.

The faces' dimensions come from the face lattice, not from a rank per face
(grade_faces). The face lattice of a cone is graded (Ziegler, Lectures on
Polytopes, ch. 2): dim F = dim G + 1 for every facet G of F, and the apex,
the lineality space, has dimension |P| + 1, which cone_K certifies by one
rank. Every face below F is cut from F by the pairs tight on it, so the
facets of F are among the faces F ∩ {pair k tight} for k loose on F; such
a face holds the rays of F that are tight on k, and the one with the most
rays lies in no other, so it is a facet. Only `cone` reads the dimensions.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import comb, gcd, lcm
from typing import Sequence

from .errors import NotInCone, TooLarge
from .exactgeom import _echelon, _extreme_rays, integer_kernel, lp_feasible, rank
from .lattice import DiamondPair, Lattice, diamond_pairs
from .poset import _bits, _kept

MAX_FACES = 100000
MAX_RAYS = 2000


def pair_normal(L: Lattice, d: DiamondPair) -> tuple[int, ...]:
    """e_{a∧b} + e_{a∨b} - e_a - e_b over the canonical element order."""
    v = [0] * L.size
    v[d.meet] += 1
    v[d.join] += 1
    v[d.a] -= 1
    v[d.b] -= 1
    return tuple(v)


class MaxCone:
    """The closed cone K-bar with its certified minimal H-description. It
    keeps its apex, the face with every pair tight, and the last face that
    cli.resolve_face resolved on it; what depends on the cone alone is kept
    in its memo by the function that builds it (poset._kept)."""

    def __init__(self, lattice: Lattice, pairs: Sequence[DiamondPair],
                 normals: Sequence[tuple[int, ...]]):
        self.lattice = lattice
        self.pairs: tuple[DiamondPair, ...] = tuple(pairs)
        self.normals: tuple[tuple[int, ...], ...] = tuple(normals)
        self.apex = Face(self, (1 << len(self.pairs)) - 1, ((0,) * lattice.size, 1))
        self._resolved: tuple[str, Face] | None = None  # cli.resolve_face
        self._memo: dict = {}  # _kept


class Face:
    """A face of K-bar, identified by its closed tight set, the mask tight
    over cone.pairs. Its witness (w, den) is a point w / den of its
    relative interior, where subdivision.face_subdivision subdivides.

    What depends on the face alone is kept in its memo by the function that
    builds it (poset._kept), so every job on one face reads the same
    tables."""

    def __init__(self, cone: MaxCone, tight: int, witness: tuple[tuple[int, ...], int]):
        self.cone = cone
        self.tight = tight
        self.witness = witness
        self._memo: dict = {}  # _kept

    @_kept
    def key(self) -> str:
        """The face's key, built once."""
        return _key_of(key_fragments(self.cone.lattice), self.tight)


@_kept
def key_fragments(L: Lattice) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Each diamond pair's [a, b] fragment of a face key, its two labels
    sorted and quoted, in key order, and each pair's rank in that order;
    built once per lattice."""
    return _fragments(L.elements, diamond_pairs(L))


def _fragments(elements: Sequence[str], pairs: Sequence[DiamondPair]):
    """key_fragments of the pairs with labels read off elements; each label
    quoted by the ASCII string encoder of json.dumps."""
    labels = [sorted((elements[d.a], elements[d.b])) for d in pairs]
    order = sorted(range(len(pairs)), key=labels.__getitem__)
    rank = [0] * len(pairs)
    for r, k in enumerate(order):
        rank[k] = r
    return (tuple(f"[{encode_basestring_ascii(labels[k][0])},"
                  f"{encode_basestring_ascii(labels[k][1])}]" for k in order), tuple(rank))


def _key_of(fragments: tuple[tuple[str, ...], tuple[int, ...]], tight: int) -> str:
    """The key of the mask tight over the pairs of fragments: their sorted
    [a, b] label pairs in the bytes of json.dumps(..., separators=(",", ":"))."""
    quoted, rank = fragments
    return "[" + ",".join([quoted[r] for r in sorted([rank[k] for k in _bits(tight)])]) + "]"


def _tight_set(L: Lattice, w: Sequence[int], den: int) -> int:
    """The mask over diamond_pairs(L) of the pairs tight at w / den, for w
    of length |L|; NotInCone names the first violated."""
    tight = 0
    for i, d in enumerate(diamond_pairs(L)):
        value = d.value(w)
        if value < 0:
            E = L.elements
            g = gcd(value, den)
            shown = f"{value // g}" if g == den else f"{value // g}/{den // g}"
            raise NotInCone(
                f"w_{{{E[d.meet]}}}+w_{{{E[d.join]}}}-w_{{{E[d.a]}}}-w_{{{E[d.b]}}}"
                f" = {shown} < 0")
        if value == 0:
            tight |= 1 << i
    return tight


@_kept
def cone_K(L: Lattice) -> MaxCone:
    """Build K-bar and certify every inequality facet-defining: for each
    pair there is a point with that equality exact and all others slack.

    For the pair with meet d and join d ∪ {p, q} the point is
    w(I) = 2·C(|I|, 2) − [I = d] − [I = d ∪ {p, q}]. Across any diamond
    the second difference of C(|I|, 2) is 1, so the first term gives every
    pair the value 2. Subtracting [I = X] takes 1 from each pair with X as
    its meet or join and adds 1 to each pair with X as a side. So the two
    indicators take 2 from this pair, and at most 1 from any other: taking 2
    needs d as the meet and d ∪ {p, q} as the join. Each point is checked by
    every pair's value at it. The apex, the lineality space, is certified
    to have dimension |P| + 1 by one rank of all the normals. Built and
    certified once per lattice."""
    pairs = diamond_pairs(L)
    base = [2 * comb(m.bit_count(), 2) for m in L.masks]
    for k, d in enumerate(pairs):
        w = list(base)
        w[d.meet] -= 1
        w[d.join] -= 1
        values = [e.value(w) for e in pairs]
        if values[k] != 0 or any(v < 1 for j, v in enumerate(values) if j != k):
            pair = (L.elements[d.a], L.elements[d.b])
            raise AssertionError(f"not facet-defining: the inequality for {pair}")
    normals = [pair_normal(L, d) for d in pairs]
    if L.size - rank(normals) != L.poset_P.size + 1:
        raise AssertionError("apex dimension is not |P|+1")
    return MaxCone(L, pairs, normals)


def face_of(K: MaxCone, w: Sequence[int], den: int) -> Face:
    """The unique face holding the point w / den in its relative interior,
    for integer w and den > 0.

    The tight set at a point is automatically closed: the facets tight at w
    are exactly the facets containing the minimal face through w.
    """
    w = tuple(w)
    if len(w) != K.lattice.size:
        raise ValueError("point has wrong dimension")
    return Face(K, _tight_set(K.lattice, w, den), (w, den))


@_kept
def span_of_face(F: Face) -> tuple[tuple[int, ...], ...]:
    """Saturated integer basis of {w : equality for every tight pair}, as
    rows; built once per face."""
    rows = [F.cone.normals[i] for i in _bits(F.tight)]
    return tuple(map(tuple, integer_kernel(rows, F.cone.lattice.size)))


def _close_tight(K: MaxCone, tight: int) -> tuple[int, tuple[tuple[int, ...], int]]:
    """Close a tight mask against K-bar and produce an interior witness, the
    sum of the LP points over the lcm of their denominators. Each point has
    its own pair's value at least 1 and every other pair's at least 0, so
    the sum has every loose pair's value at least den.

    A pair k is implied when {tight equalities, all inequalities, slack >= 1
    on k} is infeasible. Implied equalities do not change the face, so the
    implied set depends only on the input and one pass suffices.
    """
    n = K.lattice.size
    loose = [k for k in range(len(K.pairs)) if not tight >> k & 1]
    closed = tight
    points = []
    equalities = [K.normals[i] for i in _bits(tight)]
    rows = [(K.normals[j], 0) for j in loose]
    for k in loose:
        x = lp_feasible(equalities, rows + [(K.normals[k], 1)], n)
        if x is None:
            closed |= 1 << k
        else:
            points.append(x)
    den = lcm(*(d for _, d in points))
    witness = tuple(sum(den // d * x[i] for x, d in points) for i in range(n))
    return closed, (witness, den)


def enumerate_faces(K: MaxCone) -> list[tuple[int, int]]:
    """All faces of K-bar as (tight mask, ray mask) pairs, in increasing
    tight-mask order, with no LP. On r independent columns J of the normals
    N, double description gives the rays of the pointed quotient
    {h : N_J h >= 0}; the faces' tight sets are all pairs (the apex) and the
    intersections of rays' tight sets (Kaibel & Pfetsch 2002). A face is
    determined by its rays, bit r of its ray mask standing for the r-th ray,
    those tight on every pair of the face."""
    m = len(K.pairs)
    rays = _rays(K)
    masks = {(1 << m) - 1}
    for _, tight in rays:
        masks |= {tight & mask for mask in masks}
        if len(masks) > MAX_FACES:
            raise TooLarge(f"more than {MAX_FACES} faces; enumeration is capped there")
    # the rays on pair k; a face's rays are those on each of its pairs
    on_pair = [sum(1 << r for r, (_, tight) in enumerate(rays) if tight >> k & 1)
               for k in range(m)]
    every = (1 << len(rays)) - 1
    faces = []
    for mask in sorted(masks):
        on = every
        for k in _bits(mask):
            on &= on_pair[k]
        faces.append((mask, on))
    return faces


@_kept
def _rays(K: MaxCone) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The rays of enumerate_faces, each placed on L as an integer point,
    zero off the columns J, with its tight mask; built once per cone."""
    n = K.lattice.size
    J = _echelon(K.normals)[2]
    rays = _extreme_rays([[row[j] for j in J] for row in K.normals], MAX_RAYS) if J else []
    place = {j: i for i, j in enumerate(J)}
    return tuple((tuple(ray[place[j]] if j in place else 0 for j in range(n)), tight)
                 for ray, tight in rays)


def enumerated_face(K: MaxCone, tight: int, rays: int) -> Face:
    """The Face of one (tight mask, ray mask) pair of enumerate_faces(K).
    Its witness is the sum of its rays, over den 1, at least 1 on every
    pair loose on the face since some ray of the face is slack there."""
    placed = _rays(K)
    on_face = [placed[r][0] for r in _bits(rays)]
    w = tuple(map(sum, zip(*on_face))) if on_face else (0,) * K.lattice.size
    return Face(K, tight, (w, 1))


def grade_faces(K: MaxCone, faces: Sequence[tuple[int, int]]) -> list[int]:
    """The dimension of every face of enumerate_faces(K), in list order,
    read off the face lattice by the grading argument of the module
    docstring, with no rank. A face is its ray mask. The rays tight on pair
    k are those of the facet {k}, a face of the list since cone_K certified
    the pair a facet. Ray masks are graded in increasing ray count, so a
    face's facets are graded before it. The apex has no ray."""
    on_pair = [0] * len(K.pairs)
    for tight, rays in faces:
        if tight.bit_count() == 1:
            on_pair[tight.bit_length() - 1] = rays
    dims = {0: K.lattice.poset_P.size + 1}
    for R in sorted((rays for _, rays in faces), key=int.bit_count):
        if R not in dims:
            # the candidates below F: a pair tight on every ray of F is tight
            # on F, so it gives F itself and is skipped
            best, most = 0, -1
            for on in on_pair:
                G = R & on
                if G != R and G.bit_count() > most:
                    best, most = G, G.bit_count()
            dims[R] = dims[best] + 1
    return [dims[R] for _, R in faces]
