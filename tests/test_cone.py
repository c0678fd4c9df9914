"""The cone K: facets, faces, spans, interior samples, enumeration."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hibikit import cone as cone_module
from hibikit.cone import (
    MAX_PAIRS,
    MaxCone,
    cone_K,
    enumerate_faces,
    face_of,
    pair_normal,
    sample_relative_interior,
    span_of_face,
)
from hibikit.errors import NotInCone, TooLarge
from hibikit.exactgeom import lp_feasible, rank, same_lattice, vdot
from hibikit.lattice import birkhoff
from hibikit.poset import antichain, chain, from_cover_relations

GRID = from_cover_relations(
    ["p", "q", "r", "s"], [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")]
)


def random_poset_from_seed(labels, pairs):
    P = antichain(labels)
    accepted = []
    for a, b in pairs:
        if a == b:
            continue
        try:
            P = from_cover_relations(labels, accepted + [(a, b)])
            accepted.append((a, b))
        except Exception:
            pass
    return P


def poset_strategy(max_size=3):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_size))
        labels = [f"p{i}" for i in range(n)]
        k = draw(st.integers(min_value=0, max_value=2 * n))
        pairs = [
            (labels[draw(st.integers(0, n - 1))], labels[draw(st.integers(0, n - 1))])
            for _ in range(k)
        ]
        return random_poset_from_seed(labels, pairs)

    return build()


# -- cone construction -------------------------------------------------------


def test_chain_cone_has_no_inequalities():
    K = cone_K(birkhoff(chain(["a", "b", "c"])))
    assert K.pairs == ()
    assert K.normals == ()


def test_b2_cone_single_inequality():
    L = birkhoff(antichain(["p", "q"]))
    K = cone_K(L)
    assert len(K.pairs) == 1
    normal = K.normals[0]
    by_label = dict(zip(L.elements, normal))
    assert by_label == {"{}": 1, "{p}": -1, "{q}": -1, "{p,q}": 1}


def test_grid_cone_single_inequality():
    # Birkhoff of the 2x2 grid models the lattice of 2-subsets of {1..4};
    # its unique diamond pair plays the role of {13, 24} vs {14, 23}
    L = birkhoff(GRID)
    K = cone_K(L)
    assert len(K.pairs) == 1
    d = K.pairs[0]
    assert {d.a, d.b} == {"{p,q}", "{p,r}"}
    assert d.meet_elt == "{p}" and d.join_elt == "{p,q,r}"


def test_b3_cone_six_inequalities():
    K = cone_K(birkhoff(antichain(["p", "q", "r"])))
    assert len(K.pairs) == 6


# -- face_of -----------------------------------------------------------------


def test_face_of_interior_point_b2():
    L = birkhoff(antichain(["p", "q"]))
    K = cone_K(L)
    F = face_of(K, (0, -1, -1, 0))
    assert F.tight == ()
    assert F.dim == 4
    assert F.is_full and not F.is_apex


def test_face_of_zero_is_apex():
    L = birkhoff(antichain(["p", "q"]))
    K = cone_K(L)
    F = face_of(K, (0, 0, 0, 0))
    assert len(F.tight) == 1
    assert F.dim == 3 == L.poset_P.size + 1
    assert F.is_apex


def test_face_of_outside_point():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    with pytest.raises(NotInCone):
        face_of(K, (0, 1, 1, 0))


def test_face_of_wrong_dimension():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    with pytest.raises(ValueError):
        face_of(K, (0, 1))


# -- span_of_face ------------------------------------------------------------


def test_span_full_face_b2():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    F = face_of(K, (0, -1, -1, 0))
    basis = span_of_face(F)
    assert len(basis) == 4
    assert rank(basis) == 4


def test_span_apex_b2():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    F = face_of(K, (0, 0, 0, 0))
    basis = span_of_face(F)
    assert len(basis) == 3
    normal = K.normals[0]
    for v in basis:
        assert vdot(normal, v) == 0
    # saturation: must generate every integer vector in the hyperplane
    ns = sympy.Matrix([list(map(int, normal))]).nullspace()
    scaled = []
    for col in ns:
        denom = sympy.lcm([sympy.fraction(x)[1] for x in col])
        ints = [int(x * denom) for x in col]
        g = sympy.gcd(ints)
        scaled.append([x // int(g) for x in ints])
    assert same_lattice(basis, scaled)


def test_apex_span_is_affine_functions_of_indicators():
    # every w in the apex span is a -> f(v_a) + c for some affine f
    for P in (antichain(["p", "q", "r"]), GRID, chain(["a", "b"])):
        L = birkhoff(P)
        K = cone_K(L)
        apex = face_of(K, tuple(Fraction(0) for _ in L.elements))
        assert apex.is_apex
        basis = span_of_face(apex)
        cols = [[Fraction(1)] + list(L.indicator(a)) for a in L.elements]
        assert rank(cols) == P.size + 1  # the evaluation map is nondegenerate
        assert len(basis) == P.size + 1
        for w in basis:
            aug = [list(col) + [Fraction(wa)] for col, wa in zip(cols, w)]
            assert rank(aug) == rank(cols)  # w is in the column space


# -- sampling ----------------------------------------------------------------


def test_sample_full_face_b2():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    F = face_of(K, (0, -1, -1, 0))
    w = sample_relative_interior(F)
    assert vdot(K.normals[0], w) >= 1
    assert face_of(K, w) == F


def test_sample_apex_is_fixed_point():
    L = birkhoff(antichain(["p", "q", "r"]))
    K = cone_K(L)
    apex = face_of(K, tuple(Fraction(0) for _ in L.elements))
    w = sample_relative_interior(apex)
    assert face_of(K, w) == apex
    # the affine weight w_S = |S| also lands in the apex
    affine = tuple(Fraction(len(L.iota[a])) for a in L.elements)
    assert face_of(K, affine).is_apex


def test_convex_weight_is_interior():
    # a strictly convex function of the height separates every diamond pair
    for P in (antichain(["p", "q", "r"]), GRID):
        L = birkhoff(P)
        K = cone_K(L)
        w = tuple(Fraction(len(L.iota[a]) ** 2) for a in L.elements)
        assert face_of(K, w).is_full


# -- enumeration -------------------------------------------------------------


def test_enumerate_b2_two_faces():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    faces = enumerate_faces(K)
    assert len(faces) == 2
    assert {f.is_full for f in faces} == {True, False}
    assert {f.is_apex for f in faces} == {True, False}


def test_enumerate_chain_single_face():
    K = cone_K(birkhoff(chain(["a", "b", "c"])))
    faces = enumerate_faces(K)
    assert len(faces) == 1
    assert faces[0].is_full and faces[0].is_apex
    assert faces[0].dim == 4


def test_enumerate_candidate_guard(monkeypatch):
    # B3's six pairs repeated to 24 exceed the 20-pair cap, which must trip
    # before the first feasibility LP
    K = cone_K(birkhoff(antichain(["p", "q", "r"])))
    big = MaxCone(K.lattice, K.pairs * 4, K.normals * 4)
    assert len(big.pairs) == 24 > MAX_PAIRS

    def no_lp(*args):
        raise AssertionError("enumeration ran an LP past the cap")

    monkeypatch.setattr(cone_module, "lp_feasible", no_lp)
    with pytest.raises(TooLarge):
        enumerate_faces(big)


def test_enumerate_faces_b3_consistency():
    L = birkhoff(antichain(["p", "q", "r"]))
    K = cone_K(L)
    faces = enumerate_faces(K)
    keys = {f.key() for f in faces}
    assert len(keys) == len(faces)
    assert sum(f.is_full for f in faces) == 1
    assert sum(f.is_apex for f in faces) == 1
    for f in faces:
        w = sample_relative_interior(f)
        assert face_of(K, w) == f
        for i in range(len(K.pairs)):
            slack = vdot(K.normals[i], w)
            if i in f.tight_idx:
                assert slack == 0
            else:
                assert slack >= 1
    dims = sorted(f.dim for f in faces)
    assert dims[0] == L.poset_P.size + 1
    assert dims[-1] == L.size


@settings(max_examples=10, deadline=None)
@given(poset_strategy())
def test_enumerate_random_small(P):
    L = birkhoff(P)
    K = cone_K(L)
    faces = enumerate_faces(K)
    assert sum(f.is_full for f in faces) == 1
    for f in faces:
        assert face_of(K, sample_relative_interior(f)) == f
        assert L.poset_P.size + 1 <= f.dim <= L.size


# -- minimality --------------------------------------------------------------


@pytest.mark.parametrize(
    "P",
    [
        antichain(["p", "q"]),
        antichain(["p", "q", "r"]),
        GRID,
        from_cover_relations(["p", "q", "r"], [("p", "q")]),
    ],
)
def test_each_inequality_is_irredundant(P):
    # dropping inequality i admits a point violating it: strict enlargement
    L = birkhoff(P)
    K = cone_K(L)
    n = L.size
    for i in range(len(K.pairs)):
        cons = [(K.normals[k], ">=", 0) for k in range(len(K.pairs)) if k != i]
        cons.append((K.normals[i], "<=", -1))
        assert lp_feasible(cons, n) is not None


def test_normal_structure():
    L = birkhoff(antichain(["p", "q", "r"]))
    for d in cone_K(L).pairs:
        normal = pair_normal(L, d)
        assert sorted(normal) == [-1, -1, 0, 0, 0, 0, 1, 1]
        assert sum(normal) == 0
