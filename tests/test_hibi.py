"""Hibi ideal generators, the degree-wise dimensions, and their oracles."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracle import NotStronger, enumerated_faces, extension_poset, indicator, vadd, zero_vec
from hibi_oracle import (
    Monomial,
    Polynomial,
    class_hit_vectors,
    component_ideal,
    elimination_ideal_dim,
    exponent_sum_count,
    factor_indices,
    generator_polynomials,
    is_standard,
    maximal_chains,
    member_masks,
    monomial,
    per_monomial_intersection_dim,
    per_support_intersection_dim,
    straighten,
    support_table,
    union_find_ideal_dim,
)

from hibikit import hibi, lattice, poset, subdivision
from hibikit.cli import main
from hibikit.cone import cone_K, face_of
from hibikit.errors import BadParams
from hibikit.hibi import (
    check_containment,
    degeneration_certificate,
    hibi_generators,
    ideal_dim,
    standard_monomial_count,
)
from hibikit.lattice import birkhoff, flag_lattice, grassmann_lattice
from hibikit.poset import antichain, from_cover_relations
from hibikit.subdivision import face_subdivision
from order_oracle import (chain, height, incomparable, join_of, label_extensions, meet_of,
                          part_order, position, vertex_labels)

ROOT = Path(__file__).resolve().parent.parent

GRID = from_cover_relations(
    ["p", "q", "r", "s"], [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")]
)
B2 = birkhoff(antichain(["p", "q"]))
B3 = birkhoff(antichain(["p", "q", "r"]))
GRIDL = birkhoff(GRID)
CHAIN4 = birkhoff(chain(["a", "b", "c"]))
# the lattices the oracles check the certificate columns on
ORACLE_LATTICES = [B2, B3, GRIDL, CHAIN4, grassmann_lattice(2, 4), flag_lattice(3)]


# -- generators --------------------------------------------------------------


def test_chain_has_no_generators():
    assert hibi_generators(CHAIN4) == []


def test_b2_single_generator():
    # X_{p} X_{q} - X_{p,q} X_{}, as element indices
    assert B2.elements == ("{}", "{p}", "{q}", "{p,q}")
    assert hibi_generators(B2) == [((1, 2), (3, 0))]
    expected = Polynomial({
        monomial(B2, {"{p}": 1, "{q}": 1}): 1,
        monomial(B2, {"{}": 1, "{p,q}": 1}): -1,
    })
    assert generator_polynomials(B2) == [expected]


def test_generators_are_incomparable_pairs_with_join_and_meet():
    for L in ORACLE_LATTICES:
        expected = [((i, j), (position(L, join_of(L, a, b)), position(L, meet_of(L, a, b))))
                    for (i, a), (j, b) in itertools.combinations(enumerate(L.elements), 2)
                    if incomparable(L, a, b)]
        assert hibi_generators(L) == expected


def test_generator_count_is_incomparable_pairs():
    for L in (B2, B3, GRIDL, CHAIN4):
        pairs = sum(
            1
            for a, b in itertools.combinations(L.elements, 2)
            if incomparable(L, a, b)
        )
        assert len(hibi_generators(L)) == pairs
    assert len(hibi_generators(B3)) == 9


# -- straighten (oracle) -----------------------------------------------------


def test_straighten_b2():
    m = monomial(B2, {"{p}": 1, "{q}": 1})
    assert straighten(B2, m) == monomial(B2, {"{}": 1, "{p,q}": 1})


def test_straighten_fixes_standard():
    m = monomial(CHAIN4, {CHAIN4.elements[0]: 1, CHAIN4.elements[2]: 2})
    assert straighten(CHAIN4, m) == m


def test_straighten_grid_middle_pair():
    # the grid's incomparable pair swaps to meet and join in one step
    m = monomial(GRIDL, {"{p,q}": 1, "{p,r}": 1})
    assert straighten(GRIDL, m) == monomial(GRIDL, {"{p}": 1, "{p,q,r}": 1})


def exponent_sum(L, m):
    total = zero_vec(L.poset_P.size)
    for i in factor_indices(m):
        total = vadd(total, indicator(L, L.elements[i]))
    return total


def test_straighten_random_monomials():
    rng = random.Random(7)
    for L in (B3, GRIDL):
        for _ in range(200):
            deg = rng.randint(1, 4)
            exps = [0] * L.size
            for _ in range(deg):
                exps[rng.randrange(L.size)] += 1
            m = Monomial(tuple(exps))
            s = straighten(L, m)
            assert is_standard(L, s)
            assert exponent_sum(L, s) == exponent_sum(L, m)
            assert s.degree == m.degree
            assert straighten(L, s) == s


def test_straighten_result_depends_only_on_sum():
    # all monomials with the same exponent sum straighten identically
    rng = random.Random(11)
    L = B3
    buckets = {}
    for _ in range(300):
        exps = [0] * L.size
        for _ in range(3):
            exps[rng.randrange(L.size)] += 1
        m = Monomial(tuple(exps))
        key = exponent_sum(L, m)
        result = straighten(L, m)
        if key in buckets:
            assert buckets[key] == result
        else:
            buckets[key] = result


# -- counting ----------------------------------------------------------------


def test_standard_count_degree_zero_and_one():
    for L in (B2, B3, GRIDL, CHAIN4):
        assert standard_monomial_count(L, 0) == 1
        assert standard_monomial_count(L, 1) == L.size


def test_standard_count_b2():
    assert standard_monomial_count(B2, 2) == 9


def test_standard_count_three_chain():
    L = birkhoff(chain(["a", "b"]))
    assert L.size == 3
    assert standard_monomial_count(L, 2) == 6


def test_standard_count_matches_bruteforce_multichains():
    for L in (B2, GRIDL):
        for l in (2, 3):
            brute = sum(
                1
                for combo in itertools.combinations_with_replacement(L.elements, l)
                if all(
                    not incomparable(L, a, b)
                    for a, b in itertools.combinations(combo, 2)
                )
            )
            assert standard_monomial_count(L, l) == brute


def test_standard_count_is_number_of_straightened_monomials():
    # every degree-l monomial straightens to a standard one, and different
    # standard monomials have different exponent sums
    for L in ORACLE_LATTICES:
        for l in (1, 2, 3):
            straightened = {
                straighten(L, Monomial(tuple(combo.count(i) for i in range(L.size))))
                for combo in itertools.combinations_with_replacement(range(L.size), l)}
            assert len(straightened) == standard_monomial_count(L, l)


def test_caps_enforced():
    with pytest.raises(BadParams):
        standard_monomial_count(B2, 7)
    big = birkhoff(antichain([f"p{i}" for i in range(4)]))  # 16 elements
    with pytest.raises(BadParams):
        standard_monomial_count(big, 2)


# -- ideal_dim ---------------------------------------------------------------


def sympy_ideal_dim(L, gens, l):
    n = L.size
    cols = list(itertools.combinations_with_replacement(range(n), l))
    col_index = {c: i for i, c in enumerate(cols)}
    rows = []
    for g in gens:
        d = g.degree()
        if d > l:
            continue
        for extra in itertools.combinations_with_replacement(range(n), l - d):
            row = [0] * len(cols)
            for m, coef in g.terms.items():
                key = tuple(sorted(factor_indices(m) + list(extra)))
                row[col_index[key]] += coef
            rows.append(row)
    if not rows:
        return 0
    return sympy.Matrix(rows).rank()


def test_ideal_dim_b2():
    assert ideal_dim(B2, 2) == 1


def test_ideal_dim_empty():
    assert ideal_dim(CHAIN4, 3) == 0
    assert union_find_ideal_dim([], 3) == 0
    assert union_find_ideal_dim([Polynomial({})], 3) == 0


def test_ideal_dim_b3_degree_two():
    # 9 independent quadrics: dim R_2 - standard = 36 - 27 = 9
    assert ideal_dim(B3, 2) == 9
    assert sympy_ideal_dim(B3, generator_polynomials(B3), 2) == 9


@pytest.mark.parametrize("L", [B2, GRIDL, CHAIN4])
@pytest.mark.parametrize("l", [2, 3])
def test_ideal_dim_matches_sympy_and_hilbert(L, l):
    gens = generator_polynomials(L)
    got = ideal_dim(L, l)
    assert got == sympy_ideal_dim(L, gens, l)
    assert got == elimination_ideal_dim(gens, l)
    assert got == comb(L.size + l - 1, l) - standard_monomial_count(L, l)


def test_ideal_dim_matches_elimination_up_to_degree_six():
    gens = generator_polynomials(B3)
    for l in range(7):
        assert ideal_dim(B3, l) == elimination_ideal_dim(gens, l)


def test_ideal_dim_packs_ten_elements_up_to_degree_six():
    # one base-(l + 1) digit per element of Gr(2,5)
    L = grassmann_lattice(2, 5)
    gens = generator_polynomials(L)
    for l in range(7):
        assert ideal_dim(L, l) == union_find_ideal_dim(gens, l)
        assert ideal_dim(L, l) == comb(L.size + l - 1, l) - standard_monomial_count(L, l)


@pytest.mark.parametrize("L", [B2, GRIDL, CHAIN4])
def test_component_ideal_dim_matches_sympy(L):
    # component ideals mix binomials with monomials (the excluded variables)
    for o in [L.poset_P] + [extension_poset(e) for e in label_extensions(L.poset_P)]:
        gens = component_ideal(L, o)
        for l in (1, 2, 3):
            got = union_find_ideal_dim(gens, l)
            assert got == elimination_ideal_dim(gens, l)
            assert got == sympy_ideal_dim(L, gens, l)


def test_ideal_dim_rejects_other_shapes():
    three_terms = Polynomial({
        monomial(B2, {"{p}": 1, "{q}": 1}): 1,
        monomial(B2, {"{}": 1, "{p,q}": 1}): -1,
        monomial(B2, {"{p}": 2}): 1,
    })
    plain_sum = Polynomial({monomial(B2, {"{p}": 1}): 1, monomial(B2, {"{q}": 1}): 1})
    for bad in (three_terms, plain_sum):
        with pytest.raises(BadParams):
            union_find_ideal_dim(generator_polynomials(B2) + [bad], 2)


def test_ideal_dim_rejects_inhomogeneous():
    bad = Polynomial({
        monomial(B2, {"{p}": 1}): 1,
        monomial(B2, {"{p}": 1, "{q}": 1}): 1,
    })
    with pytest.raises(BadParams):
        union_find_ideal_dim([bad], 2)


# -- component ideals (oracle) -----------------------------------------------


def test_component_ideal_weak_order_is_hibi():
    gens = component_ideal(B2, antichain(["p", "q"]))
    assert gens == generator_polynomials(B2)


def test_component_ideal_chain_order():
    gens = component_ideal(B2, chain(["p", "q"]))
    assert gens == [Polynomial({monomial(B2, {"{q}": 1}): 1})]


def test_component_ideal_grid_linearization():
    gens = component_ideal(GRIDL, extension_poset(label_extensions(GRID)[0]))
    quadrics = [g for g in gens if g.degree() == 2]
    variables = [g for g in gens if g.degree() == 1]
    assert quadrics == []
    assert len(variables) == 1


def test_component_ideal_not_stronger():
    with pytest.raises(NotStronger):
        component_ideal(birkhoff(chain(["p", "q"])), antichain(["p", "q"]))


# -- intersections (oracle) --------------------------------------------------


def test_vertex_masks_are_the_sublattices_of_the_part_orders():
    for L in ORACLE_LATTICES:
        for F in enumerated_faces(cone_K(L)):
            parts = face_subdivision(F).parts
            assert ([part.vertex_mask for part in parts]
                    == member_masks(L, [part_order(L, part) for part in parts]))


def test_intersection_b2_two_linearizations():
    orders = [extension_poset(e) for e in label_extensions(antichain(["p", "q"]))]
    assert per_support_intersection_dim(B2, member_masks(B2, orders), 2) == 1
    assert per_monomial_intersection_dim(B2, orders, 2) == 1


def test_intersection_single_weak_order_is_ideal_dim():
    for L in (B2, B3, GRIDL, CHAIN4):
        for l in (2, 3):
            got = per_support_intersection_dim(L, member_masks(L, [L.poset_P]), l)
            assert got == ideal_dim(L, l)


def test_single_component_dim_matches_its_ideal():
    for L in ORACLE_LATTICES:
        orders = [L.poset_P] + [extension_poset(e) for e in label_extensions(L.poset_P)]
        for o in orders:
            gens = component_ideal(L, o)
            for l in (1, 2, 3):
                got = per_support_intersection_dim(L, member_masks(L, [o]), l)
                assert got == union_find_ideal_dim(gens, l) == elimination_ideal_dim(gens, l)


@st.composite
def small_lattices(draw, sizes=st.integers(3, 6), max_size=10):
    """Birkhoff lattices of random posets on 3-6 elements with at most 10
    elements, or on `sizes` elements with at most `max_size`: random
    comparabilities, then more, in a fixed order, until the lattice is small
    enough."""
    n = draw(sizes)
    labels = [f"p{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    covers = [pair for pair in pairs if draw(st.booleans())]
    L = birkhoff(from_cover_relations(labels, covers))
    for pair in pairs:
        if L.size <= max_size:
            break
        covers.append(pair)
        L = birkhoff(from_cover_relations(labels, covers))
    return L


@settings(max_examples=15, deadline=None)
@given(small_lattices(st.integers(1, 5), 12), st.integers(0, 4))
def test_ideal_dim_matches_the_polynomial_oracles(L, l):
    gens = generator_polynomials(L)
    assert ideal_dim(L, l) == union_find_ideal_dim(gens, l) == elimination_ideal_dim(gens, l)


@settings(max_examples=20, deadline=None)
@given(small_lattices(), st.data())
def test_support_tables_match_the_per_monomial_oracle(L, data):
    # the per-support scan and the per-monomial elimination agree on every
    # face's parts, where by the cover step each gives dimR minus the
    # standard monomial count, and on parts drawn from several faces, whose
    # classes may split
    families = [face_subdivision(F).parts for F in enumerated_faces(cone_K(L))]
    for family in families:
        members = [part.vertex_mask for part in family]
        orders = [part_order(L, part) for part in family]
        for l in range(4):
            assert (per_support_intersection_dim(L, members, l)
                    == per_monomial_intersection_dim(L, orders, l)
                    == comb(L.size + l - 1, l) - standard_monomial_count(L, l))
    parts = [part for family in families for part in family]
    drawn = data.draw(st.lists(st.sampled_from(parts), min_size=2, max_size=5))
    members = [part.vertex_mask for part in drawn]
    for l in range(4):
        assert (per_support_intersection_dim(L, members, l)
                == per_monomial_intersection_dim(L, [part_order(L, p) for p in drawn], l))


# -- the cover argument -------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(small_lattices())
def test_support_classes_are_the_standard_monomials(L):
    # one exponent-sum class per multichain, as the cover step reads them
    for l in range(5):
        assert (len(support_table(L, l)) == standard_monomial_count(L, l)
                == exponent_sum_count(L, l))


@settings(max_examples=20, deadline=None)
@given(small_lattices())
def test_every_extension_chain_lies_in_some_part(L):
    # the cover step's premise, on every face
    chains = [sum(1 << position(L, a) for a in c.elements) for c in maximal_chains(L)]
    for F in enumerated_faces(cone_K(L)):
        members = [part.vertex_mask for part in face_subdivision(F).parts]
        for chain_mask in chains:
            assert any(chain_mask & m == chain_mask for m in members)


# -- the containment check ---------------------------------------------------


CONTAINMENT = "a part must hold a generator's sides iff it is tight and holds its corners"


def mask_rule_holds(L, w, members) -> bool:
    """The containment step's mask rule, read off labels by the order oracle."""
    for a, b in itertools.combinations(L.elements, 2):
        if not incomparable(L, a, b):
            continue
        join, meet = join_of(L, a, b), meet_of(L, a, b)
        tight = w[position(L, join)] + w[position(L, meet)] == w[position(L, a)] + w[position(L, b)]
        for m in members:
            held = [m >> position(L, x) & 1 for x in (a, b, join, meet)]
            if (held[0] and held[1]) != (tight and held[2] and held[3]):
                return False
    return True


def faces_failing_containment(L, read_weight) -> list[str]:
    """The keys of L's faces whose parts fail check_containment at the
    weight read_weight makes of the face's witness."""
    failing = []
    for F in enumerated_faces(cone_K(L)):
        members = [part.vertex_mask for part in face_subdivision(F).parts]
        try:
            check_containment(hibi_generators(L), read_weight(F.witness[0]), members)
        except AssertionError as e:
            assert str(e) == CONTAINMENT
            failing.append(F.key())
    return failing


@pytest.mark.parametrize("make, lift, faces", [
    (lambda: B3, 12, 22),
    (lambda: flag_lattice(4), 14, 32),
], ids=["B3", "Flag4"])
def test_slack_read_as_tight_fails_on_every_face_but_the_apex(make, lift, faces, monkeypatch):
    # a zero weight reads every generator tight, as a flipped sign in the
    # tightness test would read every slack one: the apex, where every
    # generator is tight, is the one face that still passes
    monkeypatch.setattr(hibi, "MAX_ELEMENTS", lift)
    L = make()
    K = cone_K(L)
    assert faces_failing_containment(L, lambda w: w) == []
    failing = faces_failing_containment(L, lambda w: (0,) * len(w))
    assert len(failing) == faces - 1 and K.apex.key() not in failing
    real = hibi.check_containment
    monkeypatch.setattr(hibi, "check_containment",
                        lambda gens, w, members: real(gens, (0,) * len(w), members))
    with pytest.raises(AssertionError, match=CONTAINMENT):
        degeneration_certificate(L, 1)


def drop_a_tight_side(L, sub):
    """sub with one side of a tight generator dropped from the first part
    that holds its two sides and two corners; sub itself if none does."""
    w = sub.scaled
    for (a, b), (join, meet) in hibi_generators(L):
        if w[join] + w[meet] != w[a] + w[b]:
            continue
        four = 1 << a | 1 << b | 1 << join | 1 << meet
        for k, part in enumerate(sub.parts):
            if part.vertex_mask & four == four:
                parts = list(sub.parts)
                parts[k] = part._replace(vertex_mask=part.vertex_mask & ~(1 << a))
                return subdivision.Subdivision(L, w, sub.den, tuple(parts), sub.tight)
    return sub


def test_dropping_one_side_of_a_tight_generator_raises(monkeypatch):
    # every face of B3 but the full one has a tight generator and a part
    # holding its sides and corners; dropping a side breaks the mask rule
    dropped = 0
    for F in enumerated_faces(cone_K(B3)):
        sub = face_subdivision(F)
        bad = drop_a_tight_side(B3, sub)
        if bad is sub:
            continue
        dropped += 1
        with pytest.raises(AssertionError, match=CONTAINMENT):
            check_containment(hibi_generators(B3), F.witness[0],
                              [part.vertex_mask for part in bad.parts])
    assert dropped == 21
    real = subdivision.face_subdivision
    monkeypatch.setattr(subdivision, "face_subdivision", lambda F: drop_a_tight_side(B3, real(F)))
    with pytest.raises(AssertionError, match=CONTAINMENT):
        degeneration_certificate(B3, 1)


# the lattices the containment check is drawn against the label rule on: B3,
# Gr(2,4), Flag(3), a 3-chain and the one-element lattice
MASK_LATTICES = [B3, grassmann_lattice(2, 4), flag_lattice(3), birkhoff(chain(["a", "b"])),
                 birkhoff(antichain([]))]


def test_containment_check_matches_the_label_rule():
    # members drawn as any masks and weights as any integers, not only a
    # face's parts and witness: the check raises iff the label rule fails,
    # and the draws reach both
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(MASK_LATTICES), st.data())
    def check(L, data):
        members = data.draw(st.lists(st.integers(0, (1 << L.size) - 1), max_size=5))
        w = tuple(data.draw(st.lists(st.integers(0, 2), min_size=L.size, max_size=L.size)))
        holds = mask_rule_holds(L, w, members)
        outcomes.add(holds)
        if holds:
            check_containment(hibi_generators(L), w, members)
        else:
            with pytest.raises(AssertionError, match=CONTAINMENT):
                check_containment(hibi_generators(L), w, members)

    check()
    assert outcomes == {True, False}


def one_hit_vector_per_class(L, members, l) -> bool:
    """Whether every class of the degree-l monomials has at most one
    distinct nonzero hit vector over members, by the per-support oracle."""
    return all(len(hits) <= 1 for hits in class_hit_vectors(L, members, l))


def test_two_faces_parts_split_a_class():
    # the parts of two faces carry no one envelope: at l = 3 one class of B3
    # has the hit vectors {0}, {5, 6} and {0, 5, 6}, of rank 2, which the
    # oracle finds, and at either face's witness the parts of both fail
    # the containment check
    faces = {F.key(): F for F in enumerated_faces(cone_K(B3))}
    keys = ['[["{p}","{q}"]]',
            '[["{p,q}","{p,r}"],["{p,q}","{q,r}"],["{p}","{r}"],["{q}","{r}"]]']
    parts = [part for key in keys for part in face_subdivision(faces[key]).parts]
    members = [part.vertex_mask for part in parts]
    orders = [part_order(B3, part) for part in parts]
    assert per_monomial_intersection_dim(B3, orders, 3) == 28
    assert per_support_intersection_dim(B3, members, 3) == 28
    assert not one_hit_vector_per_class(B3, members, 3)
    for key in keys:
        with pytest.raises(AssertionError, match=CONTAINMENT):
            check_containment(hibi_generators(B3), faces[key].witness[0], members)
        own = [part.vertex_mask for part in face_subdivision(faces[key]).parts]
        check_containment(hibi_generators(B3), faces[key].witness[0], own)
        assert one_hit_vector_per_class(B3, own, 3)
        assert (per_support_intersection_dim(B3, own, 3)
                == comb(B3.size + 2, 3) - standard_monomial_count(B3, 3) == 56)


def test_two_members_that_split_one_class_raise():
    # at l = 2 only B2's class of {p}{q} and {}{p,q} has two supports; the
    # members {p},{q} and {},{p,q}, which are no face's parts, give them the
    # hit vectors 01 and 10, of rank 2; the first holds the generator's
    # sides without its corners, at any weight
    members = [0b0110, 0b1001]
    assert per_support_intersection_dim(B2, members, 2) == 4
    for w in ((0, 0, 0, 0), (0, 0, 0, 1)):
        with pytest.raises(AssertionError, match=CONTAINMENT):
            check_containment(hibi_generators(B2), w, members)


def test_intersection_not_stronger():
    with pytest.raises(NotStronger):
        per_monomial_intersection_dim(birkhoff(chain(["p", "q"])), [antichain(["p", "q"])], 2)


def test_intersection_of_components_is_initial_dim():
    # dim in_w(I)_l = dim I_l on every face, because the degeneration is flat
    L = GRIDL
    K = cone_K(L)
    for F in enumerated_faces(K):
        members = [part.vertex_mask for part in face_subdivision(F).parts]
        for l in (2, 3):
            assert per_support_intersection_dim(L, members, l) == ideal_dim(L, l)


def test_samesum_factors_lie_in_intersection():
    # factor multisets from two different parts with equal exponent sums
    # must lie inside both parts' element sets
    L = B3
    K = cone_K(L)
    w = tuple(height(L, a) ** 2 for a in L.elements)
    sub = face_subdivision(face_of(K, w, 1))
    part_members = [set(vertex_labels(L, p)) for p in sub.parts]
    for l in (2, 3):
        standard = {}
        for combo in itertools.combinations_with_replacement(L.elements, l):
            if any(incomparable(L, a, b) for a, b in itertools.combinations(combo, 2)):
                continue
            total = zero_vec(L.poset_P.size)
            for a in combo:
                total = vadd(total, indicator(L, a))
            standard.setdefault(total, []).append(combo)
        for total, combos in standard.items():
            for c1 in combos:
                for c2 in combos:
                    for i1, m1 in enumerate(part_members):
                        if not set(c1) <= m1:
                            continue
                        for i2, m2 in enumerate(part_members):
                            if not set(c2) <= m2:
                                continue
                            both = m1 & m2
                            assert set(c1) <= both and set(c2) <= both


# -- certificate -------------------------------------------------------------


COUNT_SCRIPT = """
import contextlib, csv, io, json, sys
sys.path.insert(0, sys.argv[1])
from hibikit import hibi
from hibikit.cli import main
counts = {"checks": 0, "generator_lists": set(), "degrees": []}
check, standard = hibi.check_containment, hibi.standard_monomial_count

def counting_check(generators, w, members):
    counts["checks"] += 1
    counts["generator_lists"].add(id(generators))
    return check(generators, w, members)

def counting_standard(L, l):
    counts["degrees"].append(l)
    return standard(L, l)

hibi.check_containment = counting_check
hibi.standard_monomial_count = counting_standard
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["certify", "--boolean", "3", "--lmax", "4"])
rows = list(csv.DictReader(io.StringIO(out.getvalue())))
counts["code"], counts["rows"] = code, len(rows)
counts["generator_lists"] = len(counts["generator_lists"])
counts["standard"] = sorted({(int(row["l"]), int(row["standard_count"])) for row in rows})
print(json.dumps(counts))
"""


@pytest.mark.parametrize("hash_seed", ["0", "3", "17"])
def test_certify_work_counts(hash_seed):
    # 22 faces x 4 degrees: one containment check per face, all on one list
    # of generators built per job, and one standard monomial count per
    # degree, in degree order, before any face
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_SCRIPT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["code"] == 0 and counts["rows"] == 22 * 4
    assert counts["checks"] == 22 and counts["generator_lists"] == 1
    assert counts["degrees"] == [l for l, _ in counts["standard"]] == [1, 2, 3, 4]


@pytest.mark.parametrize("make, lmax", [
    (lambda: birkhoff(antichain(["p", "q", "r"])), 4),
    (lambda: grassmann_lattice(2, 5), 3),
])
def test_certificate_builds_no_order_ideals(make, lmax, monkeypatch):
    # each component's members are its part's vertex elements, which
    # regular_subdivision has already matched to the ideals of its order
    L = make()
    built = []
    ideals = poset.ideal_masks  # order_ideals reads poset.ideal_masks
    for module in (poset, lattice):
        monkeypatch.setattr(module, "ideal_masks", lambda P: built.append(P) or ideals(P))
    assert all(row["pass"] for row in degeneration_certificate(L, lmax))
    assert built == []


def test_certificate_past_the_element_cap(monkeypatch):
    # Gr(2,6) has 15 elements, past the cap of 12 that the CLI keeps; its
    # standard monomial counts are the Weyl dimensions of V(l * omega_2)
    monkeypatch.setattr(hibi, "MAX_ELEMENTS", 15)
    rows = degeneration_certificate(grassmann_lattice(2, 6), 5)
    assert len(rows) == 320 and all(row["pass"] for row in rows)
    assert sorted({(row["l"], row["standard_count"]) for row in rows}) == [
        (1, 15), (2, 105), (3, 490), (4, 1764), (5, 5292)]


def test_lifted_grassmann_3_6_certificate(monkeypatch, capsys):
    # Gr(3,6) has 20 elements, past the CLI's cap of 12. Its 1,408 faces
    # have 19,856 parts over them
    monkeypatch.setattr(hibi, "MAX_ELEMENTS", 20)
    assert main(["certify", "--grassmann", "3", "6", "--lmax", "3"]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[1:]
    assert len(rows) == 4224 and all(row.endswith(",true") for row in rows)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dcd8a4634924544df930c66af8e7dc5216c3e956e048cb6564b2b93d07c899d7")


@pytest.mark.parametrize("P,lmax", [
    (antichain(["p", "q"]), 3),
    (GRID, 3),
    (chain(["a", "b", "c"]), 3),
    (antichain(["p", "q", "r"]), 2),
])
def test_degeneration_certificate_passes(P, lmax):
    L = birkhoff(P)
    rows = degeneration_certificate(L, lmax)
    assert rows
    for row in rows:
        assert row["pass"], row
        assert row["dim_in"] == row["dimR"] - row["standard_count"]
