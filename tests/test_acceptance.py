"""Acceptance suite: seven end-to-end criteria with explicit budgets.

Each test prints a single pass line (visible under pytest -s) and enforces
its runtime budget with time.monotonic.  All quantities are exact; there
are no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction

from fraction_oracle import (dim_of, enumerated_faces, hull, indicator, is_apex, is_full,
                             lattice_points, part_value, rank_dim, vdot, weight_record)
from hibi_oracle import is_standard, monomial, straighten

from hibikit.cli import main
from hibikit.cone import cone_K, enumerate_faces, face_of
from hibikit.flaggt import GelfandTsetlin, gt_poset_iso, gt_subdivision, gt_vertices
from hibikit.hibi import degeneration_certificate
from hibikit.lattice import birkhoff, diamond_pairs, flag_lattice, grassmann_lattice
from hibikit.poset import antichain
from hibikit.subdivision import (adjacency_graph, face_subdivision,
                                 generalized_permutahedron)
from order_oracle import height, join_of, meet_of, part_order, position, vertex_labels


def b(n):
    return birkhoff(antichain(list("pqrstu"[:n])))


def _done(tag, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{tag}: {elapsed:.1f}s exceeds {budget}s budget"
    print(f"ACCEPTANCE {tag}: PASS ({elapsed:.1f}s < {budget}s)")


def test_acceptance_1_flag4_census(capsys):
    t0 = time.monotonic()
    assert main(["gt", "--n", "4", "census"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["census"] == {"3x2x1": 8, "2x2x2": 2, "4x1x1": 2}
    assert report["component_count"] == 12
    _done("1 flag n=4 census", t0, 10)


def test_acceptance_2_cone_minimality():
    t0 = time.monotonic()
    for L in (b(2), b(3), grassmann_lattice(2, 4), flag_lattice(3),
              flag_lattice(4)):
        K = cone_K(L)  # raises unless every inequality has its facet witness
        assert len(K.pairs) == len(diamond_pairs(L))
    _done("2 cone minimality", t0, 30)


def test_acceptance_3_degeneration_grid():
    t0 = time.monotonic()
    for L in (b(2), b(3), grassmann_lattice(2, 4), flag_lattice(3)):
        rows = degeneration_certificate(L, 3)
        faces = enumerate_faces(cone_K(L))
        assert len(rows) == 3 * len(faces)
        for row in rows:
            # dim in_w(I)_l = dim (cap I_i)_l = dim R_l - #standard monomials
            assert row["pass"]
            assert row["dim_in"] == row["dim_cap"]
            assert row["dim_in"] == row["dimR"] - row["standard_count"]
    _done("3 degeneration certificate grid", t0, 300)


def test_acceptance_4_subdivision_bijection():
    t0 = time.monotonic()
    for L, m in ((b(2), 2), (b(3), 6)):
        K = cone_K(L)
        faces = enumerated_faces(K)
        forms = set()
        for F in faces:
            sub = face_subdivision(F)
            forms.add(frozenset(
                (frozenset(part_order(L, p).covers()), frozenset(vertex_labels(L, p)))
                for p in sub.parts))
            if is_full(F):
                # staircase triangulation: one simplex per linear extension
                assert len(sub.parts) == m == len(L.extensions())
                for p in sub.parts:
                    assert len(vertex_labels(L, p)) == L.poset_P.size + 1
                    assert len(part_order(L, p).covers()) == L.poset_P.size - 1
            if is_apex(F):
                part, = sub.parts
                assert set(vertex_labels(L, part)) == set(L.elements)
                assert set(part_order(L, part).covers()) == set(L.poset_P.covers())
        assert len(forms) == len(faces)  # distinct faces, distinct subdivisions
    _done("4 subdivision bijection", t0, 60)


def test_acceptance_5_weight_polytope_invariants():
    t0 = time.monotonic()
    for L in (b(2), b(3), flag_lattice(3)):
        K = cone_K(L)
        unit = {tuple(1 if j == i else 0 for j in range(L.size))
                for i in range(L.size)}
        for F in enumerated_faces(K):
            # the constructor's apex pullback implies |vertices| =
            # |integer points| = |L| and dim = dim F - 1; a hull and the
            # oracle's lattice-point search recheck them
            W = weight_record(F)
            Q = hull(list(W.points))
            assert len(Q) == len(lattice_points(Q, 1)) == L.size
            assert dim_of(Q) == rank_dim(K, F.tight) - 1
            if is_full(F):
                assert set(W.points) == unit  # standard simplex
            # each point's apex projection is (1, 1_a), the fixed zeta of
            # its ideal's indicator
            for a, p in zip(L.elements, W.points, strict=True):
                assert tuple(vdot(row, p) for row in W.to_apex) == (1, *indicator(L, a))
            # distinguished faces biject with the subdivision parts
            # (each is a part's vertex set, which the subdivision certified)
            faces = W.distinguished
            sub = face_subdivision(F)
            assert len(faces) == len(sub.parts)
            assert ({frozenset(L.elements[i] for i in d) for d in faces}
                    == {frozenset(vertex_labels(L, p)) for p in sub.parts})
    _done("5 weight polytope invariants", t0, 120)


def test_acceptance_6_gt_consistency():
    t0 = time.monotonic()
    for n in (3, 4):
        L = flag_lattice(n)
        K = cone_K(L)
        F = face_of(K, [height(L, a) ** 2 for a in L.elements], 1)
        assert is_full(F)
        # section-based parts; the call itself certifies agreement with the
        # envelope of the lifted heights over every pattern point
        gt = GelfandTsetlin(n)
        parts = gt_subdivision(gt, F)
        sub = face_subdivision(F)
        assert len(parts) == len(sub.parts)
        w, den = F.witness
        at = gt_poset_iso(gt, L)
        for v in gt_vertices(gt):
            ambient = tuple(Fraction(v.point[j], n - 1) for j in at)
            envelope = min(part_value(sub, p, ambient) for p in sub.parts)
            # the lifted height: the weights of the decomposition's flag elements
            assert envelope == Fraction(sum(w[position(L, lbl)] for lbl in v.labels), den * (n - 1))
    _done("6 Gelfand-Tsetlin consistency", t0, 120)


def test_acceptance_7_property_suites():
    t0 = time.monotonic()

    rng = random.Random(20260818)
    for L in (b(3), flag_lattice(3)):
        for _ in range(10_000):
            exps = {}
            for _ in range(rng.randint(1, 5)):
                a = rng.choice(L.elements)
                exps[a] = exps.get(a, 0) + 1
            m = monomial(L, exps)
            s = straighten(L, m)
            assert is_standard(L, s)
            assert s.degree == m.degree  # exponent sum is preserved

    for L in (b(2), b(3), grassmann_lattice(2, 4), flag_lattice(3)):
        # the graph is built from adjacent swaps, each checked to cross a
        # diamond pair
        edges = [e for pair in adjacency_graph(L) for e in pair]
        count = len(L.extensions())
        assert all(0 <= i < j < count for i, j in edges)
        if count > 1:
            # flip-connected: every extension reachable by transpositions
            seen = {0}
            frontier = [0]
            while frontier:
                i = frontier.pop()
                for e in edges:
                    if i in e:
                        j = e[0] + e[1] - i
                        if j not in seen:
                            seen.add(j)
                            frontier.append(j)
            assert seen == set(range(count))

    L = b(3)
    w = [height(L, a) ** 2 for a in L.elements]
    assert is_full(face_of(cone_K(L), w, 1))  # generic interior weight
    Q, _ = generalized_permutahedron(L, w, 1)  # -w is submodular by the diamond inequalities
    assert len(Q) == 6
    wt = {a: w[position(L, a)] for a in L.elements}
    for x in L.elements:
        for y in L.elements:
            u = lambda a: -wt[a]
            assert u(x) + u(y) >= u(meet_of(L, x, y)) + u(join_of(L, x, y))

    _done("7 property suites", t0, 120)
