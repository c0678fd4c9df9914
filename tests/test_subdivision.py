"""Regular subdivisions, adjacency, and generalized permutahedra."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import (enumerated_faces, extension_poset, grouped_subdivision, indicator,
                             intersect_orders, is_apex, is_full, part_map, part_value,
                             subdivision_invariance_check, vec_over_den)
from hibikit import cone, lattice, subdivision
from hibikit.cli import main
from hibikit.cone import Face, cone_K, face_of, span_of_face
from hibikit.errors import NotInCone
from hibikit.exactgeom import LatticePolytope
from hibikit.lattice import birkhoff, diamond_pairs, flag_lattice, grassmann_lattice
from hibikit.hibi import degeneration_certificate
from hibikit.poset import Poset, _bits, _kept, antichain, from_cover_relations, ideal_masks
from hibikit.subdivision import (
    Part,
    adjacency_graph,
    face_subdivision,
    generalized_permutahedron,
    regular_subdivision,
    subdivision_json,
)
from order_oracle import (chain, check_order, check_part, down_closed, iota, iota_inv,
                          label_extension, label_extensions, order_ideals, pairwise_adjacency,
                          part_order, vertex_labels)

GRID = from_cover_relations(
    ["p", "q", "r", "s"], [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")]
)

B2 = birkhoff(antichain(["p", "q"]))
B3 = birkhoff(antichain(["p", "q", "r"]))


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


def poset_strategy(max_size=3, min_size=1):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_size, max_value=max_size))
        labels = [f"p{i}" for i in range(n)]
        k = draw(st.integers(min_value=0, max_value=2 * n))
        pairs = [
            (labels[draw(st.integers(0, n - 1))], labels[draw(st.integers(0, n - 1))])
            for _ in range(k)
        ]
        return random_poset_from_seed(labels, pairs)

    return build()


# -- regular_subdivision -----------------------------------------------------


def test_b2_zero_weight_single_part():
    sub = regular_subdivision(B2, (0, 0, 0, 0), 1)
    assert len(sub.parts) == 1
    part = sub.parts[0]
    assert part_order(B2, part).label_pairs() == frozenset()
    assert vertex_labels(B2, part) == B2.elements
    assert len(part.simplices) == 2


def test_b2_generic_weight_two_triangles():
    sub = regular_subdivision(B2, (0, -1, -1, 0), 1)
    assert len(sub.parts) == 2
    orders = {part_order(B2, p).label_pairs() for p in sub.parts}
    assert orders == {frozenset({("p", "q")}), frozenset({("q", "p")})}
    alphas = {p.alpha for p in sub.parts}
    assert alphas == {(-1, 1), (1, -1)}
    for p in sub.parts:
        assert len(vertex_labels(B2, p)) == 3
        assert len(p.simplices) == 1


def test_chain_any_weight_single_simplex():
    L = birkhoff(chain(["a", "b", "c"]))
    for w in [(0, 0, 0, 0), (3, 1, -2, 7), (0, 5, 5, 5)]:
        sub = regular_subdivision(L, w, 1)
        assert len(sub.parts) == 1
        assert vertex_labels(L, sub.parts[0]) == L.elements


def test_subdivision_rejects_outside_weight():
    with pytest.raises(NotInCone):
        regular_subdivision(B2, (0, 1, 1, 0), 1)


def test_weight_dimension_checked():
    with pytest.raises(ValueError):
        regular_subdivision(B2, (0, 1), 1)


@pytest.mark.parametrize("w", [(0, 0, 0), (0, 0, 0, 0, 0)], ids=["short", "long"])
def test_a_weight_one_entry_off_raises_value_error(w):
    # each pair's value reads four entries of w, so a wrong length would
    # pass unnoticed but for the explicit check in face_of and
    # regular_subdivision
    with pytest.raises(ValueError, match="wrong dimension"):
        face_of(cone_K(B2), w, 1)
    with pytest.raises(ValueError, match="wrong dimension"):
        regular_subdivision(B2, w, 1)


def test_parts_interpolate_weight():
    L = birkhoff(GRID)
    w = tuple(L.height(a) ** 2 for a in L.elements)
    sub = regular_subdivision(L, w, 1)
    wt = dict(zip(L.elements, w))
    for part in sub.parts:
        for a in vertex_labels(L, part):
            assert part_value(sub, part, indicator(L, a)) == wt[a]
        for a in L.elements:
            if a not in vertex_labels(L, part):
                assert part_value(sub, part, indicator(L, a)) > wt[a]


@settings(max_examples=15, deadline=None)
@given(poset_strategy(), st.integers(min_value=0, max_value=10 ** 6))
def test_subdivision_partitions_extensions(P, salt):
    L = birkhoff(P)
    # a convex-in-height weight lies in the closed cone; salt varies it
    w = tuple(L.height(a) ** 2 + (salt >> i & 1) for i, a in enumerate(L.elements))
    try:
        sub = regular_subdivision(L, w, 1)
    except NotInCone:
        w = tuple(L.height(a) ** 2 for a in L.elements)
        sub = regular_subdivision(L, w, 1)
    seen = []
    for part in sub.parts:
        seen.extend(part.simplices)
    assert sorted(label_extension(L.poset_P, e).order for e in seen) == sorted(
        e.order for e in label_extensions(P))
    for part in sub.parts:
        ideals = {iota(L, a) for a in vertex_labels(L, part)}
        assert ideals == set(order_ideals(part_order(L, part)))


@st.composite
def lattice_and_intersection_order(draw):
    """The lattice of a random poset P on at most 5 elements and the
    intersection of 1 to 4 of P's linear extensions: a part's order."""
    L = birkhoff(draw(poset_strategy(max_size=5)))
    exts = label_extensions(L.poset_P)
    chosen = draw(st.lists(st.sampled_from(exts), min_size=1, max_size=4))
    return L, intersect_orders([extension_poset(e) for e in chosen])


@settings(max_examples=40, deadline=None)
@given(lattice_and_intersection_order())
def test_order_ideals_are_the_down_closed_masks(case):
    # regular_subdivision and weightpoly's distinguished faces read a part's vertices
    # off the ideal masks of its order, where they tested each element's
    # mask for closure
    L, order = case
    closed = down_closed(order, L.masks)
    assert {L.at_mask[m] for m in ideal_masks(order)} == {i for i, ok in enumerate(closed) if ok}


def fraction_strategy(low=-6):
    return st.builds(Fraction, st.integers(low, 6), st.sampled_from([1, 2, 3, 4, 5, 6, 10, 12]))


@st.composite
def lattice_and_weight(draw):
    """A random lattice on at most 5 join-irreducibles with a weight drawn
    by weight_on."""
    L = birkhoff(draw(poset_strategy(max_size=5)))
    return L, weight_on(draw, L)


def weight_on(draw, L):
    """A rational weight on L of mixed denominators: either any weight,
    which mostly lies outside K-bar, or a modular weight plus nonnegative
    multiples of the supermodular indicators [S ⊆ iota(a)], which lies in
    K-bar and is tight on the pairs that no chosen S separates."""
    labels = L.poset_P.elements
    if draw(st.booleans()):
        return [draw(fraction_strategy()) for _ in L.elements]
    const = draw(fraction_strategy())
    slope = {p: draw(fraction_strategy()) for p in labels}
    w = [const + sum(slope[p] for p in iota(L, a)) for a in L.elements]
    for _ in range(draw(st.integers(0, 4))):
        S = draw(st.sets(st.sampled_from(labels), min_size=min(2, len(labels))))
        c = draw(fraction_strategy(low=1))
        w = [x + (c if S <= iota(L, a) else 0) for x, a in zip(w, L.elements)]
    return w


def assert_matches_oracle(sub, want_key, want):
    """sub equals the Fraction oracle's face key and parts, and each part
    passes check_part."""
    L = sub.lattice
    assert sub.face_key == want_key
    assert len(sub.parts) == len(want)
    for part, old in zip(sub.parts, want):
        check_part(L, part)
        assert part_order(L, part) == old.order
        assert vertex_labels(L, part) == old.vertex_elements
        assert tuple(label_extension(L.poset_P, e) for e in part.simplices) == old.simplices
        assert tuple(Fraction(x, sub.den) for x in part.alpha) == old.affine.matrix[0]
        const, values = part_map(sub, part)
        assert Fraction(const, sub.den) == old.affine.offset[0]
        assert [Fraction(v, sub.den) for v in values] == [
            old.affine(indicator(L, a))[0] for a in L.elements]


@settings(max_examples=60, deadline=None)
@given(lattice_and_weight())
def test_regular_subdivision_matches_fraction_oracle(case):
    L, w = case
    # the weight over a multiple of its least denominator: the subdivision
    # reduces it to lowest terms
    num, den = vec_over_den(w)
    num, den = tuple(6 * x for x in num), 6 * den
    try:
        want_key, want = oracle.regular_subdivision(L, w)
    except NotInCone as exc:
        with pytest.raises(NotInCone) as got:
            regular_subdivision(L, num, den)
        assert str(got.value) == str(exc)
        return
    sub = regular_subdivision(L, num, den)
    assert (sub.scaled, sub.den) == vec_over_den(w)
    assert_matches_oracle(sub, want_key, want)
    # every extension is a simplex of exactly one part
    assert sorted(t for part in sub.parts for t in part.simplices) == sorted(L.extensions())


@st.composite
def poset_and_weights(draw):
    """A random poset on at most 5 elements, its lattice, and 2 to 4
    weights on it, each drawn by weight_on."""
    P = draw(poset_strategy(max_size=5))
    L = birkhoff(P)
    return P, L, [weight_on(draw, L) for _ in range(draw(st.integers(2, 4)))]


@settings(max_examples=30, deadline=None)
@given(poset_and_weights())
def test_warm_tables_give_the_fresh_subdivision(case):
    # one lattice serves every weight in turn, as one job's faces do: each
    # subdivision read off its warm tables equals the one on a freshly built
    # lattice and the Fraction oracle's, and each of its parts passes
    # check_part
    P, L, weights = case
    for w in weights:
        num, den = vec_over_den(w)
        try:
            want_key, want = oracle.regular_subdivision(L, w)
        except NotInCone:
            with pytest.raises(NotInCone):
                regular_subdivision(L, num, den)
            continue
        warm, fresh = regular_subdivision(L, num, den), regular_subdivision(birkhoff(P), num, den)
        again = regular_subdivision(L, num, den)
        for sub in (warm, again):
            assert (sub.scaled, sub.den, sub.parts, sub.tight) == (
                fresh.scaled, fresh.den, fresh.parts, fresh.tight)
            assert_matches_oracle(sub, want_key, want)
    assert subdivision.staircase_table(L) == subdivision.staircase_table(birkhoff(P))


def test_subdivide_classifies_the_weight_once(monkeypatch, capsys):
    # the subdivision reads the normals of the cone the job built, and a
    # --w job classifies its weight once
    calls = []
    tight = cone._tight_set

    def counting(*args):
        calls.append(args)
        return tight(*args)

    monkeypatch.setattr(cone, "_tight_set", counting)
    monkeypatch.setattr(subdivision, "_tight_set", counting)
    assert main(["subdivide", "--boolean", "3", "--w", "0,1,1,1,4,4,4,9"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


# -- face_subdivision --------------------------------------------------------


def test_full_face_triangulation():
    K = cone_K(B3)
    full = face_of(K, tuple(B3.height(a) ** 2 for a in B3.elements), 1)
    assert is_full(full)
    sub = face_subdivision(full)
    assert len(sub.parts) == 6  # one simplex per linear extension
    for part in sub.parts:
        assert len(part.simplices) == 1
        assert len(vertex_labels(B3, part)) == 4


def test_apex_single_part():
    K = cone_K(B3)
    apex = face_of(K, (0,) * B3.size, 1)
    sub = face_subdivision(apex)
    assert len(sub.parts) == 1
    assert vertex_labels(B3, sub.parts[0]) == B3.elements


def test_face_count_matches_subdivision_count_b3():
    # the face -> subdivision map is injective (and so bijective onto the
    # subdivisions arising from cone points)
    K = cone_K(B3)
    faces = enumerated_faces(K)
    subs = {oracle.structure(face_subdivision(F)) for F in faces}
    assert len(subs) == len(faces)


def test_face_count_matches_subdivision_count_grid():
    L = birkhoff(GRID)
    K = cone_K(L)
    faces = enumerated_faces(K)
    subs = {oracle.structure(face_subdivision(F)) for F in faces}
    assert len(subs) == len(faces)
    assert len(faces) == 2  # one facet: full face and apex


def test_part_count_is_monotone_under_face_inclusion():
    K = cone_K(B3)
    faces = enumerated_faces(K)
    for F in faces:
        sub = face_subdivision(F)
        # tighter faces merge more: part count + tight count is bounded
        assert 1 <= len(sub.parts) <= 6
        if is_apex(F):
            assert len(sub.parts) == 1
        if is_full(F):
            assert len(sub.parts) == 6


# -- invariance --------------------------------------------------------------


def test_invariance_b2_apex():
    K = cone_K(B2)
    apex = face_of(K, (0, 0, 0, 0), 1)
    assert subdivision_invariance_check(face_subdivision(apex))


def test_invariance_b2_full():
    K = cone_K(B2)
    full = face_of(K, (0, -1, -1, 0), 1)
    assert subdivision_invariance_check(face_subdivision(full))


def test_invariance_all_faces_b3():
    K = cone_K(B3)
    for F in enumerated_faces(K):
        assert subdivision_invariance_check(face_subdivision(F))


@st.composite
def poset_with_few_faces(draw):
    """The lattice of a random poset on 3 to 6 elements whose cone has at
    most 8 facets, so at most 256 faces."""
    L = birkhoff(draw(poset_strategy(max_size=6, min_size=3)))
    assume(len(diamond_pairs(L)) <= 8)
    return L


@settings(max_examples=30, deadline=None)
@given(poset_with_few_faces())
@example(birkhoff(antichain(["p", "q", "r"])))
def test_invariance_certificate_matches_the_sampled_oracle(L):
    # on every face the certificate passes, and the subdivisions at the
    # points the sampler drew, the oracle, have the face's parts
    for F in enumerated_faces(cone_K(L)):
        sub = face_subdivision(F)
        assert subdivision_invariance_check(sub)
        for w in oracle.invariance_samples(F, 3, seed=1)[1:]:
            sample = regular_subdivision(L, *vec_over_den(w))
            assert sample.tight == F.tight
            assert oracle.structure(sample) == oracle.structure(sub)


@st.composite
def few_faces_and_weights(draw):
    """The lattice of a random poset on 3 to 6 elements whose cone has at
    most 8 facets, and 1 to 3 weights on it, each drawn by weight_on."""
    L = draw(poset_with_few_faces())
    return L, [weight_on(draw, L) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=30, deadline=None)
@given(few_faces_and_weights())
@example((B3, [[0, 1, 1, 1, 4, 4, 4, 9], [0, 0, 0, 0, 0, 0, 0, 0]]))
def test_components_are_the_slope_classes(case):
    # the tight swap components, certified as they are built, are the
    # classes of extensions of one slope that regular_subdivision grouped
    # before them: the same alpha, order, simplices and vertex mask, part
    # by part in the same order, at every face's witness and at random
    # weights, and the per-edge certificate that once ran as a second pass
    # holds on every result
    L, weights = case
    points = [F.witness for F in enumerated_faces(cone_K(L))]
    points += [vec_over_den(w) for w in weights]
    for w, den in points:
        try:
            want = grouped_subdivision(L, w, den)
        except NotInCone:
            with pytest.raises(NotInCone):
                regular_subdivision(L, w, den)
            continue
        sub = regular_subdivision(L, w, den)
        assert (sub.scaled, sub.den, sub.tight) == (want.scaled, want.den, want.tight)
        assert sub.parts == want.parts
        assert subdivision_invariance_check(sub)


ENVELOPE = "envelope inequality fails"
CHAIN = "a part's map must meet w on its members' chains alone"
SHARED = "two components must not share a vertex set"
LENGTH = "a chain must hold |P| + 1 distinct elements"
OFF_FACE = "sample does not lie in the face's relative interior"


def raised(call) -> str:
    """The message of the AssertionError call() raises."""
    with pytest.raises(AssertionError) as exc:
        call()
    return str(exc.value)


def isolating(graph_of, k):
    """graph_of with every edge at the k-th extension withheld."""
    return lambda L: tuple(tuple(e for e in edges if k not in e) for edges in graph_of(L))


def test_invariance_rejects_merged_or_split_parts_or_a_dropped_tight_bit(monkeypatch):
    # the construction is the invariance certificate, on every face of B3
    # and of the grid's lattice. Joining one loose pair's edges too merges
    # parts: the first member's map is a true part's, >= w, and meets w on
    # that part's vertex set, which no other component has, so only the
    # chain check can fail, and it does, as the other part's chains leave
    # that set. Withholding one tight pair's edges splits a part when no
    # other tight edge joins its pieces: each piece has the part's map, and
    # here every split leaves a piece whose chains miss some of the part's
    # vertices, which the chain check catches too (the next test splits a
    # part into pieces that each cover them); where nothing splits, the
    # parts stay as they were. Dropping a tight bit splits a part in the
    # same way, or else fails face_subdivision's tight-mask check
    checked = {"merged": 0, "split": 0, "withheld": 0, "dropped, split": 0, "dropped": 0}
    tight_set, graph_of = subdivision._tight_set, subdivision.adjacency_graph
    serve = {"add": 0, "drop": 0, "withhold": None}
    monkeypatch.setattr(subdivision, "_tight_set",
                        lambda *args: (tight_set(*args) | serve["add"]) & ~serve["drop"])
    monkeypatch.setattr(subdivision, "adjacency_graph", lambda L: tuple(
        () if k == serve["withhold"] else edges for k, edges in enumerate(graph_of(L))))
    for L in (B3, birkhoff(GRID)):
        K = cone_K(L)
        for F in enumerated_faces(K):
            want = regular_subdivision(L, *F.witness)
            for pair in range(len(K.pairs)):
                if not F.tight >> pair & 1:
                    serve.update(add=1 << pair)
                    assert raised(lambda: regular_subdivision(L, *F.witness)) == CHAIN
                    checked["merged"] += 1
                    serve.update(add=0)
                    continue
                serve.update(withhold=pair)
                try:
                    got = regular_subdivision(L, *F.witness)
                except AssertionError as exc:
                    assert str(exc) == CHAIN
                    checked["split"] += 1
                else:
                    assert got.parts == want.parts
                    checked["withheld"] += 1
                serve.update(withhold=None, drop=1 << pair)
                message = raised(lambda: face_subdivision(F))
                assert message in (CHAIN, OFF_FACE)
                checked["dropped, split" if message == CHAIN else "dropped"] += 1
                serve.update(drop=0)
    assert checked == {"merged": 85, "split": 43, "withheld": 6, "dropped, split": 43, "dropped": 6}


def test_a_weight_outside_k_bar_fails_the_envelope_check(monkeypatch):
    # with the classification that rejects a weight outside K-bar skipped,
    # only the envelope check catches it: at (0, 1, 1, 0) on B2, whose
    # diamond's value is -2, each extension is a component, whose map meets
    # w on its own chain alone, and the two chains differ, so the chain and
    # vertex-set checks pass; but each map is -1 at the other side, below w
    monkeypatch.setattr(subdivision, "_tight_set", lambda *args: 0)
    with pytest.raises(AssertionError, match=ENVELOPE):
        regular_subdivision(B2, (0, 1, 1, 0), 1)


def test_a_witness_off_its_face_fails_the_tight_mask_check():
    # the apex's witness, 0, is tight on every pair, so its subdivision is
    # not that of a face with no pair tight
    K = cone_K(B3)
    with pytest.raises(AssertionError, match=OFF_FACE):
        face_subdivision(Face(K, 0, K.apex.witness))


def test_face_subdivision_certifies_the_tight_swap_components(monkeypatch):
    # face_subdivision certifies as it builds, with no second pass. On B3's
    # apex, every pair tight, a table that joins the extensions into two
    # triples, the rotations of pqr and the rest, gives two components with
    # the apex's map, whose chains each cover all of B3: only the check for
    # distinct vertex sets catches that, and the build raises and keeps
    # nothing. With the edges at one extension withheld, the chain check
    # catches the split first. Served the true edges, the same face builds
    # its one part
    L = birkhoff(antichain(["p", "q", "r"]))
    apex = cone_K(L).apex
    exts = L.extensions()
    rotations = [k for k, t in enumerate(exts) if t in {(0, 1, 2), (1, 2, 0), (2, 0, 1)}]
    rest = [k for k in range(len(exts)) if k not in rotations]
    triples = tuple(zip(rotations, rotations[1:])) + tuple(zip(rest, rest[1:]))
    others = ((),) * (len(diamond_pairs(L)) - 1)
    graph_of = subdivision.adjacency_graph
    monkeypatch.setattr(subdivision, "adjacency_graph", lambda L: (triples, *others))
    with pytest.raises(AssertionError, match=SHARED):
        face_subdivision(apex)
    monkeypatch.setattr(subdivision, "adjacency_graph", isolating(graph_of, 0))
    with pytest.raises(AssertionError, match=CHAIN):
        face_subdivision(apex)
    monkeypatch.setattr(subdivision, "adjacency_graph", graph_of)
    assert len(face_subdivision(apex).parts) == 1


def test_failed_certificate_exits_2_with_an_error_record(monkeypatch, capsys):
    # a subdivision whose certificate fails is an error, whatever the job
    # asked for: a --w --check job at the zero weight, every pair tight,
    # with the edges at one extension withheld, writes no output and an
    # AssertionError record, and exits 2
    monkeypatch.setattr(subdivision, "adjacency_graph", isolating(subdivision.adjacency_graph, 0))
    argv = "subdivide --boolean 3 --w 0,0,0,0,0,0,0,0 --check 3 --seed 1".split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"type": "AssertionError", "message": CHAIN}}


CHECK_JOBS = ["subdivide --boolean 3 --face full --check 3",
              'subdivide --grassmann 2 5 --face [["14","23"]] --check 3',
              "subdivide --boolean 3 --w 0,1,1,1,4,4,4,9 --check 3"]


@pytest.mark.parametrize("argv", CHECK_JOBS, ids=CHECK_JOBS)
def test_check_job_subdivides_each_weight_once(argv, monkeypatch, capsys):
    # a --check job certifies the one subdivision it prints from its tight
    # swaps: it subdivides one weight, once, and draws no other
    seen = []
    kernel = subdivision.regular_subdivision

    def recording(L, *args):
        seen.append(args)
        return kernel(L, *args)

    monkeypatch.setattr(subdivision, "regular_subdivision", recording)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert len(seen) == 1


@pytest.mark.parametrize("argv", CHECK_JOBS, ids=CHECK_JOBS)
def test_check_job_runs_one_union_find(argv, monkeypatch, capsys):
    # the union-find inside the job's one subdivision is its certificate,
    # which every subdivide job runs, --check or not: with the edges of its
    # first loose pair joined too, the job fails the chain check with and
    # without --check, and run as it is, it reports the check passed
    tight_set = subdivision._tight_set

    def merging(*args):
        tight = tight_set(*args)
        return tight | ~tight & tight + 1

    monkeypatch.setattr(subdivision, "_tight_set", merging)
    for job in (argv.split(), argv.split()[:-2]):
        assert main(job) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {"type": "AssertionError", "message": CHAIN}
    monkeypatch.setattr(subdivision, "_tight_set", tight_set)
    assert main(argv.split()) == 0
    assert json.loads(capsys.readouterr().out)["invariance_check"]["pass"] is True


# -- adjacency ---------------------------------------------------------------


def test_b2_adjacency_single_edge():
    g = adjacency_graph(B2)
    assert len(B2.extensions()) == 2
    assert g == (((0, 1),),)


def test_chain_adjacency_trivial():
    L = birkhoff(chain(["a", "b", "c"]))
    g = adjacency_graph(L)
    assert len(L.extensions()) == 1
    assert g == ()


def test_b3_adjacency_hexagon():
    edges = [e for pair in adjacency_graph(B3) for e in pair]
    assert len(B3.extensions()) == 6
    assert len(edges) == 6
    for i in range(6):
        assert sum(1 for e in edges if i in e) == 2
    # connected single cycle
    adj = {i: set() for i in range(6)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert seen == set(range(6))


def test_certify_builds_pairs_and_graph_once(monkeypatch, capsys):
    # cone_K, every face's key and every face's subdivision read the diamond
    # pairs, the staircase table and the adjacency graph, which one job
    # builds once for its lattice; each of the 22 faces builds its key
    # once, though each of its 4 rows prints it. A graph build reads the
    # diamond pairs once, through the name subdivision binds
    built = {"pairs": 0, "tables": 0, "graphs": 0, "keys": 0}
    pair, table = lattice.DiamondPair, subdivision.StaircaseTable
    pairs_of, key_of = subdivision.diamond_pairs, cone._key_of

    def counting_pair(*args):
        built["pairs"] += 1
        return pair(*args)

    def counting_table(*args):
        built["tables"] += 1
        return table(*args)

    def counting_graph(L):
        built["graphs"] += 1
        return pairs_of(L)

    def counting_key(fragments, tight):
        built["keys"] += 1
        return key_of(fragments, tight)

    monkeypatch.setattr(lattice, "DiamondPair", counting_pair)
    monkeypatch.setattr(subdivision, "StaircaseTable", counting_table)
    monkeypatch.setattr(subdivision, "diamond_pairs", counting_graph)
    monkeypatch.setattr(cone, "_key_of", counting_key)
    monkeypatch.setattr(subdivision, "_key_of", counting_key)
    assert main(["certify", "--boolean", "3", "--lmax", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 22 * 4
    assert built == {"pairs": 6, "tables": 1, "graphs": 1, "keys": 22}


def generic_weight(L):
    """10·|I|² plus the modular weight sum of 2^j over I: strictly
    supermodular, so every extension is a part of its own, and no two
    elements share a value."""
    return [10 * m.bit_count() ** 2 + m for m in L.masks]


def corrupted_tables(table, size):
    """Every copy of the staircase table with one chain element, or one peel
    parent, replaced by another element, as (field, index of the row, copy)."""
    for k, chain in enumerate(table.chains):
        for i in _bits(chain):
            for x in range(size):
                if x != i:
                    chains = list(table.chains)
                    chains[k] = chain & ~(1 << i) | 1 << x
                    yield "chains", k, table._replace(chains=tuple(chains))
    for k, (i, parent, j) in enumerate(table.peel):
        for x in range(size):
            if x != parent:
                peel = list(table.peel)
                peel[k] = (i, x, j)
                yield "peel", k, table._replace(peel=tuple(peel))


@pytest.mark.parametrize("make, peel_failures", [(lambda: B3, 31), (lambda: birkhoff(GRID), 20)],
                         ids=["B3", "grid"])
def test_a_wrong_staircase_entry_fails_a_check(make, peel_failures, monkeypatch):
    # the table is trusted for nothing: at a generic weight every part has
    # one member, whose map is read off its extension and meets w on its
    # chain alone. Every wrong chain element fails the chain check, whether
    # it leaves the vertex set or repeats an element of the chain, which
    # leaves a mask of |P| elements. A wrong peel parent fails the envelope
    # or chain check, unless the right parent is the bottom and the wrong
    # one still holds the bottom's value, the part's constant, when it is
    # read: then every value is right. The counts are those of the slope
    # grouping's checks
    L = make()
    n = L.poset_P.size
    w = generic_weight(L)
    want = regular_subdivision(L, w, 1)
    table = subdivision.staircase_table(L)
    assert len(want.parts) == len(table.chains)
    bottom = L.at_mask[0]
    failed = {"chains": 0, "peel": 0}
    served = [table]
    monkeypatch.setattr(subdivision, "staircase_table", lambda L: served[0])
    for field, k, bad in corrupted_tables(table, L.size):
        served[0] = bad
        try:
            got = regular_subdivision(L, w, 1)
        except AssertionError as exc:
            assert str(exc) == CHAIN if field == "chains" else str(exc) in (ENVELOPE, CHAIN)
            failed[field] += 1
        else:
            assert field == "peel" and table.peel[k][1] == bottom
            assert got.parts == want.parts
    assert failed == {"chains": len(table.chains) * (n + 1) * (L.size - 1),
                      "peel": peel_failures}


@pytest.mark.parametrize("P", [antichain(["p", "q", "r"]), GRID], ids=["B3", "grid"])
def test_a_repeated_chain_element_fails_the_table_build(P, monkeypatch):
    # the build checks each chain's length once per lattice, which a part
    # of several members needs: at the apex, a first chain short of the
    # bottom still leaves the other chains covering every vertex, and the
    # per-weight checks pass with the one part as it should be. With one
    # ideal's index read as the bottom's, every chain through that ideal
    # holds the bottom twice, and the build raises and keeps nothing
    L = birkhoff(P)
    want = regular_subdivision(L, (0,) * L.size, 1)
    table = subdivision.staircase_table(L)
    short = table.chains[0] & ~(1 << L.at_mask[0])
    monkeypatch.setattr(subdivision, "staircase_table",
                        lambda L: table._replace(chains=(short, *table.chains[1:])))
    assert regular_subdivision(L, (0,) * L.size, 1).parts == want.parts
    monkeypatch.undo()
    for mask in L.masks:
        if mask:
            wrong = birkhoff(P)
            wrong.at_mask[mask] = wrong.at_mask[0]
            with pytest.raises(AssertionError, match=re.escape(LENGTH)):
                subdivision.staircase_table(wrong)
            assert subdivision.staircase_table.__wrapped__ not in wrong._memo


def some_subdivisions():
    """The subdivision at each face's witness of B3 and of the grid's
    lattice."""
    for L in (B3, birkhoff(GRID)):
        for F in enumerated_faces(cone_K(L)):
            yield regular_subdivision(L, *F.witness)


def test_check_part_rejects_a_dropped_vertex_or_an_added_relation():
    # the oracle is not vacuous: every part passes it, and fails it with
    # any one vertex dropped, or with any one relation added to its order,
    # whether that leaves no partial order or a stronger one with fewer
    # ideals
    checked = 0
    for sub in some_subdivisions():
        L = sub.lattice
        n = L.poset_P.size
        for part in sub.parts:
            check_part(L, part)
            for i in _bits(part.vertex_mask):
                with pytest.raises(AssertionError):
                    check_part(L, part._replace(vertex_mask=part.vertex_mask ^ 1 << i))
            order = subdivision.part_order(part)
            for j in range(n):
                for i in range(n):
                    if not order[j] >> i & 1:
                        below = order[:j] + (order[j] | 1 << i,) + order[j + 1:]
                        with pytest.raises(AssertionError):
                            check_order(L, below, part.vertex_mask)
            checked += 1
    assert checked == 85 + 3  # B3 and the grid


@pytest.mark.parametrize("make, lmax, parts", [
    (lambda: birkhoff(antichain(["p", "q", "r"])), 4, 85),
    (lambda: grassmann_lattice(2, 5), 3, 22),
], ids=["B3", "Gr(2,5)"])
def test_certify_builds_no_poset_for_a_part(make, lmax, parts, monkeypatch):
    # a part's order is the AND of its extensions' before masks, kept as
    # masks: once the lattice is built, certify builds no Poset at all
    L = make()
    built = []
    init = Poset.__init__
    monkeypatch.setattr(Poset, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    rows = degeneration_certificate(L, lmax)
    assert all(row["pass"] for row in rows) and built == []
    assert sum(len(face_subdivision(F).parts) for F in enumerated_faces(cone_K(L))) == parts


@settings(max_examples=15, deadline=None)
@given(poset_strategy().map(birkhoff))
@example(birkhoff(antichain(["p", "q", "r", "s"])))
@example(birkhoff(antichain(["p", "q", "r", "s", "t"])))
@example(flag_lattice(4))
@example(grassmann_lattice(3, 6))
def test_adjacency_symdiff_is_diamond(L):
    # the swap build gives the edges, in order, and the pair indices of the
    # pairwise scan, which cross-checks the chain, swap and diamond tests
    g = adjacency_graph(L)
    assert g == pairwise_adjacency(L)
    exts = L.extensions()
    pairs = diamond_pairs(L)
    for k, (i, j) in ((k, e) for k, edges in enumerate(g) for e in edges):
        ci = {L.bottom}
        cj = {L.bottom}
        pre = set()
        for p in label_extension(L.poset_P, exts[i]).order:
            pre.add(p)
            ci.add(iota_inv(L, frozenset(pre)))
        pre = set()
        for p in label_extension(L.poset_P, exts[j]).order:
            pre.add(p)
            cj.add(iota_inv(L, frozenset(pre)))
        assert ci ^ cj == {L.elements[pairs[k].a], L.elements[pairs[k].b]}


def test_swap_build_needs_every_diamond_pair(monkeypatch):
    # with a diamond pair dropped, a swap crosses a diamond the lookup lacks
    monkeypatch.setattr(subdivision, "diamond_pairs", lambda L: lattice.diamond_pairs(L)[1:])
    with pytest.raises(AssertionError, match="differ across no diamond pair"):
        adjacency_graph(birkhoff(antichain(["p", "q", "r"])))


def test_swap_build_needs_an_edge_for_every_diamond_pair(monkeypatch):
    # the lookup's last entry for a repeated pair wins, so the pair's first
    # copy labels no edge: the build, once per lattice, rejects it
    pairs = lattice.diamond_pairs
    monkeypatch.setattr(subdivision, "diamond_pairs", lambda L: pairs(L) + pairs(L)[:1])
    with pytest.raises(AssertionError, match="every diamond pair needs a witnessing adjacency"):
        adjacency_graph(birkhoff(antichain(["p", "q", "r"])))


# -- generalized permutahedron -----------------------------------------------


def test_b2_zero_weight_point():
    poly = generalized_permutahedron(B2, (0, 0, 0, 0), 1)
    assert poly.vertices == ((0, 0),)


def test_b2_generic_weight_segment():
    poly = generalized_permutahedron(B2, (0, -1, -1, 0), 1)
    assert set(poly.vertices) == {(1, -1), (-1, 1)}


def test_b3_generic_weight_hexagon():
    w = tuple(B3.height(a) ** 2 for a in B3.elements)
    poly = generalized_permutahedron(B3, w, 1)
    assert len(poly.vertices) == 6
    assert oracle.dim_of(poly) == 2  # hexagon lives in a plane (alpha sums are fixed)


@st.composite
def face_and_interior_weights(draw):
    """The lattice of a random poset on 3 to 5 elements, a random face of
    its cone and two random points of the face's relative interior, each an
    integer weight over one den. The face holds a random modular weight
    plus nonnegative multiples of supermodular indicators [S ⊆ iota(a)],
    and in a third of the draws the squared heights, slack on every pair;
    the points are its sample scaled past every slack and moved along an
    integer combination of its span rows."""
    L = birkhoff(draw(poset_strategy(max_size=5, min_size=3)))
    K = cone_K(L)
    labels = L.poset_P.elements
    slope = {p: draw(st.integers(-3, 3)) for p in labels}
    full = draw(st.integers(0, 2)) == 0
    w = [sum(slope[p] for p in iota(L, a)) + full * L.height(a) ** 2 for a in L.elements]
    for _ in range(draw(st.integers(0, 6))):
        S = draw(st.sets(st.sampled_from(labels), min_size=2))
        c = draw(st.integers(1, 3))
        w = [x + (c if S <= iota(L, a) else 0) for x, a in zip(w, L.elements)]
    F = face_of(K, w, 1)
    base, den = F.witness
    points = []
    for _ in range(2):
        shift = [0] * L.size
        for row in span_of_face(F):
            c = draw(st.integers(-3, 3))
            shift = [x + c * y for x, y in zip(shift, row)]
        bound = max((abs(sum(a * x for a, x in zip(normal, shift))) for normal in K.normals),
                    default=0)
        points.append((tuple((bound + 1) * x + den * y for x, y in zip(base, shift)), den))
    return L, F, points


@settings(max_examples=40, deadline=None)
@given(face_and_interior_weights())
def test_every_part_constant_is_the_bottom_weight(case):
    # generalized_permutahedron reads each part's map as (c + alpha·x) / den
    # with c the bottom weight, which it does not check, and
    # regular_subdivision groups the extensions by alpha alone: every chain
    # starts at the bottom, where the part's map takes its constant. The
    # Fraction oracle groups by (alpha, constant) and checks each map at
    # every element; its parts have one constant, the bottom weight, and
    # distinct alphas, so the two groupings are one partition
    L, F, points = case
    bottom = L.index(L.bottom)
    for w, den in points:
        sub = regular_subdivision(L, w, den)
        _, want = oracle.regular_subdivision(L, [Fraction(x, den) for x in w])
        assert {old.affine.offset[0] for old in want} == {Fraction(sub.scaled[bottom], sub.den)}
        assert len({old.affine.matrix[0] for old in want}) == len(want)
        assert [tuple(label_extension(L.poset_P, e) for e in part.simplices)
                for part in sub.parts] == [old.simplices for old in want]


@settings(max_examples=40, deadline=None)
@given(face_and_interior_weights())
def test_permutahedron_vertices_are_the_part_slopes(case):
    # generalized_permutahedron hands the negated slopes to LatticePolytope
    # as its vertices, by the argument in its docstring: the oracle's hull
    # of the slopes keeps every one, and a repeated vertex raises
    L, F, points = case
    for w, den in points:
        sub = regular_subdivision(L, w, den)
        assert sub.tight == F.tight
        slopes = [tuple(-x for x in part.alpha) for part in sub.parts]
        poly = generalized_permutahedron(L, w, den)
        assert poly.den == sub.den
        assert poly.vertices == tuple(sorted(slopes))
        assert oracle.hull(slopes, sub.den).vertices == poly.vertices
        with pytest.raises(ValueError, match="distinct"):
            LatticePolytope(slopes + slopes[-1:], sub.den)


@_kept
def cone_generators(L):
    """The integer witnesses of every face of L's cone, and the rows of its
    apex span, the lineality space; kept in L's memo."""
    K = cone_K(L)
    return [F.witness[0] for F in enumerated_faces(K)], span_of_face(K.apex)


@st.composite
def lattice_and_cone_point(draw):
    """A named lattice, Boolean or not, or the lattice of a random poset on
    at most 4 elements, and an integer point of its closed cone: a
    nonnegative combination of face witnesses plus an integer combination
    of the apex span's rows."""
    L = draw(st.one_of(st.sampled_from([B3, birkhoff(antichain(["p", "q", "r", "s"])),
                                        grassmann_lattice(2, 5), flag_lattice(3),
                                        flag_lattice(4), birkhoff(GRID)]),
                       poset_strategy(max_size=4).map(birkhoff)))
    witnesses, lineality = cone_generators(L)
    w = [0] * L.size
    for v in draw(st.lists(st.sampled_from(witnesses), max_size=5)):
        c = draw(st.integers(0, 3))
        w = [x + c * y for x, y in zip(w, v)]
    for row in lineality:
        c = draw(st.integers(-3, 3))
        w = [x + c * y for x, y in zip(w, row)]
    return L, tuple(w)


@settings(max_examples=60, deadline=None)
@given(lattice_and_cone_point())
@example((B3, tuple(B3.height(a) ** 2 for a in B3.elements)))
def test_diamond_inequalities_make_the_weight_supermodular(case):
    # local to global on a distributive lattice: a weight that meets every
    # diamond inequality, as regular_subdivision checks, is supermodular on
    # every pair of elements, so generalized_permutahedron's -w is
    # submodular with no check of its own
    L, w = case
    regular_subdivision(L, w, 1)
    at = L.at_mask
    for A in L.masks:
        for B in L.masks:
            assert w[at[A & B]] + w[at[A | B]] >= w[at[A]] + w[at[B]]


def test_permutahedron_rejects_outside_weight():
    with pytest.raises(NotInCone):
        generalized_permutahedron(B2, (0, 2, 2, 0), 1)


# -- serialization -----------------------------------------------------------


def test_subdivision_json_shape():
    sub = regular_subdivision(B2, (0, -1, -1, 0), 1)
    data = subdivision_json(sub)
    assert data["weight"] == [[0, 1], [-1, 1], [-1, 1], [0, 1]]
    assert len(data["parts"]) == 2
    for part in data["parts"]:
        assert set(part) == {"order_covers", "elements", "alpha"}
        assert len(part["alpha"]) == 2
        assert all(isinstance(x, list) and len(x) == 2 for x in part["alpha"])


def test_parts_equal_whatever_their_labels():
    # a part holds no labels: its order and vertices are masks over P's and
    # the lattice's elements, named only when written out, so equality and
    # hashing see the masks and the map alone
    w = [0, 1, 1, 1, 4, 4, 4, 9]
    upper = birkhoff(antichain(["P", "Q", "R"]))
    for p, q, shown in zip(regular_subdivision(B3, w, 1).parts,
                           regular_subdivision(upper, w, 1).parts,
                           subdivision_json(regular_subdivision(upper, w, 1))["parts"]):
        assert not hasattr(p, "labels")
        copy = Part(*p)
        assert copy == p and hash(copy) == hash(p)
        assert q == p
        assert shown["elements"] == [x.upper() for x in vertex_labels(B3, p)]
        assert p._replace(alpha=tuple(x + 1 for x in p.alpha)) != p
