"""The cone K: facets, faces, spans, interior samples, enumeration."""

import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import (enumerated_faces, indicator, is_apex, is_full, rank_dim, same_face,
                             same_lattice, vdot)
from hibikit import cone as cone_module
from hibikit import cli, exactgeom, hibi, subdivision
from hibikit.cli import main, resolve_face
from hibikit.cone import (
    Face,
    _close_tight,
    cone_K,
    enumerate_faces,
    enumerated_face,
    face_of,
    pair_normal,
    span_of_face,
)
from hibikit.errors import BadParams, NotInCone, TooLarge
from hibikit.exactgeom import rank
from hibikit.lattice import (DiamondPair, Lattice, birkhoff, diamond_pairs, flag_lattice,
                             grassmann_lattice)
from hibikit.poset import antichain, check_labels, from_cover_relations
from order_oracle import chain, height, position

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
    assert {L.elements[d.a], L.elements[d.b]} == {"{p,q}", "{p,r}"}
    assert L.elements[d.meet] == "{p}" and L.elements[d.join] == "{p,q,r}"


def test_b3_cone_six_inequalities():
    K = cone_K(birkhoff(antichain(["p", "q", "r"])))
    assert len(K.pairs) == 6


WITNESSED = [
    ("B3", birkhoff(antichain(["p", "q", "r"])), 6),
    ("B4", birkhoff(antichain(["p", "q", "r", "s"])), 24),
    ("B5", birkhoff(antichain(["p", "q", "r", "s", "t"])), 80),
    ("B6", birkhoff(antichain(["p", "q", "r", "s", "t", "u"])), 240),
    ("Flag(4)", flag_lattice(4), 5),
    ("Gr(3,6)", grassmann_lattice(3, 6), 12),
]


@pytest.mark.parametrize("name, L, count", WITNESSED, ids=[name for name, _, _ in WITNESSED])
def test_cone_K_certifies_facets_without_lp(name, L, count, monkeypatch):
    def no_lp(*args):
        raise AssertionError("cone_K solved an LP")

    monkeypatch.setattr(exactgeom, "_run_simplex", no_lp)
    assert len(cone_K(L).pairs) == count


@settings(max_examples=25, deadline=None)
@given(poset_strategy(max_size=6))
def test_witness_and_lp_oracle_accept_the_same_pairs(P):
    L = birkhoff(P)
    assume(len(diamond_pairs(L)) <= 12)
    K = cone_K(L)
    lp = oracle.cone_K(L)
    assert (K.pairs, K.normals) == (lp.pairs, lp.normals)


@pytest.mark.parametrize("extra", ["repeat", "sum"])
def test_cone_K_rejects_a_redundant_inequality(extra, monkeypatch):
    # one inequality more than B3's six: a repeat of the first is tight
    # wherever the first is, so its point fails the slack check; the
    # non-diamond pair {p}, {q,r} with bottom and top as meet and join is a
    # sum of diamond inequalities, and gets a point where all six are slack
    # and it is not, so only the tightness check fails
    L = birkhoff(antichain(["p", "q", "r"]))
    pairs = diamond_pairs(L)
    if extra == "repeat":
        added = pairs[0]
    else:
        added = DiamondPair(*(position(L, a) for a in ("{p}", "{q,r}", "{}", "{p,q,r}")))
    for module, build in ((cone_module, cone_K), (oracle, oracle.cone_K)):
        monkeypatch.setattr(module, "diamond_pairs", lambda L: pairs + (added,))
        with pytest.raises(AssertionError, match="not facet-defining"):
            build(L)


def test_cone_K_certifies_the_apex_dimension(monkeypatch):
    # one rank of all the normals gives the apex, the lineality space,
    # dimension |P| + 1; a rank off by one fails the check
    L = birkhoff(antichain(["p", "q", "r"]))
    real = cone_module.rank
    monkeypatch.setattr(cone_module, "rank", lambda rows: real(rows) + 1)
    with pytest.raises(AssertionError, match="apex dimension"):
        cone_K(L)


def test_cone_ranks_only_for_the_apex_check(monkeypatch, capsys):
    # cone_K ranks all the normals once; cone reads every face's dimension
    # off the face lattice, with no rank
    calls = []
    real = exactgeom.rank
    counting = lambda rows: calls.append(rows) or real(rows)
    for module in (exactgeom, cone_module):
        monkeypatch.setattr(module, "rank", counting)
    cli._lattice.cache_clear()  # a cold B3, whose cone_K ranks
    assert main(["cone", "--boolean", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["face_count"] == 22
    assert calls == [list(cone_K(cli._lattice("boolean", 3)).normals)]


@pytest.mark.parametrize("argv", [
    ["certify", "--boolean", "3", "--lmax", "2"],
    ["subdivide", "--boolean", "3", "--face", '[["{p,q}","{p,r}"]]', "--check", "3"],
], ids=["certify", "keyed subdivide"])
def test_jobs_that_print_no_dimension_compute_none(argv, monkeypatch, capsys):
    # a Face has no dimension of its own; grading and a face's span are the
    # two ways to compute one, and the invariance check, which certifies
    # from the tight swaps, reads neither
    def no_dim(*args):
        raise AssertionError("a face dimension was computed")

    assert not hasattr(Face, "dim")
    assert not hasattr(subdivision, "span_of_face")
    monkeypatch.setattr(cone_module, "grade_faces", no_dim)
    monkeypatch.setattr(cone_module, "span_of_face", no_dim)
    cli._lattice.cache_clear()
    assert main(argv) == 0
    capsys.readouterr()


def built_faces(monkeypatch, events):
    """Log ("face", tight) to events for every Face constructed."""
    init = Face.__init__

    def logging(self, cone, tight, witness):
        events.append(("face", tight))
        init(self, cone, tight, witness)

    monkeypatch.setattr(Face, "__init__", logging)


def test_cone_builds_no_faces(monkeypatch, capsys):
    # cone spells each face off its masks; the one Face built is the apex
    # that cone_K's MaxCone holds
    events = []
    built_faces(monkeypatch, events)
    cli._lattice.cache_clear()  # a cold B3, whose cone_K builds the apex
    assert main(["cone", "--boolean", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["face_count"] == 22
    K = cone_K(cli._lattice("boolean", 3))
    assert events == [("face", K.apex.tight)]


def test_certify_builds_each_face_after_the_rows_before_it(monkeypatch, capsys):
    # certify builds one Face per enumerated face, in enumeration order,
    # when it reaches it: after the previous face's one containment check
    events = []
    built_faces(monkeypatch, events)
    real = hibi.check_containment
    monkeypatch.setattr(hibi, "check_containment",
                        lambda gens, w, members: events.append("check") or real(gens, w, members))
    cli._lattice.cache_clear()
    assert main(["certify", "--boolean", "3", "--lmax", "2"]) == 0
    capsys.readouterr()
    K = cone_K(cli._lattice("boolean", 3))
    expected = [("face", K.apex.tight)]
    for tight, _ in enumerate_faces(K):
        expected += [("face", tight), "check"]
    assert events == expected


def test_the_apex_is_one_face_per_cone():
    L = birkhoff(antichain(["p", "q", "r"]))
    K = cone_K(L)
    assert is_apex(K.apex) and rank_dim(K, K.apex.tight) == L.poset_P.size + 1
    assert same_face(K.apex, face_of(K, tuple(height(L, a) for a in L.elements), 1))
    assert K.apex.witness == ((0,) * L.size, 1)
    assert resolve_face(K, "apex") is K.apex


def test_a_cone_whose_facet_check_fails_is_not_kept(monkeypatch):
    # a kept build that raises keeps nothing: every call runs the check and
    # fails it, and once the fault is gone the next call builds the cone
    L = birkhoff(antichain(["p", "q", "r"]))
    monkeypatch.setattr(cone_module, "comb", lambda n, k: 0)
    for _ in range(2):
        with pytest.raises(AssertionError, match="not facet-defining"):
            cone_K(L)
    monkeypatch.undo()
    assert cone_K(L) is cone_K(L)


@pytest.mark.parametrize("L", [birkhoff(antichain(["p", "q", "r"])), grassmann_lattice(2, 5)],
                         ids=["B3", "Gr(2,5)"])
def test_enumerated_face_needs_no_enumeration_on_its_cone(L):
    # the rays are a table of the cone, built by whichever reads them first:
    # a fresh cone gives every enumerated face before enumerate_faces runs
    # on it
    faces = enumerate_faces(cone_K(L))
    fresh = cone_K(Lattice(L.elements, L.poset_P, L.masks))
    for tight, rays in faces:
        F = enumerated_face(fresh, tight, rays)
        assert F.witness == enumerated_face(cone_K(L), tight, rays).witness
        assert face_of(fresh, *F.witness).tight == tight
    assert enumerate_faces(fresh) == faces


# -- face_of -----------------------------------------------------------------


def test_face_of_interior_point_b2():
    L = birkhoff(antichain(["p", "q"]))
    K = cone_K(L)
    F = face_of(K, (0, -1, -1, 0), 1)
    assert F.tight == 0
    assert rank_dim(K, F.tight) == 4
    assert is_full(F) and not is_apex(F)


def test_face_of_zero_is_apex():
    L = birkhoff(antichain(["p", "q"]))
    K = cone_K(L)
    F = face_of(K, (0, 0, 0, 0), 1)
    assert F.tight.bit_count() == 1
    assert rank_dim(K, F.tight) == 3 == L.poset_P.size + 1
    assert is_apex(F)


def test_face_of_outside_point():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    with pytest.raises(NotInCone):
        face_of(K, (0, 1, 1, 0), 1)


def test_face_of_wrong_dimension():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    with pytest.raises(ValueError):
        face_of(K, (0, 1), 1)


# NotInCone messages as they read while diamond pairs held labels, for
# points outside K-bar: each names the first violated pair by its labels,
# and its value as a reduced num/den
NOT_IN_CONE = [
    (birkhoff(antichain(["p", "q"])), (0, 1, 1, 0), 1, "w_{{}}+w_{{p,q}}-w_{{p}}-w_{{q}} = -2 < 0"),
    (birkhoff(antichain(["p", "q"])), (0, 1, 1, 0), 3,
     "w_{{}}+w_{{p,q}}-w_{{p}}-w_{{q}} = -2/3 < 0"),
    (birkhoff(antichain(["p", "q", "r"])), (0, 3, 1, 2, 0, 5, 1, 9), 7,
     "w_{{}}+w_{{p,q}}-w_{{p}}-w_{{q}} = -4/7 < 0"),
    (grassmann_lattice(2, 4), (0, 1, 3, 3, 1, 0), 2, "w_{13}+w_{24}-w_{14}-w_{23} = -2 < 0"),
    (flag_lattice(4), tuple(range(14)), 5, "w_{14}+w_{2}-w_{1}-w_{24} = -1/5 < 0"),
]


@pytest.mark.parametrize("L, w, den, message", NOT_IN_CONE,
                         ids=["B2", "B2/3", "B3/7", "Gr(2,4)/2", "Flag(4)/5"])
def test_not_in_cone_message_keeps_its_bytes(L, w, den, message):
    with pytest.raises(NotInCone) as got:
        face_of(cone_K(L), w, den)
    assert str(got.value) == message
    with pytest.raises(NotInCone) as got:
        subdivision.regular_subdivision(L, w, den)
    assert str(got.value) == message


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from([birkhoff(antichain(["p", "q", "r"])),
                                  birkhoff(antichain(["p", "q", "r", "s"])),
                                  grassmann_lattice(2, 5), flag_lattice(4)]),
                 poset_strategy(max_size=5).map(birkhoff)),
       st.data())
def test_pair_value_is_the_normal_dot_product(L, data):
    # every evaluation of a diamond inequality reads four entries of w; the
    # dense normal, kept for the linear algebra, gives the same value
    w = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=L.size, max_size=L.size))
    for d in diamond_pairs(L):
        assert d.value(w) == sum(c * x for c, x in zip(pair_normal(L, d), w, strict=True))


# -- span_of_face ------------------------------------------------------------


def test_span_full_face_b2():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    F = face_of(K, (0, -1, -1, 0), 1)
    basis = span_of_face(F)
    assert len(basis) == 4
    assert rank(basis) == 4


def test_span_apex_b2():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    F = face_of(K, (0, 0, 0, 0), 1)
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
        apex = face_of(K, (0,) * L.size, 1)
        assert is_apex(apex)
        basis = span_of_face(apex)
        cols = [[1] + [int(x) for x in indicator(L, a)] for a in L.elements]
        assert rank(cols) == P.size + 1  # the evaluation map is nondegenerate
        assert len(basis) == P.size + 1
        for w in basis:
            aug = [list(col) + [wa] for col, wa in zip(cols, w)]
            assert rank(aug) == rank(cols)  # w is in the column space


# -- sampling ----------------------------------------------------------------


def test_sample_full_face_b2():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    F = face_of(K, (0, -1, -1, 0), 1)
    w, den = F.witness
    assert vdot(K.normals[0], w) >= den
    assert same_face(face_of(K, w, den), F)


def test_sample_apex_is_fixed_point():
    L = birkhoff(antichain(["p", "q", "r"]))
    K = cone_K(L)
    apex = face_of(K, (0,) * L.size, 1)
    assert same_face(face_of(K, *apex.witness), apex)
    # the affine weight w_S = |S| also lands in the apex
    affine = tuple(height(L, a) for a in L.elements)
    assert is_apex(face_of(K, affine, 1))


# the keyed faces of the golden jobs, closed by LP in resolve_face
LP_CLOSED_KEYS = {"B3": '[["{p,q}","{p,r}"]]', "Gr(2,5)": '[["14","23"]]'}


def faces_with_witnesses(name, L):
    """Every face of L's cone, the golden LP-closed key on L, and each face
    again with its witness scaled by 1/7, 3/10 and 5/2: non-integral
    witnesses, with the least slack below 1 for the first two."""
    K = cone_K(L)
    faces = enumerated_faces(K)
    if name in LP_CLOSED_KEYS:
        faces.append(resolve_face(K, LP_CLOSED_KEYS[name]))
    faces += [Face(K, F.tight, (tuple(c.numerator * x for x in F.witness[0]),
                                 c.denominator * F.witness[1]))
              for F in list(faces) for c in (Fraction(1, 7), Fraction(3, 10), Fraction(5, 2))]
    return faces


SAMPLED = [
    ("B3", birkhoff(antichain(["p", "q", "r"]))),
    ("Flag(3)", flag_lattice(3)),
    ("Gr(2,5)", grassmann_lattice(2, 5)),
]


WITNESSED = SAMPLED + [("Flag(4)", flag_lattice(4))]


@pytest.mark.parametrize("name, L", WITNESSED, ids=[name for name, _ in WITNESSED])
def test_every_face_route_gives_a_witness_slack_at_least_den(name, L):
    # face_subdivision subdivides at the witness itself, which every route
    # to a Face gives slack at least den on each loose pair: the enumerated
    # faces' ray sums, the squared heights of `full`, the apex's zero, and
    # the lcm sums of the LP closure, on every enumerated face's mask and on
    # the golden keys. So the witness is the oracle's sample, which scales a
    # witness until every loose pair's slack is at least 1
    K = cone_K(L)
    faces = enumerated_faces(K) + [
        cli._face_for(K, "full"), cli._face_for(K, "apex"),
        *(Face(K, *_close_tight(K, F.tight)) for F in enumerated_faces(K))]
    if name in LP_CLOSED_KEYS:
        faces.append(cli._face_for(K, LP_CLOSED_KEYS[name]))
    for F in faces:
        w, den = F.witness
        assert all(type(x) is int for x in w) and type(den) is int and den > 0
        values = [d.value(w) for d in K.pairs]
        assert all((v == 0) if F.tight >> k & 1 else (v >= den) for k, v in enumerate(values))
        assert tuple(Fraction(x, den) for x in w) == oracle.sample_relative_interior(F)


@pytest.mark.parametrize("name, L", SAMPLED, ids=[name for name, _ in SAMPLED])
def test_invariance_samples_match_fraction_oracle(name, L):
    # the tight swap components certify every point of the face at once,
    # and the per-edge certificate once run beside them holds; at the
    # points it drew before, the oracle's samples, the subdivision has the
    # face's parts
    for F in faces_with_witnesses(name, L):
        sub = subdivision.face_subdivision(F)
        assert oracle.subdivision_invariance_check(sub)
        for w in oracle.invariance_samples(F, 3, seed=1)[1:]:
            sample = subdivision.regular_subdivision(L, *oracle.vec_over_den(w))
            assert sample.tight == F.tight
            assert oracle.structure(sample) == oracle.structure(sub)


def test_convex_weight_is_interior():
    # a strictly convex function of the height separates every diamond pair
    for P in (antichain(["p", "q", "r"]), GRID):
        L = birkhoff(P)
        K = cone_K(L)
        w = tuple(height(L, a) ** 2 for a in L.elements)
        assert is_full(face_of(K, w, 1))


# -- enumeration -------------------------------------------------------------


def test_enumerate_b2_two_faces():
    K = cone_K(birkhoff(antichain(["p", "q"])))
    faces = enumerated_faces(K)
    assert len(faces) == 2
    assert {is_full(f) for f in faces} == {True, False}
    assert {is_apex(f) for f in faces} == {True, False}


def test_enumerate_chain_single_face():
    K = cone_K(birkhoff(chain(["a", "b", "c"])))
    faces = enumerated_faces(K)
    assert len(faces) == 1
    assert is_full(faces[0]) and is_apex(faces[0])
    assert rank_dim(K, faces[0].tight) == 4


def test_enumerate_face_cap(monkeypatch):
    K = cone_K(birkhoff(antichain(["p", "q", "r"])))
    monkeypatch.setattr(cone_module, "MAX_FACES", 21)
    with pytest.raises(TooLarge, match="faces"):
        enumerate_faces(K)
    monkeypatch.setattr(cone_module, "MAX_FACES", 22)
    assert len(enumerate_faces(K)) == 22


def test_enumerate_reaches_flag5():
    # cone --flag 5's 90,112 faces, within cone.MAX_FACES; its output is
    # pinned by digest in test_golden.py
    assert len(enumerate_faces(cone_K(flag_lattice(5)))) == 90112 <= cone_module.MAX_FACES


def test_enumerate_ray_cap_stops_b5():
    # the double description on B5's 80 pairs keeps thousands of rays and
    # runs for minutes uncapped
    K = cone_K(birkhoff(antichain(["p", "q", "r", "s", "t"])))
    with pytest.raises(TooLarge, match="rays"):
        enumerate_faces(K)


@pytest.mark.parametrize("L, count", [(birkhoff(antichain(["p", "q", "r"])), 22),
                                      (grassmann_lattice(2, 5), 8)], ids=["B3", "Gr(2,5)"])
def test_enumerate_solves_no_lp(L, count, monkeypatch):
    K = cone_K(L)

    def no_lp(*args):
        raise AssertionError("enumeration solved an LP")

    monkeypatch.setattr(exactgeom, "_run_simplex", no_lp)
    assert len(enumerate_faces(K)) == count


def test_enumerate_faces_b3_consistency():
    L = birkhoff(antichain(["p", "q", "r"]))
    K = cone_K(L)
    faces = enumerated_faces(K)
    keys = {f.key() for f in faces}
    assert len(keys) == len(faces)
    assert sum(is_full(f) for f in faces) == 1
    assert sum(is_apex(f) for f in faces) == 1
    for f in faces:
        w, den = f.witness
        assert same_face(face_of(K, w, den), f)
        for i in range(len(K.pairs)):
            slack = vdot(K.normals[i], w)
            if f.tight >> i & 1:
                assert slack == 0
            else:
                assert slack >= den
    dims = sorted(rank_dim(K, f.tight) for f in faces)
    assert dims[0] == L.poset_P.size + 1
    assert dims[-1] == L.size


def accepted_labels():
    """Labels a file may use, with quotes, backslashes, control characters,
    non-ASCII letters and a lone surrogate (a JSON file may escape one)."""
    special = st.sampled_from(['"', "\\", "\x00", "\x07", "\x7f", "é", "λ", "\u200b",
                               "\U0001f600", "\ud800"])
    letters = st.lists(st.one_of(special, st.characters()), min_size=1, max_size=5)

    def accepted(label):
        try:
            check_labels([label])
        except BadParams:
            return False
        return True

    return letters.map("".join).filter(accepted)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(accepted_labels(), accepted_labels()), max_size=6))
def test_face_key_is_the_compact_json_of_its_pairs(labels):
    # the key reads the pairs' labels off the elements; meet and join,
    # the last two elements, are not in it. Every mask is spelled from the
    # same fragments, joined in rank order
    elements = [x for pair in labels for x in pair] + ["m", "j"]
    m = len(elements) - 2
    tight = [DiamondPair(2 * k, 2 * k + 1, m, m + 1) for k in range(len(labels))]
    fragments = cone_module._fragments(elements, tight)
    for mask in range(1 << len(tight)):
        assert cone_module._key_of(fragments, mask) == json.dumps(
            sorted(sorted([a, b]) for k, (a, b) in enumerate(labels) if mask >> k & 1),
            separators=(",", ":"))


def faces_by_subset_scan(K):
    """The enumeration the double description replaced: every subset of
    pairs that equals its own LP closure, in increasing mask order."""
    m = len(K.pairs)
    faces = []
    for mask in range(1 << m):
        closed, witness = _close_tight(K, mask)
        if closed == mask:
            faces.append(Face(K, closed, witness))
    return faces


@settings(max_examples=25, deadline=None)
@given(poset_strategy(max_size=7))
def test_enumerate_random_small(P):
    L = birkhoff(P)
    assume(len(diamond_pairs(L)) <= 8)
    K = cone_K(L)
    faces = enumerated_faces(K)
    oracle = faces_by_subset_scan(K)
    assert [f.tight for f in faces] == [f.tight for f in oracle]
    assert [len(span_of_face(f)) for f in faces] == [rank_dim(K, f.tight) for f in oracle]
    assert sum(is_full(f) for f in faces) == 1
    for f in faces:
        assert same_face(face_of(K, *f.witness), f)
        assert L.poset_P.size + 1 <= len(span_of_face(f)) <= L.size


@settings(max_examples=40, deadline=None)
@given(poset_strategy(max_size=6))
def test_graded_dimensions_match_rank_on_random_posets(P):
    L = birkhoff(P)
    assume(len(diamond_pairs(L)) <= 20)
    K = cone_K(L)
    faces = enumerate_faces(K)
    assert cone_module.grade_faces(K, faces) == [rank_dim(K, tight) for tight, _ in faces]


GRADED = [
    ("B3", birkhoff(antichain(["p", "q", "r"])), 22),
    ("Gr(2,5)", grassmann_lattice(2, 5), 8),
    ("Flag(4)", flag_lattice(4), 32),
    ("Gr(3,6)", grassmann_lattice(3, 6), 1408),
    ("B4", birkhoff(antichain(["p", "q", "r", "s"])), 22108),
]


@pytest.mark.parametrize("name, L, count", GRADED, ids=[name for name, _, _ in GRADED])
def test_graded_dimensions_match_rank(name, L, count, monkeypatch):
    # grading takes no rank and no span; the oracle ranks every face
    # afterwards
    def no_linear_algebra(rows):
        raise AssertionError("grading ran linear algebra on a face")

    K = cone_K(L)
    faces = enumerate_faces(K)
    monkeypatch.setattr(cone_module, "rank", no_linear_algebra)
    monkeypatch.setattr(cone_module, "integer_kernel", no_linear_algebra)
    dims = cone_module.grade_faces(K, faces)
    monkeypatch.undo()
    assert len(faces) == count
    assert dims == [rank_dim(K, tight) for tight, _ in faces]
    assert dims[-1] == L.poset_P.size + 1  # the apex, every pair tight


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
        assert oracle.lp_feasible(cons, n) is not None


def test_normal_structure():
    L = birkhoff(antichain(["p", "q", "r"]))
    for d in cone_K(L).pairs:
        normal = pair_normal(L, d)
        assert sorted(normal) == [-1, -1, 0, 0, 0, 0, 1, 1]
        assert sum(normal) == 0
