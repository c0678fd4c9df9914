"""Poset construction, extensions, ideals, and order comparisons.

Expected counts come from brute force oracles over permutations and over
all subsets, computed here rather than hardcoded where feasible.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracle import extension_poset, intersect_orders
from hibikit.errors import CycleError, TooLarge, UnknownLabel
from hibikit.lattice import birkhoff, parse_lattice
from hibikit.poset import (MAX_IDEALS, _bits, _kept, antichain, from_cover_relations, ideal_set,
                           linear_extensions)
from order_oracle import (GroundSetMismatch, LinearExtension, PairPoset, chain, closure,
                          down_closed, is_stronger, label_extensions, label_pair_stronger, less,
                          mask_poset, order_ideals, order_key, pairs_of)


def brute_extensions(P):
    """Oracle: filter all permutations."""
    out = []
    for perm in itertools.permutations(P.elements):
        pos = {x: k for k, x in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in P.label_pairs()):
            out.append(perm)
    return out


def brute_ideals(P):
    """Oracle: the scan of all 2^|P| subsets that order_ideals ran before it
    grew the ideals upward, in its canonical order (by size, then
    positions)."""
    n = P.size
    below = [{i for i in range(n) if P.below[j] >> i & 1} for j in range(n)]
    found = []
    for mask in range(1 << n):
        members = {j for j in range(n) if mask >> j & 1}
        if all(below[j] <= members for j in members):
            found.append(tuple(sorted(members)))
    found.sort(key=lambda t: (len(t), t))
    return [frozenset(P.elements[j] for j in t) for t in found]


def grid22():
    # 2x2 grid: a < b, a < c, b < d, c < d
    return from_cover_relations(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@given(st.integers(0, 1 << 70))
def test_bits_are_the_set_positions_ascending(mask):
    assert _bits(mask) == [j for j in range(mask.bit_length()) if mask >> j & 1]


def test_antichain_and_chain():
    P = antichain(["p", "q"])
    assert not less(P, "p", "q") and not less(P, "q", "p")
    C = chain(["p", "q", "r"])
    assert less(C, "p", "r")  # derived by transitivity


def test_cycle_rejected():
    with pytest.raises(CycleError):
        from_cover_relations(["p", "q"], [("p", "q"), ("q", "p")])


def test_unknown_label_rejected():
    with pytest.raises(UnknownLabel):
        from_cover_relations(["p"], [("p", "q")])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        from_cover_relations(["p", "p"], [])


def test_extension_counts_against_brute_force():
    cases = [antichain(["p", "q"]), antichain(["x", "y", "z"]),
             chain(["a", "b", "c"]), grid22()]
    for P in cases:
        exts = list(linear_extensions(P))
        assert exts == sorted(exts)
        got = [e.order for e in label_extensions(P)]
        assert sorted(got) == sorted(brute_extensions(P))
        assert len(set(got)) == len(got)


def test_two_antichain_has_two_extensions():
    assert len(list(linear_extensions(antichain(["p", "q"])))) == 2


def test_three_antichain_has_six_extensions():
    # oracle agrees with 3! by brute force
    P = antichain(["x", "y", "z"])
    assert len(brute_extensions(P)) == 6
    assert len(list(linear_extensions(P))) == 6


def test_extensions_respect_order():
    P = grid22()
    for ext in label_extensions(P):
        assert is_stronger(extension_poset(ext), P)


def test_order_ideals_examples():
    P = antichain(["p", "q"])
    ideals = order_ideals(P)
    assert set(ideals) == {frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})}
    assert ideals[0] == frozenset() and ideals[-1] == frozenset({"p", "q"})

    C = chain(["p", "q", "r"])
    assert order_ideals(C) == [frozenset(), frozenset({"p"}),
                               frozenset({"p", "q"}), frozenset({"p", "q", "r"})]


def test_ideal_count_is_capped_where_it_passes_max_ideals():
    # an antichain of n elements has 2^n ideals: 2^10 is the cap itself
    assert MAX_IDEALS == 1 << 10
    assert len(ideal_set(antichain([f"x{i}" for i in range(10)]))) == MAX_IDEALS
    with pytest.raises(TooLarge, match="order ideals"):
        ideal_set(antichain([f"x{i}" for i in range(11)]))


def test_grid_ideals_against_brute_force():
    P = grid22()
    ideals = order_ideals(P)
    assert ideals == brute_ideals(P)
    assert len(ideals) == 6


def test_is_stronger():
    A = antichain(["p", "q", "r"])
    C = chain(["p", "q", "r"])
    assert is_stronger(C, A)
    assert is_stronger(C, C)
    assert not is_stronger(A, C)
    with pytest.raises(GroundSetMismatch):
        is_stronger(A, antichain(["p", "q"]))


def test_intersect_orders():
    down = chain(["p", "q"])
    up = chain(["q", "p"])
    both = intersect_orders([down, up])
    assert both.label_pairs() == frozenset()
    assert intersect_orders([down]).label_pairs() == down.label_pairs()

    P = grid22()
    exts = [extension_poset(e) for e in label_extensions(P)]
    assert intersect_orders(exts).label_pairs() == P.label_pairs()


def random_poset_from_seed(labels, pairs):
    """Build a poset from arbitrary pairs, skipping those that close a cycle."""
    accepted = []
    for a, b in pairs:
        if a == b:
            continue
        try:
            P = from_cover_relations(labels, accepted + [(a, b)])
        except CycleError:
            continue
        accepted.append((a, b))
    return from_cover_relations(labels, accepted)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_extension_count_matches_brute_force_random(n, data):
    labels = [f"e{i}" for i in range(n)]
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=8))
    P = random_poset_from_seed(labels, pairs)
    exts = label_extensions(P)
    assert len(exts) == len(brute_extensions(P))
    for ext in exts:
        assert is_stronger(extension_poset(ext), P)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_intersection_of_extensions_recovers_poset(n, data):
    labels = [f"e{i}" for i in range(n)]
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=6))
    P = random_poset_from_seed(labels, pairs)
    exts = [extension_poset(e) for e in label_extensions(P)]
    assert intersect_orders(exts).label_pairs() == P.label_pairs()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_order_ideals_match_subset_scan_random(n, data):
    labels = [f"e{i}" for i in range(n)]
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=10))
    P = random_poset_from_seed(labels, pairs)
    assert order_ideals(P) == brute_ideals(P)


def test_text_format_round_trip():
    P = grid22()
    text = "".join([f"elem {x}\n" for x in P.elements]
                   + [f"cover {a} {b}\n" for a, b in P.covers()])
    assert order_key(parse_lattice(text).poset_P) == order_key(birkhoff(P).poset_P)


def test_text_format_comments_and_errors():
    L = parse_lattice("# a comment\nelem p\nelem q\ncover p q  # tail comment\n")
    assert order_key(L.poset_P) == order_key(birkhoff(chain(["p", "q"])).poset_P)
    with pytest.raises(ValueError):
        parse_lattice("elem p\nbogus q\n")


def test_linear_extension_validation():
    P = chain(["p", "q"])
    with pytest.raises(ValueError):
        LinearExtension(("q", "p"), P)
    with pytest.raises(GroundSetMismatch):
        LinearExtension(("p",), P)


def test_covers_are_transitive_reduction():
    C = chain(["p", "q", "r"])
    assert C.covers() == [("p", "q"), ("q", "r")]


# -- the bitmask poset against the pair-set reference ------------------------


@st.composite
def labelled_pairs(draw, max_size=7):
    """Labels in a drawn order and random index pairs among them, cycles
    allowed."""
    n = draw(st.integers(1, max_size))
    labels = draw(st.permutations([f"e{i}" for i in range(n)]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    return list(labels), pairs


def error_type(build):
    try:
        build()
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(labelled_pairs(), st.data())
def test_mask_poset_matches_pair_set_reference(drawn, data):
    labels, pairs = drawn
    n = len(labels)
    covers = [(labels[i], labels[j]) for i, j in pairs]
    closed = closure(n, pairs)
    if any(i == j for i, j in closed):
        with pytest.raises(CycleError):
            from_cover_relations(labels, covers)
        return
    P = from_cover_relations(labels, covers)
    R = PairPoset(labels, closed)
    assert pairs_of(P) == R.relation
    assert P.covers() == R.covers()
    assert P.label_pairs() == R.label_pairs()
    assert [e.order for e in label_extensions(P)] == R.linear_extensions()
    assert order_ideals(P) == R.order_ideals()
    every = range(1 << n)
    assert down_closed(P, every) == R.down_closed(every)
    # a second order on the same labels, listed in another order
    order_q = data.draw(st.permutations(labels))
    pairs_q = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                 max_size=2 * n))
    closed_q = {(i, j) for i, j in closure(n, pairs_q) if i < j}  # still closed
    Q = PairPoset(order_q, closed_q)
    Qm = from_cover_relations(order_q, [(order_q[i], order_q[j]) for i, j in closed_q])
    assert is_stronger(P, Qm) == R.is_stronger(Q)
    assert is_stronger(Qm, P) == Q.is_stronger(R)


def drawn_order(data, labels):
    """A poset on the labels, listed in a drawn order, from random pairs
    read low to high in that order, so never cyclic."""
    order = data.draw(st.permutations(labels))
    n = len(order)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2 * n))
    return from_cover_relations(order, [(order[i], order[j]) for i, j in pairs if i < j])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_is_stronger_matches_label_pairs_on_relabelled_copies(n, data):
    # is_stronger carries weak's indices to strong's; the oracle compares
    # label pairs. P is compared with a copy listed in another label order,
    # with a linear extension of it in a third, and with an unrelated order
    labels = [f"e{i}" for i in range(n)]
    P = drawn_order(data, labels)
    copy = from_cover_relations(data.draw(st.permutations(labels)), P.label_pairs())
    ext = data.draw(st.sampled_from(list(linear_extensions(P))))
    total = from_cover_relations(data.draw(st.permutations(labels)),
                                 [(P.elements[i], P.elements[j]) for i, j in zip(ext, ext[1:])])
    other = drawn_order(data, labels)
    for strong, weak in itertools.product([P, copy, total, other], repeat=2):
        assert is_stronger(strong, weak) == label_pair_stronger(strong, weak)
    assert is_stronger(P, copy) and is_stronger(copy, P) and is_stronger(total, copy)
    elsewhere = antichain(labels[1:] + ["x"])
    for compare in (is_stronger, label_pair_stronger):
        with pytest.raises(GroundSetMismatch):
            compare(P, elsewhere)
        with pytest.raises(GroundSetMismatch):
            compare(elsewhere, P)


@st.composite
def below_masks(draw, max_size=7):
    """One mask per element: arbitrary, or acyclic (bits below j only) and
    so often not closed, or acyclic with one bit past the last index."""
    n = draw(st.integers(1, max_size))
    kind = draw(st.sampled_from(["any", "acyclic", "out of range"]))
    if kind == "any":
        return [draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
    below = [draw(st.integers(0, (1 << j) - 1)) for j in range(n)]
    if kind == "out of range":
        below[draw(st.integers(0, n - 1))] |= 1 << n
    return below


@settings(max_examples=120, deadline=None)
@given(below_masks())
def test_mask_constructor_raises_as_pair_set_reference(below):
    # the oracles' mask constructor checks what the Poset constructor no
    # longer checks, as the pair-set reference does
    labels = tuple(f"e{j}" for j in range(len(below)))
    pairs = {(i, j) for j, m in enumerate(below) for i in range(m.bit_length()) if m >> i & 1}
    expected = error_type(lambda: PairPoset(labels, pairs))
    assert error_type(lambda: mask_poset(labels, tuple(below))) == expected
    if expected is None:
        assert pairs_of(mask_poset(labels, tuple(below))) == pairs


class Holder:
    def __init__(self):
        self._memo = {}


def test_kept_builds_once_per_object_and_arguments():
    built = []

    @_kept
    def table(obj, *args):
        """One table."""
        built.append(args)
        return list(args)

    a, b = Holder(), Holder()
    assert table(a) is table(a) and table(a, 2) is table(a, 2) and table(b) is table(b)
    assert table(a, 2) is not table(a, 3)
    assert built == [(), (2,), (), (3,)]
    # the tracer and inspect read the build through the memo
    assert (table.__name__, table.__module__, table.__doc__) == ("table", __name__, "One table.")
    assert table.__wrapped__.__name__ == "table"
    assert len(a._memo) == 3


def test_kept_keeps_nothing_when_the_build_raises():
    calls = []

    @_kept
    def table(obj, fail):
        calls.append(fail)
        if fail:
            raise ValueError("refused")
        return object()

    obj = Holder()
    for _ in range(2):
        with pytest.raises(ValueError, match="refused"):
            table(obj, True)
    assert obj._memo == {}
    assert table(obj, False) is table(obj, False)
    assert calls == [True, True, False]
