"""Lattice construction, Birkhoff correspondence, diamonds, chains."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraction_oracle import NotStronger, extension_poset, indicator
from hibi_oracle import maximal_chains, sublattice_for_order
from hibikit import lattice
from hibikit.errors import NotALattice, NotDistributive, TooLarge, UnknownLabel
from hibikit.lattice import (
    DiamondPair,
    _ring_of_sets,
    _table_lattice,
    birkhoff,
    diamond_pairs,
    flag_lattice,
    from_tables,
    grassmann_lattice,
    ideal_label,
    maximal_chain_count,
    parse_lattice,
)
from hibikit.poset import (
    antichain,
    from_cover_relations,
    linear_extensions,
)
from order_oracle import (PairPoset, chain, covers, diamond_pairs_by_covers, flag_by_ops, from_ops,
                          grassmann_by_ops, incomparable, iota, iota_inv, join_of,
                          label_extensions, leq, meet_of, order_ideals, pairs_of)


def random_poset_from_seed(labels, pairs):
    """Accept candidate relations one by one, skipping any that closes a cycle."""
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


def poset_strategy(max_size=4):
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


GRID = from_cover_relations(
    ["p", "q", "r", "s"], [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")]
)


# -- birkhoff ----------------------------------------------------------------


def test_birkhoff_two_antichain_is_b2():
    L = birkhoff(antichain(["p", "q"]))
    assert L.size == 4
    assert L.elements == ("{}", "{p}", "{q}", "{p,q}")
    assert join_of(L, "{p}", "{q}") == "{p,q}"
    assert meet_of(L, "{p}", "{q}") == "{}"
    assert L.bottom == "{}" and L.top == "{p,q}"


def test_birkhoff_three_chain_is_four_chain():
    L = birkhoff(chain(["a", "b", "c"]))
    assert L.size == 4
    for x, y in itertools.combinations(L.elements, 2):
        assert leq(L, x, y) or leq(L, y, x)


def test_birkhoff_grid_has_six_elements():
    L = birkhoff(GRID)
    assert L.size == 6
    assert L.poset_P.label_pairs() == GRID.label_pairs()


def two_subset_lattice_2_4():
    """Componentwise max/min on 2-subsets of {1,2,3,4}, plain labels."""
    elems = ["".join(map(str, c)) for c in itertools.combinations(range(1, 5), 2)]

    def comb(a, b, f):
        return "".join(map(str, sorted(f(int(x), int(y)) for x, y in zip(a, b))))

    return from_ops(elems, lambda a, b: comb(a, b, max), lambda a, b: comb(a, b, min))


def test_grid_birkhoff_isomorphic_to_two_subset_lattice():
    L = birkhoff(GRID)
    G = two_subset_lattice_2_4()
    assert G.size == L.size == 6
    for perm in itertools.permutations(G.elements):
        f = dict(zip(L.elements, perm))
        if all(
            f[join_of(L, a, b)] == join_of(G, f[a], f[b])
            and f[meet_of(L, a, b)] == meet_of(G, f[a], f[b])
            for a in L.elements
            for b in L.elements
        ):
            break
    else:
        pytest.fail("no lattice isomorphism found")


def test_two_subset_lattice_poset_is_grid():
    G = two_subset_lattice_2_4()
    P = G.poset_P
    assert P.size == 4
    covers = P.covers()
    assert len(covers) == 4
    # 2x2 grid: unique bottom and top in the covers, two middle elements
    starts = [a for a, _ in covers]
    ends = [b for _, b in covers]
    assert len([x for x in set(starts) if starts.count(x) == 2]) == 1
    assert len([x for x in set(ends) if ends.count(x) == 2]) == 1


# -- the builtins as rings of sets ---------------------------------------------


BUILTINS = ([(f"Gr({k},{n})", grassmann_lattice, grassmann_by_ops, (k, n))
             for n in range(2, 9) for k in range(1, n)]
            + [(f"Flag({n})", flag_lattice, flag_by_ops, (n,)) for n in range(2, 7)])


@pytest.mark.parametrize("build, oracle, args", [b[1:] for b in BUILTINS],
                         ids=[b[0] for b in BUILTINS])
def test_builtin_matches_its_validated_tables(build, oracle, args):
    # the ring of sets gives the elements, irreducibles and ideals that the
    # string join/meet closures give on their fully validated tables
    L, M = build(*args), oracle(*args)
    assert L.elements == M.elements
    assert L.poset_P == M.poset_P
    assert L.masks == M.masks


@pytest.mark.parametrize("L", [grassmann_lattice(2, 4), flag_lattice(3), birkhoff(GRID)],
                         ids=["Gr(2,4)", "Flag(3)", "grid"])
def test_ring_of_sets_rejects_a_missing_union(L):
    # drop each set that is the union of two others: the family is no
    # longer closed under union
    sets = L.masks
    for k, x in enumerate(sets):
        if any(y | z == x and x not in (y, z) for y, z in itertools.combinations(sets, 2)):
            rest = [i for i in range(L.size) if i != k]
            with pytest.raises(AssertionError, match="closed under union"):
                _ring_of_sets([L.elements[i] for i in rest], [sets[i] for i in rest])


def test_ring_of_sets_rejects_a_repeated_set():
    with pytest.raises(AssertionError, match="distinct"):
        _ring_of_sets(["a", "b", "c"], [0, 1, 1])


def test_ring_of_sets_checks_its_masks_against_the_ideals(monkeypatch):
    # each element's mask holds the irreducibles inside it, and the masks
    # must be the order ideals of poset_P: with the top ideal missing from
    # the ideals they are compared with, they are not
    ideals = lattice.ideal_set
    monkeypatch.setattr(lattice, "ideal_set", lambda P: ideals(P) - {(1 << P.size) - 1})
    with pytest.raises(AssertionError,
                       match="the masks are not the order ideals of the irreducibles"):
        flag_lattice(3)


def test_birkhoff_checks_the_closure_of_the_ideals(monkeypatch):
    # with the top ideal dropped, the union of {p} and {q} is missing
    ideals = lattice.ideal_masks
    monkeypatch.setattr(lattice, "ideal_masks", lambda P: ideals(P)[:-1])
    with pytest.raises(AssertionError,
                       match="order ideals are not closed under union and intersection"):
        birkhoff(antichain(["p", "q"]))


# -- from_tables -------------------------------------------------------------


def tables_of(L):
    join = {(a, b): join_of(L, a, b) for a in L.elements for b in L.elements}
    meet = {(a, b): meet_of(L, a, b) for a in L.elements for b in L.elements}
    return list(L.elements), join, meet


def test_from_tables_b2_poset_is_antichain():
    elems, join, meet = tables_of(birkhoff(antichain(["p", "q"])))
    M = from_tables(elems, join, meet)
    assert M.size == 4
    assert M.poset_P.label_pairs() == frozenset()
    assert M.poset_P.size == 2


def test_from_tables_renames_to_ideals():
    elems, join, meet = tables_of(birkhoff(antichain(["p", "q"])))
    M = from_tables(elems, join, meet)
    # ground set of the new poset is the old irreducible labels
    assert set(M.poset_P.elements) == {"{p}", "{q}"}
    assert M.bottom == "{}"
    assert M.top in ("{{p},{q}}", "{{q},{p}}")


def test_m3_diamond_not_distributive():
    elems = ["0", "a", "b", "c", "1"]

    def jn(x, y):
        if x == y or y == "0":
            return x
        if x == "0":
            return y
        return "1"

    def mt(x, y):
        if x == y or y == "1":
            return x
        if x == "1":
            return y
        return "0"

    join = {(x, y): jn(x, y) for x in elems for y in elems}
    meet = {(x, y): mt(x, y) for x in elems for y in elems}
    with pytest.raises(NotDistributive) as info:
        from_tables(elems, join, meet)
    assert set(info.value.witness) <= {"a", "b", "c"}


def test_pentagon_not_distributive():
    elems = ["0", "a", "c", "b", "1"]
    covers = {("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")}
    leq = {(x, x) for x in elems}
    changed = True
    while changed:
        changed = False
        for x, y in list(leq) + list(covers):
            for u, v in covers:
                if y == u and (x, v) not in leq:
                    leq.add((x, v))
                    changed = True
    leq |= covers

    def jn(x, y):
        ups = [z for z in elems if (x, z) in leq and (y, z) in leq]
        return next(z for z in ups if all((z, w) in leq for w in ups))

    def mt(x, y):
        downs = [z for z in elems if (z, x) in leq and (z, y) in leq]
        return next(z for z in downs if all((w, z) in leq for w in downs))

    join = {(x, y): jn(x, y) for x in elems for y in elems}
    meet = {(x, y): mt(x, y) for x in elems for y in elems}
    with pytest.raises(NotDistributive):
        from_tables(elems, join, meet)


def test_broken_table_not_a_lattice():
    elems, join, meet = tables_of(birkhoff(antichain(["p", "q"])))
    join[("{p}", "{q}")] = "{}"
    join[("{q}", "{p}")] = "{}"
    with pytest.raises(NotALattice):
        from_tables(elems, join, meet)


def test_partial_table_not_a_lattice():
    elems, join, meet = tables_of(birkhoff(antichain(["p", "q"])))
    del join[("{p}", "{q}")]
    del join[("{q}", "{p}")]
    with pytest.raises(NotALattice):
        from_tables(elems, join, meet)


@settings(max_examples=20, deadline=None)
@given(poset_strategy())
def test_from_tables_birkhoff_round_trip_isomorphic(P):
    L = birkhoff(P)
    M = from_tables(*tables_of(L))
    assert M.size == L.size
    # explicit iso on the irreducible posets: p -> label of its principal ideal
    f = {p: ideal_label(P.below[j] | 1 << j, P.elements) for j, p in enumerate(P.elements)}
    assert set(f.values()) == set(M.poset_P.elements)
    assert {(f[a], f[b]) for a, b in P.label_pairs()} == set(M.poset_P.label_pairs())


def test_from_tables_b6_round_trip():
    # the tables of B6 give back B6, its irreducibles keeping their labels
    M = from_tables(*tables_of(birkhoff(antichain(list("pqrstu")))))
    assert M == birkhoff(antichain([f"{{{x}}}" for x in "pqrstu"]))


@st.composite
def closure_tables(draw, max_points=5):
    """The join/meet tables of a random family of subsets of at most 5
    points closed under intersection, with the full set: a lattice, often
    not distributive, with its elements in a drawn order. Half the time one
    entry is replaced by a drawn element or deleted with its mirror."""
    full = (1 << draw(st.integers(0, max_points))) - 1
    family = {full}
    for m in draw(st.lists(st.integers(0, full), max_size=8)):
        family |= {m & x for x in family}
    sets = draw(st.permutations(sorted(family)))
    elems = [f"e{i}" for i in range(len(sets))]
    label = dict(zip(sets, elems))

    def least_above(u):
        top = full
        for x in sets:
            if not u & ~x:
                top &= x
        return label[top]

    join = {(label[x], label[y]): least_above(x | y) for x in sets for y in sets}
    meet = {(label[x], label[y]): label[x & y] for x in sets for y in sets}
    if draw(st.booleans()):
        table = draw(st.sampled_from([join, meet]))
        a, b = draw(st.sampled_from(elems)), draw(st.sampled_from(elems))
        value = draw(st.sampled_from(elems + [None]))
        if value is None:
            table.pop((a, b))
            table.pop((b, a), None)
        else:
            table[a, b] = value
    return elems, join, meet


def outcome(build):
    try:
        return build()
    except (NotALattice, NotDistributive) as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(closure_tables())
def test_table_certificate_matches_the_axiom_oracle(tables):
    # the embedding into a ring of sets accepts the tables that every
    # lattice axiom and both distributive laws accept, with the same
    # lattice, and rejects the others with the same error class
    elems, join, meet = tables

    def lookup(table, what):
        def op(a, b):
            for key in ((a, b), (b, a)):
                if key in table:
                    return table[key]
            if a == b:
                return a
            raise NotALattice(f"{what} table is not total: missing ({a}, {b})")
        return op

    new = outcome(lambda: _table_lattice(elems, join, meet))
    old = outcome(lambda: from_ops(elems, lookup(join, "join"), lookup(meet, "meet")))
    assert type(new) is type(old)
    if not isinstance(new, Exception):
        assert new == old
        assert from_tables(elems, join, meet) == birkhoff(old.poset_P)
    elif isinstance(new, NotDistributive):
        # x ∧ (a ∨ b) = x, but (x ∧ a) ∨ (x ∧ b) is not x
        x, a, b = new.witness
        jn, mt = lookup(join, "join"), lookup(meet, "meet")
        assert mt(x, jn(a, b)) == x != jn(mt(x, a), mt(x, b))


@st.composite
def reordered_posets(draw, max_size=7):
    """A poset on at most 7 elements with its labels in a drawn order, so
    poset_P often lists them in another: the closure of random pairs."""
    n = draw(st.integers(1, max_size))
    labels = draw(st.permutations([f"p{i}" for i in range(n)]))
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
                          min_size=n // 2, max_size=2 * n))
    return random_poset_from_seed(list(labels), pairs)


@settings(max_examples=40, deadline=None)
@given(reordered_posets())
def test_birkhoff_matches_the_validated_set_lattice(P):
    # from_ops on union and intersection of the ideals runs every lattice
    # axiom and Birkhoff invariant; its irreducibles keep their ideal labels
    ideals = PairPoset(P.elements, pairs_of(P)).order_ideals()
    assume(len(ideals) <= 40)
    label = {s: "{" + ",".join(p for p in P.elements if p in s) + "}" for s in ideals}
    ideal = {x: s for s, x in label.items()}
    M = from_ops([label[s] for s in ideals],
                 lambda a, b: label[ideal[a] | ideal[b]],
                 lambda a, b: label[ideal[a] & ideal[b]])
    L = birkhoff(P)
    assert L.elements == M.elements
    assert L.masks == M.masks
    generator = {label[frozenset(q for q in P.elements if leq(P, q, p))]: p for p in P.elements}
    assert L.poset_P.elements == tuple(generator[x] for x in M.poset_P.elements)
    assert L.poset_P.below == M.poset_P.below
    assert diamond_pairs(L) == diamond_pairs_by_covers(M)
    assert maximal_chain_count(L) == maximal_chain_count(M)


# -- the extension guard -----------------------------------------------------


def test_extensions_are_counted_before_they_are_listed(monkeypatch):
    # the guard admits a lattice with MAX_EXTENSIONS extensions and refuses
    # one with more before linear_extensions runs
    monkeypatch.setattr(lattice, "MAX_EXTENSIONS", 6)
    assert len(birkhoff(antichain(["p", "q", "r"])).extensions()) == 6

    def forbidden(P):
        raise AssertionError("listed the extensions of a lattice past the guard")

    monkeypatch.setattr(lattice, "linear_extensions", forbidden)
    with pytest.raises(TooLarge, match="24 linear extensions"):
        birkhoff(antichain(["p", "q", "r", "s"])).extensions()


def test_refused_extensions_are_not_kept(monkeypatch):
    # a kept build that raises keeps nothing: past the cap every call is
    # refused again, and under a raised cap the next call lists them
    L = birkhoff(antichain(["p", "q", "r", "s"]))
    monkeypatch.setattr(lattice, "MAX_EXTENSIONS", 23)
    for _ in range(2):
        with pytest.raises(TooLarge, match="24 linear extensions"):
            L.extensions()
    assert L._memo == {}
    monkeypatch.setattr(lattice, "MAX_EXTENSIONS", 24)
    assert len(L.extensions()) == 24 and L.extensions() is L.extensions()


# -- diamond pairs -----------------------------------------------------------


def test_b2_one_diamond_pair():
    L = birkhoff(antichain(["p", "q"]))
    i = L.index
    assert diamond_pairs(L) == (DiamondPair(i("{p}"), i("{q}"), i("{}"), i("{p,q}")),)


def test_b3_six_diamond_pairs():
    L = birkhoff(antichain(["p", "q", "r"]))
    pairs = diamond_pairs(L)
    assert len(pairs) == 6
    # brute-force oracle straight from the cover definition
    expected = set()
    for a, b in itertools.combinations(L.elements, 2):
        if incomparable(L, a, b):
            m, j = meet_of(L, a, b), join_of(L, a, b)
            if (
                covers(L, a, j)
                and covers(L, b, j)
                and covers(L, m, a)
                and covers(L, m, b)
            ):
                expected.add((a, b))
    assert {(L.elements[d.a], L.elements[d.b]) for d in pairs} == expected


def test_chain_no_diamond_pairs():
    assert diamond_pairs(birkhoff(chain(["a", "b", "c"]))) == ()


@settings(max_examples=20, deadline=None)
@given(poset_strategy())
def test_diamond_indicator_identity(P):
    L = birkhoff(P)
    for d in diamond_pairs(L):
        a, b, m, j = (L.elements[i] for i in d)
        va, vb = indicator(L, a), indicator(L, b)
        vm, vj = indicator(L, m), indicator(L, j)
        assert tuple(x + y for x, y in zip(va, vb)) == tuple(
            x + y for x, y in zip(vm, vj)
        )
        assert L.height(a) == L.height(b)


# -- maximal chains ----------------------------------------------------------


def brute_maximal_chains(L):
    out = set()

    def walk(a, acc):
        ups = [b for b in L.elements if covers(L, a, b)]
        if not ups:
            out.add(tuple(acc))
            return
        for b in ups:
            walk(b, acc + [b])

    walk(L.bottom, [L.bottom])
    return out


def test_b2_two_chains():
    L = birkhoff(antichain(["p", "q"]))
    chains = maximal_chains(L)
    assert len(chains) == maximal_chain_count(L) == 2
    assert {c.elements for c in chains} == brute_maximal_chains(L)


def test_chain_lattice_single_chain():
    L = birkhoff(chain(["a", "b", "c"]))
    chains = maximal_chains(L)
    assert len(chains) == maximal_chain_count(L) == 1
    assert chains[0].elements == L.elements


def test_one_element_lattice_has_one_chain():
    assert maximal_chain_count(birkhoff(antichain([]))) == 1


def test_a_miscounted_extension_breaks_the_bijection(monkeypatch):
    # the path count over the covers is checked against the extension count
    L = birkhoff(antichain(["p", "q", "r"]))
    assert maximal_chain_count(L) == 6
    count = lattice._extension_count
    monkeypatch.setattr(lattice, "_extension_count", lambda L: count(L) + 1)
    with pytest.raises(AssertionError, match="chain/extension bijection failed"):
        maximal_chain_count(L)


@settings(max_examples=15, deadline=None)
@given(poset_strategy())
def test_chain_extension_bijection(P):
    L = birkhoff(P)
    chains = maximal_chains(L)
    assert len(chains) == len(list(linear_extensions(P))) == maximal_chain_count(L)
    assert {c.elements for c in chains} == brute_maximal_chains(L)
    for c in chains:
        assert len(c.elements) == P.size + 1
        # prefix ideals of the extension give back the chain
        prefix = set()
        assert iota(L, c.elements[0]) == frozenset()
        for p, a in zip(c.extension.order, c.elements[1:]):
            prefix.add(p)
            assert iota(L, a) == frozenset(prefix)


# -- sublattices -------------------------------------------------------------


def test_sublattice_same_order_is_everything():
    L = birkhoff(antichain(["p", "q"]))
    assert sublattice_for_order(L, antichain(["p", "q"])) == L.elements


def test_sublattice_chain_order():
    L = birkhoff(antichain(["p", "q"]))
    assert sublattice_for_order(L, chain(["p", "q"])) == ("{}", "{p}", "{p,q}")


def test_sublattice_linearization_of_grid_is_maximal_chain():
    L = birkhoff(GRID)
    members = sublattice_for_order(L, extension_poset(label_extensions(GRID)[0]))
    assert len(members) == 5
    assert tuple(members) in {c.elements for c in maximal_chains(L)}


def test_sublattice_not_stronger():
    L = birkhoff(chain(["p", "q"]))
    with pytest.raises(NotStronger):
        sublattice_for_order(L, antichain(["p", "q"]))


@settings(max_examples=15, deadline=None)
@given(poset_strategy())
def test_sublattice_closure_and_ideals(P):
    L = birkhoff(P)
    for ext in label_extensions(P)[:3]:
        members = sublattice_for_order(L, extension_poset(ext))
        ideals = {iota(L, a) for a in members}
        assert ideals == set(order_ideals(extension_poset(ext)))
        for a in members:
            for b in members:
                assert join_of(L, a, b) in members
                assert meet_of(L, a, b) in members


# -- invariants --------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(poset_strategy())
def test_height_equals_ideal_size(P):
    L = birkhoff(P)
    # longest-chain height by dynamic programming over the lattice order
    heights = {}
    for a in sorted(L.elements, key=L.height):
        lower = [heights[b] for b in L.elements if covers(L, b, a)]
        heights[a] = 1 + max(lower) if lower else 0
    for a in L.elements:
        assert heights[a] == L.height(a) == len(iota(L, a))
    assert max(heights.values()) + 1 == P.size + 1


def test_indicator_vectors():
    L = birkhoff(antichain(["p", "q"]))
    assert indicator(L, "{}") == (Fraction(0), Fraction(0))
    assert indicator(L, "{p}") == (Fraction(1), Fraction(0))
    assert indicator(L, "{p,q}") == (Fraction(1), Fraction(1))


def test_every_element_is_join_of_its_irreducibles():
    L = birkhoff(GRID)
    for a in L.elements:
        acc = L.bottom
        for p in iota(L, a):
            down = frozenset(q for q in GRID.elements if leq(GRID, q, p))
            acc = join_of(L, acc, iota_inv(L, down))
        assert acc == a


# -- text format -------------------------------------------------------------


def test_parse_lattice_poset_mode():
    text = "elem p\nelem q\n"
    L = parse_lattice(text)
    assert L.size == 4 and L.elements == ("{}", "{p}", "{q}", "{p,q}")


def test_parse_lattice_tables_mode():
    # the file's labels hold no comma or brace, so they cannot be B2's own
    lines = []
    L = birkhoff(antichain(["p", "q"]))
    name = dict(zip(L.elements, ["bot", "p", "q", "top"]))
    for a in L.elements:
        lines.append(f"elem {name[a]}")
    for a in L.elements:
        for b in L.elements:
            lines.append(f"join {name[a]} {name[b]} {name[join_of(L, a, b)]}")
            lines.append(f"meet {name[a]} {name[b]} {name[meet_of(L, a, b)]}")
    M = parse_lattice("\n".join(lines))
    assert M.size == 4
    assert set(M.poset_P.elements) == {"p", "q"}


def test_format_lattice_round_trip():
    # the poset file of poset_P reloads as the same lattice
    L = birkhoff(GRID)
    P = L.poset_P
    text = "".join([f"elem {x}\n" for x in P.elements]
                   + [f"cover {a} {b}\n" for a, b in P.covers()])
    M = parse_lattice(text)
    assert M.elements == L.elements
    assert M.poset_P == P


def test_parse_lattice_bad_line():
    with pytest.raises(ValueError):
        parse_lattice("join a b\n")


def test_unknown_label_rejected():
    L = birkhoff(antichain(["p", "q"]))
    with pytest.raises(UnknownLabel):
        join_of(L, "{p}", "{zz}")
