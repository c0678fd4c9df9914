"""The integer-preserving pivot kernel against its rational oracles.

tests/fraction_oracle.py keeps the Fraction simplex and Gauss-Jordan
elimination that the kernel replaced. On random integer systems of each
hard case, lp_feasible must reach the point that the oracle's simplex
reaches on the same tableau with c = 0 after as many pivots, which means
it walked the same Bland pivot sequence, and return None exactly when the
oracle finds the system infeasible; the reduced row echelon form and the
kernel basis must agree with sympy. The work counts of two cone jobs and
three keyed jobs are pinned, so a change that alters the pivot sequence
anywhere on them fails here.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from hibikit import cone, exactgeom
from hibikit.cli import main
from hibikit.exactgeom import _echelon, lp_feasible, nullspace, rank

INTS = st.integers(-3, 3)


@contextmanager
def counting_pivots():
    """Count calls of the kernel's pivot step while the block runs."""
    count = [0]
    step = exactgeom._pivot

    def pivot(*args):
        count[0] += 1
        return step(*args)

    exactgeom._pivot = pivot
    try:
        yield count
    finally:
        exactgeom._pivot = step


def matrix(draw, m, n):
    return [[draw(INTS) for _ in range(n)] for _ in range(m)]


def dot(a, x):
    return sum(c * y for c, y in zip(a, x, strict=True))


@st.composite
def systems(draw, kind):
    """A random system for lp_feasible of the given kind: (equalities,
    rows, n) for a.x = 0 and a.x >= r on n unknowns."""
    n = draw(st.integers(1, 4))
    normals = matrix(draw, draw(st.integers(1, 4)), n)
    equalities = matrix(draw, draw(st.integers(0, 2)), n)
    if kind == "degenerate":
        # every row tight at a point with many zero coordinates
        x0 = [draw(st.sampled_from([0, 0, 0, 1, -2])) for _ in range(n)]
        return [], [(a, dot(a, x0)) for a in normals], n
    if kind == "redundant":
        # repeated and combined equalities leave artificials basic at 0
        # when phase 1 ends; the origin is feasible
        for _ in range(draw(st.integers(1, 3))):
            lam = [draw(INTS) for _ in equalities]
            row = [sum(l * e[j] for l, e in zip(lam, equalities)) for j in range(n)]
            equalities.insert(draw(st.integers(0, len(equalities))), row)
        return equalities, [(a, draw(st.integers(-3, 0))) for a in normals], n
    if kind == "infeasible":
        # a nonnegative combination of the rows, contradicted
        rows = [(a, draw(st.integers(-3, 3))) for a in normals]
        lam = [draw(st.integers(0, 2)) for _ in rows]
        total = [sum(l * a[j] for l, (a, _) in zip(lam, rows)) for j in range(n)]
        bound = sum(l * r for l, (_, r) in zip(lam, rows))
        rows.append(([-x for x in total], -bound + draw(st.integers(1, 2))))
        return equalities, rows, n
    if kind == "negative_rhs":
        rhs = [draw(st.integers(-4, 0)) for _ in normals]
        rhs[draw(st.integers(0, len(rhs) - 1))] = draw(st.integers(-4, -1))
        return equalities, list(zip(normals, rhs)), n
    # "unbounded": a closure LP's shape, a cone's rows with one pair made
    # slack at least 1, so any feasible set is an unbounded cone section
    k = draw(st.integers(0, len(normals) - 1))
    return equalities, [(a, int(i == k)) for i, a in enumerate(normals)], n


# whether each kind may be feasible
EXPECTED = {"degenerate": {True}, "redundant": {True}, "infeasible": {False},
            "negative_rhs": {True}, "unbounded": {True, False}}


@pytest.mark.parametrize("kind", sorted(EXPECTED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lp_matches_fraction_oracle(kind, data):
    equalities, rows, n = data.draw(systems(kind))
    with counting_pivots() as count:
        got = lp_feasible(equalities, rows, n)
    want, pivots = oracle.phase1_point(equalities, rows, n)
    assert count[0] == pivots
    assert (got is not None) == (want is not None)
    assert (want is not None) in EXPECTED[kind]
    if got is not None:
        x, den = got
        assert all(type(v) is int for v in (*x, den)) and den > 0
        assert tuple(Fraction(v, den) for v in x) == want


def test_lp_with_no_rows():
    assert lp_feasible([], [], 2) == ((0, 0), 1)
    assert lp_feasible([[1, -1]], [], 2) == ((0, 0), 1)


def test_lp_reads_the_point_where_an_artificial_stays_basic():
    # phase 1 ends with an artificial basic at 0 on this system; the
    # solver once pivoted it out, which moved no point: (-1/5, -2/5) over
    # den 5 either way, after as many phase-1 pivots as the oracle's
    equalities, rows = [[-2, 1]], [([-1, -2], 1), ([1, 2], -1), ([-1, -2], 1)]
    with counting_pivots() as count:
        assert lp_feasible(equalities, rows, 2) == ((-1, -2), 5)
    assert oracle.phase1_point(equalities, rows, 2) == ((Fraction(-1, 5), Fraction(-2, 5)),
                                                        count[0])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_phase_one_objective_row_is_the_sum_of_the_artificial_rows(data):
    # the objective row is pivoted with the others and never summed again,
    # and _run_simplex argues, with no check, that it stays the sum of the
    # rows whose artificial is basic: so it is when phase 1 ends, on every
    # kind of system
    equalities, rows, n = data.draw(systems(data.draw(st.sampled_from(sorted(EXPECTED)))))
    ends = []
    run = exactgeom._run_simplex

    def checked(M, D, basis, n):
        D = run(M, D, basis, n)
        z = M[-1]
        artificial = [row for row, b in zip(M, basis) if b >= len(z) - 1 + n]
        ends.append(z == ([sum(col) for col in zip(*artificial)] if artificial else [0] * len(z)))
        return D

    exactgeom._run_simplex = checked
    try:
        lp_feasible(equalities, rows, n)
    finally:
        exactgeom._run_simplex = run
    assert ends == [True]


def to_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_matches_sympy(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 6))
    rows = matrix(data.draw, m, n)
    for i in data.draw(st.sets(st.integers(0, m - 1), max_size=2)):
        rows[i] = [0] * n
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    M, D, pivots = _echelon(rows)
    red = [[Fraction(x, D) for x in row] for row in M]
    want, want_pivots = sympy.Matrix(rows).rref()
    assert tuple(pivots) == want_pivots
    assert red == [[to_fraction(want[i, j]) for j in range(n)] for i in range(len(pivots))]
    assert (red, pivots) == oracle.rref(rows)
    assert rank(rows) == len(want_pivots)
    kernel = [[to_fraction(x) for x in v] for v in sympy.Matrix(rows).nullspace()]
    assert oracle.nullspace(rows) == kernel
    # the integer kernel is the same basis, each vector made a primitive integer row
    assert nullspace(rows, n) == oracle.int_rows(kernel)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_linear_matches_fraction_oracle(data):
    # weightpoly's span check: b lies in the span of the rows iff adding it
    # keeps the integer rank, iff the oracle solves sum_i x_i rows[i] = b
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    rows = matrix(data.draw, m, n)
    if data.draw(st.booleans()):
        lam = [data.draw(INTS) for _ in rows]
        b = [sum(l * row[j] for l, row in zip(lam, rows)) for j in range(n)]
    else:
        b = [data.draw(INTS) for _ in range(n)]
    x = oracle.solve_linear([list(col) for col in zip(*rows)], b)
    assert (rank([*rows, b]) == rank(rows)) == (x is not None)
    if x is not None:
        assert [sum(c * row[j] for c, row in zip(x, rows)) for j in range(n)] == b


# -- pinned work counts --------------------------------------------------------

# cone_K and enumerate_faces solve no LP; a keyed job solves one closure LP
# per pair off its key
WORK = [("cone --boolean 3", 0, 0), ("cone --grassmann 2 5", 0, 0),
        ('subdivide --grassmann 2 5 --face [["14","23"]]', 2, 9),
        ('weightpoly --boolean 3 --face [["{p,q}","{p,r}"]]', 5, 44),
        ('subdivide --boolean 4 --face [["{p}","{q}"]]', 23, 1422)]


@pytest.mark.parametrize("argv, solves, pivots", WORK, ids=[a for a, _, _ in WORK])
def test_simplex_work_counts(argv, solves, pivots, monkeypatch, capsys):
    """LP solves and phase-1 simplex pivots of a job, counted through
    lp_feasible, which cone calls for its closure LPs."""
    counts = {"solves": 0, "pivots": 0}
    inside = [False]
    solve, step = cone.lp_feasible, exactgeom._pivot

    def counting_solve(*args):
        counts["solves"] += 1
        inside[0] = True
        try:
            return solve(*args)
        finally:
            inside[0] = False

    def counting_pivot(*args):
        counts["pivots"] += inside[0]
        return step(*args)

    monkeypatch.setattr(cone, "lp_feasible", counting_solve)
    monkeypatch.setattr(exactgeom, "_pivot", counting_pivot)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert counts == {"solves": solves, "pivots": pivots}


# the keyed jobs solve the closure LPs of their keys
REPLAY = ['subdivide --grassmann 2 5 --face [["14","23"]]',
          'subdivide --boolean 4 --face [["{p}","{q}"]]']


@pytest.mark.parametrize("argv", REPLAY, ids=REPLAY)
def test_job_lps_match_fraction_oracle(argv, monkeypatch, capsys):
    """Every LP a job solves gets the oracle's answer after as many pivots."""
    solve = cone.lp_feasible
    solved = []

    def checked_solve(equalities, rows, n):
        with counting_pivots() as count:
            got = solve(equalities, rows, n)
        want, pivots = oracle.phase1_point(equalities, rows, n)
        assert count[0] == pivots
        if want is None:
            assert got is None
        else:
            x, den = got
            assert tuple(Fraction(v, den) for v in x) == want
        solved.append(want is not None)
        return got

    monkeypatch.setattr(cone, "lp_feasible", checked_solve)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert solved
