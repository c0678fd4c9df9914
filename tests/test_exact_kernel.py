"""The integer-preserving pivot kernel against its rational oracles.

tests/fraction_oracle.py keeps the Fraction simplex and Gauss-Jordan
elimination that the kernel replaced. On random rational LPs of each hard
case the kernel must return the same (status, y, value) after the same
number of pivots, which means it walked the same Bland pivot sequence;
the reduced row echelon form and the kernel basis must agree with sympy.
The work counts of two cone jobs are pinned, so a change that alters the
pivot sequence anywhere on them fails here.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from hibikit import exactgeom
from hibikit.cli import main
from fraction_oracle import vdot
from hibikit.exactgeom import _echelon, _int_rows, nullspace, rank, solve_eq_nonneg, solve_linear

RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-4, max_value=4, max_denominator=3))
NONNEG = st.sampled_from([Fraction(0), Fraction(0), Fraction(0), Fraction(1),
                          Fraction(1, 2), Fraction(5, 3)])


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
    return [[draw(RATIONALS) for _ in range(n)] for _ in range(m)]


def combine(draw, rows, rhs):
    """A rational combination of the rows and the same combination of rhs."""
    lam = [draw(RATIONALS) for _ in rows]
    row = [sum((l * r[j] for l, r in zip(lam, rows)), Fraction(0)) for j in range(len(rows[0]))]
    return row, sum((l * x for l, x in zip(lam, rhs)), Fraction(0))


@st.composite
def lps(draw, kind):
    """A random LP max c.y, A y = b, y >= 0 of the given kind."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    A = matrix(draw, m, n)
    c = [draw(RATIONALS) for _ in range(n)]
    y0 = [draw(NONNEG) for _ in range(n)]
    b = [vdot(row, y0) for row in A]  # feasible, with many zero entries
    if kind == "degenerate":
        # y0 on one coordinate, and rows blind to it, so many rhs are zero
        k = draw(st.integers(0, n - 1))
        y0 = [draw(NONNEG) if j == k else Fraction(0) for j in range(n)]
        for i in draw(st.sets(st.integers(0, m - 1))):
            A[i][k] = Fraction(0)
        b = [vdot(row, y0) for row in A]
    elif kind == "redundant":
        for _ in range(draw(st.integers(1, 3))):
            row, rhs = combine(draw, A, b)
            at = draw(st.integers(0, len(A)))
            A.insert(at, row)
            b.insert(at, rhs)
    elif kind == "infeasible":
        row, rhs = combine(draw, A, b)
        A.append(row)
        b.append(rhs + draw(st.sampled_from([-1, Fraction(1, 2), 2])))
    elif kind == "unbounded":
        # a column opposite to column k: e_k + e_new is a recession
        # direction of positive cost
        k = draw(st.integers(0, n - 1))
        for row in A:
            row.append(-row[k])
        y0.append(Fraction(0))
        c.append(-c[k] + draw(st.fractions(min_value=Fraction(1, 3), max_value=3,
                                           max_denominator=3)))
    elif kind == "negative_rhs":
        b = [draw(st.fractions(min_value=-4, max_value=0, max_denominator=3)) for _ in A]
        b[draw(st.integers(0, m - 1))] = draw(st.sampled_from([-1, Fraction(-2, 3)]))
    return A, b, c


EXPECTED = {"degenerate": {"optimal", "unbounded"}, "redundant": {"optimal", "unbounded"},
            "infeasible": {"infeasible"}, "unbounded": {"unbounded"},
            "negative_rhs": {"optimal", "unbounded", "infeasible"}}


@pytest.mark.parametrize("kind", sorted(EXPECTED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lp_matches_fraction_oracle(kind, data):
    A, b, c = data.draw(lps(kind))
    with counting_pivots() as count:
        got = solve_eq_nonneg(A, b, c)
    status, y, value, pivots = oracle.solve_eq_nonneg(A, b, c)
    assert got == (status, y, value)
    assert count[0] == pivots
    assert status in EXPECTED[kind]
    if y is not None:
        assert all(type(x) is Fraction for x in got[1])
    if value is not None:
        assert type(got[2]) is Fraction


def test_lp_with_no_rows():
    assert solve_eq_nonneg([], [], [0, 0]) == ("optimal", [0, 0], 0)
    assert solve_eq_nonneg([], [], [0, Fraction(1, 2)])[0] == "unbounded"


def to_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_matches_sympy(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 6))
    rows = matrix(data.draw, m, n)
    for i in data.draw(st.sets(st.integers(0, m - 1), max_size=2)):
        rows[i] = [Fraction(0)] * n
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    M, D, pivots = _echelon(rows)
    red = [[Fraction(x, D) for x in row] for row in M]
    want, want_pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]).rref()
    assert tuple(pivots) == want_pivots
    assert red == [[to_fraction(want[i, j]) for j in range(n)] for i in range(len(pivots))]
    assert (red, pivots) == oracle.rref(rows)
    assert rank(rows) == len(want_pivots)
    kernel = [[to_fraction(x) for x in v] for v in sympy.Matrix(rows).nullspace()]
    assert oracle.nullspace(rows) == kernel
    # the integer kernel is the same basis, each vector made a primitive integer row
    assert nullspace(rows) == _int_rows(kernel)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_linear_matches_fraction_oracle(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    rows = matrix(data.draw, m, n)
    rhs = [data.draw(RATIONALS) for _ in range(m)]
    red, pivots = oracle.rref([row + [x] for row, x in zip(rows, rhs)])
    if n in pivots:
        want = None
    else:
        want = [Fraction(0)] * n
        for row, p in zip(red, pivots):
            want[p] = row[n]
    assert solve_linear(rows, rhs) == want


# -- pinned work counts --------------------------------------------------------

# cone_K and enumerate_faces solve no LP; a keyed job solves one closure LP
# per pair off its key
WORK = [("cone --boolean 3", 0, 0), ("cone --grassmann 2 5", 0, 0),
        ('subdivide --grassmann 2 5 --face [["14","23"]]', 2, 9),
        ('weightpoly --boolean 3 --face [["{p,q}","{p,r}"]]', 5, 44)]


@pytest.mark.parametrize("argv, solves, pivots", WORK, ids=[a for a, _, _ in WORK])
def test_simplex_work_counts(argv, solves, pivots, monkeypatch, capsys):
    """LP solves and simplex pivots (drive-out pivots included) of a job."""
    counts = {"solves": 0, "pivots": 0}
    inside = [False]
    solve, step = exactgeom.solve_eq_nonneg, exactgeom._pivot

    def counting_solve(A, b, c):
        counts["solves"] += 1
        inside[0] = True
        try:
            return solve(A, b, c)
        finally:
            inside[0] = False

    def counting_pivot(*args):
        counts["pivots"] += inside[0]
        return step(*args)

    monkeypatch.setattr(exactgeom, "solve_eq_nonneg", counting_solve)
    monkeypatch.setattr(exactgeom, "_pivot", counting_pivot)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert counts == {"solves": solves, "pivots": pivots}


# the keyed job solves the closure LPs of its key; LPs over rational data,
# whose denominators the kernel clears with one global scale, are covered by
# the hypothesis LPs above
REPLAY = ['subdivide --grassmann 2 5 --face [["14","23"]]']


@pytest.mark.parametrize("argv", REPLAY, ids=REPLAY)
def test_job_lps_match_fraction_oracle(argv, monkeypatch, capsys):
    """Every LP a job solves gets the oracle's answer after as many pivots."""
    solve = exactgeom.solve_eq_nonneg
    solved = []

    def checked_solve(A, b, c):
        with counting_pivots() as count:
            got = solve(A, b, c)
        status, y, value, pivots = oracle.solve_eq_nonneg(A, b, c)
        assert got == (status, y, value)
        assert count[0] == pivots
        solved.append(status)
        return got

    monkeypatch.setattr(exactgeom, "solve_eq_nonneg", checked_solve)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert solved
