from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrikit import linalg
from quadrikit.linalg import PointRows
from quadrikit.polyalg import (
    Poly,
    PolyError,
    Ring,
    fraction_free_rref,
)

_settings = settings(max_examples=60, deadline=None, derandomize=True)

_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
# mostly zero, as the verifiers' sample-point matrices are; some plain ints
_entries = st.one_of(st.just(Fraction(0)), st.just(0), st.integers(-9, 9), _rationals)


@st.composite
def _sparse_matrices(draw):
    """0-40 rational rows of 1-12 columns, with zero rows, repeated rows and
    rational combinations of earlier rows mixed in."""
    ncols = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero":
            row = [Fraction(0)] * ncols
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combination" and rows:
            picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
            coeffs = [draw(_rationals) for _ in picks]
            row = [
                sum(c * Fraction(rows[i][j]) for c, i in zip(coeffs, picks))
                for j in range(ncols)
            ]
        else:
            row = [draw(_entries) for _ in range(ncols)]
        rows.append(row)
    return rows


R0 = Ring(())


def _reference_pivots(rows):
    """Pivot columns of the reduced row echelon form over Q, from
    `polyalg.fraction_free_rref` on the term maps of constant polynomials:
    an elimination independent of `linalg.Echelon`."""
    rows = [[R0.const(Fraction(x)) for x in row] for row in rows]
    return fraction_free_rref([{j: p.terms for j, p in enumerate(row)} for row in rows])[1]


def _greedy_rows(rows):
    """Indices a rank-from-scratch greedy loop keeps: each row that raises
    the rank of the rows kept before it."""
    kept, kept_rows = [], []
    for idx, row in enumerate(rows):
        if len(_reference_pivots(kept_rows + [row])) > len(kept):
            kept.append(idx)
            kept_rows.append(row)
    return kept


def _kernel(rows, ncols):
    """`Echelon.kernel` of the echelon that the rows were added to."""
    echelon = linalg.Echelon()
    for row in rows:
        echelon.add(row)
    return echelon.kernel(ncols)


def _sympy_matrix(rows):
    sympy = pytest.importorskip("sympy")
    fractions = [[Fraction(x) for x in row] for row in rows]
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in fractions]
    )


@_settings
@given(_sparse_matrices())
def test_q_rank_matches_rref_and_transpose(rows):
    rank = linalg.q_rank(rows)
    pivots = _reference_pivots(rows)
    assert rank == len(pivots)
    echelon = linalg.Echelon()
    for row in rows:
        echelon.add(row)
    assert echelon.pivots == pivots
    if rows:
        assert rank == linalg.q_rank([list(col) for col in zip(*rows)])


@_settings
@given(_sparse_matrices().filter(bool))
def test_q_rank_matches_sympy(rows):
    assert linalg.q_rank(rows) == _sympy_matrix(rows).rank()


def test_q_rank_empty_and_zero():
    assert linalg.q_rank([]) == 0
    assert linalg.q_rank([[0, Fraction(0)], [Fraction(0), 0]]) == 0
    assert linalg.q_rank([[Fraction(1, 3), Fraction(2, 3)], [1, 2], [2, 4]]) == 1


@_settings
@given(_sparse_matrices())
def test_echelon_keeps_the_greedy_rows(rows):
    echelon = linalg.Echelon()
    kept = [idx for idx, row in enumerate(rows) if echelon.add(row)]
    assert kept == _greedy_rows(rows)
    assert echelon.rank == len(kept) == linalg.q_rank(rows)


def test_echelon_pivots_kernel_and_solve_unchanged():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(7)]]
    echelon = linalg.Echelon()
    for row in rows:
        echelon.add(row)
    assert echelon.pivots == [0, 2]
    assert echelon.kernel(3) == [[-2, 1, 0]]
    assert all(isinstance(x, Fraction) for x in echelon.kernel(3)[0])
    # A x = b with the free variable 0: the kernel vector of the column -b
    augmented = [row + [-b] for row, b in zip(rows, [Fraction(1), Fraction(3)])]
    assert _kernel(augmented, 4)[-1] == [-2, 0, 1, 1]


def test_q_nullspace_of_no_rows_is_the_identity():
    assert linalg.Echelon().pivots == []
    assert _kernel([], 0) == []
    assert _kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _kernel([[0, Fraction(0)]], 2) == [[1, 0], [0, 1]]


@_settings
@given(_sparse_matrices().filter(bool))
def test_q_nullspace_matches_sympy(rows):
    """sympy's nullspace is the same canonical basis: one vector per free
    column in ascending order, 1 there and 0 on the other free columns."""
    expected = [
        [Fraction(int(x.p), int(x.q)) for x in vec] for vec in _sympy_matrix(rows).nullspace()
    ]
    assert _kernel(rows, len(rows[0])) == expected


# -- one-pass evaluation of a row set ------------------------------------------

ABC = Ring(("a", "b", "c"))

_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), _rationals.filter(bool), max_size=3
).map(lambda terms: Poly(ABC, terms))
_points = st.fixed_dictionaries(
    {v: st.one_of(st.integers(-9, 9), _rationals) for v in ABC.variables}
)
_int_points = st.fixed_dictionaries({v: st.integers(-9, 9) for v in ABC.variables})
_multipliers = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)]), _rationals.filter(bool)
)


@st.composite
def _poly_row_sets(draw):
    """0-12 dense rows of 0-4 polynomials: random rows, zero rows, nonzero
    rational multiples of earlier rows (negated and halved among them),
    earlier rows times a variable, and rows with entries that vanish at
    some points."""
    ncols = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random", "zero", "multiple", "shifted", "vanishing"]))
        if kind == "zero":
            row = [ABC.zero()] * ncols
        elif kind == "multiple" and rows:
            c = draw(_multipliers)
            row = [p * c for p in draw(st.sampled_from(rows))]
        elif kind == "shifted" and rows:
            # the same coefficients on other monomials: not a multiple
            v = ABC.var(draw(st.sampled_from(ABC.variables)))
            row = [p * v for p in draw(st.sampled_from(rows))]
        elif kind == "vanishing" and rows:
            point = draw(_int_points)
            row = [p - p.evaluate(point) for p in draw(st.sampled_from(rows))]
        else:
            row = draw(st.lists(_polys, min_size=ncols, max_size=ncols))
        rows.append(row)
    return rows


def _term_rows(rows):
    """Rows of Poly as the sparse rows of term maps that `PointRows` takes,
    zero entries included."""
    return [dict(enumerate(p.terms for p in row)) for row in rows]


def _multiple_of(row, earlier):
    """True when `row` is c * `earlier` for a nonzero rational c."""
    pairs = [(p, q) for p, q in zip(row, earlier) if q]
    if not pairs:
        return False
    p, q = pairs[0]
    m = next(iter(q.terms))
    c = Fraction(p.terms.get(m, 0)) / q.terms[m]
    return c != 0 and all(p == q * c for p, q in zip(row, earlier))


@_settings
@given(_poly_row_sets(), st.one_of(_int_points, _points))
def test_point_rows_match_poly_evaluate(rows, point):
    prepared = PointRows(ABC, _term_rows(rows))
    # the first row of each class of nonzero rows equal up to a constant
    first = [
        next(j for j in range(i + 1) if _multiple_of(row, rows[j]))
        for i, row in enumerate(rows)
        if any(row)
    ]
    assert prepared.kept == sorted(set(first))
    assert all(any(rows[i]) for i in prepared.kept)
    values = prepared.at(ABC.point(point))
    assert len(values) == len(prepared.kept)
    integral = all(Fraction(x).denominator == 1 for x in point.values())
    for i, row in zip(prepared.kept, values):
        expected = {c: p.evaluate(point) for c, p in enumerate(rows[i]) if p.evaluate(point)}
        assert set(row) == set(expected)
        assert all(isinstance(x, int if integral else (int, Fraction)) for x in row.values())
        # one positive rational multiple of the row's values
        ratios = {Fraction(x) / expected[c] for c, x in row.items()}
        assert len(ratios) <= 1 and all(r > 0 for r in ratios)
    # the same rows without their zero entries
    sparse = PointRows(ABC, [{c: p.terms for c, p in enumerate(row) if p} for row in rows])
    assert sparse.kept == prepared.kept
    assert sparse.at(ABC.point(point)) == values
    # kept rows selected in any order give their own values, with `kept` from 0
    chosen = list(range(len(prepared.kept)))[::-2]
    selected = prepared.select(chosen)
    assert selected.kept == list(range(len(chosen)))
    assert selected.at(ABC.point(point)) == [values[k] for k in chosen]


@_settings
@given(_poly_row_sets(), _int_points, _points)
def test_point_rows_scale_is_independent_of_the_point(rows, p1, p2):
    """A kept row's multiple is fixed when it is prepared, not per point."""
    prepared = PointRows(ABC, _term_rows(rows))
    rows1, rows2 = prepared.at(ABC.point(p1)), prepared.at(ABC.point(p2))
    for i, r1, r2 in zip(prepared.kept, rows1, rows2):
        ratios = {
            Fraction(x) / rows[i][c].evaluate(p)
            for p, r in ((p1, r1), (p2, r2))
            for c, x in r.items()
        }
        assert len(ratios) <= 1


@st.composite
def _blocks(draw):
    """Dense rows of Poly over Q[a, b, c]: constant ones, the rational rows
    of `_sparse_matrices`, or rows with variables, from `_poly_row_sets`."""
    if draw(st.booleans()):
        return [[ABC.const(x) for x in row] for row in draw(_sparse_matrices())]
    return draw(_poly_row_sets())


@_settings
@given(_blocks(), _blocks(), st.lists(_int_points, min_size=3, max_size=3))
def test_memoized_block_ranks_match_a_fresh_elimination(first_rows, second_rows, points):
    """A block is constant when no entry has a variable.  At every point the
    ranks a constant block keeps equal `q_rank` of the block's rows and the
    ranks of a fresh echelon of two blocks stacked, in either order, and a
    block with a variable keeps nothing."""
    blocks = []
    for rows in (first_rows, second_rows):
        block = PointRows(ABC, _term_rows(rows))
        assert block.constant == all(not any(m) for row in rows for p in row for m in p.terms)
        blocks.append(block)
    for point in points:
        vals = ABC.point(point)
        for block in blocks:
            assert block.rank(vals) == linalg.q_rank(block.at(vals))
        first, second = blocks
        for a, b in ((first, second), (second, first)):
            echelon = linalg.Echelon()
            r_a, r_stack = echelon.extend(a.at(vals)), echelon.extend(b.at(vals))
            expected = r_a, linalg.q_rank(b.at(vals)), r_stack
            assert a.stacked_ranks(vals, b) == expected
    for block in blocks:
        assert block.constant or not block._ranks
        assert all(key is None or key.constant for key in block._ranks)


def test_point_rows_rejects_unknown_and_missing_variables():
    """`PointRows.at` reads a point as `Ring.point` resolves it: a name that
    is not a variable raises there, and a variable without a value raises
    only where it occurs."""
    a = Poly(ABC, {(1, 0, 0): Fraction(1)})
    b = Poly(ABC, {(0, 1, 0): Fraction(1)})
    with pytest.raises(PolyError, match="unknown variable 'z'"):
        PointRows(ABC, [{0: {}}]).at(ABC.point({"a": 1, "b": 1, "c": 1, "z": 1}))
    with pytest.raises(PolyError, match="unknown variable 'z'"):
        a.evaluate({"a": 1, "z": 1})
    at_a2 = ABC.point({"a": 2})
    assert PointRows(ABC, [{0: a.terms, 1: {}}]).at(at_a2) == [{0: 2}]
    assert PointRows(ABC, [{0: {}}, {0: {}, 1: (a * 3).terms}]).at(at_a2) == [{1: 2}]
    with pytest.raises(PolyError, match="no value for variable 'b'"):
        PointRows(ABC, [{0: a.terms, 1: b.terms}]).at(at_a2)
    with pytest.raises(PolyError, match="no value for variable 'b'"):
        PointRows(ABC, [{3: a.terms}, {0: (a * b).terms}]).at(at_a2)
    # the first variable without a value, in row, column and term order
    c = Poly(ABC, {(0, 0, 1): Fraction(1)})
    with pytest.raises(PolyError, match="no value for variable 'b'"):
        PointRows(ABC, [{0: {}, 1: b.terms}, {0: c.terms}]).at(at_a2)



_constants = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction), _rationals)


@st.composite
def _mixed_row_sets(draw):
    """0-12 dense rows of 1-4 polynomials: constant rows (rational
    constants, some zero), rows with a base variable, zero rows, and
    negated or rational multiples of earlier rows."""
    ncols = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["constant", "varying", "zero", "negated", "multiple"]))
        if kind == "zero":
            row = [ABC.zero()] * ncols
        elif kind in ("negated", "multiple") and rows:
            c = Fraction(-1) if kind == "negated" else draw(_rationals.filter(bool))
            row = [p * c for p in draw(st.sampled_from(rows))]
        elif kind == "varying":
            row = [draw(_polys) for _ in range(ncols)]
        else:
            row = [ABC.const(draw(_constants)) for _ in range(ncols)]
        rows.append(row)
    return rows


def _is_constant(row):
    return all(not any(m) for p in row for m in p.terms)


@_settings
@given(_mixed_row_sets(), st.one_of(_int_points, _points))
def test_point_rows_mixed_constant_and_varying_rows(rows, point):
    """Constant rows stored as int rows beside rows with a base variable:
    `kept` keeps the first row of each class of nonzero rows equal up to a
    constant; at integral and rational points every kept row is a positive
    multiple of its `Poly.evaluate` values, a constant one an int row; and
    the ranks and pivots are those of the raw evaluations of every row."""
    prepared = PointRows(ABC, _term_rows(rows))
    first = [
        next(j for j in range(i + 1) if _multiple_of(row, rows[j]))
        for i, row in enumerate(rows)
        if any(row)
    ]
    assert prepared.kept == sorted(set(first))
    assert prepared.constant == all(_is_constant(rows[i]) for i in prepared.kept)
    values = prepared.at(ABC.point(point))
    assert len(values) == len(prepared.kept)
    for i, row in zip(prepared.kept, values):
        expected = {c: p.evaluate(point) for c, p in enumerate(rows[i]) if p.evaluate(point)}
        assert set(row) == set(expected)
        if _is_constant(rows[i]):
            assert all(type(x) is int for x in row.values())
        ratios = {Fraction(x) / expected[c] for c, x in row.items()}
        assert len(ratios) <= 1 and all(r > 0 for r in ratios)
    raw, prepared_echelon = linalg.Echelon(), linalg.Echelon()
    raw.extend([[p.evaluate(point) for p in row] for row in rows])
    prepared_echelon.extend(values)
    assert prepared_echelon.rank == raw.rank
    assert prepared_echelon.pivots == raw.pivots
    chosen = list(range(len(prepared.kept)))[::-2]
    assert prepared.select(chosen).at(ABC.point(point)) == [values[k] for k in chosen]


def test_constant_rows_are_never_evaluated(monkeypatch):
    """A constant block's `at` evaluates no monomial and returns its stored
    rows at any two points; a mixed block evaluates only its varying rows' monomials
    (here none of degree 0) and passes its constant rows through."""
    evaluated = []
    monomial_value = linalg._monomial_value

    def counted(ring, m, vals):
        evaluated.append(m)
        return monomial_value(ring, m, vals)

    monkeypatch.setattr(linalg, "_monomial_value", counted)
    one, a = ABC.const(Fraction(1, 2)), ABC.var("a")
    constant_rows = [{0: one.terms, 2: (one * -4).terms}, {1: (one * 6).terms}]
    block = PointRows(ABC, constant_rows)
    p1, p2 = ABC.point({"a": 1, "b": 2, "c": 3}), ABC.point({"a": Fraction(1, 3)})
    assert block.constant
    assert block.at(p1) == block.at(p2) == [{0: 1, 2: -4}, {1: 1}]
    assert block.at(p1) is block.at(p2)  # the stored rows, not a copy
    assert block.select([1]).at(p1) == [{1: 1}]
    assert evaluated == []
    mixed = PointRows(ABC, [constant_rows[0], {0: (a * 2).terms, 1: (a * a).terms}])
    assert not mixed.constant
    assert mixed.at(p1) == [{0: 1, 2: -4}, {0: 2, 1: 1}]
    assert evaluated and all(any(m) for m in evaluated)
    assert mixed.select([0]).constant


@_settings
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _rationals.filter(bool), max_size=8),
    st.one_of(_int_points, _points),
)
def test_evaluate_terms_matches_fraction_sum(terms, point):
    """Coefficients with mixed denominators, at integral and rational points."""
    x = [Fraction(point[v]) for v in ABC.variables]
    expected = Fraction(0)
    for m, c in terms.items():
        expected += c * x[0] ** m[0] * x[1] ** m[1] * x[2] ** m[2]
    value = Poly(ABC, terms).evaluate(point)
    assert isinstance(value, Fraction)
    assert value == expected


@_settings
@given(_sparse_matrices())
def test_echelon_sparse_rows_match_dense_rows(rows):
    ncols = len(rows[0]) if rows else 0
    dense = linalg.Echelon()
    kept = [dense.add(row) for row in rows]
    for sparse_rows in (
        [{c: x for c, x in enumerate(row) if x} for row in rows],
        [dict(enumerate(row)) for row in rows],  # explicit zeros are dropped
    ):
        sparse = linalg.Echelon()
        assert [sparse.add(row) for row in sparse_rows] == kept
        assert sparse.rank == dense.rank
        assert sparse.pivots == dense.pivots
        assert sparse.kernel(ncols) == dense.kernel(ncols)


def test_echelon_dict_rows_are_never_mutated():
    """Dict rows holding Fractions, explicit zeros and a non-primitive int
    row give the ranks, pivots and kernel of their dense forms.  A primitive
    row of nonzero ints is stored as the dict passed in, and no row dict,
    kept or not, is changed by later rows or by `kernel`."""
    rows = [
        {0: 1, 1: 3, 3: -2},  # primitive nonzero ints: kept as it is
        {0: 2, 2: 4},  # content 2
        {1: Fraction(1, 2), 2: Fraction(3, 4)},
        {0: 1, 1: 0, 2: 5, 4: 0},  # explicit zeros
        {0: 2, 1: Fraction(3, 2), 2: Fraction(25, 4)},  # row 1 + 3 * row 2
    ]
    before = [dict(row) for row in rows]
    echelon, dense = linalg.Echelon(), linalg.Echelon()
    kept = [echelon.add(row) for row in rows]
    assert kept == [dense.add([row.get(c, 0) for c in range(5)]) for row in rows]
    assert kept == [True, True, True, True, False]
    assert echelon._pivots[0] is rows[0]
    assert echelon.pivots == dense.pivots and echelon.kernel(5) == dense.kernel(5)
    assert rows == before


def test_integer_row_intake_is_unchanged():
    """The primitive rows `Echelon.add` keeps for a Fraction row, a row with
    an explicit zero, a dense list and dicts holding an integral Fraction
    are those of the scan-based intake it replaced; a sparse row of nonzero
    ints with content 1 is kept as the dict passed in."""
    cases = [
        ({0: Fraction(1, 2), 3: Fraction(-3, 4)}, {0: 2, 3: -3}),
        ({0: 4, 2: 0, 5: -6}, {0: 2, 5: -3}),
        ([0, 6, Fraction(0), -9], {1: 2, 3: -3}),
        ([Fraction(2, 3), 0, 4], {0: 1, 2: 6}),
        ({1: Fraction(3)}, {1: 1}),
        ({1: Fraction(3), 2: 6}, {1: 1, 2: 2}),
        ({2: 6, 4: -4}, {2: 3, 4: -2}),
        ({}, {}),
        ([0, 0], {}),
    ]
    for row, expected in cases:
        out = linalg._integer_row(row)
        assert out == expected and all(type(x) is int for x in out.values())
    primitive = {1: 3, 4: -2}
    assert linalg._integer_row(primitive) is primitive

