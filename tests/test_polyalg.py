import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadrikit
from quadrikit import _kernel as K
from quadrikit.polyalg import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_TERMS,
    Ideal,
    ParseError,
    Poly,
    PolyError,
    PolyMatrix,
    Ring,
    det,
    exact_div,
    _grevlex_key,
    fraction_free_rref,
    minors_ideal,
    normal_form,
    parse_poly,
    parse_rational,
)

ABC = Ring(("a", "b", "c"))
XY = Ring(("x", "y"))


def random_poly(rng, ring, nterms=4, max_exp=3, lo=-9, hi=9):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ring.arity))
        c = Fraction(rng.randint(lo, hi))
        if c:
            terms[mono] = terms.get(mono, Fraction(0)) + c
    return Poly(ring, {m: c for m, c in terms.items() if c})


def _matrix(ring, grid):
    """A PolyMatrix of a nonempty grid of Polys, zeros included."""
    return PolyMatrix(ring, [dict(enumerate(row)) for row in grid], len(grid[0]))


def _dense_det(grid):
    """The determinant oracle: the Leibniz sum over permutations of a
    nonempty square grid."""
    from itertools import permutations

    n = len(grid)
    ring = grid[0][0].ring
    total = ring.zero()
    for perm in permutations(range(n)):
        term = ring.one()
        for i, j in enumerate(perm):
            term = term * grid[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def univ_bq():
    ring = ABC
    a, b, c = ring.gens()
    z, one = ring.zero(), ring.one()
    return _matrix(
        ring,
        [
            [z, one, z, z],
            [one, z, z, z],
            [z, z, a * 2, b],
            [z, z, b, c * 2],
        ],
    )


# -- parsing ---------------------------------------------------------------


def test_parse_exponent_cap():
    x = XY.var("x")
    assert parse_poly(f"x^{MAX_EXPONENT}", XY) == x**MAX_EXPONENT
    with pytest.raises(ParseError, match="exceeds"):
        parse_poly(f"(x + y)^{MAX_EXPONENT + 1}", XY)


def test_parse_two_term_poly():
    ring = Ring(("a", "b", "c", "x1", "x2", "x3", "x4"))
    p = parse_poly("x1*x2 + a*x3^2", ring)
    assert len(p.terms) == 2
    assert str(p) == "a*x3^2 + x1*x2"


def test_parse_cancellation_gives_zero():
    p = parse_poly("x1^2 - x1^2", Ring(("x1",)))
    assert p.is_zero()
    assert p.terms == {}


def test_parse_malformed():
    with pytest.raises(ParseError):
        parse_poly("x1 + * x2", Ring(("x1", "x2")))


def test_parse_rejects_unknown_identifier():
    with pytest.raises(PolyError):
        parse_poly("a + q", ABC)


def test_parse_rejects_negative_exponent():
    with pytest.raises(ParseError):
        parse_poly("a^-2", ABC)


@pytest.mark.parametrize(
    "text, value", [("3", 3), ("-3/6", Fraction(-1, 2)), (" +07 ", 7), ("4/2", Fraction(2))]
)
def test_parse_rational(text, value):
    """A lone number is read by the numeral rule of expressions: an int, or
    a Fraction when written with "/"."""
    number = parse_rational(text)
    assert number == value and type(number) is type(value)


@pytest.mark.parametrize(
    "text",
    ["1.5", "1e3", "1_0", "\u0664", "1/0", "", "-", "1/", "--1", "(1)", "1 2", "1" * (MAX_DIGITS + 1)],
)
def test_parse_rational_refuses(text):
    """Python literal forms (decimals, exponents, underscores, non-ASCII
    digits) are not numerals; neither is anything but one signed rational."""
    with pytest.raises(ParseError):
        parse_rational(text)


def test_parse_rational_literals_and_parens():
    p = parse_poly("3/4*(a + b)^2 - 1/2", ABC)
    q = parse_poly("3/4*a^2 + 3/2*a*b + 3/4*b^2 - 1/2", ABC)
    assert p == q


def test_print_parse_roundtrip_seeded():
    rng = random.Random(11)
    for _ in range(60):
        p = random_poly(rng, ABC)
        assert parse_poly(str(p), ABC) == p


_print_rings = st.sampled_from(
    [ABC, XY, Ring(("x1", "x2", "a")), Ring(("u", "v"))]
)


@st.composite
def _printable_polys(draw):
    ring = draw(_print_rings)
    coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)).filter(bool)
    monos = st.tuples(*[st.integers(0, 4)] * ring.arity)
    return Poly(ring, draw(st.dictionaries(monos, coeffs, max_size=6)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_printable_polys())
def test_print_parse_roundtrip(p):
    assert parse_poly(str(p), p.ring) == p


def test_canonical_print_descending_order():
    assert str(parse_poly("-4*a*c + b^2", ABC)) == "b^2 - 4*a*c"
    assert str(ABC.zero()) == "0"
    assert str(ABC.const(Fraction(-3, 2))) == "-3/2"


# -- ring axioms -----------------------------------------------------------


def test_ring_axioms_seeded():
    rng = random.Random(5)
    for _ in range(25):
        p, q, r = (random_poly(rng, XY) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p + q == q + p
        assert p - p == XY.zero()


def test_pow_matches_repeated_mul():
    rng = random.Random(3)
    p = random_poly(rng, XY)
    assert p ** 3 == p * p * p
    assert p ** 0 == XY.one()


# -- the monomial order (grevlex) ---------------------------------------------


def test_grevlex_vs_lex_leading():
    ring_g = Ring(("x", "y", "z"))
    # x beats y^2 under lex but not under grevlex: the degree decides first
    assert parse_poly("x + y^2", ring_g).leading_monomial() == (0, 2, 0)
    # grevlex tie-break: xz < y^2 because the last nonzero difference is positive
    assert parse_poly("x*z + y^2", ring_g).leading_monomial() == (0, 2, 0)


# -- determinants ------------------------------------------------------------


def test_det_identity():
    assert det(PolyMatrix(ABC, [{i: ABC.one()} for i in range(4)], 4)) == ABC.one()


def test_det_1x1():
    m = PolyMatrix(ABC, [{0: ABC.var("a") * 2}], 1)
    assert det(m) == parse_poly("2*a", ABC)


def test_det_universal_bilinear_matrix():
    # cofactor expansion by hand: the hyperbolic block contributes -1 and
    # the binary block 4ac - b^2
    assert det(univ_bq()) == parse_poly("b^2 - 4*a*c", ABC)


def test_det_multiplicative_seeded():
    rng = random.Random(17)
    for _ in range(5):
        m1 = _matrix(XY, [[random_poly(rng, XY, 2, 2) for _ in range(3)] for _ in range(3)])
        m2 = _matrix(XY, [[random_poly(rng, XY, 2, 2) for _ in range(3)] for _ in range(3)])
        assert det(m1 * m2) == det(m1) * det(m2)
    # about half the entries zero, on both sides of the cofactor/Bareiss
    # switch at 4x4
    for n in (2, 3, 4, 5):
        for _ in range(3):
            m1, m2 = (_half_zero_matrix(rng, n, n) for _ in range(2))
            assert det(m1 * m2) == det(m1) * det(m2)


def _half_zero_matrix(rng, nrows, ncols):
    """A matrix over XY with each entry zero with probability 1/2."""
    grid = [
        [random_poly(rng, XY, 2, 2, -3, 3) if rng.random() < 0.5 else XY.zero() for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return _matrix(XY, grid)


def test_matrix_entries_checked_and_zeros_dropped():
    """The constructor keeps a row's nonzero entries only, and refuses an
    entry over another ring or a column outside 0..cols-1."""
    x, y = XY.gens()
    m = PolyMatrix(XY, [{0: x, 2: XY.zero()}, {}], 3)
    assert m.entries == [{0: x}, {}]
    assert (m.rows, m.cols) == (2, 3)
    assert m[0, 2] is m[1, 1] is m.zero
    assert m.dense() == [[x, XY.zero(), XY.zero()], [XY.zero()] * 3]
    with pytest.raises(PolyError):
        PolyMatrix(XY, [{0: ABC.var("a")}], 1)
    for col in (3, -1, "0"):
        with pytest.raises(PolyError):
            PolyMatrix(XY, [{col: y}], 3)
    with pytest.raises(PolyError):
        PolyMatrix(XY, [{0: 1}], 1)


def test_bareiss_agrees_with_cofactor():
    rng = random.Random(23)
    m = _matrix(XY, [[random_poly(rng, XY, 2, 1, -3, 3) for _ in range(4)] for _ in range(4)])
    from quadrikit.polyalg import _det_bareiss, _det_cofactor

    assert _det_bareiss(m) == _det_cofactor(m)
    # further sizes, sparse entries that force row swaps, and singular
    # matrices with a repeated row
    for n in (1, 2, 3, 4, 5):
        for nterms in (1, 2):
            m = _matrix(
                XY, [[random_poly(rng, XY, nterms, 2, -3, 3) for _ in range(n)] for _ in range(n)]
            )
            assert _det_bareiss(m) == _det_cofactor(m)
            if n > 1:
                singular = PolyMatrix(XY, m.entries[:-1] + [m.entries[0]], n)
                assert _det_bareiss(singular) == _det_cofactor(singular) == XY.zero()
    # about half the entries zero: `det` (cofactor below 4x4, Bareiss from
    # 4x4) of each matrix and of its minors equals the Leibniz sum over
    # the entries read as m[i, j]
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            m = _half_zero_matrix(rng, n, n)
            assert det(m) == _dense_det([[m[i, j] for j in range(n)] for i in range(n)])
            for size in range(1, n):
                rows = sorted(rng.sample(range(n), size))
                cols = sorted(rng.sample(range(n), size))
                minor = [[m[i, j] for j in cols] for i in rows]
                assert det(m.submatrix(rows, cols)) == _dense_det(minor)


# -- fraction-free elimination (hypothesis) ------------------------------------

_polys = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=3
).map(lambda terms: Poly(XY, {(i, j): Fraction(c) for i, j, c in terms if c}))


@st.composite
def _poly_systems(draw):
    """(A, x0): a small polynomial matrix and a polynomial vector."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    a = [[draw(_polys) for _ in range(cols)] for _ in range(rows)]
    x0 = [draw(_polys) for _ in range(cols)]
    return a, x0


_settings = settings(max_examples=60, deadline=None, derandomize=True)


def _apply(a, x):
    return [sum((p * v for p, v in zip(row, x)), XY.zero()) for row in a]


def _rref(rows):
    """`fraction_free_rref` of the term maps of dense rows of Polys, its
    sparse result made dense Polys."""
    terms = [{j: p.terms for j, p in enumerate(row)} for row in rows]
    reduced, pivots, sign = fraction_free_rref(terms)
    ncols = len(rows[0]) if rows else 0
    return [[Poly(XY, row.get(j, {})) for j in range(ncols)] for row in reduced], pivots, sign


def _check_form(reduced, pivots):
    if pivots:
        d = reduced[0][pivots[0]]
        for r, c in enumerate(pivots):
            assert reduced[r][c] == d
            assert all(row[c].is_zero() for i, row in enumerate(reduced) if i != r)
    assert all(p.is_zero() for row in reduced[len(pivots):] for p in row)


@_settings
@given(_poly_systems())
def test_fraction_free_solution_satisfies_system(system):
    a, x0 = system
    b = _apply(a, x0)
    cols = len(a[0])
    reduced, pivots, _ = _rref([row + [bv] for row, bv in zip(a, b)])
    _check_form(reduced, pivots)
    assert cols not in pivots
    # free variables 0; the solution is (D x) / D with D the common pivot
    scaled = [XY.zero()] * cols
    for row, c in zip(reduced, pivots):
        scaled[c] = row[cols]
    d = reduced[0][pivots[0]] if pivots else XY.one()
    assert _apply(a, scaled) == [bv * d for bv in b]


@_settings
@given(_poly_systems())
def test_fraction_free_kernel_annihilates_rows(system):
    a, _ = system
    cols = len(a[0])
    reduced, pivots, _ = _rref(a)
    _check_form(reduced, pivots)
    d = reduced[0][pivots[0]] if pivots else XY.one()
    for f in range(cols):
        if f in pivots:
            continue
        v = [XY.zero()] * cols
        v[f] = d
        for row, c in zip(reduced, pivots):
            v[c] = -row[f]
        assert all(p.is_zero() for p in _apply(a, v))


@_settings
@given(_poly_systems(), _polys)
def test_fraction_free_reports_inconsistent_system(system, g):
    a, x0 = system
    b = _apply(a, x0)
    # a new row g * row_0 whose right-hand side is off by one
    a = a + [[g * p for p in a[0]]]
    b = b + [g * b[0] + 1]
    reduced, pivots, _ = _rref([row + [bv] for row, bv in zip(a, b)])
    _check_form(reduced, pivots)
    assert len(a[0]) in pivots


def _dense_bareiss_reference(rows):
    """The dense Bareiss loop `fraction_free_rref` replaced: every row is
    rescaled by d / prev at every pivot.  Kept as the oracle for the
    sparse, lazily rescaled elimination."""
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    sign = 1
    prev = None  # D before the first pivot is 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        candidates = [i for i in range(r, nrows) if a[i][c]]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: len(a[i][c].terms))
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pivot_row = a[r]
        d = pivot_row[c]
        zero = d.ring.zero()
        for i in range(nrows):
            if i == r:
                continue
            row = a[i]
            f = row[c]
            if not f and d == prev:
                continue  # (d x - 0 y) / d leaves the row as it is
            # rows below r are zero left of c; rows above are not
            for j in range(0 if i < r else c + 1, ncols):
                x = row[j]
                if f:
                    num = d * x - f * pivot_row[j]
                elif x:
                    num = d * x
                else:
                    continue
                row[j] = num if prev is None else exact_div(num, prev)
            row[c] = zero
        pivots.append(c)
        prev = d
    return a, pivots, sign


_sparse_nonzero = st.one_of(
    st.sampled_from([XY.one(), -XY.one()]),
    _polys.filter(lambda p: 1 <= len(p.terms) <= 2),
)


@st.composite
def _sparse_matrices(draw, nrows=st.integers(1, 10), ncols=st.integers(1, 14)):
    """Mostly-zero matrices whose entries are 0, +-1 or short monomials and
    binomials: D changes between pivots, so rows a pivot step leaves alone
    must catch up across several levels."""
    nrows = draw(nrows)
    ncols = draw(ncols)
    a = [[XY.zero()] * ncols for _ in range(nrows)]
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    for (i, j), p in draw(st.lists(st.tuples(cells, _sparse_nonzero), max_size=2 * (nrows + ncols))):
        a[i][j] = p
    return a


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_sparse_matrices())
def test_fraction_free_matches_dense_reference(a):
    """Rows, pivots and sign equal the dense Bareiss loop's exactly."""
    assert _rref(a) == _dense_bareiss_reference(a)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_sparse_matrices())
def test_fraction_free_sparse_input_matches_dense(a):
    """The rows as {col: term map} maps of their nonzero entries give the
    dense reference's result, are left as they were, and the result rows
    hold only nonzero entries."""
    sparse = [{j: x.terms for j, x in enumerate(row) if x} for row in a]
    copy = [{j: dict(t) for j, t in row.items()} for row in sparse]
    reduced, pivots, sign = fraction_free_rref(sparse)
    dense = [[Poly(XY, row.get(j, {})) for j in range(len(a[0]))] for row in reduced]
    assert (dense, pivots, sign) == _dense_bareiss_reference(a)
    assert sparse == copy
    assert all(all(row.values()) for row in reduced)


def test_fraction_free_matches_dense_reference_edge_cases():
    x, y = XY.gens()
    z, one = XY.zero(), XY.one()
    cases = [
        [],
        [[z, z, z]],  # all-zero matrix
        [[z, z], [z, z], [z, z]],
        [[x, one, z], [z, z, z], [y, z, one]],  # an all-zero row
        # the pivot of column 0 is only below row 0 (a swap); the untouched
        # rows then catch up across the changing D = x, x + y, ...
        [[z, x, one, z], [z, y, z, one], [x + y, one, z, x], [z, z, y, x * y]],
        [[z, z, x], [x, z, one], [y, x, z], [z, y, x + 1]],
    ]
    for a in cases:
        assert _rref(a) == _dense_bareiss_reference(a)
    assert fraction_free_rref([]) == ([], [], 1)
    assert fraction_free_rref([{}, {0: z.terms}]) == ([{}, {}], [], 1)
    assert _rref([[z, z], [z, z]]) == ([[z, z], [z, z]], [], 1)
    reduced, pivots, sign = _rref(cases[4])
    assert sign == -1 and pivots[0] == 0


def test_det_rejects_nonsquare():
    with pytest.raises(PolyError):
        det(PolyMatrix(ABC, [{}, {}], 3))


def test_exact_div_roundtrip():
    rng = random.Random(29)
    for _ in range(20):
        f = random_poly(rng, XY, 3, 2)
        g = random_poly(rng, XY, 3, 2)
        if g.is_zero():
            continue
        assert exact_div(f * g, g) == f
    with pytest.raises(PolyError):
        exact_div(parse_poly("x + 1", XY), parse_poly("y", XY))


def _long_division(f, g):
    """The division loop `exact_div` runs for a non-constant divisor, on
    every divisor: the oracle for its one-pass constant case."""
    quotient = {}
    rest = f.terms
    lm_g = g.leading_monomial()
    while rest:
        lm = K.leading_monomial(rest)
        q = tuple(a - b for a, b in zip(lm, lm_g))
        assert min(q) >= 0
        c = Fraction(rest[lm]) / g.leading_coeff()
        quotient[q] = c
        rest = K.sub_terms(rest, K.shift_terms(g.terms, q, c))
    return quotient


def test_exact_div_by_a_constant():
    """A constant divisor divides every term in one pass: the quotient of
    long division, with ints where it is integral; 1 gives f itself."""
    for text in ("0", "6*x^2*y - 3*y + 9", "1/2*x - 4/3*y^3 + 2", "x*y"):
        f = parse_poly(text, XY)
        assert exact_div(f, XY.one()) is f
        for c in (1, -1, 3, Fraction(2, 3)):
            quotient = exact_div(f, XY.const(c))
            assert quotient.terms == _long_division(f, XY.const(c))
            assert _conforming(quotient.terms)
            assert quotient * c == f
    assert exact_div(parse_poly("6*x - 3", XY), XY.const(3)).terms == {(1, 0): 2, (0, 0): -1}
    with pytest.raises(PolyError):
        exact_div(parse_poly("x + 1", XY), XY.zero())


def _unit_minor_rows():
    """Rows whose pivots are x, then 1 (the leading 2x2 minor is 1), then
    non-constant again: D goes x -> 1 -> ..., and the third row, left
    behind at D = x by the unit step, catches up by dividing by x."""
    x, y = XY.gens()
    z, one = XY.zero(), XY.one()
    return [
        [x, one, y, z],
        [-one, z, one, y],
        [x, one, x, one],
        [z, y, one, x + y],
    ]


def test_fraction_free_unit_pivot_matches_dense_reference(monkeypatch):
    """A unit pivot is no denominator: the result is the dense reference's,
    and no entry is ever divided by a constant."""
    x = XY.gens()[0]
    a = _unit_minor_rows()
    assert _dense_det([row[:2] for row in a[:2]]) == XY.one()
    # a unit minor in the middle of a taller system too
    taller = a + [[XY.zero(), x, XY.one(), XY.zero()], [x * x, XY.zero(), x, XY.one()]]
    # the reference divides through `exact_div` too: run it before the
    # term-level division is recorded
    expected = [_dense_bareiss_reference(rows) for rows in (a, taller)]
    divisors = []
    div_terms = quadrikit.polyalg.div_terms

    def recording_div(f, g):
        divisors.append(Poly(XY, g))
        return div_terms(f, g)

    monkeypatch.setattr(quadrikit.polyalg, "div_terms", recording_div)
    for rows, reference in zip((a, taller), expected):
        assert _rref(rows) == reference
    assert x in divisors
    assert not any(g.is_constant() for g in divisors)


_rational_scales = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)])


@st.composite
def _rational_matrices(draw, nrows=st.integers(1, 10), ncols=st.integers(1, 14)):
    """`_sparse_matrices` with Fraction entries and cancellations: every
    entry times a drawn rational (ints where integral), then, on a draw,
    one row replaced by a rational combination of two others, so the
    elimination cancels entries and empties a row."""
    a = draw(_sparse_matrices(nrows, ncols))
    a = [[p * draw(_rational_scales) for p in row] for row in a]
    if len(a) >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(len(a))))[:3]
        s, t = draw(_rational_scales), draw(_rational_scales)
        a[k] = [p * s + q * t for p, q in zip(a[i], a[j])]
    return a


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_rational_matrices())
def test_fraction_free_term_maps_conform_and_input_kept(a):
    """Every entry returned is a nonempty term map in the kernel's form
    (ints where integral), and the input rows and their term maps come
    back unchanged."""
    sparse = [{j: x.terms for j, x in enumerate(row) if x} for row in a]
    copy = [{j: dict(t) for j, t in row.items()} for row in sparse]
    reduced, _, _ = fraction_free_rref(sparse)
    assert all(t and _conforming(t) for row in reduced for t in row.values())
    assert sparse == copy


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(4, 5).flatmap(lambda n: _rational_matrices(st.just(n), st.just(n))))
def test_det_bareiss_matches_leibniz_on_rational_entries(a):
    from quadrikit.polyalg import _det_bareiss

    assert _det_bareiss(_matrix(XY, a)) == _dense_det(a)


def test_det_bareiss_with_a_unit_minor():
    from quadrikit.polyalg import _det_bareiss, _det_cofactor

    m = _matrix(XY, _unit_minor_rows())
    assert _det_bareiss(m) == _det_cofactor(m) == _dense_det(_unit_minor_rows())
    assert not _det_bareiss(m).is_zero()


# -- the monomial order key (hypothesis) --------------------------------------

_monos = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_monos, _monos)
def test_monomial_key_agrees_with_kernel(m1, m2):
    # the kernel's leading_monomial is the reference order
    ring = Ring(("w", "x", "y", "z"))
    key = _grevlex_key
    if m1 == m2:
        assert key(m1) == key(m2)
    else:
        assert K.leading_monomial({m1: 1, m2: 1}) == max(m1, m2, key=key)
        assert ring.sort_monomials([m2, m1])[0] == max(m1, m2, key=key)


def test_mul_cancellation_drops_zero_terms():
    one = Fraction(1)
    a = {(1, 0): one, (0, 1): one}
    b = {(1, 0): one, (0, 1): -one}
    # (x+y)(x-y) = x^2 - y^2: the two xy products cancel and leave no entry
    assert K.mul_terms(a, b) == {(2, 0): one, (0, 2): -one}


_matrix_entries = st.one_of(
    st.just(XY.zero()),  # about half the entries are zero
    st.one_of(
        st.sampled_from(["0", "x", "-x", "y", "1", "x + y", "x - y"]).map(
            lambda src: parse_poly(src, XY)
        ),
        _polys,
    ),
)


@st.composite
def _matrix_pairs(draw):
    """(A, B) of sizes n x k and k x m, with some zero rows of A, zero
    columns of B and products that cancel."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    a = [[draw(_matrix_entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(_matrix_entries) for _ in range(m)] for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        # A's column k2 repeats column k1 and B's row k2 negates row k1, so
        # those two products cancel in every entry (all of it when k == 2)
        k1, k2 = draw(st.permutations(range(k)))[:2]
        for row in a:
            row[k2] = row[k1]
        b[k2] = [-p for p in b[k1]]
    for i in range(n):
        if draw(st.integers(0, 3)) == 0:
            a[i] = [XY.zero()] * k
    for j in range(m):
        if draw(st.integers(0, 3)) == 0:
            for row in b:
                row[j] = XY.zero()
    return a, b


@_settings
@given(_matrix_pairs())
def test_matrix_product_matches_triple_loop(pair):
    a, b = pair
    naive = [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), XY.zero())
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]
    ma, mb = _matrix(XY, a), _matrix(XY, b)
    product = ma * mb
    assert (product.rows, product.cols) == (len(a), len(b[0]))
    assert [[product[i, j] for j in range(product.cols)] for i in range(product.rows)] == naive
    assert all(p and all(p.terms.values()) for row in product.entries for p in row.values())
    # transpose and submatrix against the entries read as m[i, j]
    n, k = len(a), len(b)
    assert ma.transpose().dense() == [[ma[i, j] for i in range(n)] for j in range(k)]
    rows, cols = range(0, n, 2), range(k - 1, -1, -2)
    assert ma.submatrix(rows, cols).dense() == [[ma[i, j] for j in cols] for i in rows]


# cheap to expand at any degree up to the cap: at most 65 terms
_degree_atoms = st.sampled_from(["x", "y", "2", "1/3", "0", "(x + 1)", "(x - y)", "(x*y + 2)"])
_exponents = st.sampled_from([0, 1, 2, 3, 8, 16, 31, 32, 33, 64])


@st.composite
def _degree_exprs(draw):
    """Sums of products of atoms under 0-2 nested powers."""
    products = []
    for _ in range(draw(st.integers(1, 2))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            factor = draw(_degree_atoms)
            for _ in range(draw(st.integers(0, 2))):
                factor = f"({factor})^{draw(_exponents)}"
            factors.append(factor)
        products.append("*".join(factors))
    return " + ".join(products)


@_settings
@given(_degree_exprs())
def test_parsed_degree_never_exceeds_the_cap(source):
    try:
        p = parse_poly(source, XY)
    except ParseError as e:
        assert "exceeds the maximum" in str(e)
        return
    assert p.total_degree() <= MAX_EXPONENT


def test_nested_powers_refused_before_expanding():
    with pytest.raises(ParseError, match="degree 4096 exceeds"):
        parse_poly(f"((x + 1)^{MAX_EXPONENT})^{MAX_EXPONENT}", XY)
    with pytest.raises(ParseError, match="degree 65 exceeds"):
        parse_poly(f"(x*y)^32*(x + 1)", XY)
    x, y = XY.gens()
    assert parse_poly("(x*y)^32", XY) == (x * y) ** 32
    assert parse_poly("(x^2)^32*(0)^64", XY) == XY.zero()


def test_term_count_bound_refused_before_expanding():
    """A power is refused by its multinomial bound C(t+n-1, n) on the term
    count, a product by |a|*|b|, before either is expanded."""
    six = "(a + b + c + x + y + 1)"
    with pytest.raises(ParseError, match="term count bound 1221759 exceeds"):
        parse_poly(f"{six}^40*x", Ring(("a", "b", "c", "x", "y")))
    with pytest.raises(ParseError, match="term count bound 23409 exceeds"):
        parse_poly("(x + y + 1)^16*(x + y + 1)^16*(x + 1)", XY)
    # C(2 + 64 - 1, 64) = 65 and C(3 + 16 - 1, 16) = 153 are far under the cap
    x, y = XY.gens()
    assert parse_poly(f"(x + 1)^{MAX_EXPONENT}", XY) == (x + 1) ** MAX_EXPONENT
    assert len(parse_poly("(x + y + 1)^16", XY).terms) == 153 <= MAX_TERMS


def test_backend_name_is_python():
    # perfbench records it as run provenance
    assert quadrikit.backend_name() == "python"


# -- minors -------------------------------------------------------------------


def test_minors_ideal_3x3_of_universal_matrix():
    # all sixteen 3x3 minors lie in (a, b, c) and the minors include unit
    # multiples of a, b, c
    ideal = minors_ideal(univ_bq(), 3)
    abc = Ideal(ABC, list(ABC.gens()))
    assert ideal.equals(abc)


def test_minors_ideal_zero_matrix():
    ideal = minors_ideal(PolyMatrix(ABC, [{}] * 3, 3), 1)
    assert all(g.is_zero() for g in ideal.generators)
    assert not ideal.is_unit()


def test_minors_full_size_equals_det():
    m = univ_bq()
    ideal = minors_ideal(m, 4)
    assert list(ideal.generators) == [det(m)]


def test_minors_out_of_range():
    with pytest.raises(PolyError):
        minors_ideal(univ_bq(), 5)


# -- Groebner -----------------------------------------------------------------


def test_unit_ideal_detection():
    x = XY.var("x")
    ideal = Ideal(XY, [x, x + 1])
    assert ideal.groebner() == [XY.one()]
    assert ideal.is_unit()


def test_membership_by_factor():
    x, y = XY.gens()
    ideal = Ideal(XY, [x - y])
    assert ideal.contains(x * x - y * y)
    assert not ideal.contains(x + y)


def test_scalar_generators_equal():
    a, b, c = ABC.gens()
    assert Ideal(ABC, [a * 2, b, c * 2]).equals(Ideal(ABC, [a, b, c]))


def test_zero_vs_principal():
    x = XY.var("x")
    assert not Ideal(XY, []).equals(Ideal(XY, [x]))


def test_groebner_idempotent():
    a, b, c = ABC.gens()
    ideal = Ideal(ABC, [a * b - c, b * b - a, a * a * c - b])
    basis = ideal.groebner()
    again = Ideal(ABC, basis).groebner()
    assert basis == again


def test_groebner_cached_once():
    x = XY.var("x")
    ideal = Ideal(XY, [x])
    first = ideal.groebner()
    assert ideal.groebner() == first
    assert ideal._groebner is not None


def test_normal_form_reduces_to_zero_inside_ideal():
    x, y = XY.gens()
    ideal = Ideal(XY, [x * x - y, y * y - 1])
    basis = ideal.groebner()
    f = (x * x - y) * (x + 3) + (y * y - 1) * y
    assert normal_form(f, basis).is_zero()


def _normal_form_oracle(f, basis):
    """The Fraction division loop the integer `normal_form` replaced: each
    step subtracts (c / lc_g) * x^q * g from a copy of the remainder."""
    lead = [(g.leading_monomial(), g.leading_coeff(), g.terms) for g in basis]
    remainder, rest = {}, f.terms
    while rest:
        lm = K.leading_monomial(rest)
        c = rest[lm]
        for lm_g, lc_g, terms_g in lead:
            q = tuple(a - b for a, b in zip(lm, lm_g))
            if min(q) >= 0:
                rest = K.sub_terms(rest, K.shift_terms(terms_g, q, c / lc_g))
                break
        else:
            remainder[lm] = c
            rest = dict(rest)
            del rest[lm]
    return remainder


XYZ = Ring(("x", "y", "z"))
_nf_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@st.composite
def _division_cases(draw):
    """(f, basis) over Q[x,y,z].  Basis elements are not
    monic: Fraction and negative leading coefficients are drawn, and the
    basis may be empty.  f is zero, a constant, a random polynomial (most
    leave a nonzero remainder) or a combination of the basis plus one."""
    ring = XYZ
    monos = st.tuples(*[st.integers(0, 2)] * 3)
    polys = st.dictionaries(monos, _nf_coeffs, min_size=1, max_size=4).map(
        lambda terms: Poly(ring, terms)
    )
    basis = draw(st.lists(polys, max_size=3))
    kind = draw(st.sampled_from(["zero", "constant", "random", "combination"]))
    if kind == "zero":
        f = ring.zero()
    elif kind == "constant":
        f = ring.const(draw(_nf_coeffs))
    else:
        f = draw(polys)
        if kind == "combination":
            f = sum((g * draw(polys) for g in basis), f)
    return f, basis


def _non_monic_case():
    # negative Fraction leading coefficients (x^2 > yz and y > z in grevlex)
    # and a nonzero remainder
    x, y, z = XYZ.gens()
    return x**3 * y + x / 3 + z, [x * x * Fraction(-3, 2) + y * z, y * Fraction(-2, 5) + z * 7]


@_settings
@given(_division_cases())
@example(_non_monic_case())
def test_normal_form_equals_fraction_division_exactly(case):
    f, basis = case
    remainder = normal_form(f, basis).terms
    assert remainder == _normal_form_oracle(f, basis)
    assert all(
        type(c) is int or type(c) is Fraction and c.denominator > 1 for c in remainder.values()
    )


# -- the coefficient invariant ------------------------------------------------


def _conforming(terms):
    """Every coefficient an int, or a Fraction with denominator > 1 (so
    never a float or an integral Fraction)."""
    return all(
        type(c) is int or type(c) is Fraction and c.denominator > 1 for c in terms.values()
    )


def _oracle_mul(a, b):
    """Product of two Fraction term maps, computed in Fractions only."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _oracle_sum(a, b, sign):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c}


_q_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
# a Fraction term map over XY and the conforming Poly with the same values
_q_monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
_q_polys = st.dictionaries(_q_monos, _q_coeffs, max_size=4).map(
    lambda terms: (terms, XY.zero() + Poly(XY, terms))
)


@_settings
@given(_q_polys, _q_polys, _q_coeffs, st.integers(0, 3))
def test_coefficients_are_ints_where_integral(fa, ga, k, n):
    """+, -, *, scalar /, **, monic, exact_div and parse_poly keep every
    coefficient an int where it is integral and a Fraction otherwise, with
    the values of the same arithmetic done in Fractions only."""
    (F, f), (G, g) = fa, ga
    power = {(0, 0): Fraction(1)}
    for _ in range(n):
        power = _oracle_mul(power, F)
    cases = {
        "+": (f + g, _oracle_sum(F, G, 1)),
        "-": (f - g, _oracle_sum(F, G, -1)),
        "*": (f * g, _oracle_mul(F, G)),
        "scale": (f * k, {m: c * k for m, c in F.items()}),
        "/": (f / k, {m: c / k for m, c in F.items()}),
        "**": (f**n, power),
        "parse_poly": (parse_poly(str(f), XY), F),
    }
    if F:
        lc = F[f.leading_monomial()]
        cases["monic"] = (f.monic(), {m: c / lc for m, c in F.items()})
    if G:
        cases["exact_div"] = (exact_div(f * g, g), F)
    for name, (p, oracle) in cases.items():
        assert _conforming(p.terms), name
        assert p.terms == oracle, name
    assert _conforming(f.terms) and f == Poly(XY, F)


def test_integral_quotients_are_ints():
    x, y = XY.gens()
    assert type(x.terms[(1, 0)]) is int and type(XY.const(Fraction(4, 2)).terms[(0, 0)]) is int
    for p, expected in [
        ((2 * x) / 2, {(1, 0): 1}),
        (x / 3, {(1, 0): Fraction(1, 3)}),
        (x / 3 * 3, {(1, 0): 1}),
        (x / 2 + x / 2 + y / 3, {(1, 0): 1, (0, 1): Fraction(1, 3)}),
        ((x / 2) * (4 * y), {(1, 1): 2}),
        ((6 * x * y + 3 * y).monic(), {(1, 1): 1, (0, 1): Fraction(1, 2)}),
        (parse_poly("4/2*x - 3/3", XY), {(1, 0): 2, (0, 0): -1}),
    ]:
        assert p.terms == expected
        assert [type(c) for c in p.terms.values()] == [type(c) for c in expected.values()]


def test_groebner_is_reduced():
    # no leading monomial divides another, all monic, tails reduced
    a, b, c = ABC.gens()
    basis = Ideal(ABC, [a * a - b * c, a * b - c * c, b * b - a * c]).groebner()
    lms = [g.leading_monomial() for g in basis]
    for i, g in enumerate(basis):
        assert g.leading_coeff() == 1
        for j, lm in enumerate(lms):
            if i == j:
                continue
            for mono in g.terms:
                assert not all(e1 <= e2 for e1, e2 in zip(lm, mono))


def test_ring_mismatch_raises():
    with pytest.raises(PolyError):
        Ideal(XY, [XY.var("x")]).contains(ABC.var("a"))


# -- reduced basis invariance (hypothesis) --------------------------------------

# a non-homogeneous ideal whose S-polynomials leave nonzero remainders, so
# new pairs are pushed while the basis grows
XYZW = Ring(("x", "y", "z", "w"))
BENCH_GENS = [
    parse_poly(g, XYZW)
    for g in (
        "x^2*y - z*w + 3*x",
        "y^2*z - x*w + 2*y",
        "z^2*w - x*y + z",
        "x*y*z*w - 1",
    )
]


@functools.cache
def _bench_basis():
    return tuple(Ideal(XYZW, BENCH_GENS).groebner())


_scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def _variants(draw, gens):
    """gens permuted, some repeated, each copy scaled by a nonzero rational."""
    picks = draw(st.permutations(range(len(gens))))
    picks = picks + draw(st.lists(st.sampled_from(picks), max_size=3))
    return [gens[i] * draw(_scalars) for i in picks]


@_settings
@given(st.lists(_polys.filter(bool), min_size=1, max_size=3), st.data())
def test_groebner_invariant_under_generator_variants(gens, data):
    variant = data.draw(_variants(gens))
    assert Ideal(XY, variant).groebner() == Ideal(XY, gens).groebner()


@settings(max_examples=2, deadline=None, derandomize=True)
@given(_variants(BENCH_GENS))
def test_groebner_invariant_on_growing_basis(variant):
    assert tuple(Ideal(XYZW, variant).groebner()) == _bench_basis()
