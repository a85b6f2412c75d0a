import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrikit import linalg
from quadrikit.polyalg import MAX_EXPONENT, ParseError, Poly, PolyError, exact_div
from quadrikit.polyalg import fraction_free_rref, parse_poly
from quadrikit.quadform import QuadraticForm, load_qf
from quadrikit.clifford import (
    CenterRelation,
    CliffordContext,
    CliffordElement,
    CliffordError,
    basis_columns,
    center_checks,
    center_element,
    cl_mul,
    graded_basis,
    indices,
    mask,
    monomial_products,
    parse_element,
    trace,
)

DATA = Path(__file__).resolve().parent.parent / "data"
PINNED = Path(__file__).resolve().parent / "pinned"


def universal_ctx():
    q = QuadraticForm.from_expression(
        ["a", "b", "c"], 4, "x1*x2 + a*x3^2 + b*x3*x4 + c*x4^2"
    )
    return CliffordContext(q)


def rank2_ctx():
    return CliffordContext(QuadraticForm.from_expression([], 2, "x1*x2"))


def random_vector_element(ctx, rng):
    return ctx.from_vector(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(ctx.rank)]
    )


def random_homogeneous(ctx, rng, degree):
    elem = ctx.zero()
    for key in graded_basis(ctx, degree):
        c = rng.randint(-4, 4)
        if c:
            elem = elem + ctx.monomial(*key).scale(c)
    return elem


# -- multiplication ------------------------------------------------------------


def test_isotropic_generator_squares_to_zero():
    ctx = universal_ctx()
    e1 = ctx.generator(1)
    assert cl_mul(e1, e1).is_zero()


def test_hyperbolic_anticommutator_is_l():
    ctx = universal_ctx()
    e1, e2 = ctx.generator(1), ctx.generator(2)
    assert cl_mul(e1, e2) + cl_mul(e2, e1) == ctx.l_power(1)


def test_unit_law_seeded():
    ctx = universal_ctx()
    rng = random.Random(2)
    one = ctx.one()
    for _ in range(10):
        x = random_homogeneous(ctx, rng, rng.choice([-1, 0, 1, 2]))
        assert cl_mul(one, x) == x
        assert cl_mul(x, one) == x


def test_defining_relation_seeded():
    # v v = q(v) l on 100 random degree-1 elements
    ctx = universal_ctx()
    rng = random.Random(24237)
    for _ in range(100):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)]
        v = ctx.from_vector(coords)
        expected = ctx.scalar(ctx.q.apply(coords)) * ctx.l_power(1)
        assert cl_mul(v, v) == expected


def test_associativity_seeded():
    ctx = universal_ctx()
    rng = random.Random(7)
    for _ in range(50):
        x = random_homogeneous(ctx, rng, rng.choice([-2, -1, 0, 1]))
        y = random_homogeneous(ctx, rng, rng.choice([-1, 0, 1, 2]))
        z = random_homogeneous(ctx, rng, rng.choice([0, 1]))
        assert cl_mul(cl_mul(x, y), z) == cl_mul(x, cl_mul(y, z))


_UNIVERSAL = universal_ctx()
_clifford_settings = settings(max_examples=40, deadline=None, derandomize=True)
_base_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)).filter(bool),
    min_size=1,
    max_size=2,
).map(lambda terms: Poly(_UNIVERSAL.base, terms))


@st.composite
def _elements(draw, degrees=(-1, 0, 1, 2)):
    """A nonzero homogeneous element of the universal algebra with
    coefficients in Q[a, b, c] on a few basis monomials of one degree."""
    basis = graded_basis(_UNIVERSAL, draw(st.sampled_from(degrees)))
    keys = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    elem = _UNIVERSAL.zero()
    for key in keys:
        elem = elem + _UNIVERSAL.monomial(*key).scale(draw(_base_polys))
    return elem


@_clifford_settings
@given(st.lists(_base_polys, min_size=4, max_size=4))
def test_defining_relation(coords):
    # v v = q(v) l for vectors with coefficients in the base ring
    v = _UNIVERSAL.from_vector(coords)
    expected = _UNIVERSAL.scalar(_UNIVERSAL.q.apply(coords)) * _UNIVERSAL.l_power(1)
    assert cl_mul(v, v) == expected


@_clifford_settings
@given(_elements(), _elements(), _elements(degrees=(-1, 0, 1)))
def test_associativity(x, y, z):
    assert cl_mul(cl_mul(x, y), z) == cl_mul(x, cl_mul(y, z))


def test_anticommutator_matches_bilinear_matrix():
    ctx = universal_ctx()
    b = ctx.q.bilinear_matrix()
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            lhs = cl_mul(ctx.generator(i), ctx.generator(j)) + cl_mul(
                ctx.generator(j), ctx.generator(i)
            )
            assert lhs == ctx.scalar(b[i - 1, j - 1]) * ctx.l_power(1)


def test_degree_additivity_seeded():
    ctx = universal_ctx()
    rng = random.Random(13)
    for _ in range(20):
        dx, dy = rng.choice([-2, -1, 0, 1, 2]), rng.choice([-1, 0, 1])
        x = random_homogeneous(ctx, rng, dx)
        y = random_homogeneous(ctx, rng, dy)
        product = cl_mul(x, y)
        if not product.is_zero():
            assert product.degree() == dx + dy


def _rewrite_product(x, y):
    """Oracle: the swap-and-contract product that `CliffordContext.act`
    replaced.  Each word e_I e_J is rewritten by eliminating its leftmost
    inversion (e_j e_i -> -e_i e_j + c_ij l for j > i, e_i e_i -> c_ii l)
    until none is left."""
    q = x.ctx.q
    out = {}
    for (s1, m1), c1 in x.terms.items():
        for (s2, m2), c2 in y.terms.items():
            product = Poly(q.base, c1) * Poly(q.base, c2)
            work = [(list(indices(s1) + indices(s2)), m1 + m2, product)]
            while work:
                w, m, c = work.pop()
                if c.is_zero():
                    continue
                k = next((t for t in range(len(w) - 1) if w[t] >= w[t + 1]), None)
                if k is None:
                    key = (mask(w), m)
                    s = out[key] + c if key in out else c
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
                    continue
                i, j = w[k], w[k + 1]
                rest = w[:k] + w[k + 2 :]
                if i == j:
                    work.append((rest, m + 1, c * q.coefficient(i, i)))
                else:
                    work.append((w[:k] + [j, i] + w[k + 2 :], m, -c))
                    work.append((rest, m + 1, c * q.coefficient(j, i)))
    return CliffordElement(x.ctx, {key: c.terms for key, c in out.items()})


def _random_poly(ring, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 1) for _ in range(ring.arity))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(ring, {m: c for m, c in terms.items() if c})


def _random_sparse(ctx, rng, degree):
    basis = graded_basis(ctx, degree)
    terms = {}
    for key in rng.sample(basis, min(len(basis), rng.randint(1, 6))):
        c = _random_poly(ctx.base, rng)
        if c.terms:
            terms[key] = c.terms
    return CliffordElement(ctx, terms)


def _oracle_form(name):
    if name == "r12":  # tests/pinned/r10.qf plus the hyperbolic plane x11*x12
        return QuadraticForm.from_expression(
            ["a", "b"], 12, "x1*x2 + x3*x4 + x5*x6 + x7*x8 + a*x9^2 + x9*x10 + b*x10^2 + x11*x12"
        )
    path = DATA / f"{name}.qf"
    return load_qf(path if path.exists() else PINNED / f"{name}.qf")


@pytest.mark.parametrize(
    "name", ["universal", "corank2", "split", "g4", "r6", "r8", "rat6", "dense6", "r12"]
)
def test_product_matches_rewriting_oracle(name):
    """`cl_mul` and `monomial_products` (keyed and as sparse rows) equal
    the rewriting product on seeded random elements of degrees -1..2.  rat6
    has rational coefficients and a unit c_34 among them; every nonzero
    c_ij of dense6 is a non-unit; r12 sets mask bits 11 and 12."""
    ctx = CliffordContext(_oracle_form(name))
    rng = random.Random(f"product:{name}")
    degrees = (-1, 0, 1, 2)
    for _ in range(25):
        x = _random_sparse(ctx, rng, rng.choice(degrees))
        y = _random_sparse(ctx, rng, rng.choice(degrees))
        assert cl_mul(x, y) == _rewrite_product(x, y)
    for degree in degrees:
        y_degree = rng.choice(degrees)
        y = _random_sparse(ctx, rng, y_degree)
        keys = graded_basis(ctx, degree)
        expected = [_rewrite_product(ctx.monomial(*key), y) for key in keys]
        assert monomial_products(ctx, keys, y.terms) == [e.terms for e in expected]
        columns = basis_columns(graded_basis(ctx, degree + y_degree))
        rows = monomial_products(ctx, keys, y.terms, columns)
        assert rows == [e.sparse_coordinates(columns) for e in expected]


def test_sparse_coordinates_match_dense():
    ctx = universal_ctx()
    basis = graded_basis(ctx, 0)
    elem = random_homogeneous(ctx, random.Random(3), 0)
    dense = [elem.terms.get(key) for key in basis]
    sparse = elem.sparse_coordinates(basis_columns(basis))
    assert sparse == {col: c for col, c in enumerate(dense) if c}
    with pytest.raises(CliffordError, match="outside the basis"):
        ctx.generator(1).sparse_coordinates(basis_columns(basis))


def test_context_mismatch_rejected():
    with pytest.raises(CliffordError):
        cl_mul(universal_ctx().one(), rank2_ctx().one())


# -- graded bases -----------------------------------------------------------------


def test_basis_sizes_power_of_two():
    for ctx in (universal_ctx(), rank2_ctx()):
        expected = 2 ** (ctx.rank - 1)
        for n in range(-4, 5):
            assert len(graded_basis(ctx, n)) == expected


def test_basis_rank4_degree0_profile():
    ctx = universal_ctx()
    basis = graded_basis(ctx, 0)
    assert basis[0] == (mask(()), 0)
    assert [key for key in basis if key[0].bit_count() == 2] == [
        (mask((1, 2)), -1),
        (mask((1, 3)), -1),
        (mask((1, 4)), -1),
        (mask((2, 3)), -1),
        (mask((2, 4)), -1),
        (mask((3, 4)), -1),
    ]
    assert basis[-1] == (mask((1, 2, 3, 4)), -2)


def test_basis_rank4_degree1_profile():
    basis = graded_basis(universal_ctx(), 1)
    assert [key for key in basis if key[0].bit_count() == 1] == [
        (mask((1,)), 0),
        (mask((2,)), 0),
        (mask((3,)), 0),
        (mask((4,)), 0),
    ]
    assert all(m == -1 for s, m in basis if s.bit_count() == 3)


def test_basis_rank2_degree0():
    assert graded_basis(rank2_ctx(), 0) == [(mask(()), 0), (mask((1, 2)), -1)]


# -- center ------------------------------------------------------------------------


def test_center_universal_relation():
    ctx = universal_ctx()
    rel = center_element(ctx)
    base = ctx.base
    assert rel.alpha == base.var("b")
    assert rel.beta == base.var("a") * base.var("c")
    assert rel.discriminant() == parse_poly("b^2 - 4*a*c", base)
    ratio, scale = rel.discriminant_comparison()
    assert ratio == Fraction(1)
    assert scale == Fraction(1)


def test_center_universal_commutes_with_even_part():
    ctx = universal_ctx()
    rel = center_element(ctx)
    checks = center_checks(ctx, rel)
    assert checks["commutes_degree0"]
    assert checks["twisted_degree1"]


def test_center_diagonal_is_top_monomial():
    q = QuadraticForm.from_expression(
        ["a1", "a2", "a3", "a4"], 4, "a1*x1^2 + a2*x2^2 + a3*x3^2 + a4*x4^2"
    )
    ctx = CliffordContext(q)
    rel = center_element(ctx)
    assert rel.omega == ctx.monomial(mask((1, 2, 3, 4)), -2)
    # omega^2 = a1 a2 a3 a4 = det(b_q) / 16
    assert rel.alpha.is_zero()
    prod = parse_poly("a1*a2*a3*a4", ctx.base)
    assert -rel.beta == prod
    assert q.det_bilinear() == prod * 16
    assert center_checks(ctx, rel)["commutes_degree0"]


def test_center_rank2():
    ctx = rank2_ctx()
    rel = center_element(ctx)
    assert rel.omega == ctx.monomial(mask((1, 2)), -1)
    assert rel.alpha == ctx.base.const(-1)
    assert rel.beta.is_zero()
    ratio, scale = rel.discriminant_comparison()
    assert ratio == Fraction(-1)  # disc = 1 = (-1) det(b_q)
    assert scale == Fraction(1)
    assert center_checks(ctx, rel)["twisted_degree1"]


def test_center_requires_even_rank():
    q = QuadraticForm.from_expression([], 3, "x1*x2 + x3^2")
    with pytest.raises(CliffordError):
        center_element(CliffordContext(q))


def _normalize_center_vector(ctx, polys, dim, unit_pos, top_pos):
    """Zero the unit coordinate, clear denominators, divide integer content."""
    polys = list(polys)
    polys[unit_pos] = ctx.base.zero()
    if all(p.is_zero() for p in polys):
        return None
    if polys[top_pos].is_zero() or not polys[top_pos].is_constant():
        return None
    denom_lcm = 1
    for p in polys:
        for c in p.terms.values():
            denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    polys = [p * denom_lcm for p in polys]
    content = 0
    for p in polys:
        for c in p.terms.values():
            content = math.gcd(content, c.numerator)
    polys = [p / content for p in polys]
    if polys[top_pos].constant_term() < 0:
        polys = [-p for p in polys]
    return polys


def _solve_center_fraction(ctx, kernel, dim, unit_pos, top_pos):
    zero = ctx.base.zero()
    for vec in kernel:
        top = vec[top_pos]
        if top.is_zero():
            continue
        try:
            polys = [zero if k == unit_pos else exact_div(p, top) for k, p in enumerate(vec)]
        except PolyError:
            continue
        normalized = _normalize_center_vector(ctx, polys, dim, unit_pos, top_pos)
        if normalized is not None:
            return normalized
    return None


def _reference_center(ctx):
    """(omega, alpha, beta) from commutation with every degree-0 basis
    monomial, not only the pair generators, eliminated in full: the
    constant kernel first (the kernel over Q of the rows expanded monomial
    by monomial), then the fraction-field kernel read off one
    fraction-free elimination of all rows."""
    basis0 = graded_basis(ctx, 0)
    dim = len(basis0)
    unit = basis0.index((mask(()), 0))
    top = basis0.index((mask(range(1, ctx.rank + 1)), -(ctx.rank // 2)))
    monos = [ctx.monomial(*key) for key in basis0]
    zero = ctx.base.zero()
    rows = []
    for m in monos:
        comms = [cl_mul(b, m) - cl_mul(m, b) for b in monos]
        rows += [[Poly(ctx.base, c.terms.get(key, {})) for c in comms] for key in basis0]
    echelon = linalg.Echelon()
    for row in rows:
        for mono in sorted(set().union(*(p.terms for p in row))):
            echelon.add([p.coeff(mono) for p in row])
    constant = (
        _normalize_center_vector(ctx, [ctx.base.const(c) for c in v], dim, unit, top)
        for v in echelon.kernel(dim)
    )
    vec = next((v for v in constant if v is not None), None)
    if vec is None:
        reduced, pivots, _ = fraction_free_rref(
            [{j: p.terms for j, p in enumerate(r)} for r in rows]
        )
        kernel = []
        for f in range(dim):
            if f not in pivots:
                v = [zero] * dim
                v[f] = Poly(ctx.base, reduced[0][pivots[0]]) if pivots else ctx.base.one()
                for row, c in zip(reduced, pivots):
                    v[c] = -Poly(ctx.base, row.get(f, {}))
                kernel.append(v)
        vec = _solve_center_fraction(ctx, kernel, dim, unit, top)
    omega = CliffordElement(ctx, {basis0[k]: p.terms for k, p in enumerate(vec) if p})
    square = cl_mul(omega, omega).sparse_coordinates(basis_columns(basis0))
    alpha = Poly(ctx.base, square.get(top, {})) / (-vec[top].constant_term())
    return omega, alpha, -Poly(ctx.base, square.get(unit, {}))


def _center_triple(ctx):
    rel = center_element(ctx)
    return rel.omega, rel.alpha, rel.beta


_coefficients = st.sampled_from(["0", "1", "-1", "2", "-2", "a", "b", "c", "(a + b)"])
_rank4_monomials = [f"x{i}*x{j}" for i in range(1, 5) for j in range(i, 5)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(_coefficients, min_size=10, max_size=10))
def test_center_matches_full_elimination(coeffs):
    # degenerate and constant forms included: every coefficient may be 0
    terms = [f"{c}*{m}" for c, m in zip(coeffs, _rank4_monomials) if c != "0"]
    q = QuadraticForm.from_expression(["a", "b", "c"], 4, " + ".join(terms) or "0")
    ctx = CliffordContext(q)
    assert _center_triple(ctx) == _reference_center(ctx)


@pytest.mark.parametrize("name", ["universal", "split", "r6", "g4"])
def test_center_matches_full_elimination_on_data(name):
    ctx = CliffordContext(load_qf(DATA / f"{name}.qf"))
    assert _center_triple(ctx) == _reference_center(ctx)


def test_center_corank2_satisfies_the_cover_involution():
    """q = x1*x2 of rank 4 (det b_q = 0): the center of the even part has
    rank above 2.  The closed form gives the Pfaffian element, which obeys
    both laws; the top monomial alone, which the elimination used to pick,
    is central but breaks the twisted law."""
    ctx = CliffordContext(load_qf(DATA / "corank2.qf"))
    rel = center_element(ctx)
    assert str(rel.omega) == "-e3*e4*l^-1 + 2*e1*e2*e3*e4*l^-2"
    assert rel.alpha.is_zero() and rel.beta.is_zero()
    assert center_checks(ctx, rel) == {"commutes_degree0": True, "twisted_degree1": True}
    top = CenterRelation(ctx, ctx.monomial(mask((1, 2, 3, 4)), -2), rel.alpha, rel.beta)
    assert center_checks(ctx, top) == {"commutes_degree0": True, "twisted_degree1": False}


_degenerate_coefficients = ["1", "-1", "2", "1/2", "a", "b", "a*b", "(a - 2*b)"]


def _degenerate_forms(rank, count):
    """Seeded forms that omit one or two fiber variables, so det b_q = 0."""
    rng = random.Random(rank)
    forms = []
    for _ in range(count):
        kept = sorted(rng.sample(range(1, rank + 1), rank - rng.choice([1, 2])))
        terms = [
            f"{rng.choice(_degenerate_coefficients)}*x{i}*x{j}"
            for i in kept
            for j in kept
            if i <= j and rng.random() < 0.7
        ]
        forms.append(QuadraticForm.from_expression(["a", "b"], rank, " + ".join(terms) or "0"))
    return forms


_DEGENERATE_CASES = [(4, 6), (6, 3)]


@pytest.mark.parametrize("rank, count", _DEGENERATE_CASES)
def test_center_checks_on_degenerate_forms(rank, count):
    for q in _degenerate_forms(rank, count):
        assert q.det_bilinear().is_zero()
        ctx = CliffordContext(q)
        checks = center_checks(ctx, center_element(ctx))
        assert checks == {"commutes_degree0": True, "twisted_degree1": True}, str(q.q_poly())


def _generic_form(rank):
    """One base variable c<i><j> per coefficient of q."""
    pairs = [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
    names = [f"c{i}{j}" for i, j in pairs]
    return QuadraticForm.from_expression(
        names, rank, " + ".join(f"{c}*x{i}*x{j}" for c, (i, j) in zip(names, pairs))
    )


@pytest.mark.parametrize("rank, ratio", [(2, -1), (4, 1), (6, -1)])
def test_center_on_the_generic_form(rank, ratio):
    """The generic form of each rank (`_generic_form`).  Both laws and the
    ratio disc/det b_q = (-1)^(n/2) are polynomial identities in the
    coefficients, so each case proves them for every form of its rank."""
    q = _generic_form(rank)
    ctx = CliffordContext(q)
    rel = center_element(ctx)
    assert center_checks(ctx, rel) == {"commutes_degree0": True, "twisted_degree1": True}
    # det b_q by cofactor expansion: `det` (Bareiss) takes ~36 s on the generic 6x6
    assert rel.discriminant() == _cofactor_det(q.bilinear_matrix().dense()) * ratio
    if rank <= 4:
        assert rel.discriminant_comparison() == (Fraction(ratio), Fraction(1))


def _center_checks_on_the_basis(ctx, rel):
    """The two laws on every basis monomial of degrees 0 and 1, as
    `center_checks` once checked them: the oracle for its checks on the
    algebra generators."""
    omega = rel.omega
    conj = rel.conjugate()
    basis0, basis1 = graded_basis(ctx, 0), graded_basis(ctx, 1)
    even_ok = all(
        cl_mul(omega, ctx.monomial(*key)) == CliffordElement(ctx, left)
        for key, left in zip(basis0, monomial_products(ctx, basis0, omega.terms))
    )
    odd_twisted_ok = all(
        CliffordElement(ctx, left) == cl_mul(conj, ctx.monomial(*key))
        for key, left in zip(basis1, monomial_products(ctx, basis1, omega.terms))
    )
    return {"commutes_degree0": even_ok, "twisted_degree1": odd_twisted_ok}


def _perturbed_relations(ctx, rel):
    """rel itself, and omega moved off the center: by a pair generator
    (breaks commutation), by a scalar (commutes, breaks the twisted law)
    and to the top monomial alone."""
    n = ctx.rank
    moved = [
        ctx.monomial(mask((1, 2)), -1),
        ctx.monomial(mask((1, n)), -1).scale(ctx.base.const(3)),
        ctx.one(),
    ]
    top = ctx.monomial(mask(range(1, n + 1)), -(n // 2))
    omegas = [rel.omega + d for d in moved] + [top]
    return [rel] + [CenterRelation(ctx, omega, rel.alpha, rel.beta) for omega in omegas]


def _even_rank_forms():
    files = sorted(DATA.glob("*.qf")) + sorted(PINNED.glob("*.qf"))
    forms = [(p.stem, load_qf(p)) for p in files]
    forms += [(f"generic{rank}", _generic_form(rank)) for rank in (2, 4, 6)]
    for rank, count in _DEGENERATE_CASES:
        forms += [(f"degenerate{rank}_{k}", q) for k, q in enumerate(_degenerate_forms(rank, count))]
    # rank 10 is left to its pin, recorded from the checks on the basis
    return [(name, q) for name, q in forms if q.n % 2 == 0 and q.n <= 8]


_CENTER_FORMS = _even_rank_forms()


@pytest.mark.parametrize("name, q", _CENTER_FORMS, ids=[name for name, _ in _CENTER_FORMS])
def test_center_checks_match_the_basis_oracle(name, q):
    """The checks on the algebra generators give both booleans of the
    checks on every basis monomial, for the center and for elements moved
    off it, so the False branches of both laws are compared."""
    ctx = CliffordContext(q)
    rel = center_element(ctx)
    seen = set()
    for r in _perturbed_relations(ctx, rel):
        checks = center_checks(ctx, r)
        assert checks == _center_checks_on_the_basis(ctx, r), str(r.omega)
        seen.add((checks["commutes_degree0"], checks["twisted_degree1"]))
    # at rank 2 the even part is commutative
    assert seen == {(True, True), (True, False)} | ({(False, False)} if q.n > 2 else set())


def _cofactor_det(entries):
    """Determinant by expansion along the rows from the bottom, memoized by
    the sorted tuple of the remaining columns."""
    n = len(entries)
    minors = {(): entries[0][0].ring.one()}

    def minor(cols):
        if cols not in minors:
            row = entries[n - len(cols)]
            total = row[0].ring.zero()
            for t, c in enumerate(cols):
                term = row[c] * minor(cols[:t] + cols[t + 1 :])
                total = total - term if t % 2 else total + term
            minors[cols] = total
        return minors[cols]

    return minor(tuple(range(n)))


# -- trace --------------------------------------------------------------------------


def test_trace_of_unit_vanishes():
    ctx = universal_ctx()
    assert trace(ctx.one()).is_zero()


def test_trace_of_top_monomial():
    ctx = universal_ctx()
    assert trace(ctx.monomial(mask((1, 2, 3, 4)), -2)) == ctx.base.one()


def test_trace_of_generator_product():
    ctx = universal_ctx()
    prod = ctx.one()
    for i in (1, 2, 3, 4):
        prod = cl_mul(prod, ctx.generator(i))
    assert trace(prod * ctx.l_power(-2)) == ctx.base.one()


def test_trace_rejects_wrong_degree():
    ctx = universal_ctx()
    with pytest.raises(CliffordError):
        trace(ctx.generator(1))


# -- printing and parsing ----------------------------------------------------------------


def test_element_print_style():
    ctx = universal_ctx()
    elem = ctx.monomial(mask((1, 3)), -1)
    assert str(elem) == "e1*e3*l^-1"
    combo = ctx.one() - ctx.monomial(mask((1, 2)), -1)
    assert str(combo) == "1 - e1*e2*l^-1"


def test_parse_element_roundtrip():
    ctx = universal_ctx()
    sources = [
        "e1*e3*l^-1",
        "1 - e1*e2*l^-1",
        "a*e3 + b*e4 - 2*l",
        "(a + b)*e1*e2*e3*l^-1",
    ]
    for src in sources:
        elem = parse_element(src, ctx)
        assert parse_element(str(elem), ctx) == elem


def test_parse_element_rewrites_products():
    ctx = universal_ctx()
    assert parse_element("e2*e1", ctx) == ctx.l_power(1) - ctx.monomial(mask((1, 2)), 0)
    assert parse_element("e3*e3", ctx) == ctx.scalar(ctx.base.var("a")) * ctx.l_power(1)


def test_parse_element_unary_plus_and_parenthesized_l():
    """Element atoms take a unary + as polynomial atoms do, and l keeps its
    negative powers inside parentheses."""
    ctx = universal_ctx()
    assert parse_element("e1*+e2", ctx) == parse_element("e1*e2", ctx)
    assert parse_element("(l)^-2", ctx) == parse_element("l^-2", ctx) == ctx.l_power(-2)
    with pytest.raises(ParseError, match="only allowed on l"):
        parse_element("(-l)^-2", ctx)


@pytest.mark.parametrize("name", ["e0", "e5", "e9", "e01"])
def test_parse_element_generator_names(name):
    """At rank 4 the generators are exactly e1..e4; any other e<i> names none."""
    with pytest.raises(ParseError, match=f"unknown identifier '{name}'"):
        parse_element(f"a*{name}", universal_ctx())


def _outcome(parse, source, context):
    try:
        return parse(source, context)
    except ParseError:
        return ParseError


_BASE_TOKENS = ["a", "b", "c", "+", "-", "*", "/", "(", ")", " ", "0", "1", "2", "3", "1/2"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_BASE_TOKENS), max_size=14).map("".join))
def test_element_grammar_agrees_with_polynomial_grammar(source):
    """Without ^, an expression in the base variables is the same scalar
    element as polynomial, or a ParseError in both grammars."""
    ctx = universal_ctx()
    as_poly = _outcome(parse_poly, source, ctx.base)
    expected = as_poly if as_poly is ParseError else ctx.scalar(as_poly)
    assert _outcome(parse_element, source, ctx) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_BASE_TOKENS + ["^", "^", "^-", "9"]), max_size=14).map("".join))
def test_element_powers_agree_with_polynomial_powers(source):
    """With ^ the grammars bound powers differently (one pre-check of the
    term count for polynomials, a chain of bounded products for elements),
    so they agree on the value wherever both accept."""
    ctx = universal_ctx()
    as_poly = _outcome(parse_poly, source, ctx.base)
    as_element = _outcome(parse_element, source, ctx)
    if ParseError not in (as_poly, as_element):
        assert as_element == ctx.scalar(as_poly)


def test_parse_element_rejects_negative_generator_power():
    with pytest.raises(Exception):
        parse_element("e1^-1", universal_ctx())


def test_parse_element_exponent_cap():
    ctx = universal_ctx()
    with pytest.raises(ParseError, match="exceeds"):
        parse_element(f"e1^{MAX_EXPONENT + 1}", ctx)
    with pytest.raises(ParseError, match="exceeds"):
        parse_element(f"l^-{MAX_EXPONENT + 1}", ctx)


def test_parse_element_degree_cap():
    ctx = universal_ctx()
    with pytest.raises(ParseError, match="degree 4096 exceeds"):
        parse_element(f"((a + 1)^{MAX_EXPONENT})^{MAX_EXPONENT}", ctx)
    with pytest.raises(ParseError, match="degree 65 exceeds"):
        parse_element(f"a^{MAX_EXPONENT}*b*e1", ctx)
    # e3*e3 = a*l: the degree the rewriting adds is bounded too
    with pytest.raises(ParseError, match="degree 65 exceeds"):
        parse_element(f"a^{MAX_EXPONENT - 1}*e3*e3*e3*e3", ctx)
    a = ctx.base.var("a")
    assert parse_element(f"e3^{MAX_EXPONENT}", ctx) == ctx.scalar(a**32) * ctx.l_power(32)


def test_parse_element_term_count_cap():
    """Each product of elements is refused when the term counts of its
    factors multiply past MAX_TERMS; a power is a chain of such products."""
    ctx = universal_ctx()
    with pytest.raises(ParseError, match="term count bound 27225 exceeds"):
        parse_element("(a + b + c + 1)^8*(a + b + c + 1)^8*e1", ctx)
    with pytest.raises(ParseError, match="exceeds the maximum 4096"):
        parse_element("(a + b + c + 1)^40*e1", ctx)
    assert len(parse_element("(a + b + c + 1)^8*e1", ctx).terms[(mask((1,)), 0)]) == 165
