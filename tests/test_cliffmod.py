import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrikit import clifford, cliffmod, linalg, polyalg
from quadrikit.linalg import PointRows
from quadrikit.polyalg import Poly, PolyMatrix, Ring, det, parse_poly
from quadrikit.quadform import QuadFormError, QuadraticForm, Subbundle, load_qf
from quadrikit.clifford import (
    CliffordContext,
    basis_columns,
    center_element,
    cl_mul,
    graded_basis,
    monomial_products,
    trace,
)
from quadrikit.cliffmod import (
    DEFAULT_SEED,
    CliffModError,
    Specialization,
    clifford_ideal,
    duality_pairing,
    expected_ideal_rank,
    spinor_phi,
    verify_cokernel_sequence,
    verify_duality,
    verify_flag_sequence,
    verify_matrix_factorization,
    verify_mf_report,
    verify_multiplication_iso,
)


def universal_ctx():
    q = QuadraticForm.from_expression(
        ["a", "b", "c"], 4, "x1*x2 + a*x3^2 + b*x3*x4 + c*x4^2"
    )
    return CliffordContext(q)


def corank2_ctx():
    return CliffordContext(QuadraticForm.from_expression([], 4, "x1*x2"))


def span_e1(ctx):
    return Subbundle([[1, 0, 0, 0]], ctx.base)


def span_e13(ctx):
    return Subbundle([[1, 0, 0, 0], [0, 0, 1, 0]], ctx.base)


# -- ideal construction -----------------------------------------------------


def test_rank_law_universal_w_rank1():
    ctx = universal_ctx()
    w = span_e1(ctx)
    for n in (-1, 0, 1, 2):
        for side in ("left", "right"):
            basis = clifford_ideal(ctx, w, n, side)
            assert basis.rank == 4 == expected_ideal_rank(ctx, w)


def test_rank_law_empty_subbundle():
    ctx = universal_ctx()
    w = Subbundle.empty(ctx.base, 4)
    basis = clifford_ideal(ctx, w, 0)
    assert basis.rank == 8
    one = ctx.base.one().terms
    assert basis.rows == [{i: one} for i in range(8)]


def test_rank_law_corank2_w_rank2():
    ctx = corank2_ctx()
    basis = clifford_ideal(ctx, span_e13(ctx), 0)
    assert basis.rank == 2 == expected_ideal_rank(ctx, span_e13(ctx))


def test_left_right_ranks_agree():
    ctx = universal_ctx()
    w = span_e1(ctx)
    left = clifford_ideal(ctx, w, 0, "left")
    right = clifford_ideal(ctx, w, 0, "right")
    assert left.rank == right.rank


def test_non_isotropic_subbundle_rejected():
    ctx = universal_ctx()
    w = Subbundle([[0, 0, 1, 0]], ctx.base)
    with pytest.raises(QuadFormError):
        clifford_ideal(ctx, w, 0)


def test_ideal_certification_records_points():
    ctx = universal_ctx()
    basis = clifford_ideal(ctx, span_e1(ctx), 0)
    assert len(basis.certification["extra_points"]) == 5
    assert all(p["full_rank"] for p in basis.certification["extra_points"])


def _reference_ideal(ctx, w, n, side, seed):
    """`clifford_ideal`'s spanning monomials and certification from a plain
    greedy pass: every coordinate of every spanning product evaluated with
    `Poly.evaluate`, each row reduced with one `Echelon`."""
    omega = cliffmod.w_top_element(ctx, w)
    span_basis = graded_basis(ctx, n - w.r)
    columns = basis_columns(graded_basis(ctx, n))
    spanning = [
        cl_mul(ctx.monomial(*key), omega) if side == "left" else cl_mul(omega, ctx.monomial(*key))
        for key in span_basis
    ]

    def values(element, point):
        return {
            c: Poly(ctx.base, t).evaluate(point.assignment)
            for c, t in element.sparse_coordinates(columns).items()
        }

    points, degenerate = cliffmod._points(ctx, seed, 1 + cliffmod.CERT_SAMPLES)
    point = points[0]
    echelon = linalg.Echelon()
    selected = [i for i, e in enumerate(spanning) if echelon.add(values(e, point))]
    extra = [] if degenerate else points[1:]
    certification = {
        "generic_point": point.as_strings(),
        "rejections": point.rejections,
        "degenerate_base": degenerate,
        "extra_points": [
            {
                "point": x.as_strings(),
                "full_rank": linalg.q_rank([values(spanning[i], x) for i in selected])
                == len(selected),
            }
            for x in extra
        ],
    }
    return [span_basis[i] for i in selected], certification


_QF_FILES = sorted((Path(__file__).resolve().parents[1] / "data").glob("*.qf"))


@pytest.mark.parametrize("path", _QF_FILES, ids=[p.stem for p in _QF_FILES])
def test_ideal_selection_matches_plain_greedy_pass(path):
    """The subbundles and degrees the verify suites build their ideals
    from, on both sides: the prepared rows select the same spanning
    monomials and certify the same points as the plain pass."""
    q = load_qf(str(path))
    ctx = CliffordContext(q)
    subbundles = [Subbundle.empty(q.base, q.n)]
    for i in range(q.n):
        vec = [Fraction(int(k == i)) for k in range(q.n)]
        if q.apply(vec).is_zero():
            subbundles.append(Subbundle([vec], q.base))
            break
    for w in subbundles:
        for n in (-1, 0, 1, 2):
            for side in ("left", "right"):
                ideal = clifford_ideal(ctx, w, n, side)
                monomials, certification = _reference_ideal(ctx, w, n, side, DEFAULT_SEED)
                assert ideal.spanning_monomials == monomials
                assert ideal.certification == certification


def test_greedy_selection_skips_zero_and_proportional_rows():
    ring = Ring(("a", "b", "c"))
    a, b, c = ring.gens()
    r0 = [a, b * 2, ring.zero()]
    r3 = [c, ring.one(), a * b]
    rows = [
        r0,
        [ring.zero()] * 3,  # zero row
        [-p for p in r0],  # negated copy
        r3,
        [p / 2 for p in r3],  # half of an earlier row
        [x + y for x, y in zip(r0, r3)],
        [p * 3 for p in r3],
    ]
    prepared = PointRows(ring, [dict(enumerate(p.terms for p in row)) for row in rows])
    assert prepared.kept == [0, 3, 5]
    for point in (
        {"a": 2, "b": -3, "c": 5},
        {"a": 0, "b": 0, "c": 0},
        {"a": Fraction(1, 2), "b": 1, "c": 1},
    ):
        plain, fast = linalg.Echelon(), linalg.Echelon()
        reference = [i for i, row in enumerate(rows) if plain.add([p.evaluate(point) for p in row])]
        at_point = prepared.at(ring.point(point))
        selected = [i for i, row in zip(prepared.kept, at_point) if fast.add(row)]
        assert selected == reference
        assert fast.pivots == plain.pivots and fast.kernel(3) == plain.kernel(3)


def _l_periodic(ctx, w, n):
    """The degree n+2 ideal is l times the degree-n ideal, coordinate for
    coordinate: the same rows, spanned by the monomials shifted by l."""
    a = cliffmod._ideal(ctx, w, n, "left", DEFAULT_SEED)
    b = cliffmod._ideal(ctx, w, n + 2, "left", DEFAULT_SEED)
    return a.rows == b.rows and b.spanning_monomials == [
        (idx, m + 1) for idx, m in a.spanning_monomials
    ]


def test_l_periodicity_exact():
    ctx = universal_ctx()
    assert _l_periodic(ctx, span_e1(ctx), 0)
    assert _l_periodic(ctx, span_e1(ctx), -1)
    assert _l_periodic(ctx, Subbundle.empty(ctx.base, 4), 0)
    assert _l_periodic(corank2_ctx(), span_e13(corank2_ctx()), 0)


def test_context_builds_each_ideal_once(monkeypatch):
    """Every caller on one context shares its ideals: each (w, n, side)
    ideal is built once, and an equal but distinct subbundle builds its own."""
    ctx = universal_ctx()
    w = span_e1(ctx)
    built = []
    build = cliffmod.clifford_ideal

    def counted(ctx, w, n, side, seed):
        built.append((n, side))
        return build(ctx, w, n, side, seed)

    monkeypatch.setattr(cliffmod, "clifford_ideal", counted)
    spinor_phi(ctx, w, 0)
    spinor_phi(ctx, w, 1)
    assert _l_periodic(ctx, w, -1)
    assert verify_mf_report(ctx, w, [-1, 0, 1]).ok
    assert built == [(-1, "left"), (0, "left"), (1, "left")]
    spinor_phi(ctx, span_e1(ctx), 0)
    assert len(built) == 5


# -- specializations ---------------------------------------------------------


def test_specialization_avoids_locus_and_counts_rejections():
    ctx = universal_ctx()
    detb = ctx.q.det_bilinear()
    hit = None
    for seed in range(200):
        rng = random.Random(seed)
        point = Specialization.generic(ctx.base, rng, avoid=detb)
        assert detb.evaluate(point.assignment) != 0
        if point.rejections > 0:
            hit = point
            break
    assert hit is not None, "no seed exercised the resampling path"


def test_generic_points_match_the_constructor_and_store_ints():
    """A drawn point is the point the constructor makes of its assignment:
    the same `assignment`, `vals` and `as_strings()`, every coordinate an
    int.  The constructor keeps a non-integral coordinate as a Fraction and
    stores an integral one, given as a Fraction or a string, as an int."""
    ctx = universal_ctx()
    rng = random.Random(DEFAULT_SEED)
    for _ in range(20):
        point = Specialization.generic(ctx.base, rng, avoid=ctx.q.det_bilinear())
        again = Specialization(point.assignment, ring=ctx.base)
        assert point.assignment == again.assignment
        assert point.vals == again.vals == ctx.base.point(point.assignment)
        assert point.as_strings() == again.as_strings()
        for coords in (point.assignment, point.vals, again.assignment, again.vals):
            assert all(type(x) is int for x in coords.values())
    user = Specialization({"a": Fraction(-1, 2), "b": Fraction(4, 2), "c": "3"}, ring=ctx.base)
    assert user.assignment == {"a": Fraction(-1, 2), "b": 2, "c": 3}
    assert [type(x) for x in user.assignment.values()] == [Fraction, int, int]
    assert user.vals == {0: Fraction(-1, 2), 1: 2, 2: 3}
    assert user.as_strings() == {"a": "-1/2", "b": "2", "c": "3"}


def test_specialization_error_when_locus_is_everything():
    ctx = corank2_ctx()
    with pytest.raises(CliffModError):
        verify_multiplication_iso(ctx, span_e13(ctx), 1, 0)


# -- sequence verifiers --------------------------------------------------------


def test_multiplication_iso_universal():
    ctx = universal_ctx()
    w = span_e1(ctx)
    for m, n in ((1, 0), (1, 1), (2, 0)):
        report = verify_multiplication_iso(ctx, w, m, n)
        assert report.ok
        assert len(report.samples) == 5
        assert all(s.data["product_rank"] == 4 for s in report.samples)


def test_multiplication_iso_keeps_only_its_ideals_row_blocks():
    """With the cyclic collector off, the row blocks a finished
    multiplication-iso check leaves alive are its ideals' `point_rows`, in
    `ctx.ideals`: its own product block, and the ranks kept in it, are freed
    with the verifier."""
    import gc

    ctx = universal_ctx()

    def blocks():
        return {id(x) for x in gc.get_objects() if isinstance(x, PointRows)}

    gc.collect()
    gc.disable()
    try:
        before = blocks()
        report = verify_multiplication_iso(ctx, span_e1(ctx), 1, 0)
        left = blocks() - before
    finally:
        gc.enable()
    assert report.ok
    assert len(ctx.ideals) == 2
    assert left == {id(ideal.point_rows) for ideal in ctx.ideals.values()}


def test_multiplication_iso_m0_identity_case():
    ctx = universal_ctx()
    report = verify_multiplication_iso(ctx, span_e1(ctx), 0, 0)
    assert report.ok


def test_multiplication_iso_periodicity_note():
    ctx = universal_ctx()
    report = verify_multiplication_iso(ctx, span_e1(ctx), 2, 0)
    assert any("l-shift" in note and "True" in note for note in report.notes)


_PINNED_QF = sorted((Path(__file__).resolve().parent / "pinned").glob("*.qf"))
_ALL_QF = _QF_FILES + _PINNED_QF


@pytest.mark.parametrize("path", _ALL_QF, ids=[p.stem for p in _ALL_QF])
def test_ideal_point_rows_match_a_fresh_preparation(path, monkeypatch):
    """Every ideal `verify --suite all` builds keeps as its `point_rows` the
    selected rows of its spanning set's preparation; at its certification
    points and at two more, integral and rational, they give the rows a
    fresh preparation of its `rows` gives.  A form degenerate everywhere
    is refused after its first ideals are built.  Most ideal entries are
    constants; those of dense6 and rat6 are not."""
    from quadrikit import cli

    built = []
    build = cliffmod.clifford_ideal

    def recorded(ctx, w, n, side, seed):
        built.append(build(ctx, w, n, side, seed))
        return built[-1]

    monkeypatch.setattr(cliffmod, "clifford_ideal", recorded)
    q = load_qf(str(path))
    if q.det_bilinear().is_zero():
        with pytest.raises(CliffModError, match="degenerate everywhere"):
            cli._run_suites(q, "all", DEFAULT_SEED, 5)
    else:
        assert all(r.ok for r in cli._run_suites(q, "all", DEFAULT_SEED, 5))
    assert built
    names = q.base.variables
    for ideal in built:
        cert = ideal.certification
        points = [cert["generic_point"]] + [x["point"] for x in cert["extra_points"]]
        points.append({v: k + 2 for k, v in enumerate(names)})
        points.append({v: Fraction(k - 2, 3) for k, v in enumerate(names)})
        fresh = PointRows(q.base, ideal.rows)
        assert ideal.point_rows.kept == fresh.kept == list(range(ideal.rank))
        for point in points:
            vals = q.base.point(Specialization(point).assignment)
            assert ideal.point_rows.at(vals) == fresh.at(vals)


def _suite_subbundle(q):
    """The subbundle `verify` runs its suites on."""
    from quadrikit.cli import _pick_isotropic_generator

    return _pick_isotropic_generator(q) or Subbundle.empty(q.base, q.n)


@pytest.mark.parametrize("path", _ALL_QF, ids=[p.stem for p in _ALL_QF])
def test_multiplication_iso_generator_rows_have_the_full_basis_rank(path):
    """At every sample point, the products of the degree-m algebra
    generators with the ideal generators have the rank of the products
    b_k g_j of the whole degree-m graded basis, the rows the suite once
    built; a form with no point off the locus is refused."""
    q = load_qf(str(path))
    ctx = CliffordContext(q)
    w = _suite_subbundle(q)
    for m, n in ((1, 0), (1, 1), (2, 0)):
        if q.det_bilinear().is_zero():
            with pytest.raises(CliffModError, match="degenerate everywhere"):
                verify_multiplication_iso(ctx, w, m, n)
            continue
        report = verify_multiplication_iso(ctx, w, m, n)
        ideal_n = cliffmod._ideal(ctx, w, n, "left", DEFAULT_SEED)
        columns = basis_columns(graded_basis(ctx, m + n))
        full = PointRows(ctx.base, [
            row
            for g in ideal_n.generators
            for row in monomial_products(ctx, graded_basis(ctx, m), g, columns)
        ])
        assert len(report.samples) == 5
        for s in report.samples:
            vals = ctx.base.point(Specialization(s.point).assignment)
            assert s.data["product_rank"] == linalg.q_rank(full.at(vals))


def test_cokernel_universal():
    ctx = universal_ctx()
    report = verify_cokernel_sequence(ctx, span_e1(ctx), 0)
    assert report.ok
    for s in report.samples:
        assert s.data["dim"] == 8
        assert s.data["image_rank"] == 4
        assert s.data["quotient_rank"] == 4


def test_cokernel_rank2_hyperbolic():
    ctx = CliffordContext(QuadraticForm.from_expression([], 2, "x1*x2"))
    w = Subbundle([[1, 0]], ctx.base)
    report = verify_cokernel_sequence(ctx, w, 0)
    assert report.ok
    for s in report.samples:
        assert s.data["dim"] == 2
        assert s.data["image_rank"] == 1


def test_cokernel_shift_by_two_same_ranks():
    ctx = universal_ctx()
    r0 = verify_cokernel_sequence(ctx, span_e1(ctx), 0)
    r2 = verify_cokernel_sequence(ctx, span_e1(ctx), 2)
    assert [s.data for s in r0.samples] == [s.data for s in r2.samples]


def test_flag_with_empty_inner():
    ctx = universal_ctx()
    empty = Subbundle.empty(ctx.base, 4)
    report = verify_flag_sequence(ctx, empty, span_e1(ctx), 0)
    assert report.ok
    for s in report.samples:
        assert s.data["inner_rank"] == 8
        assert s.data["outer_rank"] == 4
        assert s.data["next_rank"] == 4


def test_flag_corank2_nested():
    ctx = corank2_ctx()
    w = span_e13(ctx)
    inner = w.prefix(1)
    report = verify_flag_sequence(ctx, inner, w, 0)
    assert report.ok
    for s in report.samples:
        assert s.data["inner_rank"] == 4
        assert s.data["outer_rank"] == 2
        assert s.data["next_rank"] == 2
    assert any("degenerate base" in n for n in report.notes)


def test_flag_prepares_only_its_product_rows(monkeypatch):
    """The flag verifier reads its three ideals at each point from their
    `point_rows`; the one row set it prepares is the products with the
    added vector."""
    ctx = universal_ctx()
    empty, w = Subbundle.empty(ctx.base, 4), span_e1(ctx)
    first = verify_flag_sequence(ctx, empty, w, 0)  # builds the ideals
    made = []

    def counted(ring, rows):
        made.append(rows)
        return PointRows(ring, rows)

    monkeypatch.setattr(cliffmod, "PointRows", counted)
    again = verify_flag_sequence(ctx, empty, w, 0)
    assert len(made) == 1
    assert again.to_dict() == first.to_dict()


def test_constant_blocks_are_evaluated_and_eliminated_once(monkeypatch):
    """On R6 every row block of the flag and cokernel suites is constant:
    with 10 samples the run evaluates no block more often, takes no more
    ranks by `linalg.q_rank` and eliminates no more rows than with one
    sample.  Multiplication-iso's degree-1 product blocks depend on the
    point and are evaluated at every sample."""
    from quadrikit import cli

    q = load_qf(str(_QF_FILES[0].parent / "r6.qf"))
    evaluated, ranked, added = {}, [], []
    at, q_rank, add = PointRows.at, linalg.q_rank, linalg.Echelon.add

    def counted_at(block, vals):
        evaluated[block] = evaluated.get(block, 0) + 1
        return at(block, vals)

    def counted_q_rank(rows):
        ranked.append(rows)
        return q_rank(rows)

    def counted_add(echelon, row):
        added.append(row)
        return add(echelon, row)

    monkeypatch.setattr(PointRows, "at", counted_at)
    monkeypatch.setattr(linalg, "q_rank", counted_q_rank)
    monkeypatch.setattr(linalg.Echelon, "add", counted_add)

    def run(suite, samples):
        """Evaluations per block, ranks taken, rows added."""
        evaluated.clear()
        ranked.clear()
        added.clear()
        assert all(r.ok for r in cli._run_suites(q, suite, DEFAULT_SEED, samples))
        calls = sorted(evaluated.values())
        return all(block.constant for block in evaluated), calls, len(ranked), len(added)

    for suite in ("flag", "cokernel"):
        once = run(suite, 1)
        assert once[0]
        assert run(suite, 10) == once
    run("multiplication-iso", 10)
    assert sorted(n for block, n in evaluated.items() if not block.constant) == [10, 10]


def test_flag_requires_prefix():
    ctx = universal_ctx()
    w = Subbundle([[1, 0, 0, 0], [0, 0, 1, 0]], ctx.base)
    not_prefix = Subbundle([[0, 0, 1, 0]], ctx.base)
    with pytest.raises(CliffModError):
        verify_flag_sequence(ctx, not_prefix, w, 0)


# -- duality ---------------------------------------------------------------------


def test_duality_universal_nonzero_off_locus():
    ctx = universal_ctx()
    for k in (0, 1):
        report = verify_duality(ctx, span_e1(ctx), k)
        assert report.ok
        assert report.configuration["size"] == 4


@pytest.mark.parametrize(
    "verify",
    [
        lambda ctx, w: verify_multiplication_iso(ctx, w, 1, 0, samples=0),
        lambda ctx, w: verify_cokernel_sequence(ctx, w, 0, samples=0),
        lambda ctx, w: verify_flag_sequence(ctx, w.prefix(0), w, 0, samples=0),
        lambda ctx, w: verify_duality(ctx, w, 0, samples=0),
    ],
    ids=["multiplication-iso", "cokernel", "flag", "duality"],
)
def test_verifiers_refuse_zero_samples(verify):
    ctx = universal_ctx()
    with pytest.raises(CliffModError, match="at least one sample"):
        verify(ctx, span_e1(ctx))


def test_everywhere_degenerate_form_refused_before_products(monkeypatch):
    """A form degenerate at every base point is refused once its ideals
    exist, before any product row, pairing entry or determinant."""
    ctx = CliffordContext(QuadraticForm.from_expression(["a"], 4, "x1*x2"))
    w = span_e1(ctx)
    built = {
        (n, side): clifford_ideal(ctx, w, n, side)
        for n, side in ((0, "left"), (1, "left"), (1, "right"))
    }

    def refuse(*args):
        raise AssertionError("products built on an everywhere-degenerate form")

    monkeypatch.setattr(
        cliffmod, "clifford_ideal", lambda ctx, w, n, side, seed: built[(n, side)]
    )
    monkeypatch.setattr(cliffmod, "monomial_products", refuse)
    monkeypatch.setattr(clifford.CliffordContext, "act", refuse)
    monkeypatch.setattr(polyalg, "det", refuse)
    with pytest.raises(CliffModError, match="degenerate everywhere"):
        verify_multiplication_iso(ctx, w, 1, 0)
    with pytest.raises(CliffModError, match="degenerate everywhere"):
        verify_duality(ctx, w, 0)


_DUALITY_QF = [p for p in _ALL_QF if p.stem in ("r6", "r8", "universal", "dense6", "rat6")]


@pytest.mark.parametrize("path", _DUALITY_QF, ids=[p.stem for p in _DUALITY_QF])
def test_pairing_matrix_is_the_trace_of_the_full_products(path):
    """The pairing sums traces of monomial pairs, each carrying only the
    terms that can still cover e_1...e_n; for every k the duality suite
    runs, its matrix is the one read off the full products with `trace`."""
    q = load_qf(str(path))
    ctx = CliffordContext(q)
    w = _suite_subbundle(q)
    for k in range(w.r + 1):
        left, right = cliffmod._duality_ideals(ctx, w, k, DEFAULT_SEED)
        full = [monomial_products(ctx, right.spanning_monomials, g) for g in left.generators]
        rows = [
            {j: trace(ctx.element(p[r])) for j, p in enumerate(full)}
            for r in range(len(right.spanning_monomials))
        ]
        expected = PolyMatrix(ctx.base, rows, len(full))
        assert any(expected.entries)
        assert cliffmod._pairing_matrix(ctx, left, right) == expected


def test_duality_rank2_pairing_matrix():
    ctx = CliffordContext(QuadraticForm.from_expression([], 2, "x1*x2"))
    pairing = duality_pairing(ctx, Subbundle.empty(ctx.base, 2), 0)
    assert pairing.rows == pairing.cols == 2
    value = det(pairing).constant_term()
    assert value != 0
    assert ctx.q.det_bilinear().constant_term() == -1


def test_duality_determinant_is_minus_one_on_deep_degeneration():
    """The universal form's pairing for span(e1), k = 0, has the constant
    determinant -1, so it stays perfect over the corank-2 point a = b = c = 0."""
    ctx = universal_ctx()
    d = det(duality_pairing(ctx, span_e1(ctx), 0))
    assert d == ctx.base.const(-1)
    assert d.evaluate({"a": 0, "b": 0, "c": 0}) == -1


# -- spinor presentations -----------------------------------------------------------


def test_spinor_corank2_2x2_factorization():
    ctx = corank2_ctx()
    w = span_e13(ctx)
    p0 = spinor_phi(ctx, w, 0)
    p1 = spinor_phi(ctx, w, 1)
    assert p0.size == p1.size == 2
    ok, witness = verify_matrix_factorization(ctx.q, p0, p1)
    assert ok and witness is None
    product = p1.phi * p0.phi
    q_poly = parse_poly("x1*x2", p0.ring)
    assert product[0, 0] == q_poly
    assert product[0, 1].is_zero()


def test_spinor_universal_4x4_all_degrees():
    ctx = universal_ctx()
    w = span_e1(ctx)
    report = verify_mf_report(ctx, w, [-1, 0, 1, 2])
    assert report.ok
    assert all(s.data["size"] == 4 for s in report.samples)
    assert len(report.samples) == 2  # pairs (0,1) and (1,2)


def test_spinor_empty_w_8x8():
    ctx = universal_ctx()
    w = Subbundle.empty(ctx.base, 4)
    report = verify_mf_report(ctx, w, [-1, 0, 1])
    assert report.ok
    assert all(s.data["size"] == 8 for s in report.samples)


def test_spinor_entries_linear_in_fiber_vars():
    ctx = universal_ctx()
    pres = spinor_phi(ctx, span_e1(ctx), 1)
    nb = ctx.base.arity
    for row in pres.phi.entries:
        for p in row.values():
            for mono in p.terms:
                assert sum(mono[nb:]) == 1


def test_spinor_phi_refuses_coefficients_that_are_not_polynomial():
    """Target rows scaled by the base variable a express every image only
    with coefficients divided by a."""
    ctx = universal_ctx()
    w = span_e1(ctx)
    ideal = cliffmod._ideal(ctx, w, 1, "left", DEFAULT_SEED)
    a = ctx.base.var("a")
    ideal.rows = [{c: (Poly(ctx.base, t) * a).terms for c, t in row.items()} for row in ideal.rows]
    with pytest.raises(CliffModError, match="not polynomial; inconsistent generator bases"):
        spinor_phi(ctx, w, 1)


def test_spinor_phi_refuses_an_image_outside_the_target_ideal():
    """With the degree-1 ideal of span(e2) in place of span(e1)'s, e1 g_0
    (g_0 a generator of span(e1)'s degree-0 ideal) lies outside it."""
    ctx = universal_ctx()
    w = span_e1(ctx)
    e2 = Subbundle([[0, 1, 0, 0]], ctx.base)
    ctx.ideals[(w, 1, "left", DEFAULT_SEED)] = clifford_ideal(ctx, e2, 1)
    with pytest.raises(
        CliffModError,
        match=r"not expressible in the target generators \(generator 0, fiber index 1\)",
    ):
        spinor_phi(ctx, w, 1)


def test_perturbed_phi_fails_with_witness():
    ctx = universal_ctx()
    w = span_e1(ctx)
    p0 = spinor_phi(ctx, w, 0)
    p1 = spinor_phi(ctx, w, 1)
    tampered = [dict(row) for row in p1.phi.entries]
    tampered[2][1] = p1.phi[2, 1] + p1.ring.one()
    import quadrikit.cliffmod as cm

    bad = cm.SpinorPresentation(w, 1, PolyMatrix(p1.ring, tampered, p1.size), p1.ring)
    ok, witness = verify_matrix_factorization(ctx.q, p0, bad)
    assert not ok
    assert witness["row"] == 2
    assert "got" in witness and "expected" in witness

    # phi_0 = Id makes the product phi_1 itself: a q*Id with an off-diagonal
    # zero cell and a diagonal cell tampered; the witness is whichever
    # comes first in row-major order
    ring, d = p1.ring, p1.size
    q_poly = ctx.q.q_poly(ring)
    identity = cm.SpinorPresentation(w, 0, PolyMatrix(ring, [{i: ring.one()} for i in range(d)], d), ring)
    x1 = ring.var("x1")
    for off, diag, first in [((1, 3), 2, (1, 3)), ((2, 3), 2, (2, 2)), ((2, 1), 2, (2, 1)), ((3, 0), 1, (1, 1))]:
        rows = [{i: q_poly} for i in range(d)]
        rows[off[0]][off[1]] = x1
        rows[diag][diag] = q_poly + ring.one()
        bad = cm.SpinorPresentation(w, 1, PolyMatrix(ring, rows, d), ring)
        ok, witness = verify_matrix_factorization(ctx.q, identity, bad)
        assert not ok
        assert (witness["row"], witness["col"]) == first
        assert witness["got"] == str(x1 if first == off else q_poly + ring.one())
        assert witness["expected"] == ("0" if first == off else str(q_poly))


_R6 = CliffordContext(load_qf(Path(__file__).resolve().parent.parent / "data" / "r6.qf"))
_nonzero_rationals = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(_nonzero_rationals, st.sampled_from([0, 1]), st.integers(-1, 1))
def test_phi_consecutive_product_is_q_on_r6(lam, axis, n):
    # w = lambda e1 or lambda e2 is isotropic for x1*x2 + ...: the exact
    # identity phi_(n+1) phi_n = q Id holds in the fiber ring
    vec = [0] * 6
    vec[axis] = lam
    w = Subbundle([vec], _R6.base)
    phi_n = spinor_phi(_R6, w, n)  # the context shares the degree-n ideal
    phi_next = spinor_phi(_R6, w, n + 1)
    ring = phi_n.ring
    q = _R6.q.q_poly(ring)
    product = phi_next.phi * phi_n.phi
    assert product.rows == product.cols == 16
    for i, row in enumerate(product.dense()):
        for j, entry in enumerate(row):
            assert entry == (q if i == j else ring.zero())


def test_r6_spinor_phi_and_center_hold_only_ints():
    """On the integral form R6 every coefficient of the spinor matrices and
    of the center relation is stored as an int, none as a Fraction."""
    w = Subbundle([[1, 0, 0, 0, 0, 0]], _R6.base)
    polys = [p for n in (0, 1) for row in spinor_phi(_R6, w, n).phi.entries for p in row.values()]
    rel = center_element(_R6)
    polys += [*rel.omega.terms.values(), rel.alpha, rel.beta]
    coeffs = [c for p in polys for c in p.terms.values()]
    assert coeffs and all(type(c) is int for c in coeffs)


def test_phi_invertible_off_quadric():
    """At a total-space point off the quadric, phi_n is invertible over Q."""
    ctx = universal_ctx()
    for n in (0, 1):
        pres = spinor_phi(ctx, span_e1(ctx), n)
        q_poly = ctx.q.q_poly(pres.ring)
        point = Specialization.generic(pres.ring, random.Random(DEFAULT_SEED), avoid=q_poly)
        values = [{j: p.evaluate(point.assignment) for j, p in row.items()} for row in pres.phi.entries]
        assert linalg.q_rank(values) == pres.size


def test_mf_requires_consecutive_degrees():
    ctx = universal_ctx()
    w = span_e1(ctx)
    p0 = spinor_phi(ctx, w, 0)
    p2 = spinor_phi(ctx, w, 2)
    with pytest.raises(CliffModError):
        verify_matrix_factorization(ctx.q, p0, p2)


def test_report_serialization():
    ctx = universal_ctx()
    report = verify_cokernel_sequence(ctx, span_e1(ctx), 0)
    payload = report.to_dict()
    assert payload["operation"] == "cokernel"
    assert len(payload["samples"]) == 5
    text = report.to_text()
    assert "cokernel: PASS" in text
