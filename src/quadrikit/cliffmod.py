"""Clifford ideals with certified ranks, exact-sequence verifiers over
seeded sample points, the duality trace pairing, and spinor presentation
matrices checked as matrix factorizations of the quadratic form.

Local freeness is certified sample-wise: a generic base point plus five
further points off the first degeneration locus, drawn from a fixed seed
as int coordinates.  A context owns its ideals and its sample points:
`_ideal` builds each (subbundle, degree, side, seed) ideal once per context
and keeps it in `CliffordContext.ideals`, with its rows prepared for sample
points once, as its `point_rows`; `_points` draws each seed's points once
per context, in `CliffordContext.points`, and every ideal and verifier
reads that sequence.  Every sample-point rank is taken by a row block,
`linalg.PointRows.rank` and `stacked_ranks`.  A constant block is one
stored int matrix at every point, so its rank and its stacked rank with
another constant block are computed once and kept in the block: an
ideal's live with the ideal in `ctx.ideals`, a verifier's own are freed
with the verifier.  A block with a base variable evaluates only its
varying rows at each point, and its ranks are taken there and kept nowhere.

The four sampled verifiers (multiplication-iso, cokernel, flag, duality)
state a worker, point -> (ok, data), and `_sampled` runs it and builds
their one kind of report.  When det b_q is identically zero no point lies
off the locus: multiplication-iso and duality refuse the form once their
ideals exist (`_refuse_degenerate`); cokernel, flag and ideal certification
need no primitivity and run on unconstrained points, recorded as a report
note (`_sampled`) or as the ideal's `degenerate_base`.
"""

import random
from fractions import Fraction

from quadrikit.polyalg import (
    Poly,
    PolyError,
    PolyMatrix,
    _coefficient,
    div_terms,
    fraction_free_rref,
)
from quadrikit.linalg import Echelon, PointRows
from quadrikit._kernel import mul_terms
from quadrikit.clifford import CliffordError, _accumulate, basis_columns, cl_mul, graded_basis
from quadrikit.clifford import monomial_products
from quadrikit.quadform import QuadFormError, is_isotropic

DEFAULT_SEED = 24237
CERT_SAMPLES = 5
_MAX_TRIES = 100
_SAMPLE_RANGE = (-9, 9)  # bounds of the sampled integer coordinates


class CliffModError(CliffordError):
    pass


class Specialization:
    """A rational base point, integral coordinates stored as ints and others
    as Fractions; `generic` points are rejection-sampled int points off the
    zero locus of a given polynomial, counting the rejected draws.  A point
    is resolved once: `vals` holds its `Ring.point` values when it has a
    ring, and `as_strings()` one dict of its printed coordinates."""

    __slots__ = ("assignment", "rejections", "vals", "_strings")

    def __init__(self, assignment, rejections=0, ring=None):
        self.assignment = {
            k: v if type(v) is int else _coefficient(Fraction(v)) for k, v in assignment.items()
        }
        self.rejections = rejections
        self.vals = None if ring is None else ring.point(self.assignment)
        self._strings = {k: str(v) for k, v in sorted(self.assignment.items())}

    @classmethod
    def generic(cls, ring, rng, avoid=None):
        """Sample integer coordinates in `_SAMPLE_RANGE` until `avoid` is
        nonzero there."""
        for rejections in range(_MAX_TRIES):
            assignment = {v: rng.randint(*_SAMPLE_RANGE) for v in ring.variables}
            if avoid is None or avoid.evaluate(assignment) != 0:
                return cls(assignment, rejections, ring)
        raise CliffModError(
            f"could not sample a point off the avoided locus after {_MAX_TRIES} tries"
        )

    def as_strings(self):
        return self._strings

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self._strings.items())
        return f"Specialization({body})"


def _points(ctx, seed, count):
    """The first `count` points of the context's sequence for `seed`, and
    whether det b_q is identically zero: then the points are unconstrained
    (recorded by the caller), else they avoid its zero locus.  The sequence
    keeps its generator and the points drawn so far, and draws more only
    when asked for more."""
    if seed not in ctx.points:
        detb = ctx.q.det_bilinear()
        ctx.points[seed] = (random.Random(seed), None if detb.is_zero() else detb, [])
    rng, avoid, drawn = ctx.points[seed]
    while len(drawn) < count:
        drawn.append(Specialization.generic(ctx.base, rng, avoid=avoid))
    return drawn[:count], avoid is None


def _refuse_degenerate(ctx):
    """Errors when the first degeneration locus is the whole base."""
    if ctx.q.det_bilinear().is_zero():
        raise CliffModError(
            "the form is degenerate everywhere; no point lies off the locus"
        )


class SampleResult:
    __slots__ = ("point", "ok", "data")

    def __init__(self, point, ok, data=None):
        self.point, self.ok, self.data = point, ok, {} if data is None else data


class Report:
    __slots__ = ("operation", "configuration", "samples", "ok", "notes")

    def __init__(self, operation, configuration, samples, ok, notes=None):
        self.operation, self.configuration, self.samples = operation, configuration, samples
        self.ok, self.notes = ok, [] if notes is None else notes

    def to_dict(self):
        return {
            "operation": self.operation,
            "configuration": self.configuration,
            "ok": self.ok,
            "notes": list(self.notes),
            "samples": [
                {"point": s.point, "ok": s.ok, "data": s.data} for s in self.samples
            ],
        }

    def to_text(self):
        lines = [f"{self.operation}: {'PASS' if self.ok else 'FAIL'}"]
        for key, value in self.configuration.items():
            lines.append(f"  {key} = {value}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for i, s in enumerate(self.samples):
            point = ", ".join(f"{k}={v}" for k, v in s.point.items()) or "(point base)"
            status = "pass" if s.ok else "FAIL"
            data = "; ".join(f"{k}={v}" for k, v in s.data.items())
            lines.append(f"  sample {i} [{point}]: {status}  {data}")
        return "\n".join(lines)


def _sampled(ctx, seed, samples, worker, operation, configuration, notes=(), ok=True):
    """The report of `worker(point) -> (ok, data)` at the first `samples`
    points of the sequence for `seed`, noting unconstrained points when det
    b_q is identically zero; it passes when `ok` and every sample do."""
    if samples < 1:
        raise CliffModError(f"need at least one sample point, got {samples}")
    points, degenerate = _points(ctx, seed, samples)
    results = [SampleResult(p.as_strings(), *worker(p)) for p in points]
    notes = list(notes)
    if degenerate:
        notes.append("degenerate base: sample points are not off the locus")
    return Report(operation, configuration, results, ok and all(r.ok for r in results), notes)


class IdealBasis:
    """Certified generating set of a one-sided Clifford ideal in degree n,
    with `rows` its coordinates over that degree's graded basis, {column:
    term map}, `columns` the map from basis key to column, and `point_rows`
    the rows prepared for sample points."""

    __slots__ = (
        "generators",
        "rows",
        "columns",
        "point_rows",
        "spanning_monomials",
        "certification",
    )

    def __init__(self, generators, rows, columns, point_rows, spanning_monomials, certification):
        self.generators = generators
        self.rows = rows
        self.columns = columns
        self.point_rows = point_rows
        self.spanning_monomials = spanning_monomials
        self.certification = certification

    @property
    def rank(self):
        return len(self.generators)


def expected_ideal_rank(ctx, w):
    """2^(n - r - 1), the rank of an ideal of an isotropic subbundle of rank
    r < n; a subbundle of full fiber rank (q identically zero) is refused."""
    if w.r >= ctx.rank:
        raise CliffModError(f"subbundle rank {w.r} must be below the fiber rank {ctx.rank}")
    return 2 ** (ctx.rank - w.r - 1)


def w_top_element(ctx, w):
    """Product of the subbundle's vectors as a degree-r element."""
    out = ctx.one()
    for vec in w.vectors:
        out = cl_mul(out, ctx.from_vector(vec))
    return out


def clifford_ideal(ctx, w, n, side="left", seed=DEFAULT_SEED):
    """Generators of the n-th left (right) ideal of the subbundle: the
    spanning set {m w_top} (or {w_top m}) over the graded basis in degree
    n - r, greedily reduced to full rank at a generic point and re-checked
    at five further off-locus points."""
    if side not in ("left", "right"):
        raise CliffModError(f"side must be left or right, not {side!r}")
    if w.r and not is_isotropic(ctx.q, w):
        raise QuadFormError("subbundle is not isotropic")
    omega_w = w_top_element(ctx, w)
    span_basis = graded_basis(ctx, n - w.r)
    target_basis = graded_basis(ctx, n)
    columns = basis_columns(target_basis)
    if side == "left":
        sparse_rows = monomial_products(ctx, span_basis, omega_w, columns)
    else:
        sparse_rows = [
            cl_mul(omega_w, ctx.monomial(*key)).sparse_coordinates(columns) for key in span_basis
        ]

    (point,), degenerate_base = _points(ctx, seed, 1)
    rows = PointRows(ctx.base, sparse_rows)
    expected = expected_ideal_rank(ctx, w)

    # a dropped row is zero or a multiple of an earlier one, never independent
    echelon = Echelon()
    selected = [k for k, row in enumerate(rows.at(point.vals)) if echelon.add(row)]
    if len(selected) != expected:
        raise CliffModError(
            f"ideal rank {len(selected)} != expected {expected} at generic "
            f"point {point!r}"
        )
    coords = [sparse_rows[rows.kept[k]] for k in selected]
    generators = [ctx.element({target_basis[c]: t for c, t in row.items()}) for row in coords]
    monomials = [span_basis[rows.kept[k]] for k in selected]
    certification = {
        "generic_point": point.as_strings(),
        "rejections": point.rejections,
        "degenerate_base": degenerate_base,
        "extra_points": [],
    }
    ideal = IdealBasis(
        generators, coords, columns, rows.select(selected), monomials, certification
    )
    if not degenerate_base:
        for extra in _points(ctx, seed, 1 + CERT_SAMPLES)[0][1:]:
            ok = ideal.point_rows.rank(extra.vals) == expected
            certification["extra_points"].append({"point": extra.as_strings(), "full_rank": ok})
            if not ok:
                raise CliffModError(f"selected generators drop rank at {extra!r}")
    return ideal


def _ideal(ctx, w, n, side, seed):
    """`clifford_ideal`, built once per context and kept in `ctx.ideals`;
    the subbundle is keyed by identity."""
    key = (w, n, side, seed)
    if key not in ctx.ideals:
        ctx.ideals[key] = clifford_ideal(ctx, w, n, side, seed)
    return ctx.ideals[key]


def verify_multiplication_iso(ctx, w, m, n, samples=CERT_SAMPLES, seed=DEFAULT_SEED):
    """At off-locus points, multiplication by the degree-m component maps
    the degree-n ideal onto the degree-(m+n) ideal with the expected rank;
    a form degenerate everywhere is refused before the products are built.

    The ideal generators g_j are multiplied by the algebra generators of
    degree m, not by its whole graded basis: by e_i l^((m-1)/2), i = 1..n,
    for odd m and by l^(m/2) alone for even m.  The image is the same.  The
    degree-m component is l^(m//2) times the component of degree m mod 2.
    The degree-1 component is the sum of the e_i times the degree-0 one:
    an odd basis monomial e_I l^k is e_i1 (e_(I - i1) l^k) with i1 the
    smallest index of I, which `act` inserts with no contraction.  The
    ideal is the left ideal C w_top, so the degree-0 component maps its
    degree-n part into itself.  Hence at a point where the g_j span the
    degree-n part, the products e_i l^k g_j span the image of the whole
    degree-m component.  These rows are a subset of the full basis rows,
    so their rank is never higher: a point that fails with the full basis
    fails with them too."""
    if m % 2:
        gens = [(1 << i, (m - 1) // 2) for i in range(1, ctx.rank + 1)]
    else:
        gens = [(0, m // 2)]
    ideal_n = _ideal(ctx, w, n, "left", seed)
    ideal_mn = _ideal(ctx, w, m + n, "left", seed)
    _refuse_degenerate(ctx)
    expected = expected_ideal_rank(ctx, w)

    # the products x g_j of the algebra generators x with each ideal
    # generator g_j, one g_j at a time, each prepared and dropped before the
    # next one's are built
    columns = ideal_mn.columns
    product_rows = PointRows(ctx.base, (
        row for g in ideal_n.generators for row in monomial_products(ctx, gens, g, columns)
    ))

    def worker(point):
        r_prod, r_ideal, r_stack = product_rows.stacked_ranks(point.vals, ideal_mn.point_rows)
        ok = r_prod == r_ideal == r_stack == expected
        return ok, {"product_rank": r_prod, "ideal_rank": r_ideal, "stacked_rank": r_stack}

    notes, periodic = [], True
    if m == 2:
        periodic = ideal_mn.rows == ideal_n.rows
        notes.append(f"l-shift coordinate equality with degree {n}: {periodic}")
    configuration = {"w_rank": w.r, "m": m, "n": n, "expected_rank": expected}
    return _sampled(
        ctx, seed, samples, worker, "multiplication-iso", configuration, notes, periodic
    )


def verify_cokernel_sequence(ctx, w, n, samples=CERT_SAMPLES, seed=DEFAULT_SEED):
    """Rank bookkeeping of the presentation of the degree n + r ideal as a
    quotient of the degree-n component by the image of multiplication from
    the subbundle."""
    basis_n = graded_basis(ctx, n)
    basis_prev = graded_basis(ctx, n - 1)
    dim = len(basis_n)
    expected = expected_ideal_rank(ctx, w)
    omega_w = w_top_element(ctx, w)

    # the products b_k w_j of the degree n-1 basis with each subbundle
    # vector; the composite (b_k w_j) w_top is b_k (w_j w_top)
    vectors = [ctx.from_vector(vec) for vec in w.vectors]
    composite_zero = not any(
        any(monomial_products(ctx, basis_prev, cl_mul(v, omega_w))) for v in vectors
    )
    columns = basis_columns(basis_n)
    image_rows = PointRows(ctx.base, [
        row for v in vectors for row in monomial_products(ctx, basis_prev, v, columns)
    ])
    columns = basis_columns(graded_basis(ctx, n + w.r))
    quotient_rows = PointRows(ctx.base, monomial_products(ctx, basis_n, omega_w, columns))

    def worker(point):
        r_img = image_rows.rank(point.vals)
        r_quot = quotient_rows.rank(point.vals)
        ok = (dim - r_img == expected) and (r_quot == expected)
        return ok, {"dim": dim, "image_rank": r_img, "quotient_rank": r_quot}

    configuration = {"w_rank": w.r, "n": n, "expected_rank": expected}
    notes = [f"composite with w_top vanishes identically: {composite_zero}"]
    return _sampled(
        ctx, seed, samples, worker, "cokernel", configuration, notes, composite_zero
    )


def verify_flag_sequence(ctx, w_sub, w, n, samples=CERT_SAMPLES, seed=DEFAULT_SEED):
    """For nested isotropic subbundles of corank one, the degree-n ideal of
    the larger sits inside that of the smaller with quotient the degree
    n+1 ideal of the larger, realized by multiplication with the added
    vector."""
    if w_sub.r != w.r - 1:
        raise CliffModError("inner subbundle must have corank 1 in the outer")
    for a, b in zip(w_sub.vectors, w.vectors):
        if a != b:
            raise CliffModError("inner subbundle must be a prefix of the outer")
    ideal_w = _ideal(ctx, w, n, "left", seed)
    ideal_sub = _ideal(ctx, w_sub, n, "left", seed)
    ideal_next = _ideal(ctx, w, n + 1, "left", seed)
    last = ctx.from_vector(w.vectors[-1])
    columns = ideal_next.columns
    mult_rows = PointRows(
        ctx.base, [cl_mul(g, last).sparse_coordinates(columns) for g in ideal_sub.generators]
    )

    def worker(point):
        vals = point.vals
        r_sub, r_w, r_both = ideal_sub.point_rows.stacked_ranks(vals, ideal_w.point_rows)
        contained = r_both == r_sub
        r_mult, r_next, r_image = mult_rows.stacked_ranks(vals, ideal_next.point_rows)
        surjective = r_mult == r_next == r_image
        ok = contained and surjective and r_sub - r_w == r_next
        return ok, {
            "inner_rank": r_sub,
            "outer_rank": r_w,
            "next_rank": r_next,
            "contained": contained,
            "surjective": surjective,
        }

    configuration = {"w_rank": w.r, "inner_rank": w_sub.r, "n": n}
    return _sampled(ctx, seed, samples, worker, "flag", configuration)


def _duality_ideals(ctx, w, k, seed):
    if ctx.rank % 2:
        raise CliffModError("duality pairing needs even rank")
    return _ideal(ctx, w, k, "left", seed), _ideal(ctx, w, w.r - k, "right", seed)


def _pairing_matrix(ctx, left, right):
    """Column j holds the traces of (right representative) * g_j, each a
    degree-0 product, summed over a table of monomial pairs:
    P[r][j] = sum_C g_j[C] T(R_r, C), with C a monomial of the left
    generators and T(R, C) the trace of e_R e_C (a power of l moves no
    coefficient).  Each T is computed once, by applying the indices of R
    from the largest down to e_C, and only while the index masks of a term
    and of the indices still to apply cover 1..n: applying e_i inserts i or
    removes an index, so a term that cannot cover never reaches e_1...e_n."""
    full = (1 << ctx.rank + 1) - 2
    one = ctx.base.one().terms

    def pair_trace(rest, c):
        """T(R, C), None when 0; `rest` is the index mask of R."""
        terms = {c: one}
        while rest:
            i = rest.bit_length() - 1
            rest ^= 1 << i
            terms = {key: t for key, t in ctx.act(i, terms).items() if key[0] | rest == full}
        # with nothing left to apply only e_1...e_n survives, and a
        # homogeneous product has at most one such term
        return next(iter(terms.values()), None)

    by_monomial = {}
    for j, g in enumerate(left.generators):
        for c, coeff in g.terms.items():
            by_monomial.setdefault(c, []).append((j, coeff.terms))
    rows = []
    for rest, _ in right.spanning_monomials:
        row = {}
        for c, coeffs in by_monomial.items():
            t = pair_trace(rest, c) if c[0] | rest == full else None
            if t is not None:
                for j, coeff in coeffs:
                    _accumulate(row, j, mul_terms(coeff, t), True)
        rows.append({j: Poly(ctx.base, t) for j, t in row.items()})
    return PolyMatrix(ctx.base, rows, len(left.generators))


def duality_pairing(ctx, w, k, seed=DEFAULT_SEED):
    """Trace pairing between the degree-k left ideal and the degree r-k
    right ideal, written against the basis representatives of the right
    generators so every product has degree 0."""
    return _pairing_matrix(ctx, *_duality_ideals(ctx, w, k, seed))


def verify_duality(ctx, w, k, samples=CERT_SAMPLES, seed=DEFAULT_SEED):
    """Pairing determinant is nonzero at every off-locus sample; a form
    degenerate everywhere is refused before the pairing is built."""
    from quadrikit.polyalg import det

    left, right = _duality_ideals(ctx, w, k, seed)
    _refuse_degenerate(ctx)
    pairing = _pairing_matrix(ctx, left, right)
    d = det(pairing)

    def worker(point):
        value = d.evaluate(point.assignment)
        return value != 0, {"det": str(value)}

    configuration = {"w_rank": w.r, "k": k, "size": pairing.rows}
    return _sampled(ctx, seed, samples, worker, "duality", configuration)


class SpinorPresentation:
    """Matrix of multiplication by the generic fiber vector from the degree
    n-1 ideal to the degree-n ideal, in the chosen generator coordinates;
    entries are linear in the fiber variables."""

    __slots__ = ("w", "n", "phi", "ring")

    def __init__(self, w, n, phi, ring):
        self.w = w
        self.n = n
        self.phi = phi
        self.ring = ring

    @property
    def size(self):
        return self.phi.rows


def spinor_phi(ctx, w, n, seed=DEFAULT_SEED):
    """Presentation matrix in degree n: expresses x g_j over the degree-n
    generators, x = sum x_i e_i the generic fiber vector."""
    src = _ideal(ctx, w, n - 1, "left", seed)
    dst = _ideal(ctx, w, n, "left", seed)
    ring = ctx.q.combined_ring()
    d = len(dst.generators)
    generators = [(1 << i, 0) for i in range(1, ctx.rank + 1)]
    images = [
        row for g in src.generators for row in monomial_products(ctx, generators, g, dst.columns)
    ]
    # one elimination of the sparse [target coordinates | every image], a row
    # per basis monomial; image column d + j*rank + i-1 holds x_i g_j
    rows = [{} for _ in dst.columns]
    for col, coords in enumerate(dst.rows + images):
        for c, t in coords.items():
            rows[c][col] = t
    reduced, pivots, _ = fraction_free_rref(rows)
    # image columns from the first pivot among them on are not expressible;
    # the ones before it are read off each pivot row's nonzeros.  The base
    # variables come first in `ring`, so coefficient c x^m of x_i g_j is the
    # term (m, e_i) of phi[kk, j], and distinct i give distinct terms
    ncols = d + len(images)
    limit = next((c for c in pivots if c >= d), ncols)
    phi_rows = [{} for _ in range(d)]
    units = [(0,) * i + (1,) + (0,) * (ctx.rank - i - 1) for i in range(ctx.rank)]
    for row, kk in zip(reduced, pivots):
        if kk >= d:
            break
        phi_row = phi_rows[kk]
        for col in sorted(c for c in row if d <= c < limit):
            try:
                coeff = div_terms(row[col], row[kk])
            except PolyError:
                raise CliffModError(
                    "presentation coefficients are not polynomial; "
                    "inconsistent generator bases"
                ) from None
            j, i = divmod(col - d, ctx.rank)
            terms = phi_row.setdefault(j, {})
            for m, c in coeff.items():
                terms[m + units[i]] = c
    if limit < ncols:
        j, i = divmod(limit - d, ctx.rank)
        raise CliffModError(
            "image is not expressible in the target generators "
            f"(generator {j}, fiber index {i + 1})"
        )
    phi_rows = [{j: Poly(ring, t) for j, t in row.items()} for row in phi_rows]
    return SpinorPresentation(w, n, PolyMatrix(ring, phi_rows, d), ring)


def verify_matrix_factorization(q, p1, p2):
    """Exact identity phi_(n+1) phi_n = q * Id in the fiber ring; the value
    grading carries one power of the trivializer, absorbed here by the
    periodic choice of generators.  Returns (ok, witness)."""
    if p2.n != p1.n + 1:
        raise CliffModError("presentations must have consecutive degrees")
    if p1.w is not p2.w and p1.w.vectors != p2.w.vectors:
        raise CliffModError("presentations must share the subbundle")
    product = p2.phi * p1.phi
    q_poly = q.q_poly(p1.ring)
    for i, row in enumerate(product.entries):
        if row == {i: q_poly}:
            continue
        # the witness is the first mismatch in row-major order
        for j in sorted(row.keys() | {i}):
            expected = q_poly if i == j else product.zero
            if product[i, j] != expected:
                return False, {
                    "row": i,
                    "col": j,
                    "got": str(product[i, j]),
                    "expected": str(expected),
                }
    return True, None


def verify_mf_report(ctx, w, degrees, seed=DEFAULT_SEED):
    """Matrix-factorization products for consecutive degree pairs."""
    presentations = {n: spinor_phi(ctx, w, n, seed) for n in degrees[1:]}
    results = []
    ok = True
    for n in degrees[2:]:
        good, witness = verify_matrix_factorization(
            ctx.q, presentations[n - 1], presentations[n]
        )
        ok = ok and good
        data = {"degrees": f"({n-1},{n})", "size": presentations[n].size}
        if witness:
            data["witness"] = witness
        results.append(SampleResult({}, good, data))
    return Report(
        operation="matrix-factorization",
        configuration={"w_rank": w.r, "degrees": list(degrees)},
        samples=results,
        ok=ok,
    )
