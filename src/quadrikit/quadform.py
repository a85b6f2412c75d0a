"""Quadratic forms valued in a trivialized line bundle over a polynomial base:
bilinear form, degeneration loci, isotropy tests, hyperbolic pairs and the
hyperbolic reduction with a certified change of basis.

Input file format (.qf, UTF-8 key = value lines, # comments; each of the
three keys once, and no other key):

    base_vars = [a, b, c]
    fiber_rank = 4
    q = "x1*x2 + a*x3^2 + b*x3*x4 + c*x4^2"

Fiber variables are fixed as x1..xn, with 1 <= n <= MAX_FIBER_RANK; the
value line bundle is carried only as the grading weight 2 consumed by the
Clifford layer.
"""

from fractions import Fraction

from quadrikit.polyalg import (
    ParseError,
    Poly,
    PolyError,
    PolyMatrix,
    Ring,
    _Tokens,
    det,
    fraction_free_rref,
    minors_ideal,
    parse_poly,
    parse_rational,
)
from quadrikit import linalg

# Largest fiber rank a .qf file may declare: the even Clifford algebra has a
# 2^(n-1)-element graded basis (2048 at the cap), and omega has up to that
# many terms; the center costs one product omega * omega, and
# `center_checks` multiplies omega on each side by the n(n+1)/2 algebra
# generators e_i e_j l^-1 (i < j) and e_i.
MAX_FIBER_RANK = 12


class QuadFormError(PolyError):
    """Violated precondition in the quadratic-form layer."""


def fiber_names(n):
    return [f"x{i}" for i in range(1, n + 1)]


class QuadraticForm:
    """q = sum_{i<=j} c_ij x_i x_j with coefficients over the base ring.

    The bilinear form b_q(v, w) = q(v+w) - q(v) - q(w) has matrix
    B[i][i] = 2 c_ii and B[i][j] = c_ij for i != j."""

    __slots__ = ("base", "n", "coeff", "_bilinear", "_det_bilinear")

    def __init__(self, base, n, coeff):
        if n < 0:
            raise QuadFormError("fiber rank must be nonnegative")
        self.base = base
        self.n = n
        table = {}
        for (i, j), c in coeff.items():
            if not (1 <= i <= j <= n):
                raise QuadFormError(f"bad coefficient index ({i}, {j})")
            if not isinstance(c, Poly):
                c = base.const(c)
            if c.ring != base:
                raise QuadFormError("coefficient over the wrong base ring")
            if not c.is_zero():
                table[(i, j)] = c
        self.coeff = table
        self._bilinear = None
        self._det_bilinear = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_expression(cls, base_vars, n, source):
        """Parse q from an expression in base variables and x1..xn."""
        base = Ring(base_vars)
        combined = Ring(tuple(base_vars) + tuple(fiber_names(n)))
        poly = parse_poly(source, combined)
        nb = len(base_vars)
        coeff = {}
        for mono, c in poly.terms.items():
            fiber_part = mono[nb:]
            if sum(fiber_part) != 2:
                raise QuadFormError(
                    "q must be homogeneous of degree 2 in the fiber variables"
                )
            idx = [k + 1 for k, e in enumerate(fiber_part) for _ in range(e)]
            i, j = idx
            base_mono = mono[:nb]
            prev = coeff.setdefault((i, j), {})
            prev[base_mono] = prev.get(base_mono, 0) + c
        table = {ij: Poly(base, {m: c for m, c in t.items() if c}) for ij, t in coeff.items()}
        return cls(base, n, table)

    def coefficient(self, i, j):
        if i > j:
            i, j = j, i
        return self.coeff.get((i, j), self.base.zero())

    def combined_ring(self):
        return Ring(self.base.variables + tuple(fiber_names(self.n)))

    def q_poly(self, ring=None):
        """The defining polynomial over base + fiber variables."""
        ring = ring or self.combined_ring()
        return self.apply([ring.var(name) for name in fiber_names(self.n)], ring)

    def __str__(self):
        return str(self.q_poly())

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and self.base == other.base
            and self.n == other.n
            and self.coeff == other.coeff
        )

    # -- evaluation -------------------------------------------------------

    def _coerce_vector(self, vec, ring):
        out = []
        for entry in vec:
            if isinstance(entry, Poly):
                if entry.ring == ring:
                    out.append(entry)
                else:
                    out.append(entry.ring.embed(entry, ring))
            else:
                out.append(ring.const(entry))
        if len(out) != self.n:
            raise QuadFormError(f"vector length {len(out)} != fiber rank {self.n}")
        return out

    def apply(self, vec, ring=None):
        """q(v) for a coordinate vector with entries over `ring` (>= base)."""
        ring = ring or self.base
        v = self._coerce_vector(vec, ring)
        total = ring.zero()
        for (i, j), c in self.coeff.items():
            total = total + self.base.embed(c, ring) * v[i - 1] * v[j - 1]
        return total

    def bilinear(self, v, w, ring=None):
        """b_q(v, w) = q(v+w) - q(v) - q(w), evaluated via the matrix."""
        ring = ring or self.base
        v = self._coerce_vector(v, ring)
        w = self._coerce_vector(w, ring)
        total = ring.zero()
        for i, row in enumerate(self.bilinear_matrix().entries):
            for j, entry in row.items():
                total = total + self.base.embed(entry, ring) * v[i] * w[j]
        return total

    def bilinear_matrix(self):
        if self._bilinear is None:
            rows = [{} for _ in range(self.n)]
            for (i, j), c in self.coeff.items():
                if i == j:
                    rows[i - 1][i - 1] = c * 2
                else:
                    rows[i - 1][j - 1] = c
                    rows[j - 1][i - 1] = c
            self._bilinear = PolyMatrix(self.base, rows, self.n)
        return self._bilinear

    # -- degeneration ------------------------------------------------------

    def degeneration_locus(self, k):
        """Ideal of the locus where fibers have corank >= k (minor ideal of
        size n+1-k of the bilinear matrix)."""
        if not 1 <= k <= self.n:
            raise QuadFormError(f"corank {k} out of range 1..{self.n}")
        return minors_ideal(self.bilinear_matrix(), self.n + 1 - k)

    def det_bilinear(self):
        # computed once: coeff is never changed after construction
        if self._det_bilinear is None:
            self._det_bilinear = det(self.bilinear_matrix())
        return self._det_bilinear

    def specialize(self, assignment):
        """Constant-coefficient form at a base point (empty base ring)."""
        point_base = Ring(())
        table = {
            ij: point_base.const(c.evaluate(assignment)) for ij, c in self.coeff.items()
        }
        return QuadraticForm(point_base, self.n, table)


class Subbundle:
    """A free subbundle given by explicit coordinate vectors (rows), with
    independence certified by a nonzero maximal minor."""

    __slots__ = ("vectors", "r", "n", "ring", "witness_columns")

    def __init__(self, vectors, ring):
        rows = []
        for vec in vectors:
            row = []
            for entry in vec:
                if isinstance(entry, Poly):
                    if entry.ring != ring:
                        raise QuadFormError("subbundle entry over the wrong ring")
                    row.append(entry)
                else:
                    row.append(ring.const(entry))
            rows.append(row)
        self.vectors = rows
        self.r = len(rows)
        self.n = len(rows[0]) if rows else 0
        self.ring = ring
        for row in rows:
            if len(row) != self.n:
                raise QuadFormError("ragged subbundle vectors")
        self.witness_columns = None
        if self.r:
            # the pivot columns are the lexicographically first r columns
            # with a nonzero maximal minor
            pivots = fraction_free_rref([{i: p.terms for i, p in enumerate(v)} for v in rows])[1]
            if len(pivots) < self.r:
                raise QuadFormError("subbundle vectors are linearly dependent")
            self.witness_columns = tuple(pivots)

    @classmethod
    def empty(cls, ring, n):
        sub = cls.__new__(cls)
        sub.vectors = []
        sub.r = 0
        sub.n = n
        sub.ring = ring
        sub.witness_columns = ()
        return sub

    def column_matrix(self):
        return PolyMatrix(
            self.ring,
            [{j: vec[i] for j, vec in enumerate(self.vectors)} for i in range(self.n)],
            self.r,
        )

    def prefix(self, k):
        if k == 0:
            return Subbundle.empty(self.ring, self.n)
        return Subbundle(self.vectors[:k], self.ring)


def is_isotropic(q, w):
    """True when q restricts to zero on the subbundle, identically."""
    if w.n != q.n:
        raise QuadFormError("subbundle/fiber dimension mismatch")
    for i, vi in enumerate(w.vectors):
        if not q.apply(vi).is_zero():
            return False
        for vj in w.vectors[i + 1 :]:
            if not q.bilinear(vi, vj).is_zero():
                return False
    return True


def is_regular_isotropic(q, w):
    """Isotropic and contained in the smooth locus of every fiber: the
    maximal minors of b_q restricted to E x W generate the unit ideal."""
    if not is_isotropic(q, w):
        raise QuadFormError("subbundle is not isotropic")
    if w.r == 0:
        return True
    m = q.bilinear_matrix() * w.column_matrix()
    return minors_ideal(m, w.r).is_unit()


def hyperbolic_pair(q, v):
    """Complete a constant isotropic vector v to a hyperbolic pair: returns
    w with b_q(v, w) = 1 and q(w) = 0.

    Searches constant solutions only: the linear condition b_q(v, w0) = 1
    is expanded monomial by monomial into a system over Q; the isotropy
    correction w = w0 - q(w0) v is exact."""
    v = [Fraction(x) if not isinstance(x, Poly) else x for x in v]
    for x in v:
        if isinstance(x, Poly):
            if not x.is_constant():
                raise QuadFormError("hyperbolic_pair needs a constant vector")
    vconst = [x.constant_term() if isinstance(x, Poly) else x for x in v]
    if not q.apply(vconst).is_zero():
        raise QuadFormError("vector is not isotropic")
    # row j of the system: b_q(v, e_j) = sum_i v_i B[i][j]
    row = [q.base.zero()] * q.n
    for i, b_row in enumerate(q.bilinear_matrix().entries):
        for j, p in b_row.items():
            row[j] = row[j] + p * vconst[i]
    monomials = sorted(set().union(*(p.terms.keys() for p in row if p)) or set())
    unit_mono = (0,) * q.base.arity
    if unit_mono not in monomials:
        monomials.append(unit_mono)
    # [A | -e_unit]: a kernel vector with a 1 in the last column solves
    # A w0 = e_unit; the one with the other free variables 0 exists unless
    # that column is a pivot
    echelon = linalg.Echelon()
    for m in monomials:
        echelon.add([p.coeff(m) for p in row] + [-1 if m == unit_mono else 0])
    if q.n in echelon.pivots:
        raise QuadFormError(
            "no constant hyperbolic partner exists; supply w explicitly"
        )
    w0 = echelon.kernel(q.n + 1)[-1][: q.n]
    qw0 = q.apply(w0)
    w = [q.base.const(x) - qw0 * q.base.const(y) for x, y in zip(w0, vconst)]
    return w


class HyperbolicSplitting:
    """Certified change of basis: transform T with T^t b_q T equal to the
    hyperbolic 2x2 block plus the bilinear matrix of the reduced form."""

    __slots__ = ("form", "v", "w", "transform", "reduced", "dropped")

    def __init__(self, form, v, w, transform, reduced, dropped):
        self.form = form
        self.v = v
        self.w = w
        self.transform = transform
        self.reduced = reduced
        self.dropped = dropped

    def verify(self):
        t = self.transform
        g = t.transpose() * self.form.bilinear_matrix() * t
        one = self.form.base.one()
        expected = [{1: one}, {0: one}] + [
            {j + 2: p for j, p in row.items()} for row in self.reduced.bilinear_matrix().entries
        ]
        return g == PolyMatrix(self.form.base, expected, self.form.n)


def hyperbolic_reduce(q, v, w):
    """Reduce q by the hyperbolic pair (v, w): project the standard basis
    into the orthogonal complement, drop the two most dependent indices,
    and read off the reduced form from the lower block."""
    base = q.base
    v = q._coerce_vector(v, base)
    w = q._coerce_vector(w, base)
    if not q.apply(v).is_zero() or not q.apply(w).is_zero():
        raise QuadFormError("hyperbolic pair must be isotropic")
    if q.bilinear(v, w) != base.one():
        raise QuadFormError("pair must satisfy b_q(v, w) = 1")
    n = q.n

    def abs_const(p):
        return abs(p.constant_term())

    drop_v = max(range(n), key=lambda i: (abs_const(v[i]), -i))
    drop_w = max(
        (i for i in range(n) if i != drop_v),
        key=lambda i: (abs_const(w[i]), -i),
    )
    kept = [i for i in range(n) if i not in (drop_v, drop_w)]

    basis = [list(v), list(w)]
    for i in kept:
        e_i = [base.one() if k == i else base.zero() for k in range(n)]
        bw = q.bilinear(e_i, w)
        bv = q.bilinear(e_i, v)
        u = [e_i[k] - bw * v[k] - bv * w[k] for k in range(n)]
        basis.append(u)
    t = PolyMatrix(base, [{j: u[i] for j, u in enumerate(basis)} for i in range(n)], n)
    dt = det(t)
    if dt.is_zero():
        raise QuadFormError("projected vectors are not independent")
    if not dt.is_constant():
        raise QuadFormError("change of basis does not have constant determinant")

    g = t.transpose() * q.bilinear_matrix() * t
    # rows 0, 1 are the hyperbolic block [[0, 1], [1, 0]] and no other row
    # has an entry in columns 0, 1
    one = base.one()
    lower = g.entries[2:]
    if g.entries[:2] != [{1: one}, {0: one}] or any(j < 2 for row in lower for j in row):
        raise QuadFormError("hyperbolic block certification failed")

    # the lower block, on columns 2..n-1, is the bilinear matrix of the
    # reduced form in x1..x(n-2)
    coeff = {}
    for i, row in enumerate(lower, start=1):
        for j, p in row.items():
            if j - 1 == i:
                coeff[(i, i)] = p / 2
            elif j - 1 > i:
                coeff[(i, j - 1)] = p
    reduced = QuadraticForm(base, n - 2, coeff)
    split = HyperbolicSplitting(q, v, w, t, reduced, (drop_v, drop_w))
    if not split.verify():
        raise QuadFormError("splitting invariant failed")
    return split


class SchemePresentation:
    """Variable list plus ideal generators, the common output form for
    degeneration loci, hyperbolic reductions and line charts."""

    __slots__ = ("ring", "generators", "label")

    def __init__(self, ring, generators, label=""):
        self.ring = ring
        self.generators = list(generators)
        self.label = label

    def __str__(self):
        gens = "; ".join(str(g) for g in self.generators) if self.generators else "0"
        return f"Ideal over Q[{','.join(self.ring.variables)}]: {gens}"

    def to_dict(self):
        return {
            "label": self.label,
            "variables": list(self.ring.variables),
            "generators": [str(g) for g in self.generators],
        }


def reduction_presentation(split):
    """Presentation of the reduced quadric inside the projectivized reduced
    bundle; fiber variables keep the tail names x3..xn."""
    q = split.reduced
    n_orig = split.form.n
    if q.n == 0:
        return SchemePresentation(q.base, [], label="hyperbolic reduction (rank 0)")
    names = [f"x{i}" for i in range(3, n_orig + 1)]
    ring = Ring(q.base.variables + tuple(names))
    return SchemePresentation(
        ring, [q.apply([ring.var(name) for name in names], ring)], label="hyperbolic reduction"
    )


# -- .qf files -----------------------------------------------------------


_QF_KEYS = ("base_vars", "fiber_rank", "q")  # each required, none other allowed


def parse_qf_text(text):
    """Parse the key = value quadratic-form file format."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _QF_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    for key in _QF_KEYS:
        if key not in fields:
            raise ParseError(f"missing field {key!r}")
    raw_vars = fields["base_vars"]
    if not (raw_vars.startswith("[") and raw_vars.endswith("]")):
        raise ParseError("base_vars must be a [bracketed, list]")
    inner = raw_vars[1:-1].strip()
    base_vars = [v.strip() for v in inner.split(",") if v.strip()] if inner else []
    for v in base_vars:  # each name must scan as one identifier, as in q
        if _Tokens._scan(v) != [("ident", v), ("end", "")]:
            raise ParseError(f"base variable {v!r} is not an identifier")
    try:
        n = parse_rational(fields["fiber_rank"])
    except ParseError as e:
        raise ParseError(f"fiber_rank: {e}") from None
    if not isinstance(n, int):
        raise ParseError(f"fiber_rank must be an integer, got {n}")
    if not 1 <= n <= MAX_FIBER_RANK:
        raise QuadFormError(
            f"fiber_rank must be between 1 and {MAX_FIBER_RANK}, got {n}"
        )
    shadowed = [v for v in base_vars if v == "l" or v in {f"e{i}" for i in range(1, n + 1)}]
    if shadowed:  # Clifford elements read l and e1..en as the trivializer and generators
        raise ParseError(f"base variable {shadowed[0]!r} is reserved for Clifford algebra elements")
    fiber = [v for v in base_vars if v in {f"x{i}" for i in range(1, n + 1)}]
    if fiber:
        raise ParseError(f"base variable {fiber[0]!r} is a fiber variable of rank {n}")
    source = fields["q"]
    if source.startswith('"') and source.endswith('"') and len(source) >= 2:
        source = source[1:-1]
    return QuadraticForm.from_expression(base_vars, n, source)


def load_qf(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(str(e)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from None
    return parse_qf_text(text)
