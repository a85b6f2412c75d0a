"""Generalized Clifford algebra of a quadratic form, graded by giving the
generators degree 1 and the invertible trivializer l of the value line
bundle degree 2.

Defining relations: e_i e_i = c_ii l and e_i e_j + e_j e_i = c_ij l for
i < j, where c is the coefficient table of q, so v v = q(v) l for every
degree-1 element v.  Elements are finite maps (index mask, Laurent power
of l) -> coefficient, bit i of the mask of e_I set for each i in I; index
tuples appear only at the edges (`mask`, `indices`).  Every coefficient is
the term map of a base polynomial (`_kernel`), in elements and in the
products alike; a `Poly` is built only where a coefficient leaves the
algebra: `trace`, the center relation's alpha and beta, and printing.  One
generator acts on a normal-form monomial in closed form
(`CliffordContext.act`), and every product is a sequence of such actions:
e_I y = e_i1 (... e_ik y).

`parse_element` reads elements in the expression grammar of `polyalg`,
whose one recursive descent it shares: `_ElementGrammar` adds l and the
generators e1..en (no other e<i> names one) to the base variables.
"""

import math
from fractions import Fraction
from itertools import combinations

from quadrikit._kernel import add_terms, mul_terms, neg_terms, sub_terms
from quadrikit.polyalg import ParseError, Poly, PolyError, check_degree, check_terms
from quadrikit.polyalg import _integer_terms, _parse_whole, exact_div
from quadrikit.quadform import QuadraticForm


class CliffordError(PolyError):
    pass


def mask(indices):
    """The index mask of an index set: bit i set for each i."""
    return sum(1 << i for i in indices)


def indices(mask):
    """The ascending index tuple of an index mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class CliffordContext:
    """Carrier for the algebra of a fixed quadratic form; `table[i]` lists
    (1 << j, c_ji) for each nonzero c_ji, j <= i: a term map, or None when c_ji = 1;
    `cliffmod` fills `ideals`, {(subbundle, degree, side, seed): IdealBasis},
    and `points`, {seed: (generator, avoided polynomial, points drawn)}.
    Neither refers back to the context, so reference counting frees it."""

    __slots__ = ("q", "rank", "base", "table", "ideals", "points")

    def __init__(self, q):
        self.q = q
        self.rank = q.n
        self.base = q.base
        self.ideals = {}
        self.points = {}
        self.table = {i: [] for i in range(1, q.n + 1)}
        for (i, j), c in q.coeff.items():
            self.table[j].append((1 << i, None if c == 1 else c.terms))

    def __eq__(self, other):
        return isinstance(other, CliffordContext) and self.q == other.q

    def zero(self):
        return CliffordElement(self, {})

    def scalar(self, c):
        if not isinstance(c, Poly):
            c = self.base.const(c)
        return CliffordElement(self, {(0, 0): c.terms} if c.terms else {})

    def one(self):
        return self.scalar(1)

    def l_power(self, m):
        return self.monomial(0, m)

    def generator(self, i):
        if not 1 <= i <= self.rank:
            raise CliffordError(f"generator index {i} out of range")
        return self.monomial(1 << i, 0)

    def from_vector(self, vec):
        """Degree-1 element sum_i v_i e_i from a coordinate vector."""
        if len(vec) != self.rank:
            raise CliffordError("vector length does not match rank")
        terms = {}
        for i, entry in enumerate(vec, start=1):
            if not isinstance(entry, Poly):
                entry = self.base.const(entry)
            if entry.terms:
                terms[(1 << i, 0)] = entry.terms
        return CliffordElement(self, terms)

    def monomial(self, mask, lpow):
        return CliffordElement(self, {(mask, lpow): self.base.one().terms})

    def act(self, i, terms):
        """The terms of e_i times the element with terms `terms`.
        For J = (j_1 < ... < j_k) with p indices below i,

            e_i e_J = sum_{t <= p} (-1)^(t-1) c_{i j_t} l e_{J - j_t}
                      + (-1)^p (c_ii l e_{J - i} if i in J, else e_{J + i}),

        every term already in normal form: the contractions with each
        j_t <= i (c_ii too), then e_i inserted when i is not in J; a count
        of indices below j is a bit count of J's mask (Dorst et al. 2007)."""
        out = {}
        bit = 1 << i
        for (s, m), c in terms.items():
            for b, cji in self.table[i]:  # a unit c_ji needs no product
                if s & b:
                    term = c if cji is None else mul_terms(c, cji)
                    _accumulate(out, (s ^ b, m + 1), term, (s & b - 1).bit_count() % 2 == 0)
            if not s & bit:
                _accumulate(out, (s | bit, m), c, (s & bit - 1).bit_count() % 2 == 0)
        return out


def _accumulate(out, key, c, positive):
    """out[key] += c (or -= c) on term maps, dropping a coefficient that cancels."""
    prev = out.get(key)
    if prev is None:
        out[key] = c if positive else neg_terms(c)
    elif s := add_terms(prev, c) if positive else sub_terms(prev, c):
        out[key] = s
    else:
        del out[key]


class CliffordElement:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    def _check(self, other):
        if not isinstance(other, CliffordElement) or other.ctx != self.ctx:
            raise CliffordError("context mismatch")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, CliffordElement)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c, True)
        return CliffordElement(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CliffordElement(self.ctx, {k: neg_terms(c) for k, c in self.terms.items()})

    def scale(self, c):
        if not isinstance(c, Poly):
            c = self.ctx.base.const(c)
        if c.is_zero():
            return self.ctx.zero()
        return CliffordElement(self.ctx, {k: mul_terms(v, c.terms) for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return cl_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return NotImplemented

    def degree(self):
        """Common degree of all terms, None for 0, error if inhomogeneous."""
        degs = {s.bit_count() + 2 * m for (s, m) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise CliffordError("element is not homogeneous")
        return degs.pop()

    def sparse_coordinates(self, columns):
        """The nonzero coefficients as a sparse row {column: term map};
        `columns` maps each key of a basis to its column (`basis_columns`)."""
        try:
            return {columns[key]: c for key, c in self.terms.items()}
        except KeyError as e:
            raise CliffordError(f"element has terms outside the basis: {e.args[0]}") from None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _basis_sort_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for (s, m), t in self.sorted_terms():
            c = Poly(self.ctx.base, t)
            factors = [f"e{i}" for i in indices(s)]
            if m == 1:
                factors.append("l")
            elif m:
                factors.append(f"l^{m}")
            body = "*".join(factors)
            if not body:
                text = str(c) if len(c.terms) == 1 or c.is_constant() else f"({c})"
            elif c == c.ring.one():
                text = body
            elif c == -c.ring.one():
                text = f"-{body}"
            elif len(c.terms) == 1:
                text = f"{c}*{body}"
            else:
                text = f"({c})*{body}"
            pieces.append(text)
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"CliffordElement({self})"


def _basis_sort_key(key):
    return (key[0].bit_count(), indices(key[0]), key[1])


def cl_mul(x, y):
    """Product in normal form; degree-additive on homogeneous inputs.  Each
    term c e_I l^m of x acts on y through the generators of I, right to
    left, and the terms of x share their suffixes."""
    x._check(y)
    out = {}
    for c, p in zip(x.terms.values(), monomial_products(x.ctx, x.terms, y.terms)):
        for key, c2 in p.items():
            _accumulate(out, key, mul_terms(c, c2), True)
    return CliffordElement(x.ctx, out)


def monomial_products(ctx, keys, terms, columns=None):
    """[e_I l^m y for (I, m) in keys]: the left products of monomials with
    the element y whose terms are `terms`, as terms keyed by (mask, lpow)
    or, given `columns` (`basis_columns`), by column.
    e_I y = e_i1 (e_(I - i1) y), applying the indices of I from the
    largest down, and each suffix of an I is computed once per call."""
    memo = {0: terms}

    def product(s):
        # act from the longest suffix already known; a loop, not recursion,
        # so that no closure refers to itself and the memo dies with the call
        known = s
        while known not in memo:
            known &= known - 1  # drop the lowest index
        terms = memo[known]
        while known != s:
            i = (s ^ known).bit_length() - 1  # the largest index not yet applied
            known |= 1 << i
            terms = memo[known] = ctx.act(i, terms)
        return terms

    if columns is None:
        return [{(s2, m2 + m): c for (s2, m2), c in product(s).items()} for s, m in keys]
    return [{columns[s2, m2 + m]: c for (s2, m2), c in product(s).items()} for s, m in keys]


def graded_basis(ctx, n):
    """Monomial basis of the degree-n component, ordered by index length
    then lexicographically; size 2^(rank-1) for rank >= 1."""
    return [
        (mask(idx), (n - k) // 2)
        for k in range(n % 2, ctx.rank + 1, 2)
        for idx in combinations(range(1, ctx.rank + 1), k)
    ]


def basis_columns(basis):
    """Map key -> column of a monomial list, for sparse coordinate rows."""
    return {key: col for col, key in enumerate(basis)}


def trace(x):
    """Top-filtration coefficient of a degree-0 element: the coefficient of
    e_1...e_2m l^-m."""
    ctx = x.ctx
    if ctx.rank % 2:
        raise CliffordError("trace needs even rank")
    deg = x.degree()
    if deg not in (None, 0):
        raise CliffordError("trace needs a degree-0 element")
    top = (mask(range(1, ctx.rank + 1)), -(ctx.rank // 2))
    return Poly(ctx.base, x.terms.get(top, {}))


class CenterRelation:
    """Generator of the center of the even part with its monic quadratic
    relation omega^2 + alpha omega + beta = 0."""

    __slots__ = ("ctx", "omega", "alpha", "beta")

    def __init__(self, ctx, omega, alpha, beta):
        self.ctx = ctx
        self.omega = omega
        self.alpha = alpha
        self.beta = beta

    def discriminant(self):
        return self.alpha * self.alpha - self.beta * 4

    def conjugate(self):
        """Image of omega under the cover involution: -alpha - omega."""
        return self.ctx.scalar(-self.alpha) - self.omega

    def discriminant_comparison(self):
        """disc = (-1)^m s^2 det(b_q): returns (ratio, s) with ratio the
        exact rational disc/det and s the positive rational square scale,
        or (None, None) when the ratio is not a nonzero constant."""
        disc = self.discriminant()
        detb = self.ctx.q.det_bilinear()
        if detb.is_zero() or disc.is_zero():
            return None, None
        try:
            ratio = exact_div(disc, detb)
        except PolyError:
            return None, None
        if not ratio.is_constant():
            return None, None
        r = ratio.constant_term()
        m = self.ctx.rank // 2
        signed = r if m % 2 == 0 else -r
        if signed <= 0:
            return r, None
        num, den = signed.numerator, signed.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return r, Fraction(rn, rd)
        return r, None


def center_element(ctx):
    """Compute the rank-2 center of the even part: a primitive integral
    generator omega (unit coordinate 0, top coordinate positive) and its
    monic quadratic relation.

    omega is the Pfaffian element of the center of C_0 (Knus 1991, ch. IV).
    Let A be the alternating matrix of the off-diagonal coefficients,
    A_ij = c_ij for i < j; the diagonal c_ii does not enter.  For each even
    subset I != {} of {1..n} the coefficient of e_I l^(-|I|/2) is

        (-1)^((n-|I|)/2 + sum(I) - |I|(|I|+1)/2) 2^(|I|/2) Pf(A on the complement of I),

    so the top coordinate is the constant 2^(n/2); denominators and the
    integer content are then cleared.  The coefficients are polynomials in
    the c_ij and the commutation laws of `center_checks` are linear in
    omega, so laws that hold on the generic form hold on every form.  On a
    degenerate form (det b_q = 0) the center can have rank above 2; omega
    is still central there and still conjugated by the cover involution."""
    if ctx.rank % 2 or ctx.rank == 0:
        raise CliffordError("center computation needs positive even rank")
    n = ctx.rank
    base = ctx.base
    pfaffians = {(): base.one()}
    full = range(1, n + 1)
    terms = {}
    for k in range(2, n + 1, 2):
        for subset in combinations(full, k):
            pf = _pfaffian(ctx.q, tuple(i for i in full if i not in subset), pfaffians)
            if pf.is_zero():
                continue
            coeff = pf * 2 ** (k // 2)
            sign = (n - k) // 2 + sum(subset) - k * (k + 1) // 2
            terms[(mask(subset), -(k // 2))] = -coeff if sign % 2 else coeff
    flat = {(key, m): c for key, p in terms.items() for m, c in p.terms.items()}
    _, num, den = _integer_terms(flat)  # num/den is the content of omega
    scale = Fraction(den, num)
    omega = CliffordElement(ctx, {key: (p * scale).terms for key, p in terms.items()})

    square = cl_mul(omega, omega)
    top = (mask(full), -(n // 2))
    alpha = Poly(base, square.terms.get(top, {})) / -(terms[top] * scale).constant_term()
    beta = -Poly(base, square.terms.get((0, 0), {}))
    if not (square + omega.scale(alpha) + ctx.scalar(beta)).is_zero():
        raise CliffordError("center relation does not close in {1, omega}")
    return CenterRelation(ctx, omega, alpha, beta)


def _pfaffian(q, idx, memo):
    """Pf of the alternating matrix of q's off-diagonal coefficients on the
    sorted index tuple `idx`: expansion along the first index, memoized in
    `memo` by the index tuple."""
    if idx not in memo:
        first, rest = idx[0], idx[1:]
        total = q.base.zero()
        for t, j in enumerate(rest):
            c = q.coefficient(first, j)
            if not c.is_zero():
                term = c * _pfaffian(q, rest[:t] + rest[t + 1 :], memo)
                total = total - term if t % 2 else total + term
        memo[idx] = total
    return memo[idx]


def center_checks(ctx, rel):
    """Exact commutation facts for the center generator: omega commutes
    with the whole degree-0 component, and conjugation by any degree-1
    monomial implements the cover involution v omega = conj(omega) v.

    Both are checked on algebra generators, with the same answers as on
    every basis monomial.  The commutant of omega is a subalgebra, and the
    degree-0 monomials are products of the e_i e_j l^-1 (i < j), so
    `commutes_degree0` is checked on those alone.  Every degree-1 monomial
    is e_i1 b with b of degree 0, and e_i1 b omega = e_i1 omega b =
    conj(omega) e_i1 b when omega commutes with b and the law holds for
    e_i1.  Conversely, when the law holds for each e_i, conj(omega) =
    -alpha - omega gives e_i conj(omega) = omega e_i, hence e_i e_j omega =
    omega e_i e_j: the law on degree 1 implies commutation.  So
    `twisted_degree1` is commutation and the law on e_1..e_n."""
    omega = rel.omega
    conj = rel.conjugate()
    pairs = [(mask(ij), -1) for ij in combinations(range(1, ctx.rank + 1), 2)]
    gens = [(1 << i, 0) for i in range(1, ctx.rank + 1)]
    # the e_i omega are suffixes of the e_i e_j omega, computed once
    left = monomial_products(ctx, pairs + gens, omega.terms)
    commutes = all(
        cl_mul(omega, ctx.monomial(*key)).terms == t for key, t in zip(pairs, left)
    )
    twisted = commutes and all(
        t == cl_mul(conj, ctx.monomial(*key)).terms for key, t in zip(gens, left[len(pairs) :])
    )
    return {"commutes_degree0": commutes, "twisted_degree1": twisted}


# -- element parsing -------------------------------------------------------


def parse_element(source, ctx):
    """Parse an element of the algebra of `ctx` (grammar: `polyalg`)."""
    return _parse_whole(source, _ElementGrammar(ctx))


def _coefficient_degree(elem):
    """Largest total degree of a coefficient of `elem`, -1 for 0."""
    return max((sum(m) for c in elem.terms.values() for m in c), default=-1)


def _term_count(elem):
    return sum(map(len, elem.terms.values()))


def _bounded_mul(a, b):
    """cl_mul(a, b) whose coefficient degree is at most MAX_EXPONENT and
    whose factors have at most MAX_TERMS pairs of terms: refused before the
    product when the factors' degrees add up past the cap or their term
    counts multiply past MAX_TERMS, and after it when a contraction (which
    multiplies by a coefficient of q) takes the degree past the cap."""
    check_degree(_coefficient_degree(a) + _coefficient_degree(b))
    check_terms(_term_count(a) * _term_count(b))
    out = cl_mul(a, b)
    check_degree(_coefficient_degree(out))
    return out


class _ElementGrammar:
    """The expression grammar in the algebra of `ctx`: identifiers are l,
    e1..en and the base variables, products are `_bounded_mul` in written
    order, a power is a chain of them, and only l takes a negative power."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.generators = {f"e{i}": i for i in range(1, ctx.rank + 1)}

    def const(self, c):
        return self.ctx.scalar(c)

    def name(self, text):
        ctx = self.ctx
        if text == "l":
            return ctx.l_power(1)
        if text in self.generators:
            return ctx.generator(self.generators[text])
        if text in ctx.base.variables:
            return ctx.scalar(ctx.base.var(text))
        raise ParseError(f"unknown identifier {text!r}")

    mul = staticmethod(_bounded_mul)

    def power(self, base, n):
        ctx = self.ctx
        if n < 0:
            if base != ctx.l_power(1):
                raise ParseError("negative powers are only allowed on l")
            return ctx.l_power(n)
        check_degree(_coefficient_degree(base) * n)
        out = ctx.one()
        for _ in range(n):
            out = _bounded_mul(out, base)
        return out
