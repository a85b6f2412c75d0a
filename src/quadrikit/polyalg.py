"""Exact multivariate polynomial arithmetic over Q, polynomial matrices,
and a small Buchberger engine for ideal membership / equality / unit tests.

Expression grammar (EBNF, whitespace insignificant):

    expr     = [sign] term { sign term } ;
    sign     = "+" | "-" ;
    term     = factor { "*" factor } ;
    factor   = atom [ "^" ["-"] natural ] ;
    atom     = rational | identifier | "(" expr ")" | sign atom ;
    rational = natural [ "/" natural ] ;
    natural  = digit { digit } ;  (* ASCII 0-9, at most MAX_DIGITS *)

One recursive descent reads it for a grammar object, which gives the values
of numerals (`const`) and identifiers (`name`) and bounded products (`mul`)
and powers (`power`): `parse_poly` over a ring, and `clifford.parse_element`
(adds e1..en and l, the one atom with negative powers).  `parse_rational`
reads a lone `[sign] rational`, as every number outside an expression is.

Exponents, and the total degree of every power and product, are capped at
MAX_EXPONENT, and a bound on the number of terms of every power and
product at MAX_TERMS; a larger one is a ParseError raised before expanding.

Canonical printing lists terms in descending monomial order with explicit
"*" between factors and "^" for powers >= 2; parse(print(p)) == p.
"""

import heapq
import math
from fractions import Fraction
from operator import add, sub

from quadrikit import _kernel as K


class PolyError(Exception):
    """Malformed input or violated precondition in the polynomial layer."""


class ParseError(PolyError):
    pass


# Largest exponent, and largest total degree of a power or product, that
# the expression parsers accept (here and in clifford.parse_element).
# Without it "(a+b)^N" grows without limit and "e1^N" costs N Clifford
# products; checking the degree before expanding also stops "(x^64)^64".
MAX_EXPONENT = 64


def check_exponent(n):
    if n > MAX_EXPONENT:
        raise ParseError(f"exponent {n} exceeds the maximum {MAX_EXPONENT}")
    return n


def check_degree(d):
    if d > MAX_EXPONENT:
        raise ParseError(f"degree {d} exceeds the maximum {MAX_EXPONENT}")


# Largest bound on the term count of a power or product that the parsers
# expand: C(t+n-1, n) for a t-term base to n, |a|*|b| for a product.  The
# degree cap alone lets "(a+b+c+d+e+f)^40", over a million terms, through.
MAX_TERMS = 4096


def check_terms(bound):
    if bound > MAX_TERMS:
        raise ParseError(f"term count bound {bound} exceeds the maximum {MAX_TERMS}")


# Longest numeral the parsers accept: the smallest limit CPython's
# int(str) conversion can be configured to, so a literal never fails there.
MAX_DIGITS = 640


def _coefficient(c):
    """A rational scalar as a term-map coefficient: an int when it is
    integral, else a Fraction (the invariant of `_kernel`)."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise PolyError(f"not a rational scalar: {c!r}")


def _quo(a, b):
    """The coefficient a / b of two coefficients, b nonzero; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coefficient(Fraction(a) / b)


def _grevlex_key(m):
    # m1 > m2 in grevlex, as `_kernel.leading_monomial` compares, iff
    # key(m1) > key(m2): larger degree first, then the smaller last
    # differing exponent
    return (sum(m), tuple(-e for e in reversed(m)))


class Ring:
    """A polynomial ring Q[variables], its monomials ordered by grevlex
    (graded reverse lexicographic, the variables ranked as listed)."""

    __slots__ = ("variables", "_index")

    def __init__(self, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PolyError("duplicate variable names")
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}

    @property
    def arity(self):
        return len(self.variables)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Q[{', '.join(self.variables)}]"

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = _coefficient(c)
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.arity: c})

    def var(self, name):
        try:
            i = self._index[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r} in {self!r}") from None
        mono = tuple(1 if j == i else 0 for j in range(self.arity))
        return Poly(self, {mono: 1})

    def gens(self):
        return [self.var(v) for v in self.variables]

    def point(self, assignment):
        """A variable name -> rational assignment as {variable index:
        value}, an integral value as an int and any other as a Fraction;
        a name that is not a variable of the ring raises."""
        vals = {}
        for name, v in assignment.items():
            i = self._index.get(name)
            if i is None:
                raise PolyError(f"unknown variable {name!r} in {self!r}")
            vals[i] = _coefficient(v)
        return vals

    def sort_monomials(self, monos):
        """Monomials in descending grevlex order."""
        return sorted(monos, key=_grevlex_key, reverse=True)

    def embed(self, poly, target):
        """Rename-based coefficient embedding into a ring with a superset
        of this ring's variables."""
        if poly.ring is not self and poly.ring != self:
            raise PolyError("poly not over this ring")
        try:
            positions = [target._index[v] for v in self.variables]
        except KeyError as e:
            raise PolyError(f"target ring is missing variable {e.args[0]!r}") from None
        terms = {}
        for m, c in poly.terms.items():
            mono = [0] * target.arity
            for pos, e in zip(positions, m):
                mono[pos] = e
            terms[tuple(mono)] = c
        return Poly(target, terms)


class Poly:
    """Immutable polynomial: term map from exponent tuples to nonzero
    coefficients, ints where integral and Fractions otherwise."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- ring plumbing -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise PolyError("ring mismatch")
        return self.ring.const(other)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, Poly)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return Poly(self.ring, K.add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Poly(self.ring, K.sub_terms(self.terms, other.terms))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Poly(self.ring, K.neg_terms(self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.ring, K.scale_terms(self.terms, _coefficient(other)))
        other = self._coerce(other)
        return Poly(self.ring, K.mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _coefficient(other)
        if not c:
            raise ZeroDivisionError("division of Poly by zero scalar")
        return Poly(self.ring, {m: _quo(a, c) for m, a in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure -----------------------------------------------------

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise PolyError("zero polynomial has no leading monomial")
        return K.leading_monomial(self.terms)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        if not self.terms:
            return self
        return self / self.leading_coeff()

    def coeff(self, mono):
        return self.terms.get(tuple(mono), 0)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.arity, 0)

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def sorted_terms(self):
        return [(m, self.terms[m]) for m in self.ring.sort_monomials(self.terms)]

    def evaluate(self, assignment):
        """Evaluate at a dict variable name -> Fraction/int; must cover every
        variable that occurs."""
        vals = self.ring.point(assignment)
        return Fraction(
            sum(c * _monomial_value(self.ring, m, vals) for m, c in self.terms.items())
        )

    def substitute(self, mapping, target=None):
        """Substitute polynomials for variables.  `mapping` sends variable
        names to Poly over `target` (default: this ring); unmapped
        variables map to themselves."""
        ring = target or self.ring
        images = []
        for v in self.ring.variables:
            if v in mapping:
                img = mapping[v]
                if not isinstance(img, Poly):
                    img = ring.const(img)
                images.append(img)
            else:
                images.append(ring.var(v))
        total = ring.zero()
        for m, c in self.terms.items():
            term = ring.const(c)
            for i, e in enumerate(m):
                if e:
                    term = term * images[i] ** e
            total = total + term
        return total

    # -- printing ------------------------------------------------------

    def _format_term(self, mono, coeff):
        factors = []
        for v, e in zip(self.ring.variables, mono):
            if e == 1:
                factors.append(v)
            elif e >= 2:
                factors.append(f"{v}^{e}")
        if not factors:
            return str(abs(coeff))
        body = "*".join(factors)
        a = abs(coeff)
        if a == 1:
            return body
        return f"{a}*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            body = self._format_term(m, c)
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"Poly({self})"


# -- evaluation at a point ---------------------------------------------


def _monomial_value(ring, m, vals):
    """Value of the monomial `m` at the resolved point `vals`."""
    v = 1
    for i, e in enumerate(m):
        if e:
            if i not in vals:
                raise PolyError(f"no value for variable {ring.variables[i]!r}")
            v *= vals[i] ** e
    return v


# -- parsing -----------------------------------------------------------


class _Tokens:
    def __init__(self, source):
        self.toks = self._scan(source)
        self.pos = 0

    @staticmethod
    def _scan(source):
        toks = []
        i, n = 0, len(source)
        while i < n:
            ch = source[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*^()/":
                toks.append((ch, ch))
                i += 1
            elif "0" <= ch <= "9":
                j = i
                while j < n and "0" <= source[j] <= "9":
                    j += 1
                if j - i > MAX_DIGITS:
                    raise ParseError(
                        f"numeral of {j - i} digits exceeds the maximum {MAX_DIGITS}"
                    )
                toks.append(("num", source[i:j]))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (source[j].isalnum() or source[j] == "_"):
                    j += 1
                toks.append(("ident", source[i:j]))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r} at position {i}")
        toks.append(("end", ""))
        return toks

    def peek(self):
        return self.toks[self.pos][0]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}")
        return tok


def _parse_expr(tokens, grammar):
    sign = 1
    if tokens.peek() in ("+", "-"):
        if tokens.next()[0] == "-":
            sign = -1
    total = _parse_term(tokens, grammar) * sign
    while tokens.peek() in ("+", "-"):
        op = tokens.next()[0]
        term = _parse_term(tokens, grammar)
        total = total + term if op == "+" else total - term
    return total


def _parse_term(tokens, grammar):
    product = _parse_factor(tokens, grammar)
    while tokens.peek() == "*":
        tokens.next()
        product = grammar.mul(product, _parse_factor(tokens, grammar))
    return product


def _parse_factor(tokens, grammar):
    base = _parse_atom(tokens, grammar)
    if tokens.peek() != "^":
        return base
    tokens.next()
    negative = tokens.peek() == "-"
    if negative:
        tokens.next()
    tok = tokens.next()
    if tok[0] != "num":
        raise ParseError("exponent must be an integer")
    n = check_exponent(int(tok[1]))
    return grammar.power(base, -n if negative else n)


def _parse_rational(tokens):
    """rational = natural [ "/" natural ], as an int or a Fraction."""
    num = int(tokens.expect("num")[1])
    if tokens.peek() != "/":
        return num
    tokens.next()
    den = int(tokens.expect("num")[1])
    if not den:
        raise ParseError(f"zero denominator in {num}/0")
    return Fraction(num, den)


def _parse_atom(tokens, grammar):
    if tokens.peek() == "num":
        return grammar.const(_parse_rational(tokens))
    kind, text = tokens.next()
    if kind == "ident":
        return grammar.name(text)
    if kind == "(":
        inner = _parse_expr(tokens, grammar)
        tokens.expect(")")
        return inner
    if kind == "-":
        return -_parse_atom(tokens, grammar)
    if kind == "+":
        return _parse_atom(tokens, grammar)
    raise ParseError(f"unexpected token {text!r}")


def _expect_end(tokens):
    if tokens.peek() != "end":
        raise ParseError(f"trailing input at token {tokens.next()[1]!r}")


def _parse_whole(source, grammar):
    """An expression of `grammar` that is the whole of `source`; nesting
    too deep for the recursive descent is a ParseError too."""
    tokens = _Tokens(source)
    try:
        value = _parse_expr(tokens, grammar)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    _expect_end(tokens)
    return value


class _PolyGrammar:
    """The polynomial grammar over `ring`: numerals, the ring's variables,
    and products and powers refused before expanding past MAX_EXPONENT or
    MAX_TERMS."""

    def __init__(self, ring):
        self.ring = ring

    def const(self, c):
        return self.ring.const(c)

    def name(self, text):
        if text not in self.ring.variables:
            raise ParseError(f"unknown identifier {text!r}")
        return self.ring.var(text)

    def mul(self, a, b):
        check_degree(a.total_degree() + b.total_degree())
        check_terms(len(a.terms) * len(b.terms))
        return a * b

    def power(self, base, n):
        if n < 0:
            raise ParseError("exponent must be a nonnegative integer")
        check_degree(base.total_degree() * n)
        if len(base.terms) > 1:
            check_terms(math.comb(len(base.terms) + n - 1, n))
        return base ** n


def parse_poly(source, ring):
    """Parse an expression into canonical Poly form over `ring`."""
    return _parse_whole(source, _PolyGrammar(ring))


def parse_rational(text):
    """The `[sign] rational` that is the whole of `text`: an int, or a
    Fraction when written with "/"."""
    tokens = _Tokens(text)
    sign = tokens.next()[0] if tokens.peek() in ("+", "-") else "+"
    value = _parse_rational(tokens)
    _expect_end(tokens)
    return -value if sign == "-" else value


# -- exact division and matrices ----------------------------------------


def div_terms(f, g):
    """Quotient term map f/g when g divides f exactly; raises PolyError
    otherwise.  A constant g, one term at the zero exponent, divides every
    term in one pass, and g = 1 returns f itself."""
    if not g:
        raise PolyError("division by zero polynomial")
    lm_g = next(iter(g)) if len(g) == 1 else K.leading_monomial(g)
    lc_g = g[lm_g]
    if not any(lm_g):
        return f if lc_g == 1 else {m: _quo(x, lc_g) for m, x in f.items()}
    quotient = {}
    rest = f
    while rest:
        lm = K.leading_monomial(rest)
        q = tuple(map(sub, lm, lm_g))
        if min(q, default=0) < 0:
            raise PolyError("polynomial division is not exact")
        c = _quo(rest[lm], lc_g)
        quotient[q] = c
        rest = K.sub_terms(rest, K.shift_terms(g, q, c))
    return quotient


def exact_div(f, g):
    """Quotient f/g of Polys by `div_terms`: f itself when g = 1."""
    q = div_terms(f.terms, g.terms)
    return f if q is f.terms else Poly(f.ring, q)


class PolyMatrix:
    """Matrix of Poly entries over one ring, kept as its rows' nonzero
    entries: `entries[i]` maps each column j with a nonzero entry to it
    (`fraction_free_rref` takes these rows as their term maps).  `m[i, j]`
    reads one entry, a zero one as the matrix's shared `zero`; `dense()`
    lists every entry, for printing.  A product accumulates each row in
    one map keyed by (column, monomial)."""

    __slots__ = ("ring", "rows", "cols", "entries", "zero")

    def __init__(self, ring, rows, cols):
        entries = []
        for row in rows:
            kept = {}
            for j, p in row.items():
                if not isinstance(p, Poly) or p.ring is not ring and p.ring != ring:
                    raise PolyError("matrix entry over the wrong ring")
                if not (isinstance(j, int) and 0 <= j < cols):
                    raise PolyError(f"matrix column {j!r} outside 0..{cols - 1}")
                if p.terms:
                    kept[j] = p
            entries.append(kept)
        self.ring = ring
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols
        self.zero = ring.zero()

    def __getitem__(self, index):
        i, j = index
        if not 0 <= j < self.cols:
            raise IndexError(f"matrix column {j} outside 0..{self.cols - 1}")
        return self.entries[i].get(j, self.zero)

    def dense(self):
        """Every entry, as a list of `cols` Polys per row."""
        return [[row.get(j, self.zero) for j in range(self.cols)] for row in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.ring == other.ring
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, p in row.items():
                out[j][i] = p
        return PolyMatrix(self.ring, out, self.rows)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise PolyError("dimension mismatch in matrix product")
        out = []
        for left in self.entries:
            # row i: every term product, summed in one map keyed by
            # (column, monomial), then split into the entries' term maps
            acc = {}
            for k, a in left.items():
                right = other.entries[k].items()
                for m1, c1 in a.terms.items():
                    for j, b in right:
                        for m2, c2 in b.terms.items():
                            key = j, tuple(map(add, m1, m2))
                            s = acc.get(key, 0) + c1 * c2
                            if s:
                                acc[key] = s
                            else:
                                del acc[key]
            row = {}
            for (j, m), c in acc.items():
                row.setdefault(j, {})[m] = c
            out.append({j: Poly(self.ring, K._normalized(t)) for j, t in row.items()})
        return PolyMatrix(self.ring, out, other.cols)

    def submatrix(self, row_idx, col_idx):
        position = {c: k for k, c in enumerate(col_idx)}
        return PolyMatrix(
            self.ring,
            [{position[j]: p for j, p in self.entries[i].items() if j in position} for i in row_idx],
            len(position),
        )

    def __str__(self):
        cells = [[str(p) for p in row] for row in self.dense()]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
        return "\n".join(lines)


def _det_cofactor(m):
    """Laplace expansion along the first row's nonzeros."""
    n = m.rows
    if n == 1:
        return m[0, 0]
    if n == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    total = m.zero
    for j, p in m.entries[0].items():
        minor = m.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = p * _det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def fraction_free_rref(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of sparse rows of
    term maps, each a map {col: term map}; the input rows and their term
    maps are left unchanged.

    Returns (rows, pivot columns, sign), the rows in the same sparse form,
    holding only their nonzero entries.  Every pivot entry equals the
    common denominator D, the last pivot taken, and every other entry is
    D times the reduced row echelon entry over the fraction field; rows
    past the rank are empty and sign is (-1)^(row swaps).  Each update
    (D_new x - f y) / D_old is a minor of the input (Sylvester's identity),
    so its division (`div_terms`) is exact.  The pivot in a column is the
    candidate with the fewest terms, ties broken by row index, which keeps
    D small.  Only columns with an input entry are visited: no other
    column gets fill-in, so none can hold a pivot.

    A pivot step updates only the rows with an entry in its column, on the
    union of their columns and the pivot row's.  A row without one would
    only be rescaled by D_new / D_old; the factors telescope, so it is left
    as it is and brought up to date (x D_now / D_then, again an exact
    division) only when it is read: as a pivot candidate, as a row to
    update, or in the result.

    A pivot equal to the constant 1 is recorded as no denominator, as D
    is before the first pivot: its step computes x - f y, and neither that
    step, the next one nor a catch-up multiplies or divides by it.
    """
    a = [{j: x for j, x in row.items() if x} for row in rows]
    nrows = len(a)
    level = [0] * nrows  # pivots taken when each row was last brought up to date
    dens = [None]  # D after k pivots; None stands for 1
    pivots = []
    sign = 1

    def catch_up(i):
        then, now = dens[level[i]], dens[-1]
        if now != then:
            row = a[i]
            for j, x in row.items():
                if now is not None:
                    x = K.mul_terms(x, now)
                row[j] = x if then is None else div_terms(x, then)
        level[i] = len(pivots)

    for c in sorted(set().union(*a)):
        r = len(pivots)
        if r == nrows:
            break
        candidates = [i for i in range(r, nrows) if c in a[i]]
        if not candidates:
            continue
        for i in candidates:
            catch_up(i)
        p = min(candidates, key=lambda i: len(a[i][c]))
        if p != r:
            a[r], a[p] = a[p], a[r]
            level[r], level[p] = level[p], level[r]
            sign = -sign
        pivot_row = a[r]
        d = pivot_row[c]
        unit = len(d) == 1 and d.get((0,) * len(next(iter(d)))) == 1
        prev = dens[-1]
        for i in range(nrows):
            row = a[i]
            if i == r or c not in row:
                continue
            catch_up(i)
            f = K.neg_terms(row.pop(c))
            for j in row.keys() | pivot_row.keys():
                if j == c:
                    continue
                x = row.get(j)
                y = pivot_row.get(j)
                if y is None:
                    num = x if unit else K.mul_terms(d, x)
                elif x is None:
                    num = K.mul_terms(f, y)
                else:
                    num = K.add_terms(x if unit else K.mul_terms(d, x), K.mul_terms(f, y))
                if prev is not None:
                    num = div_terms(num, prev)
                if num:
                    row[j] = num
                else:
                    row.pop(j, None)
            level[i] = r + 1
        pivots.append(c)
        dens.append(None if unit else d)
        level[r] = r + 1  # the pivot row is not rescaled at its own step
    for i in range(nrows):
        catch_up(i)
    return a, pivots, sign


def _det_bareiss(m):
    rows = [{j: p.terms for j, p in row.items()} for row in m.entries]
    a, pivots, sign = fraction_free_rref(rows)
    if len(pivots) < m.rows:
        return m.zero
    return Poly(m.ring, K.scale_terms(a[-1][pivots[-1]], sign))


def det(m):
    """Exact determinant of a square PolyMatrix."""
    if m.rows != m.cols:
        raise PolyError("determinant of a non-square matrix")
    if m.rows == 0:
        return m.ring.one()
    if m.rows <= 3:
        return _det_cofactor(m)
    return _det_bareiss(m)


def minors_ideal(m, k):
    """Ideal generated by all k x k minors of m."""
    from itertools import combinations

    if not 1 <= k <= min(m.rows, m.cols):
        raise PolyError(f"minor size {k} out of range")
    gens = []
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            gens.append(det(m.submatrix(rows, cols)))
    return Ideal(m.ring, gens)


# -- Groebner engine -----------------------------------------------------


def _mono_lcm(m1, m2):
    return tuple(map(max, m1, m2))


def _lead_data(g):
    """(leading monomial, int leading coefficient, int term map of the other
    terms) of the primitive integer multiple of a nonzero g."""
    tail = _integer_terms(g.terms)[0]
    lm = K.leading_monomial(tail)
    return lm, tail.pop(lm), tail


def _integer_terms(terms):
    """(ints, num, den) with terms = num/den * ints, ints a fresh primitive
    int term map: num is gcd(numerators) and den lcm(denominators)."""
    num = math.gcd(*[c.numerator for c in terms.values()]) or 1
    den = math.lcm(*[c.denominator for c in terms.values()])
    ints = {m: c.numerator // num * (den // c.denominator) for m, c in terms.items()}
    return ints, num, den


def normal_form(f, basis, *, _lead=None):
    """Remainder of f under multivariate division by `basis`.  `_lead`, if
    given, is the list of _lead_data of the basis elements.  Runs in ints, in
    place, on f = s * rest, s = num/den: the leading term c*x^lm of rest is
    cancelled by the first g whose leading monomial divides lm, with rest
    scaled by m = lc_g/d, d = gcd(c, lc_g), and den by m; a term no leading
    monomial divides is kept as s*c, so the remainder is exact over Q."""
    lead = [_lead_data(g) for g in basis] if _lead is None else _lead
    rest, num, den = _integer_terms(f.terms)
    remainder = {}
    while rest:
        lm = K.leading_monomial(rest)
        c = rest.pop(lm)
        for lm_g, lc_g, tail_g in lead:
            for a, b in zip(lm, lm_g):
                if a < b:
                    break
            else:
                d = math.gcd(c, lc_g)
                if d != lc_g:
                    m = lc_g // d
                    rest = {k: v * m for k, v in rest.items()}
                    den *= m
                c //= d
                q = tuple(map(sub, lm, lm_g))
                for k, v in tail_g.items():
                    k = tuple(map(add, k, q))
                    v = rest.get(k, 0) - c * v
                    if v:
                        rest[k] = v
                    else:
                        del rest[k]
                break
        else:
            remainder[lm] = _quo(num * c, den)
    return Poly(f.ring, remainder)


def _s_poly(ring, lead_f, lead_g):
    # (lc_g/d)*x^qf*f - (lc_f/d)*x^qg*g, d = gcd(lc_f, lc_g): in integers, a
    # nonzero multiple of the S-polynomial; the leading terms cancel
    lm_f, lc_f, tail_f = lead_f
    lm_g, lc_g, tail_g = lead_g
    lcm = _mono_lcm(lm_f, lm_g)
    qf = tuple(map(sub, lcm, lm_f))
    qg = tuple(map(sub, lcm, lm_g))
    d = math.gcd(lc_f, lc_g)
    left = K.shift_terms(tail_f, qf, lc_g // d)
    right = K.shift_terms(tail_g, qg, lc_f // d)
    return Poly(ring, K.sub_terms(left, right))


def _buchberger(gens, ring):
    # monic generators, duplicates dropped in first-occurrence order (a
    # symmetric matrix repeats its minors)
    basis = list(dict.fromkeys(g.monic() for g in gens if not g.is_zero()))
    lead = [_lead_data(g) for g in basis]
    # normal selection: pairs (i, j), i > j, popped by smallest lcm degree,
    # ties by index
    pairs = []

    def push(i, j):
        heapq.heappush(pairs, (sum(_mono_lcm(lead[i][0], lead[j][0])), i, j))

    for i in range(len(basis)):
        for j in range(i):
            push(i, j)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lm_i, lm_j = lead[i][0], lead[j][0]
        if _mono_lcm(lm_i, lm_j) == tuple(map(add, lm_i, lm_j)):
            continue  # coprime leading monomials
        h = normal_form(_s_poly(ring, lead[i], lead[j]), basis, _lead=lead)
        if not h.is_zero():
            basis.append(h.monic())
            lead.append(_lead_data(basis[-1]))
            n = len(basis) - 1
            for t in range(n):
                push(n, t)
    return _reduce_basis(basis, lead)


def _reduce_basis(basis, lead):
    # minimalize: drop elements whose leading monomial is divisible by
    # another's, then fully inter-reduce and sort descending
    lms = [data[0] for data in lead]
    minimal = []
    for i, lm in enumerate(lms):
        if any(
            _mono_lcm(lm, other) == lm
            for j, other in enumerate(lms)
            if j != i and (j < i or other != lm)
        ):
            continue
        minimal.append(i)
    minimal.sort(key=lambda i: _grevlex_key(lms[i]), reverse=True)
    reduced = []
    for i in minimal:
        others = [k for k in minimal if k != i]
        g = basis[i]
        if others:
            # g is monic and no other leading monomial divides lms[i], so
            # the remainder keeps the leading term (lms[i], 1)
            g = normal_form(g, [basis[k] for k in others], _lead=[lead[k] for k in others])
        reduced.append(g)
    return reduced


class Ideal:
    """An ideal given by generators, with a lazily cached reduced Groebner
    basis.  The cache is filled at most once; the fill is idempotent, so
    concurrent shared reads are safe."""

    __slots__ = ("ring", "generators", "_groebner")

    def __init__(self, ring, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if not isinstance(g, Poly) or g.ring != ring:
                raise PolyError("generator over the wrong ring")
            gens.append(g)
        self.generators = tuple(gens)
        self._groebner = None

    def groebner(self):
        """The unique reduced Groebner basis in grevlex."""
        if self._groebner is None:
            self._groebner = tuple(_buchberger(list(self.generators), self.ring))
        return list(self._groebner)

    def contains(self, f):
        if f.ring != self.ring:
            raise PolyError("ring mismatch")
        return normal_form(f, self.groebner()).is_zero()

    def is_unit(self):
        basis = self.groebner()
        return len(basis) == 1 and basis[0] == self.ring.one()

    def equals(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise PolyError("ring mismatch")
        return all(self.contains(g) for g in other.generators) and all(
            other.contains(g) for g in self.generators
        )

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"
