"""Exact linear algebra over Q, by one elimination: `Echelon`, and the
polynomial row blocks evaluated at sample points that it ranks:
`PointRows`.

`Echelon` is a fraction-free forward elimination (cf. Bareiss 1968, here
with content removal instead of exact division) on sparse integer rows.
An input row is a sequence of ints and Fractions or a sparse mapping
{column: value}; the verifiers' sample-point rows arrive from
`PointRows.at` as sparse rows of their nonzero values, ints at an
integral point.  Such a row is taken in by one gcd of its values and
divided by it (a row with content 1 is kept as the dict itself).  A row
that gcd refuses (a Fraction entry, or a dense row, which has no values)
or that holds a zero is scaled by the lcm of its denominators instead,
which leaves its span unchanged, and kept as `{column: int}` without its
zero entries.
A row is reduced against the pivot rows keyed by their leading column with
`a*v - b*p` (`a`, `b` divided by their gcd) and then divided by its
content, so every stored row is a primitive integer row.  Each step builds
a new dict: no row, stored or passed in, is ever mutated.

An `Echelon` grows one row at a time and its rank is that of every row
added so far, so `PointRows.stacked_ranks` takes the rank of two row
blocks together by extending the echelon of the first with the second.

`q_rank` reads the number of pivot rows.  `Echelon.kernel` back-substitutes
the pivot rows into the reduced row echelon form R and returns the
canonical kernel basis: one vector per free column f, with v[f] = 1 and
v[c] = -R[c][f] on the pivot columns c; a solve of A x = b is the kernel
vector of the column -b of [A | -b].  Systems over the fraction field of
the base ring are solved by `polyalg.fraction_free_rref`, on sparse rows
{column: term map} in and out."""

from fractions import Fraction
from math import gcd, lcm

from quadrikit.polyalg import _integer_terms, _monomial_value


def _integer_row(row):
    """The nonzero entries of a row of ints and Fractions, dense or sparse
    {column: value}, as a primitive integer row {column: int}, a positive
    rational multiple of the row (the row itself when it already is one)."""
    try:
        # a dense row has no `values`, and gcd refuses a Fraction
        content = gcd(*row.values())  # 0 for an empty row
    except (AttributeError, TypeError):
        content = None
    if content is not None and all(row.values()):
        # sparse nonzero ints, as `PointRows.at` gives at an integral point
        return row if content <= 1 else {c: x // content for c, x in row.items()}
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return _integer_terms({c: x for c, x in items if x})[0]


def _eliminate(v, p, lead):
    """a*v - b*p divided by its content, with a, b chosen so the entry in
    column `lead` cancels."""
    a, b = p[lead], v[lead]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a == 1:
        out = {c: x for c, x in v.items() if c != lead}
    else:
        out = {c: a * x for c, x in v.items() if c != lead}
    for c, y in p.items():
        if c != lead:
            s = out.get(c, 0) - b * y
            if s:
                out[c] = s
            else:
                del out[c]
    if out:
        content = gcd(*out.values())
        if content != 1:
            out = {c: x // content for c, x in out.items()}
    return out


class Echelon:
    """A row echelon form over Q grown one row at a time.

    `add(row)` reduces a rational row against the pivot rows and keeps it
    as a new pivot row when it is independent of them; `rank` counts the
    rows kept, `pivots` lists their leading columns and `kernel` solves.
    A stored row, possibly the dict passed to `add`, is never mutated."""

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots = {}  # leading column -> primitive sparse integer row

    @property
    def rank(self):
        return len(self._pivots)

    @property
    def pivots(self):
        """The leading columns of the pivot rows, ascending."""
        return sorted(self._pivots)

    def add(self, row):
        """Return True and keep `row` (a sequence of ints and Fractions or
        a mapping column -> value) when it raises the rank, else False."""
        v = _integer_row(row)
        pivots = self._pivots
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = v
                return True
            v = _eliminate(v, p, lead)
        return False

    def extend(self, rows):
        """Add each of `rows` and return the rank of every row added so far."""
        for row in rows:
            self.add(row)
        return self.rank

    def kernel(self, ncols):
        """Basis of the right kernel over Q of the rows added, as lists of
        `ncols` Fractions: for each free column f in ascending order, the
        vector with v[f] = 1, v[c] = -R[c][f] on each pivot column c, where
        R is the reduced row echelon form, and 0 elsewhere."""
        reduced = {}
        # from the highest leading column down, clear each row's entries in
        # the other pivot columns with the rows already reduced
        for lead in sorted(self._pivots, reverse=True):
            v = self._pivots[lead]
            for c in [c for c in v if c in reduced]:
                v = _eliminate(v, reduced[c], c)
            reduced[lead] = v
        basis = []
        for f in range(ncols):
            if f in reduced:
                continue
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for lead, v in reduced.items():
                if f in v:
                    vec[lead] = Fraction(-v[f], v[lead])
            basis.append(vec)
        return basis


def q_rank(rows):
    """Rank over Q of a list of rows of ints and Fractions."""
    return Echelon().extend(rows)


class PointRows:
    """Sparse rows {column: term map} of polynomials over `ring` (their
    `Poly.terms`), prepared once for evaluation at many points.  A
    structurally zero row is dropped, and so is a rational multiple of an
    earlier row (same key: the entries sorted by column and monomial,
    divided by their content, sign fixed); `kept` lists the indices of the
    rows that stay.  A kept row is scaled once to coprime int coefficients,
    a positive multiple: a constant row (every entry one degree-0 term) is
    stored as that int row {column: int}, any other as its columns and the
    ids of its entries, each distinct entry stored once.  The row space at
    every point is unchanged, and with it ranks, pivots and kernels.

    The block is `constant` when every kept row is: it is then the same
    integer matrix at every point, which `at` returns as stored, so a rank
    taken at one point holds at all of them.  `rank` and `stacked_ranks`
    keep such ranks in the block itself, which frees them with it."""

    __slots__ = ("ring", "kept", "constant", "_monos", "_entries", "_rows", "_ranks")

    def __init__(self, ring, rows):
        self.ring, self.kept, self._rows, self._ranks = ring, [], [], {}
        monos, entries, seen = {}, {}, set()
        for idx, row in enumerate(rows):
            nonzero = [(col, terms) for col, terms in row.items() if terms]
            if not nonzero:
                continue
            flat = sorted((col, m, c) for col, terms in nonzero for m, c in terms.items())
            scale = lcm(*[c.denominator for _, _, c in flat])
            ints = [c.numerator * scale // c.denominator for _, _, c in flat]
            content = gcd(*ints)
            unit = content if ints[0] > 0 else -content
            key = tuple((col, m, x // unit) for (col, m, _), x in zip(flat, ints))
            if key in seen:
                continue
            seen.add(key)
            self.kept.append(idx)
            if not any(any(m) for _, m, _ in flat):
                self._rows.append({col: x // content for (col, _, _), x in zip(flat, ints)})
                continue
            scaled = {(col, m): x // content for (col, m, _), x in zip(flat, ints)}
            ids = []
            for col, terms in nonzero:
                entry = tuple((monos.setdefault(m, len(monos)), scaled[col, m]) for m in terms)
                ids.append(entries.setdefault(entry, len(entries)))
            self._rows.append((tuple(col for col, _ in nonzero), tuple(ids)))
        self._monos, self._entries = list(monos), list(entries)
        self.constant = not entries

    def select(self, positions):
        """The kept rows at `positions` in `kept`, prepared as they are here
        with only the monomials and entries they use; their `kept` counts
        them from 0."""
        out = PointRows.__new__(PointRows)
        out.ring, out.kept, out._rows = self.ring, list(range(len(positions))), []
        out._ranks = {}
        monos, entries = {}, {}
        for p in positions:
            row = self._rows[p]
            if type(row) is tuple:
                row = row[0], tuple(entries.setdefault(e, len(entries)) for e in row[1])
            out._rows.append(row)
        out._entries = [
            tuple((monos.setdefault(k, len(monos)), c) for k, c in self._entries[e])
            for e in entries
        ]
        out._monos = [self._monos[k] for k in monos]
        out.constant = not entries
        return out

    def at(self, vals):
        """The kept rows at one point, given as `Ring.point` resolves it, as
        sparse rows {column: value} of the nonzero values, ints at an
        integral point, the constant ones as stored (read, never mutate);
        a variable without a value raises where it occurs."""
        if self.constant:
            return self._rows
        mono = [_monomial_value(self.ring, m, vals) for m in self._monos]
        value = [sum(c * mono[k] for k, c in entry) for entry in self._entries]
        return [
            row if type(row) is dict else {col: x for col, e in zip(*row) if (x := value[e])}
            for row in self._rows
        ]

    def rank(self, vals, rows=None):
        """`q_rank` of the block at `vals`, its rows there given as `rows` or
        evaluated here; a constant block's, the same at every point, is
        taken once and kept, and the block is not evaluated again."""
        rank = self._ranks.get(None)
        if rank is None:
            rank = q_rank(self.at(vals) if rows is None else rows)
            if self.constant:
                self._ranks[None] = rank
        return rank

    def stacked_ranks(self, vals, second):
        """The ranks at `vals` of this block, of the block `second`, and of
        the two stacked: this block is eliminated and the echelon extended
        with `second`, whose own rank is its `rank`.  When both blocks are
        constant the three are the same at every point, taken once and kept
        here under the key `second`."""
        ranks = self._ranks.get(second)
        if ranks is None:
            second_rows = second.at(vals)
            echelon = Echelon()
            r_first = echelon.extend(self.at(vals))
            ranks = r_first, second.rank(vals, second_rows), echelon.extend(second_rows)
            if self.constant and second.constant:
                self._ranks[second] = ranks
        return ranks
