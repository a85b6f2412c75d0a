"""Exact linear algebra over Q.

`q_rref` is Gauss–Jordan elimination on rows of Fractions; `q_solve` and
`q_nullspace` read their answers off its reduced rows.

`q_rank` needs no reduced rows and has its own kernel, `Echelon`: a
fraction-free forward elimination (cf. Bareiss 1968, here with content
removal instead of exact division) on sparse integer rows.
Each input row is scaled by the lcm of its denominators, which leaves the
rank unchanged, and kept as `{column: int}` without its zero entries.  A
row is reduced against the pivot rows keyed by their leading column with
`a*v - b*p` (`a`, `b` divided by their gcd) and then divided by its
content, so every stored row is a primitive integer row.  The sample-point
matrices of the verifiers are mostly zero, and their entries are small
integers, so this avoids both Fraction arithmetic and arithmetic on zeros.

Systems over the fraction field of the base ring are solved fraction-free
by `polyalg.fraction_free_rref`.  Where a system has many more rows than
its rank, as the center system of `clifford.center_element` does, only a
rank-sized subset is eliminated: the rows that `Echelon.add` accepts at
one rational base point, certified exactly on every row (each dropped row
must annihilate the subset's kernel over the fraction field)."""

from fractions import Fraction
from math import gcd, lcm


# -- rational matrices (lists of lists of Fraction) ----------------------


def q_rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _integer_row(row):
    """The nonzero entries of a row of ints and Fractions as a primitive
    integer row {column: int}, a positive rational multiple of the row."""
    entries = [(c, x) for c, x in enumerate(row) if x]
    if not entries:
        return {}
    scale = lcm(*[x.denominator for _, x in entries])
    if scale == 1:
        ints = {c: x.numerator for c, x in entries}
    else:
        ints = {c: x.numerator * (scale // x.denominator) for c, x in entries}
    content = gcd(*ints.values())
    if content != 1:
        ints = {c: x // content for c, x in ints.items()}
    return ints


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
    rows kept."""

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots = {}  # leading column -> primitive sparse integer row

    @property
    def rank(self):
        return len(self._pivots)

    def add(self, row):
        """Return True and keep `row` when it raises the rank, else False."""
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


def q_rank(rows):
    """Rank over Q of a list of rows of ints and Fractions."""
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    return echelon.rank


def q_solve(a_rows, b):
    """One solution of A x = b over Q with free variables set to 0, or None."""
    if not a_rows:
        return None
    ncols = len(a_rows[0])
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    rref, pivots = q_rref(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the constant column
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rref[r][ncols]
    return x


def q_nullspace(rows):
    """Basis of the right kernel of A over Q."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = q_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        basis.append(v)
    return basis
