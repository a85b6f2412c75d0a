"""Exact linear algebra over Q: Gaussian elimination on rows of Fractions.

Systems over the fraction field of the base ring are solved fraction-free
by `polyalg.fraction_free_rref`."""

from fractions import Fraction


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


def q_rank(rows):
    return len(q_rref(rows)[1])


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
