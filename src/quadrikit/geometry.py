"""Scheme-level outputs: the relative Hilbert scheme of lines in the affine
Pluecker chart, the node-rank criterion for its double points, fiber
classification at base points, and nets of quadrics over a projective
parameter space."""

from fractions import Fraction

from quadrikit.polyalg import Poly, Ring
from quadrikit import linalg
from quadrikit.quadform import (
    QuadraticForm,
    QuadFormError,
    SchemePresentation,
    Subbundle,
    is_isotropic,
)

CHART_VARS = ("y13", "y14", "y23", "y24")


def lines_chart(q):
    """Equations cutting the scheme of lines inside the chart of the
    relative Grassmannian where the leading Pluecker coordinate is 1:
    with rows r1 = e1 + y13 e3 + y14 e4 and r2 = e2 + y23 e3 + y24 e4 the
    generators are q(r1), b_q(r1, r2), q(r2)."""
    if q.n != 4:
        raise QuadFormError("lines chart needs fiber rank exactly 4")
    ring = Ring(q.base.variables + CHART_VARS)
    one, zero = ring.one(), ring.zero()
    r1 = [one, zero, ring.var("y13"), ring.var("y14")]
    r2 = [zero, one, ring.var("y23"), ring.var("y24")]
    gens = [q.apply(r1, ring), q.bilinear(r1, r2, ring), q.apply(r2, ring)]
    # the published b_q-scaled display of these equations is recovered by
    # the unit rescaling (a, b, c) -> (2c, -2b, 2a) of the base
    return SchemePresentation(
        ring,
        gens,
        label="lines chart (leading Pluecker = 1); "
        "b_q-scaled display via (a,b,c) -> (2c,-2b,2a)",
    )


def node_rank(lam, mu):
    """Rank of the quadratic part of the chart equation after eliminating
    the base: set a = t1, c = t2, b = lam t1 + mu t2, solve the first and
    third chart equations for t1, t2 and substitute into the second.

    The resulting form in the four chart variables has full rank 4 exactly
    when 1 - lam mu != 0; the double point is then an ordinary node."""
    lam = Fraction(lam)
    mu = Fraction(mu)
    base = Ring(("t1", "t2"))
    t1, t2 = base.var("t1"), base.var("t2")
    q = QuadraticForm(
        base,
        4,
        {
            (1, 1): t1,
            (1, 2): t1 * lam + t2 * mu,
            (2, 2): t2,
            (3, 3): base.one(),
            (4, 4): base.one(),
        },
    )
    chart = lines_chart(q)
    ring = chart.ring
    g1, g2, g3 = chart.generators
    # g1 = t1 + y13^2 + y14^2 and g3 = t2 + y23^2 + y24^2 are linear in t
    y_ring = Ring(CHART_VARS)
    sub = {
        "t1": -(y_ring.var("y13") ** 2 + y_ring.var("y14") ** 2),
        "t2": -(y_ring.var("y23") ** 2 + y_ring.var("y24") ** 2),
    }
    for name in CHART_VARS:
        sub[name] = y_ring.var(name)
    reduced = g2.substitute(sub, y_ring)
    quad_part = Poly(
        y_ring, {m: c for m, c in reduced.terms.items() if sum(m) == 2}
    )
    names = y_ring.variables
    size = len(names)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for mono, c in quad_part.terms.items():
        support = [i for i, e in enumerate(mono) if e]
        if len(support) == 1:
            i = support[0]
            matrix[i][i] = 2 * c
        else:
            i, j = support
            matrix[i][j] = c
            matrix[j][i] = c
    return linalg.q_rank(matrix)


FIBER_LABELS = {
    0: "two disjoint smooth conics",
    1: "smooth conic over the dual numbers",
    2: "two planes meeting at a point",
}


def fiber_report(q, point):
    """Corank and line-scheme fiber type of a rank-4 form at a base point.
    For corank 2, when the residual binary form splits over Q the two
    planes are returned with an exact isotropy certificate."""
    if q.n != 4:
        raise QuadFormError("fiber classification needs rank 4")
    assignment = point.assignment
    echelon = linalg.Echelon()
    for row in q.bilinear_matrix().entries:
        echelon.add({j: p.evaluate(assignment) for j, p in row.items()})
    corank = 4 - echelon.rank
    report = {
        "point": {k: str(v) for k, v in sorted(assignment.items())},
        "corank": corank,
        "classification": FIBER_LABELS.get(corank, f"corank {corank} fiber"),
        "witnesses": None,
    }
    if corank != 2:
        return report

    q_point = q.specialize(assignment)
    kernel = echelon.kernel(4)
    u, v = echelon.pivots
    point_base = q_point.base
    e = lambda i: [Fraction(1) if k == i else Fraction(0) for k in range(4)]
    alpha = q_point.apply(e(u)).constant_term()
    gamma = q_point.apply(e(v)).constant_term()
    beta = q_point.bilinear(e(u), e(v)).constant_term()
    disc = beta * beta - 4 * alpha * gamma
    report["residual_form"] = f"{alpha}*u^2 + {beta}*u*v + {gamma}*v^2"
    report["residual_discriminant"] = str(disc)

    num, den = disc.numerator, disc.denominator
    import math

    rn, rd = math.isqrt(abs(num)), math.isqrt(den)
    if disc < 0 or rn * rn != abs(num) or rd * rd != den:
        report["witnesses"] = "splits over a quadratic extension"
        return report
    root = Fraction(rn, rd)

    # linear factors of alpha u^2 + beta u v + gamma v^2 over Q
    if alpha != 0:
        l1 = (Fraction(2) * alpha, beta - root)
        l2 = (Fraction(2) * alpha, beta + root)
    elif gamma != 0:
        l1 = (beta - root, Fraction(2) * gamma)
        l2 = (beta + root, Fraction(2) * gamma)
    else:
        l1 = (Fraction(1), Fraction(0))
        l2 = (Fraction(0), Fraction(1))

    planes = []
    for (cu, cv) in (l1, l2):
        # plane = kernel + the line cu*u + cv*v = 0 inside the pivot plane
        direction = [Fraction(0)] * 4
        direction[u], direction[v] = cv, -cu
        vectors = kernel + [direction]
        sub = Subbundle(vectors, point_base)
        if not is_isotropic(q_point, sub):
            raise QuadFormError("plane witness failed the isotropy check")
        planes.append([[str(x) for x in vec] for vec in vectors])
    report["witnesses"] = {"planes": planes}
    return report


class NetOfQuadrics:
    """Linear pencil/net sum a_i q_i of constant-coefficient forms over a
    fresh parameter base Q[a1..ak]."""

    __slots__ = ("inputs", "form")

    def __init__(self, forms):
        if not forms:
            raise QuadFormError("need at least one quadratic form")
        n = forms[0].n
        for f in forms:
            if f.n != n:
                raise QuadFormError("forms must share the fiber rank")
            if f.base.arity != 0:
                raise QuadFormError("net inputs must have constant coefficients")
        k = len(forms)
        base = Ring(tuple(f"a{i}" for i in range(1, k + 1)))
        coeff = {}
        for t, f in enumerate(forms, start=1):
            a_t = base.var(f"a{t}")
            for ij, c in f.coeff.items():
                add = a_t * c.constant_term()
                coeff[ij] = coeff.get(ij, base.zero()) + add
        self.inputs = list(forms)
        self.form = QuadraticForm(base, n, coeff)

    def discriminant(self):
        return self.form.det_bilinear()

    def discriminant_degree_report(self):
        """Degree data of det(b) as a polynomial in the net parameters:
        bounded by the fiber rank, with equality for generic inputs."""
        d = self.discriminant()
        degrees = {sum(m) for m in d.terms} if not d.is_zero() else set()
        return {
            "degree": max(degrees) if degrees else None,
            "homogeneous": len(degrees) <= 1,
            "bound": self.form.n,
        }
