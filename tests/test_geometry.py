import random
from fractions import Fraction

import pytest

from quadrikit.polyalg import Ideal, Ring, parse_poly
from quadrikit.quadform import QuadFormError, QuadraticForm, Subbundle, is_isotropic
from quadrikit.cliffmod import Specialization
from quadrikit.geometry import (
    NetOfQuadrics,
    fiber_report,
    lines_chart,
    node_rank,
)


def universal():
    return QuadraticForm.from_expression(
        ["a", "b", "c"], 4, "x1*x2 + a*x3^2 + b*x3*x4 + c*x4^2"
    )


def binary_plus_squares():
    return QuadraticForm.from_expression(
        ["a", "b", "c"], 4, "a*x1^2 + b*x1*x2 + c*x2^2 + x3^2 + x4^2"
    )


# -- lines chart ------------------------------------------------------------


def chart_oracle(q):
    """Independent oracle: substitute the two chart rows into the defining
    polynomial and polarize."""
    ring = Ring(q.base.variables + ("y13", "y14", "y23", "y24"))
    qp = q.q_poly(Ring(q.base.variables + ("x1", "x2", "x3", "x4")))
    zero, one = ring.zero(), ring.one()
    r1 = {"x1": one, "x2": zero, "x3": ring.var("y13"), "x4": ring.var("y14")}
    r2 = {"x1": zero, "x2": one, "x3": ring.var("y23"), "x4": ring.var("y24")}
    rsum = {k: r1[k] + r2[k] for k in r1}
    q_r1 = qp.substitute(r1, ring)
    q_r2 = qp.substitute(r2, ring)
    return [q_r1, qp.substitute(rsum, ring) - q_r1 - q_r2, q_r2]


def test_chart_generators_match_substitution_oracle():
    for q in (universal(), binary_plus_squares()):
        pres = lines_chart(q)
        assert pres.generators == chart_oracle(q)


def test_chart_binary_plus_squares_display():
    pres = lines_chart(binary_plus_squares())
    assert [str(g) for g in pres.generators] == [
        "y13^2 + y14^2 + a",
        "2*y13*y23 + 2*y14*y24 + b",
        "y23^2 + y24^2 + c",
    ]


def test_chart_published_scaling():
    # the published display of the same chart carries b_q-scaled constants;
    # the documented unit rescaling (a,b,c) -> (2c,-2b,2a) identifies the ideals
    pres = lines_chart(binary_plus_squares())
    ring = pres.ring
    published = Ideal(
        ring,
        [
            parse_poly("y23^2 + y24^2 + 2*a", ring),
            parse_poly("y13*y23 + y14*y24 - b", ring),
            parse_poly("y13^2 + y14^2 + 2*c", ring),
        ],
    )
    sub = {
        "a": parse_poly("2*c", ring),
        "b": parse_poly("-2*b", ring),
        "c": parse_poly("2*a", ring),
    }
    rescaled = Ideal(ring, [g.substitute(sub) for g in pres.generators])
    assert rescaled.equals(published)
    assert "(a,b,c) -> (2c,-2b,2a)" in pres.label


def test_chart_pure_hyperbolic_form():
    q = QuadraticForm.from_expression([], 4, "x1*x2")
    gens = lines_chart(q).generators
    assert [str(g) for g in gens] == ["0", "1", "0"]


def test_chart_rejects_wrong_rank():
    q = QuadraticForm.from_expression([], 2, "x1*x2")
    with pytest.raises(QuadFormError):
        lines_chart(q)


def test_chart_solution_gives_isotropic_plane():
    # at (a,b,c) = (1,0,-1) the chart point y13=y14=1, y23=-1/4, y24=1/4
    # satisfies all three equations; the spanned plane is isotropic
    q = universal()
    point = {"a": Fraction(1), "b": Fraction(0), "c": Fraction(-1)}
    chart = {
        "y13": Fraction(1),
        "y14": Fraction(1),
        "y23": Fraction(-1, 4),
        "y24": Fraction(1, 4),
    }
    pres = lines_chart(q)
    for g in pres.generators:
        assert g.evaluate({**point, **chart}) == 0
    q_point = q.specialize(point)
    r1 = [Fraction(1), Fraction(0), chart["y13"], chart["y14"]]
    r2 = [Fraction(0), Fraction(1), chart["y23"], chart["y24"]]
    assert is_isotropic(q_point, Subbundle([r1, r2], q_point.base))


# -- node rank ----------------------------------------------------------------


def test_node_rank_zero_parameters():
    assert node_rank(0, 0) == 4


def test_node_rank_degenerate_diagonal():
    assert node_rank(1, 1) == 2


def test_node_rank_generic():
    assert node_rank(2, 0) == 4


def test_node_rank_iff_criterion_seeded():
    rng = random.Random(24237)
    pairs = []
    while len(pairs) < 17:
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        mu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        pairs.append((lam, mu))
    pairs += [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1, 2)), (Fraction(-3), Fraction(-1, 3))]
    assert sum(1 for lam, mu in pairs if lam * mu == 1) >= 3
    for lam, mu in pairs:
        rank = node_rank(lam, mu)
        if 1 - lam * mu != 0:
            assert rank == 4, (lam, mu)
        else:
            assert rank < 4, (lam, mu)


# -- fiber classification --------------------------------------------------------


def test_fiber_smooth_point():
    q = universal()
    report = fiber_report(q, Specialization({"a": 1, "b": 0, "c": -1}))
    assert report["corank"] == 0
    assert "two disjoint smooth conics" == report["classification"]


def test_fiber_corank1_point():
    q = universal()
    report = fiber_report(q, Specialization({"a": 1, "b": 2, "c": 1}))
    assert report["corank"] == 1
    assert report["classification"] == "smooth conic over the dual numbers"


def test_fiber_corank2_origin_with_split_planes():
    q = universal()
    report = fiber_report(q, Specialization({"a": 0, "b": 0, "c": 0}))
    assert report["corank"] == 2
    assert report["classification"] == "two planes meeting at a point"
    planes = report["witnesses"]["planes"]
    assert len(planes) == 2
    # each witness is already isotropy-checked inside fiber_report; confirm
    # the kernel directions e3, e4 appear in both planes
    for plane in planes:
        assert ["0", "0", "1", "0"] in plane
        assert ["0", "0", "0", "1"] in plane


def test_fiber_corank2_irrational_split_reported():
    q = QuadraticForm.from_expression(["a"], 4, "a*x1*x2 + x3^2 + x4^2")
    report = fiber_report(q, Specialization({"a": 0}))
    assert report["corank"] == 2
    assert report["witnesses"] == "splits over a quadratic extension"


def test_fiber_corank_matches_locus_membership():
    q = universal()
    rng = random.Random(9)
    loci = {k: q.degeneration_locus(k).generators for k in (1, 2)}
    for _ in range(15):
        point = {v: Fraction(rng.randint(-4, 4)) for v in ("a", "b", "c")}
        corank = fiber_report(q, Specialization(point))["corank"]
        for k in (1, 2):
            on_locus = all(g.evaluate(point) == 0 for g in loci[k])
            assert on_locus == (corank >= k)


# -- nets of quadrics --------------------------------------------------------------


def diagonal_form(coeffs):
    n = len(coeffs)
    src = " + ".join(f"{c}*x{i}^2" for i, c in enumerate(coeffs, start=1))
    return QuadraticForm.from_expression([], n, src)


def test_net_diagonal_triple_degree_six():
    forms = [
        diagonal_form([1, 2, 3, 4, 5, 6]),
        diagonal_form([7, 1, 2, 1, 3, 1]),
        diagonal_form([1, 1, 1, 2, 1, 4]),
    ]
    net = NetOfQuadrics(forms)
    report = net.discriminant_degree_report()
    assert report == {"degree": 6, "homogeneous": True, "bound": 6}


def test_net_single_rank4_form():
    net = NetOfQuadrics([diagonal_form([1, 2, 3, 4])])
    d = net.discriminant()
    # det(a1 b) = a1^4 det(b)
    assert d == parse_poly("384*a1^4", net.form.base)


def test_net_two_identical_forms():
    f = diagonal_form([1, 2, 3, 4])
    net = NetOfQuadrics([f, f])
    d = net.discriminant()
    expect = parse_poly("384*(a1 + a2)^4", net.form.base)
    assert d == expect
    assert net.discriminant_degree_report()["degree"] == 4


def test_net_unit_specialization_recovers_inputs():
    forms = [
        diagonal_form([1, 2, 3, 4, 5, 6]),
        diagonal_form([7, 1, 2, 1, 3, 1]),
        diagonal_form([1, 1, 1, 2, 1, 4]),
    ]
    net = NetOfQuadrics(forms)
    for t, f in enumerate(forms, start=1):
        unit = {v: 1 if v == f"a{t}" else 0 for v in net.form.base.variables}
        assert net.form.specialize(unit).coeff == f.specialize({}).coeff


def test_net_rejects_mixed_ranks():
    with pytest.raises(QuadFormError):
        NetOfQuadrics([diagonal_form([1, 2]), diagonal_form([1, 2, 3])])


def test_net_requires_constant_coefficients():
    q = universal()
    with pytest.raises(QuadFormError):
        NetOfQuadrics([q])
