"""Acceptance suite: one test per criterion, exact arithmetic throughout
(zero tolerance), each with its stated wall-clock budget.  Run with

    pytest tests/test_acceptance.py -v -s

to see one pass/fail line per criterion."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quadrikit.polyalg import Ideal, PolyMatrix, det, parse_poly
from quadrikit.quadform import (
    QuadFormError,
    QuadraticForm,
    Subbundle,
    hyperbolic_reduce,
    reduction_presentation,
)
from quadrikit.clifford import (
    CliffordContext,
    center_checks,
    center_element,
    cl_mul,
    graded_basis,
)
from quadrikit.cliffmod import (
    Specialization,
    SpinorPresentation,
    clifford_ideal,
    expected_ideal_rank,
    spinor_phi,
    verify_cokernel_sequence,
    verify_duality,
    verify_flag_sequence,
    verify_matrix_factorization,
    verify_multiplication_iso,
)
from quadrikit.geometry import NetOfQuadrics, lines_chart, node_rank

DATA = Path(__file__).resolve().parent.parent / "data"


class _Criterion:
    def __init__(self, number, budget, label):
        self.number = number
        self.budget = budget
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status} ({elapsed:.2f}s / {self.budget}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def universal():
    return QuadraticForm.from_expression(
        ["a", "b", "c"], 4, "x1*x2 + a*x3^2 + b*x3*x4 + c*x4^2"
    )


def e(i, n=4):
    return [Fraction(1) if k == i - 1 else Fraction(0) for k in range(n)]


def test_criterion_1_universal_example_reproduction():
    with _Criterion(1, 5, "universal example: loci, reduction, cover relation"):
        q = universal()
        base = q.base

        s1 = q.degeneration_locus(1)
        assert list(s1.generators) == [parse_poly("b^2 - 4*a*c", base)]

        s2 = q.degeneration_locus(2)
        assert s2.equals(Ideal(base, list(base.gens())))

        split = hyperbolic_reduce(q, e(1), e(2))
        assert str(split.reduced.q_poly()) == "a*x1^2 + b*x1*x2 + c*x2^2"

        pres = reduction_presentation(split)
        assert pres.ring.variables == ("a", "b", "c", "x3", "x4")
        assert [str(g) for g in pres.generators] == ["a*x3^2 + b*x3*x4 + c*x4^2"]

        # completing the square: d = 2 omega + alpha has d^2 = b^2 - 4ac
        rel = center_element(CliffordContext(q))
        d_squared = rel.discriminant()
        assert d_squared == parse_poly("b^2 - 4*a*c", base)
        ratio, scale = rel.discriminant_comparison()
        assert ratio == Fraction(1) and scale == Fraction(1)


def test_criterion_2_matrix_factorizations():
    with _Criterion(2, 10, "spinor matrix factorizations at three configurations"):
        q = universal()
        ctx = CliffordContext(q)

        # (a) W = span(e1), 4x4, degrees 0, 1, 2
        w = Subbundle([e(1)], q.base)
        phis = {n: spinor_phi(ctx, w, n) for n in (0, 1, 2)}
        for n in (0, 1):
            assert phis[n].size == 4
            ok, witness = verify_matrix_factorization(q, phis[n], phis[n + 1])
            assert ok, witness

        # (b) W empty, 8x8, degrees 0, 1
        empty = Subbundle.empty(q.base, 4)
        p0 = spinor_phi(ctx, empty, 0)
        p1 = spinor_phi(ctx, empty, 1)
        assert p0.size == p1.size == 8
        ok, witness = verify_matrix_factorization(q, p0, p1)
        assert ok, witness

        # (c) corank-2 specialization, W = span(e1, e3), 2x2
        q2 = QuadraticForm.from_expression([], 4, "x1*x2")
        ctx2 = CliffordContext(q2)
        w13 = Subbundle([e(1), e(3)], q2.base)
        s0 = spinor_phi(ctx2, w13, 0)
        s1 = spinor_phi(ctx2, w13, 1)
        assert s0.size == s1.size == 2
        ok, witness = verify_matrix_factorization(q2, s0, s1)
        assert ok, witness


def test_criterion_3_clifford_algebra_suite():
    with _Criterion(3, 10, "graded arithmetic, relations, and the center"):
        rank4 = CliffordContext(universal())
        rank2 = CliffordContext(QuadraticForm.from_expression([], 2, "x1*x2"))

        for ctx in (rank2, rank4):
            for n in range(-4, 5):
                assert len(graded_basis(ctx, n)) == 2 ** (ctx.rank - 1)

        rng = random.Random(24237)
        for _ in range(100):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)]
            v = rank4.from_vector(coords)
            assert cl_mul(v, v) == rank4.scalar(rank4.q.apply(coords)) * rank4.l_power(1)

        def random_homogeneous(ctx, degree):
            elem = ctx.zero()
            for key in graded_basis(ctx, degree):
                c = rng.randint(-4, 4)
                if c:
                    elem = elem + ctx.monomial(*key).scale(c)
            return elem

        for _ in range(50):
            x = random_homogeneous(rank4, rng.choice([-1, 0, 1]))
            y = random_homogeneous(rank4, rng.choice([0, 1, 2]))
            z = random_homogeneous(rank4, rng.choice([-2, 0, 1]))
            assert cl_mul(cl_mul(x, y), z) == cl_mul(x, cl_mul(y, z))

        b = rank4.q.bilinear_matrix()
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    anti = cl_mul(rank4.generator(i), rank4.generator(j)) + cl_mul(
                        rank4.generator(j), rank4.generator(i)
                    )
                    assert anti == rank4.scalar(b[i - 1, j - 1]) * rank4.l_power(1)

        # center: commutes with the degree-0 component exactly; against the
        # degree-1 component it satisfies the cover-involution law
        rel = center_element(rank4)
        checks = center_checks(rank4, rel)
        assert checks["commutes_degree0"]
        assert checks["twisted_degree1"]

        diag = CliffordContext(
            QuadraticForm.from_expression(
                ["a1", "a2", "a3", "a4"], 4, "a1*x1^2 + a2*x2^2 + a3*x3^2 + a4*x4^2"
            )
        )
        rel_d = center_element(diag)
        omega_sq = cl_mul(rel_d.omega, rel_d.omega)
        det_over_16 = diag.q.det_bilinear() / 16
        assert omega_sq == diag.scalar(det_over_16)


def test_criterion_4_clifford_ideal_suite():
    with _Criterion(4, 20, "ideal ranks, exact sequences, duality"):
        q = universal()
        ctx = CliffordContext(q)
        w1 = Subbundle([e(1)], q.base)
        empty = Subbundle.empty(q.base, 4)
        q2 = QuadraticForm.from_expression([], 4, "x1*x2")
        ctx2 = CliffordContext(q2)
        w13 = Subbundle([e(1), e(3)], q2.base)

        # rank law for every configuration of criterion 2
        for cfg_ctx, cfg_w, n in (
            (ctx, w1, 0),
            (ctx, w1, 1),
            (ctx, w1, 2),
            (ctx, empty, 0),
            (ctx, empty, 1),
            (ctx2, w13, 0),
            (ctx2, w13, 1),
        ):
            for side in ("left", "right"):
                basis = clifford_ideal(cfg_ctx, cfg_w, n, side)
                assert basis.rank == expected_ideal_rank(cfg_ctx, cfg_w)

        for m, n in ((1, 0), (1, 1), (2, 0)):
            report = verify_multiplication_iso(ctx, w1, m, n, samples=5)
            assert report.ok and len(report.samples) == 5

        for n in (0, 1):
            report = verify_cokernel_sequence(ctx, w1, n, samples=5)
            assert report.ok and len(report.samples) == 5

        for n in (0, 1):
            report = verify_flag_sequence(ctx, empty, w1, n, samples=5)
            assert report.ok and len(report.samples) == 5

        for k in (0, 1):
            report = verify_duality(ctx, w1, k, samples=5)
            assert report.ok and len(report.samples) == 5


def test_criterion_5_lines_scheme():
    with _Criterion(5, 5, "chart equations and the node-rank criterion"):
        q = QuadraticForm.from_expression(
            ["a", "b", "c"], 4, "a*x1^2 + b*x1*x2 + c*x2^2 + x3^2 + x4^2"
        )
        pres = lines_chart(q)
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

        rng = random.Random(24237)
        pairs = [
            (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
             Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(17)
        ]
        pairs += [
            (Fraction(1), Fraction(1)),
            (Fraction(2), Fraction(1, 2)),
            (Fraction(-3), Fraction(-1, 3)),
        ]
        assert sum(1 for lam, mu in pairs if lam * mu == 1) >= 3
        for lam, mu in pairs:
            if 1 - lam * mu != 0:
                assert node_rank(lam, mu) == 4
            else:
                assert node_rank(lam, mu) < 4


def test_criterion_6_net_of_quadrics():
    with _Criterion(6, 5, "discriminant degree of a diagonal net"):
        def diagonal(coeffs):
            src = " + ".join(f"{c}*x{i}^2" for i, c in enumerate(coeffs, start=1))
            return QuadraticForm.from_expression([], len(coeffs), src)

        net = NetOfQuadrics(
            [
                diagonal([1, 2, 3, 4, 5, 6]),
                diagonal([7, 1, 2, 1, 3, 1]),
                diagonal([1, 1, 1, 2, 1, 4]),
            ]
        )
        report = net.discriminant_degree_report()
        assert report["degree"] == 6
        assert report["homogeneous"] is True


def test_criterion_7_negative_controls():
    with _Criterion(7, 10, "perturbed phi, non-isotropic W, on-locus sample"):
        q = universal()
        ctx = CliffordContext(q)
        w = Subbundle([e(1)], q.base)

        p0 = spinor_phi(ctx, w, 0)
        p1 = spinor_phi(ctx, w, 1)
        tampered = [dict(row) for row in p1.phi.entries]
        tampered[0][0] = p1.phi[0, 0] + p1.ring.one()
        bad = SpinorPresentation(ctx, w, 1, PolyMatrix(p1.ring, tampered, p1.size), p1.ring)
        ok, witness = verify_matrix_factorization(q, p0, bad)
        assert not ok
        assert witness is not None and witness["row"] == 0 and witness["col"] == 0

        with pytest.raises(QuadFormError):
            clifford_ideal(ctx, Subbundle([e(3)], q.base), 0)

        detb = q.det_bilinear()
        resampled = None
        for seed in range(500):
            point = Specialization.generic(q.base, random.Random(seed), avoid=detb)
            if point.rejections > 0:
                resampled = point
                break
        assert resampled is not None, "no seed hit the degeneration locus first"
        assert detb.evaluate(resampled.assignment) != 0


def test_criterion_8_full_cli_verification():
    with _Criterion(8, 60, "quadrikit verify --suite all"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "quadrikit.cli",
                "verify",
                str(DATA / "universal.qf"),
                "--suite",
                "all",
                "--json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert all(r["ok"] for r in payload["reports"])
