"""Differential test of the Groebner engine against SymPy's reduced bases.

Skipped when SymPy is not installed.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from quadrikit.polyalg import Ideal, Poly, Ring
from quadrikit.quadform import load_qf

sympy = pytest.importorskip("sympy")

G4 = Path(__file__).resolve().parent.parent / "data" / "g4.qf"


def sympy_basis(ideal):
    """SymPy's monic reduced Groebner basis as term maps, in its order."""
    ring = ideal.ring
    gens = sympy.symbols(ring.variables)
    polys = [
        sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in g.terms.items()},
            *gens,
            domain="QQ",
        )
        for g in ideal.generators
        if not g.is_zero()
    ]
    basis = sympy.groebner(polys, *gens, order="grevlex", domain="QQ")
    return [
        {m: Fraction(int(c.p), int(c.q)) for m, c in p.as_dict().items()}
        for p in basis.polys
    ]


def assert_same_basis(ideal):
    assert [g.terms for g in ideal.groebner()] == sympy_basis(ideal)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_g4_degeneration_basis_matches_sympy(k):
    assert_same_basis(load_qf(str(G4)).degeneration_locus(k))


def _random_ideal(rng, ring):
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in range(ring.arity))
            terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        gens.append(Poly(ring, {m: c for m, c in terms.items() if c}))
    return Ideal(ring, gens)


def test_random_ideals_match_sympy():
    rng = random.Random("groebner-grevlex")
    ring = Ring(("x", "y", "z"))
    for _ in range(10):
        assert_same_basis(_random_ideal(rng, ring))
