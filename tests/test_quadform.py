import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrikit.polyalg import (
    Ideal,
    ParseError,
    Poly,
    PolyMatrix,
    Ring,
    det,
    parse_poly,
)
from quadrikit.quadform import (
    MAX_FIBER_RANK,
    QuadFormError,
    QuadraticForm,
    Subbundle,
    hyperbolic_pair,
    hyperbolic_reduce,
    is_isotropic,
    is_regular_isotropic,
    parse_qf_text,
    reduction_presentation,
)

UNIVERSAL_SRC = "x1*x2 + a*x3^2 + b*x3*x4 + c*x4^2"


def universal():
    return QuadraticForm.from_expression(["a", "b", "c"], 4, UNIVERSAL_SRC)


def e(i, n=4):
    return [Fraction(1) if k == i - 1 else Fraction(0) for k in range(n)]


# -- bilinear matrix -----------------------------------------------------------


def test_bilinear_rank1_square():
    q = QuadraticForm.from_expression([], 1, "x1^2")
    b = q.bilinear_matrix()
    assert b[0, 0] == q.base.const(2)
    assert b.entries == [{0: q.base.const(2)}]


def test_bilinear_universal():
    q = universal()
    b = q.bilinear_matrix()
    ring = q.base
    expect = PolyMatrix(
        ring,
        [
            {1: ring.one()},
            {0: ring.one()},
            {2: ring.var("a") * 2, 3: ring.var("b")},
            {2: ring.var("b"), 3: ring.var("c") * 2},
        ],
        4,
    )
    assert b == expect


def test_det_bilinear_computed_once(monkeypatch):
    import quadrikit.quadform as quadform

    q = universal()
    calls = []

    def counting_det(m):
        calls.append(m)
        return det(m)

    monkeypatch.setattr(quadform, "det", counting_det)
    first = q.det_bilinear()
    assert q.det_bilinear() is first
    assert first == det(q.bilinear_matrix()) == parse_poly("b^2 - 4*a*c", q.base)
    assert len(calls) == 1


def test_bilinear_zero_form():
    q = QuadraticForm(Ring(("a",)), 3, {})
    b = q.bilinear_matrix()
    assert b.entries == [{}, {}, {}] and (b.rows, b.cols) == (3, 3)


def test_polarization_identity_seeded():
    # u^t B v = q(u+v) - q(u) - q(v) on 100 random rational vectors
    q = universal()
    rng = random.Random(24237)
    for _ in range(100):
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        uv = [x + y for x, y in zip(u, v)]
        lhs = q.bilinear(u, v)
        rhs = q.apply(uv) - q.apply(u) - q.apply(v)
        assert lhs == rhs


def test_from_expression_rejects_inhomogeneous():
    with pytest.raises(QuadFormError):
        QuadraticForm.from_expression(["a"], 2, "x1^2 + x2")
    with pytest.raises(QuadFormError):
        QuadraticForm.from_expression(["a"], 2, "x1^3")


# -- degeneration loci ----------------------------------------------------------


def test_degeneration_k1_is_principal_det():
    q = universal()
    ideal = q.degeneration_locus(1)
    assert list(ideal.generators) == [parse_poly("b^2 - 4*a*c", q.base)]


def test_degeneration_k2_equals_coordinate_ideal():
    q = universal()
    abc = Ideal(q.base, list(q.base.gens()))
    assert q.degeneration_locus(2).equals(abc)


def test_degeneration_k3_is_unit():
    # the hyperbolic block contributes a constant 2x2 minor, so corank 3
    # is impossible anywhere
    q = universal()
    ideal = q.degeneration_locus(3)
    assert ideal.is_unit()
    for g in q.degeneration_locus(2).generators:
        assert ideal.contains(g)


def test_degeneration_out_of_range():
    with pytest.raises(QuadFormError):
        universal().degeneration_locus(0)
    with pytest.raises(QuadFormError):
        universal().degeneration_locus(5)


def test_reduced_form_has_same_loci():
    q = universal()
    split = hyperbolic_reduce(q, e(1), e(2))
    for k in (1, 2):
        assert q.degeneration_locus(k).equals(split.reduced.degeneration_locus(k))


# -- isotropy -------------------------------------------------------------------


def test_isotropic_coordinate_section():
    q = universal()
    assert is_isotropic(q, Subbundle([e(1)], q.base))


def test_not_isotropic_when_value_nonzero():
    q = universal()
    assert not is_isotropic(q, Subbundle([e(3)], q.base))


def test_empty_subbundle_isotropic():
    q = universal()
    assert is_isotropic(q, Subbundle.empty(q.base, 4))


def test_regular_isotropic_section():
    q = universal()
    assert is_regular_isotropic(q, Subbundle([e(1)], q.base))


def test_regular_fails_where_column_vanishes():
    q = QuadraticForm.from_expression(["a"], 2, "a*x1*x2")
    assert is_isotropic(q, Subbundle([e(1, 2)], q.base))
    assert not is_regular_isotropic(q, Subbundle([e(1, 2)], q.base))


def test_regular_constant_hyperbolic():
    q = QuadraticForm.from_expression([], 2, "x1*x2")
    assert is_regular_isotropic(q, Subbundle([e(1, 2)], q.base))


def test_regular_requires_isotropic():
    q = universal()
    with pytest.raises(QuadFormError):
        is_regular_isotropic(q, Subbundle([e(3)], q.base))


def test_regularity_invariant_under_rescaling():
    q = universal()
    for scale in (Fraction(2), Fraction(-3, 7)):
        w = Subbundle([[scale if k == 0 else Fraction(0) for k in range(4)]], q.base)
        assert is_regular_isotropic(q, w)


def test_subbundle_rejects_dependent_vectors():
    q = universal()
    with pytest.raises(QuadFormError):
        Subbundle([e(1), [Fraction(2), 0, 0, 0]], q.base)


ABC = Ring(("a", "b", "c"))
_coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_entries = st.one_of(
    st.just(ABC.zero()),
    st.dictionaries(
        st.tuples(*[st.integers(0, 1)] * 3), _coeffs.filter(bool), min_size=1, max_size=2
    ).map(lambda terms: Poly(ABC, terms)),
)


@st.composite
def _subbundle_vectors(draw):
    """1-3 vectors of length r..5 over Q[a,b,c]; one in four after the
    first is a combination of earlier ones, so that dependent sets occur."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 5))
    vectors = []
    for _ in range(r):
        if vectors and draw(st.integers(0, 3)) == 0:
            scale = draw(_entries)
            vec = [scale * x + y for x, y in zip(draw(st.sampled_from(vectors)), vectors[0])]
        else:
            vec = [draw(_entries) for _ in range(n)]
        vectors.append(vec)
    return vectors


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_subbundle_vectors())
def test_subbundle_witness_is_first_nonzero_minor(vectors):
    r, n = len(vectors), len(vectors[0])
    mat = PolyMatrix(ABC, [dict(enumerate(vec)) for vec in vectors], n)
    first = next(
        (
            cols
            for cols in combinations(range(n), r)
            if not det(mat.submatrix(range(r), cols)).is_zero()
        ),
        None,
    )
    if first is None:
        with pytest.raises(QuadFormError, match="linearly dependent"):
            Subbundle(vectors, ABC)
    else:
        assert Subbundle(vectors, ABC).witness_columns == first


# -- hyperbolic pairs ------------------------------------------------------------


def test_pair_universal_section():
    q = universal()
    w = hyperbolic_pair(q, e(1))
    assert [str(p) for p in w] == ["0", "1", "0", "0"]


def test_pair_split_form():
    q = QuadraticForm.from_expression([], 4, "x1*x2 + x3*x4")
    w = hyperbolic_pair(q, e(3))
    assert [str(p) for p in w] == ["0", "0", "0", "1"]


def test_pair_applies_isotropy_correction():
    # the raw solve gives w0 = e2 with q(w0) = 1; the correction subtracts v
    q = QuadraticForm.from_expression([], 2, "x1*x2 + x2^2")
    w = hyperbolic_pair(q, e(1, 2))
    assert [str(p) for p in w] == ["-1", "1"]
    assert q.apply(w).is_zero()
    assert q.bilinear(e(1, 2), w) == q.base.one()


def test_pair_requires_isotropic_input():
    q = universal()
    with pytest.raises(QuadFormError):
        hyperbolic_pair(q, e(3))


def test_pair_fails_without_constant_solution():
    q = QuadraticForm.from_expression(["a"], 2, "a*x1*x2")
    with pytest.raises(QuadFormError, match="no constant hyperbolic partner"):
        hyperbolic_pair(q, e(1, 2))


# -- hyperbolic reduction ---------------------------------------------------------


def test_reduce_universal():
    q = universal()
    split = hyperbolic_reduce(q, e(1), e(2))
    assert split.reduced.n == 2
    assert str(split.reduced.q_poly()) == "a*x1^2 + b*x1*x2 + c*x2^2"
    assert split.verify()


def test_reduce_rank2_to_zero():
    q = QuadraticForm.from_expression([], 2, "x1*x2")
    split = hyperbolic_reduce(q, e(1, 2), e(2, 2))
    assert split.reduced.n == 0
    assert split.reduced.coeff == {}


def test_reduce_split_form():
    q = QuadraticForm.from_expression([], 4, "x1*x2 + x3*x4")
    split = hyperbolic_reduce(q, e(1), e(2))
    assert str(split.reduced.q_poly()) == "x1*x2"


def test_reduce_rejects_bad_pair():
    q = universal()
    with pytest.raises(QuadFormError):
        hyperbolic_reduce(q, e(1), e(3))


def test_block_determinant_identity():
    # det(T)^2 det(b_q) = -det(b_reduced) for one hyperbolic step
    rng = random.Random(31)
    base = Ring(("a", "b", "c"))
    for _ in range(5):
        picks = {
            (3, 3): parse_poly("a", base) * rng.randint(-3, 3),
            (3, 4): parse_poly("b", base) * rng.randint(-3, 3),
            (4, 4): parse_poly("c", base) * rng.randint(-3, 3),
        }
        q = QuadraticForm(base, 4, {(1, 2): base.one(), **picks})
        split = hyperbolic_reduce(q, e(1), e(2))
        dt = det(split.transform).constant_term()
        lhs = q.det_bilinear() * dt * dt
        assert lhs == -split.reduced.det_bilinear()


def test_splitting_invariant_random_pairs():
    rng = random.Random(6)
    q = QuadraticForm.from_expression([], 4, "x1*x2 + x3*x4")
    for _ in range(10):
        # random isotropic vectors of the shape s e1 + t e3
        s, t = Fraction(rng.randint(1, 5)), Fraction(rng.randint(-5, 5))
        v = [s, Fraction(0), t, Fraction(0)]
        w = hyperbolic_pair(q, v)
        split = hyperbolic_reduce(q, v, w)
        assert split.verify()


# -- presentations ----------------------------------------------------------------


def test_presentation_universal_matches_proj_display():
    q = universal()
    split = hyperbolic_reduce(q, e(1), e(2))
    pres = reduction_presentation(split)
    assert pres.ring.variables == ("a", "b", "c", "x3", "x4")
    assert pres.generators == [parse_poly("a*x3^2 + b*x3*x4 + c*x4^2", pres.ring)]
    assert str(pres) == "Ideal over Q[a,b,c,x3,x4]: a*x3^2 + b*x3*x4 + c*x4^2"


def test_presentation_rank0_empty():
    q = QuadraticForm.from_expression([], 2, "x1*x2")
    split = hyperbolic_reduce(q, e(1, 2), e(2, 2))
    pres = reduction_presentation(split)
    assert pres.generators == []


def test_presentation_split_form():
    q = QuadraticForm.from_expression([], 4, "x1*x2 + x3*x4")
    split = hyperbolic_reduce(q, e(1), e(2))
    pres = reduction_presentation(split)
    assert [str(g) for g in pres.generators] == ["x3*x4"]


# -- qf files ----------------------------------------------------------------------


def test_qf_roundtrip():
    text = """
# a comment
base_vars = [a, b, c]
fiber_rank = 4
q = "x1*x2 + a*x3^2 + b*x3*x4 + c*x4^2"
"""
    q = parse_qf_text(text)
    assert q == universal()


def test_qf_empty_base():
    q = parse_qf_text('base_vars = []\nfiber_rank = 4\nq = "x1*x2"')
    assert q.base.arity == 0
    assert q.n == 4


def test_qf_missing_field():
    with pytest.raises(ParseError):
        parse_qf_text("base_vars = [a]\nfiber_rank = 2")


def test_qf_bad_rank():
    with pytest.raises(ParseError):
        parse_qf_text('base_vars = []\nfiber_rank = two\nq = "x1*x2"')


@pytest.mark.parametrize("rank", ["0_4", "\u0664", "4/2", "4.0", "+4x"])
def test_qf_rank_follows_the_numeral_rule(rank):
    """fiber_rank is read by the numeral rule of q: an underscore or an
    Arabic-Indic four is no integer there, as it is none in q."""
    with pytest.raises(ParseError, match="fiber_rank"):
        parse_qf_text(f'base_vars = []\nfiber_rank = {rank}\nq = "x1*x2"')


@pytest.mark.parametrize("rank", [0, MAX_FIBER_RANK + 1, 100000])
def test_qf_rank_out_of_range(rank):
    with pytest.raises(QuadFormError, match="fiber_rank"):
        parse_qf_text(f'base_vars = []\nfiber_rank = {rank}\nq = "x1*x2"')


@pytest.mark.parametrize("name", ["l", "e1", "e4"])
def test_qf_refuses_base_variables_the_element_grammar_reads(name):
    """l and e1..en name the trivializer and the generators in Clifford
    elements, so a base variable of that name is refused, by name."""
    with pytest.raises(ParseError, match=f"base variable '{name}' is reserved"):
        parse_qf_text(f'base_vars = [a, {name}]\nfiber_rank = 4\nq = "x1*x2"')


def test_qf_keeps_base_variables_that_name_no_generator():
    q = parse_qf_text('base_vars = [e0, e5, ll]\nfiber_rank = 4\nq = "e5*x1*x2"')
    assert q.base.variables == ("e0", "e5", "ll")


@pytest.mark.parametrize("name", ["x1", "x4"])
def test_qf_refuses_base_variables_named_like_fiber_variables(name):
    """x1..xn are the fiber variables of the declared rank, so a base
    variable of that name is refused, by name."""
    with pytest.raises(ParseError, match=f"base variable '{name}' is a fiber variable of rank 4"):
        parse_qf_text(f'base_vars = [a, {name}]\nfiber_rank = 4\nq = "x1*x2"')


def test_qf_keeps_base_variables_past_the_fiber_rank():
    q = parse_qf_text('base_vars = [x0, x5, xx]\nfiber_rank = 4\nq = "x5*x1*x2"')
    assert q.base.variables == ("x0", "x5", "xx")


def test_qf_rank_at_cap():
    assert MAX_FIBER_RANK == 12
    q = parse_qf_text(f'base_vars = []\nfiber_rank = {MAX_FIBER_RANK}\nq = "x1*x2"')
    assert q.n == MAX_FIBER_RANK
