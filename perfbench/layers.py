"""The layer boundaries the traced run wraps, the per-layer metrics read
from them, and which workload each boundary is predicted to serve."""

from tracer import Boundary

KERNEL = ("quadrikit._kernel", "quadrikit._poly_core_py")
POLYALG = ("quadrikit.polyalg",)
QUADFORM = ("quadrikit.quadform",)
LINALG = ("quadrikit.linalg",)
CLIFFORD = ("quadrikit.clifford",)
CLIFFMOD = ("quadrikit.cliffmod",)
CLI = ("quadrikit.cli",)


def _form_key(q):
    return (q.base.variables, q.n, frozenset(q.coeff.items()))


def _term_products(stat, args, kwargs, result):
    stat.add("term_products", len(args[0]) * len(args[1]))


def _terms_scanned(stat, args, kwargs, result):
    stat.add("terms_scanned", len(args[0]))


def _nonzero(stat, args, kwargs, result):
    if not result.is_zero():
        stat.add("nonzero")


def _max_rows(stat, args, kwargs, result):
    stat.counts["max_rows"] = max(stat.counts.get("max_rows", 0), len(args[0]))


def _distinct_form(stat, args, kwargs, result):
    stat.keys.add(_form_key(args[0]))


def _distinct_ideal(stat, args, kwargs, result):
    # clifford_ideal(ctx, w, n, side="left", seed=DEFAULT_SEED)
    ctx, w, n = args[:3]
    side = args[3] if len(args) > 3 else kwargs.get("side", "left")
    seed = args[4] if len(args) > 4 else kwargs.get("seed")
    vectors = tuple(tuple(v) for v in w.vectors)
    stat.keys.add((_form_key(ctx.q), vectors, n, side, seed))


def _draws(stat, args, kwargs, result):
    stat.add("draws", result.rejections + 1)


VERIFIERS = (
    "verify_multiplication_iso",
    "verify_cokernel_sequence",
    "verify_flag_sequence",
    "verify_duality",
    "verify_mf_report",
)

BOUNDARIES = [
    Boundary("kernel.mul_terms", KERNEL, "mul_terms", False, _term_products),
    Boundary("kernel.add_terms", KERNEL, "add_terms", False),
    Boundary("kernel.leading_monomial", KERNEL, "leading_monomial", False, _terms_scanned),
    Boundary("polyalg.Ideal.groebner", POLYALG, "Ideal.groebner"),
    Boundary("polyalg.normal_form", POLYALG, "normal_form", observe=_nonzero),
    Boundary("polyalg.minors_ideal", POLYALG, "minors_ideal"),
    Boundary("polyalg.det", POLYALG, "det"),
    Boundary("polyalg.parse_poly", POLYALG, "parse_poly"),
    Boundary("polyalg.Poly.evaluate", POLYALG, "Poly.evaluate", False),
    Boundary("quadform.load_qf", QUADFORM, "load_qf"),
    Boundary(
        "quadform.QuadraticForm.det_bilinear", QUADFORM, "QuadraticForm.det_bilinear",
        observe=_distinct_form,
    ),
    Boundary("linalg.q_rank", LINALG, "q_rank", observe=_max_rows),
    Boundary("linalg.q_nullspace", LINALG, "q_nullspace"),
    Boundary("linalg.pf_solve", LINALG, "pf_solve"),
    Boundary("linalg.pf_nullspace", LINALG, "pf_nullspace"),
    Boundary("clifford.cl_mul", CLIFFORD, "cl_mul"),
    Boundary("clifford.center_element", CLIFFORD, "center_element"),
    Boundary("cliffmod.clifford_ideal", CLIFFMOD, "clifford_ideal", observe=_distinct_ideal),
    Boundary("cliffmod.spinor_phi", CLIFFMOD, "spinor_phi"),
    *(Boundary(f"cliffmod.{v}", CLIFFMOD, v) for v in VERIFIERS),
    Boundary("cliffmod.Specialization.generic", CLIFFMOD, "Specialization.generic", observe=_draws),
    Boundary("cli.main", CLI, "main"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(name):
    return lambda stats: stats[name].calls


def _self_s(name):
    return lambda stats: stats[name].self_s


def _count(name, key):
    return lambda stats: stats[name].counts.get(key, 0)


def _distinct_ratio(name):
    return lambda stats: _ratio(len(stats[name].keys), stats[name].calls)


# (metric name, unit, better, value from the boundary stats); the
# per_layer list of BENCHMARK.json holds the same names, plus
# trace_overhead_ratio, which the run computes from two passes
PER_LAYER = [
    ("kernel.mul_terms.calls", "count", "lower", _calls("kernel.mul_terms")),
    ("kernel.mul_terms.term_products", "count", "lower", _count("kernel.mul_terms", "term_products")),
    ("kernel.add_terms.calls", "count", "lower", _calls("kernel.add_terms")),
    ("kernel.leading_monomial.calls", "count", "lower", _calls("kernel.leading_monomial")),
    (
        "kernel.leading_monomial.terms_scanned", "count", "lower",
        _count("kernel.leading_monomial", "terms_scanned"),
    ),
    ("polyalg.Ideal.groebner.calls", "count", "lower", _calls("polyalg.Ideal.groebner")),
    ("polyalg.Ideal.groebner.self_s", "s", "lower", _self_s("polyalg.Ideal.groebner")),
    ("polyalg.normal_form.calls", "count", "lower", _calls("polyalg.normal_form")),
    ("polyalg.normal_form.self_s", "s", "lower", _self_s("polyalg.normal_form")),
    (
        "polyalg.normal_form.nonzero_ratio", "ratio", "higher",
        lambda s: _ratio(s["polyalg.normal_form"].counts.get("nonzero", 0), s["polyalg.normal_form"].calls),
    ),
    ("polyalg.minors_ideal.self_s", "s", "lower", _self_s("polyalg.minors_ideal")),
    ("polyalg.det.calls", "count", "lower", _calls("polyalg.det")),
    ("polyalg.det.self_s", "s", "lower", _self_s("polyalg.det")),
    ("polyalg.parse_poly.calls", "count", "lower", _calls("polyalg.parse_poly")),
    ("polyalg.parse_poly.self_s", "s", "lower", _self_s("polyalg.parse_poly")),
    ("polyalg.Poly.evaluate.calls", "count", "lower", _calls("polyalg.Poly.evaluate")),
    ("quadform.load_qf.self_s", "s", "lower", _self_s("quadform.load_qf")),
    (
        "quadform.QuadraticForm.det_bilinear.calls", "count", "lower",
        _calls("quadform.QuadraticForm.det_bilinear"),
    ),
    (
        "quadform.QuadraticForm.det_bilinear.distinct_ratio", "ratio", "higher",
        _distinct_ratio("quadform.QuadraticForm.det_bilinear"),
    ),
    ("linalg.q_rank.calls", "count", "lower", _calls("linalg.q_rank")),
    ("linalg.q_rank.self_s", "s", "lower", _self_s("linalg.q_rank")),
    ("linalg.q_rank.max_rows", "rows", "lower", _count("linalg.q_rank", "max_rows")),
    ("linalg.q_nullspace.self_s", "s", "lower", _self_s("linalg.q_nullspace")),
    ("linalg.pf_solve.calls", "count", "lower", _calls("linalg.pf_solve")),
    ("linalg.pf_solve.self_s", "s", "lower", _self_s("linalg.pf_solve")),
    ("linalg.pf_nullspace.self_s", "s", "lower", _self_s("linalg.pf_nullspace")),
    ("clifford.cl_mul.calls", "count", "lower", _calls("clifford.cl_mul")),
    ("clifford.cl_mul.self_s", "s", "lower", _self_s("clifford.cl_mul")),
    ("clifford.center_element.self_s", "s", "lower", _self_s("clifford.center_element")),
    ("cliffmod.clifford_ideal.calls", "count", "lower", _calls("cliffmod.clifford_ideal")),
    ("cliffmod.clifford_ideal.self_s", "s", "lower", _self_s("cliffmod.clifford_ideal")),
    (
        "cliffmod.clifford_ideal.distinct_ratio", "ratio", "higher",
        _distinct_ratio("cliffmod.clifford_ideal"),
    ),
    ("cliffmod.spinor_phi.self_s", "s", "lower", _self_s("cliffmod.spinor_phi")),
    *((f"cliffmod.{v}.self_s", "s", "lower", _self_s(f"cliffmod.{v}")) for v in VERIFIERS),
    (
        "cliffmod.Specialization.generic.calls", "count", "lower",
        _calls("cliffmod.Specialization.generic"),
    ),
    (
        "cliffmod.Specialization.generic.accept_ratio", "ratio", "higher",
        lambda s: _ratio(
            s["cliffmod.Specialization.generic"].calls,
            s["cliffmod.Specialization.generic"].counts.get("draws", 0),
        ),
    ),
    ("cli.main.self_s", "s", "lower", _self_s("cli.main")),
]

OVERHEAD_METRIC = ("trace_overhead_ratio", "ratio", "lower")

# boundaries each workload must call; a traced run in which one of them
# still exists but records no call fails, because its wrapper is dead
_COMMON = {
    "kernel.mul_terms",
    "kernel.add_terms",
    "kernel.leading_monomial",
    "polyalg.parse_poly",
    "quadform.load_qf",
    "cli.main",
}
_CLIFFORD = {
    "polyalg.det",
    "polyalg.Poly.evaluate",
    "quadform.QuadraticForm.det_bilinear",
    "linalg.q_rank",
    "clifford.cl_mul",
    "cliffmod.clifford_ideal",
    "cliffmod.Specialization.generic",
}
PREDICTED_USE = {
    "groebner-g4": _COMMON
    | {"polyalg.Ideal.groebner", "polyalg.normal_form", "polyalg.minors_ideal", "polyalg.det"},
    "spinor-r6": _COMMON
    | _CLIFFORD
    | {
        "linalg.q_nullspace",
        "linalg.pf_solve",
        "linalg.pf_nullspace",
        "clifford.center_element",
        "cliffmod.spinor_phi",
        "cliffmod.verify_mf_report",
    },
    "certify-mixed": _COMMON
    | _CLIFFORD
    | {f"cliffmod.{v}" for v in VERIFIERS if v != "verify_mf_report"},
}

# boundaries predicted to do no work on a workload; reported, not gated
PREDICTED_ZERO = {
    "groebner-g4": [
        "linalg.q_rank", "linalg.q_nullspace", "linalg.pf_solve",
        "linalg.pf_nullspace", "clifford.cl_mul",
    ],
    "spinor-r6": ["polyalg.Ideal.groebner"],
    "certify-mixed": ["linalg.pf_solve", "polyalg.Ideal.groebner"],
}
