"""Independent correctness checks of CLI job output.

They run after every timed region and use SymPy, never quadrikit, so a
defect in the toolkit cannot hide itself.  Each check returns a list of
problems; an empty list means the job's output is accepted.
"""

import json

import sympy

# reports each suite prints for a form with an isotropic coordinate
# generator (x1 in every benchmark input, so the subbundle has rank 1)
SUITE_REPORTS = {
    "multiplication-iso": 3,
    "cokernel": 2,
    "flag": 2,
    "duality": 2,
    "matrix-factorization": 2,
}


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _symbols(base_vars):
    gens = sympy.symbols(list(base_vars))
    return gens, dict(zip(base_vars, gens))


def _parse(text, names):
    return sympy.sympify(text, locals=names)


def _monic_basis(exprs, gens):
    polys = [sympy.Poly(e, *gens) for e in exprs]
    return {p.monic() for p in polys if not p.is_zero}


def check_degeneration(payload, argv, base_vars):
    """The printed basis is SymPy's reduced grevlex basis of the printed
    generators, both made monic."""
    problems = []
    if payload.get("command") != "degeneration" or str(payload.get("k")) != _arg(argv, "--k"):
        return ["payload does not echo the degeneration job"]
    gens, names = _symbols(base_vars)
    got = _monic_basis([_parse(g, names) for g in payload["groebner"]], gens)
    if len(got) != len(payload["groebner"]):
        problems.append("basis has repeated or zero elements")
    exprs = [_parse(g, names) for g in payload["generators"]]
    exprs = [e for e in exprs if e != 0]
    want = set()
    if exprs:
        reduced = sympy.groebner(exprs, *gens, order="grevlex")
        want = _monic_basis(reduced.exprs, gens)
    if got != want:
        problems.append(
            f"basis differs from SymPy: {len(got)} elements, SymPy has {len(want)}; "
            f"{len(got - want)} extra, {len(want - got)} missing"
        )
    return problems


def check_verify(payload, argv, base_vars):
    """ok is true, each suite printed its reports, and each sampled report
    holds exactly the requested number of passing samples."""
    suite = _arg(argv, "--suite")
    problems = []
    if payload.get("command") != "verify" or payload.get("suite") != suite:
        return ["payload does not echo the verify job"]
    if payload.get("ok") is not True:
        problems.append("verify reported ok = false")
    reports = payload.get("reports", [])
    if len(reports) != SUITE_REPORTS[suite]:
        problems.append(f"{len(reports)} reports, expected {SUITE_REPORTS[suite]}")
    for r in reports:
        samples = r.get("samples", [])
        if suite == "matrix-factorization":
            wanted = len(r["configuration"]["degrees"]) - 2
        else:
            wanted = int(_arg(argv, "--samples", "5"))
        if len(samples) != wanted or wanted < 1:
            problems.append(
                f"{r.get('operation')}: {len(samples)} samples, expected {wanted}"
            )
        if not all(s.get("ok") is True for s in samples) or r.get("ok") is not True:
            problems.append(f"{r.get('operation')}: a sample or the report failed")
        expected = r["configuration"].get("expected_rank")
        if r.get("operation") == "multiplication-iso":
            for s in samples:
                ranks = {s["data"][k] for k in ("product_rank", "ideal_rank", "stacked_rank")}
                if ranks != {expected}:
                    problems.append(f"multiplication-iso: ranks {ranks} != {expected}")
    return problems


def check_center(payload, argv, base_vars):
    """Both exact checks hold and SymPy confirms
    discriminant = ratio * det_bilinear."""
    problems = []
    if payload.get("command") != "clifford" or "center" not in payload:
        return ["payload does not echo the center job"]
    checks = payload.get("checks", {})
    if len(checks) != 2 or not all(v is True for v in checks.values()):
        problems.append(f"center checks failed: {checks}")
    if payload.get("ratio") is None:
        return problems + ["discriminant / det is not a constant"]
    _, names = _symbols(base_vars)
    disc = _parse(payload["discriminant"], names)
    detb = _parse(payload["det_bilinear"], names)
    ratio = sympy.Rational(payload["ratio"])
    if detb == 0 or sympy.expand(disc - ratio * detb) != 0:
        problems.append("discriminant != ratio * det_bilinear")
    return problems


CHECKS = {
    "degeneration": check_degeneration,
    "verify": check_verify,
    "center": check_center,
}


def check_job(job, exit_code, stdout):
    """Problems with one job's result: wrong exit code, unreadable output,
    or a mismatch with the oracle."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    try:
        return CHECKS[job.kind](payload, list(job.argv), job.base_vars)
    except (KeyError, IndexError, TypeError, ValueError, sympy.PolynomialError) as e:
        return [f"malformed output: {e!r}"]
