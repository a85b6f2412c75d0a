"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 precondition failure,
4 verification failure.  Output is human text by default, --json emits a
machine-readable summary; identical command and seed give byte-identical
output."""

import argparse
import functools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from quadrikit.polyalg import ParseError, PolyError, parse_rational
from quadrikit import quadform
from quadrikit.quadform import QuadFormError, Subbundle, load_qf
from quadrikit import clifford as cl
from quadrikit import cliffmod
from quadrikit import geometry
from quadrikit.cliffmod import DEFAULT_SEED

SUITES = (
    "multiplication-iso",
    "cokernel",
    "flag",
    "duality",
    "matrix-factorization",
    "all",
)


def _integer(text, minimum=None):
    """argparse type for counts: an integer by the numeral rule of
    `parse_rational`, at least `minimum` when one is given."""
    try:
        value = parse_rational(text)
    except ParseError:
        value = None
    if not isinstance(value, int):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if minimum is not None and value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _parse_fraction(text):
    try:
        return Fraction(parse_rational(text))
    except ParseError as e:
        raise ParseError(f"not a rational number: {text!r} ({e})") from None


def _parse_vector(text, n):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise QuadFormError(f"vector needs {n} entries, got {len(parts)}")
    return [_parse_fraction(p) for p in parts]


def _parse_subbundle(text, q):
    if not text:
        return Subbundle.empty(q.base, q.n)
    vectors = [_parse_vector(chunk, q.n) for chunk in text.split(";")]
    return Subbundle(vectors, q.base)


def _json(obj, indent="\n"):
    """The bytes of `json.dumps(obj, indent=2, sort_keys=True)` for a tree of
    str-keyed dicts, lists, str, int, bool and None; any other type raises.
    `indent=2` would make `json` fall back to its pure-Python encoder."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = []
        for k, v in sorted(obj.items()):
            t = type(v)  # a scalar of exact type inline, not by a recursive call
            v = (
                encode_basestring_ascii(v) if t is str
                else int.__repr__(v) if t is int
                else "null" if v is None else ("true" if v else "false") if t is bool
                else _json(v, inner)
            )
            body.append(f"{inner}{encode_basestring_ascii(k)}: {v}")
        return "{" + ",".join(body) + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        return "[" + ",".join(inner + _json(v, inner) for v in obj) + indent + "]"
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(args, payload, text_lines):
    if args.json:
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)


def cmd_degeneration(args):
    q = load_qf(args.input)
    ideal = q.degeneration_locus(args.k)
    basis = [str(g) for g in ideal.groebner()]
    rendered = "(" + ", ".join(basis) + ")" if basis else "(0)"
    payload = {
        "command": "degeneration",
        "input": args.input,
        "k": args.k,
        "generators": [str(g) for g in ideal.generators],
        "groebner": basis,
    }
    _emit(args, payload, [rendered])
    return 0


def cmd_reduce(args):
    q = load_qf(args.input)
    v = _parse_vector(args.v, q.n)
    if args.w:
        w = _parse_vector(args.w, q.n)
    else:
        w = quadform.hyperbolic_pair(q, v)
    split = quadform.hyperbolic_reduce(q, v, w)
    pres = quadform.reduction_presentation(split)
    payload = {
        "command": "reduce",
        "input": args.input,
        "v": [str(x) for x in v],
        "w": [str(x) for x in w],
        "transform": [[str(p) for p in row] for row in split.transform.dense()],
        "reduced": str(split.reduced.q_poly()) if split.reduced.n else "0",
        "presentation": pres.to_dict(),
        "certified": split.verify(),
    }
    lines = [
        f"v = ({', '.join(str(x) for x in v)})",
        f"w = ({', '.join(str(x) for x in w)})",
        "transform T with T^t b T = hyperbolic block + reduced block:",
        str(split.transform),
        f"reduced form: {payload['reduced']}",
        str(pres),
        f"certified: {payload['certified']}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_clifford(args):
    q = load_qf(args.input)
    ctx = cl.CliffordContext(q)
    if (args.table is not None) + args.center + bool(args.trace) != 1:
        raise QuadFormError("choose one of --table, --center, --trace")
    if args.table is not None:
        basis = cl.graded_basis(ctx, args.table)
        names = [str(ctx.monomial(*key)) for key in basis]
        payload = {
            "command": "clifford",
            "table": args.table,
            "size": len(names),
            "monomials": names,
        }
        _emit(args, payload, [f"degree {args.table}: {len(names)} monomials"] + names)
        return 0
    if args.center:
        rel = cl.center_element(ctx)
        ratio, scale = rel.discriminant_comparison()
        checks = cl.center_checks(ctx, rel)
        payload = {
            "command": "clifford",
            "center": str(rel.omega),
            "alpha": str(rel.alpha),
            "beta": str(rel.beta),
            "discriminant": str(rel.discriminant()),
            "det_bilinear": str(q.det_bilinear()),
            "ratio": None if ratio is None else str(ratio),
            "square_scale": None if scale is None else str(scale),
            "checks": checks,
        }
        lines = [
            f"omega = {rel.omega}",
            f"relation: omega^2 + ({rel.alpha})*omega + ({rel.beta}) = 0",
            f"discriminant alpha^2 - 4*beta = {rel.discriminant()}",
            f"det b_q = {q.det_bilinear()}",
            f"discriminant / det = {ratio} (square scale {scale})",
            f"commutes with degree-0 monomials: {checks['commutes_degree0']}",
            f"twisted law on degree-1 monomials: {checks['twisted_degree1']}",
        ]
        _emit(args, payload, lines)
        return 0
    elem = cl.parse_element(args.trace, ctx)
    value = cl.trace(elem)
    payload = {"command": "clifford", "trace": str(value), "element": str(elem)}
    _emit(args, payload, [str(value)])
    return 0


def cmd_ideal(args):
    q = load_qf(args.input)
    ctx = cl.CliffordContext(q)
    w = _parse_subbundle(args.w, q)
    basis = cliffmod.clifford_ideal(ctx, w, args.n, args.side, seed=args.seed)
    payload = {
        "command": "ideal",
        "n": args.n,
        "side": args.side,
        "rank": basis.rank,
        "generators": [str(g) for g in basis.generators],
        "certification": basis.certification,
    }
    lines = [f"{args.side} ideal, degree {args.n}: {basis.rank} generators"]
    lines += [f"  {g}" for g in basis.generators]
    _emit(args, payload, lines)
    return 0


def cmd_spinor(args):
    q = load_qf(args.input)
    ctx = cl.CliffordContext(q)
    w = _parse_subbundle(args.w, q)
    pres = cliffmod.spinor_phi(ctx, w, args.n, seed=args.seed)
    ctx.ideals.clear()  # break the context's cycle with its ideals, as `_run_suites` does
    payload = {
        "command": "spinor",
        "n": args.n,
        "size": pres.size,
        "phi": [[str(p) for p in row] for row in pres.phi.dense()],
    }
    lines = [f"phi_{args.n}: {pres.size} x {pres.size}", str(pres.phi)]
    _emit(args, payload, lines)
    return 0


def cmd_lines(args):
    q = load_qf(args.input)
    pres = geometry.lines_chart(q)
    payload = {"command": "lines", "presentation": pres.to_dict()}
    _emit(args, payload, [str(pres)])
    return 0


def cmd_node_rank(args):
    lam = _parse_fraction(args.lam)
    mu = _parse_fraction(args.mu)
    rank = geometry.node_rank(lam, mu)
    degenerate = 1 - lam * mu == 0
    text = f"rank {rank}"
    if degenerate:
        text += " (degenerate: 1 - lambda*mu = 0)"
    payload = {
        "command": "node-rank",
        "lambda": str(lam),
        "mu": str(mu),
        "rank": rank,
        "degenerate": degenerate,
    }
    _emit(args, payload, [text])
    return 0


def cmd_fiber(args):
    q = load_qf(args.input)
    assignment = {}
    if args.point:
        for chunk in args.point.split(","):
            name, _, value = chunk.partition("=")
            if not value:
                raise ParseError(f"bad point entry {chunk!r}")
            name = name.strip()
            if name not in q.base.variables:
                raise ParseError(f"{name!r} is not a base variable")
            if name in assignment:
                raise ParseError(f"{name!r} is given twice in --point")
            assignment[name] = _parse_fraction(value.strip())
    point = cliffmod.Specialization(assignment)
    report = geometry.fiber_report(q, point)
    payload = {"command": "fiber", "report": report}
    lines = [
        f"corank {report['corank']}: {report['classification']}",
    ]
    if report.get("witnesses"):
        lines.append(f"witnesses: {report['witnesses']}")
    _emit(args, payload, lines)
    return 0


def cmd_net(args):
    forms = [load_qf(path) for path in args.inputs]
    net = geometry.NetOfQuadrics(forms)
    degree = net.discriminant_degree_report()
    payload = {
        "command": "net",
        "inputs": list(args.inputs),
        "net_form": str(net.form.q_poly()),
        "parameters": list(net.form.base.variables),
        "discriminant_degree": degree,
    }
    lines = [
        f"net over Q[{','.join(net.form.base.variables)}]: {payload['net_form']}",
        f"det(b) degree in parameters: {degree['degree']} "
        f"(homogeneous: {degree['homogeneous']}, bound {degree['bound']})",
    ]
    _emit(args, payload, lines)
    return 0


def _pick_isotropic_generator(q):
    for i in range(q.n):
        vec = [Fraction(1) if k == i else Fraction(0) for k in range(q.n)]
        if q.apply(vec).is_zero():
            return Subbundle([vec], q.base)
    return None


def _skipped(operation, reason):
    return cliffmod.Report(
        operation=operation,
        configuration={},
        samples=[],
        ok=True,
        notes=[f"skipped: {reason}"],
    )


def _run_suites(q, suite, seed, samples):
    ctx = cl.CliffordContext(q)
    w = _pick_isotropic_generator(q)
    empty = Subbundle.empty(q.base, q.n)
    target = w or empty
    sampled = {"samples": samples, "seed": seed}
    reports = []
    wanted = SUITES[:-1] if suite == "all" else (suite,)

    if "multiplication-iso" in wanted:
        for m, n in ((1, 0), (1, 1), (2, 0)):
            reports.append(cliffmod.verify_multiplication_iso(ctx, target, m, n, **sampled))
    if "cokernel" in wanted:
        for n in (0, 1):
            reports.append(cliffmod.verify_cokernel_sequence(ctx, target, n, **sampled))
    if "flag" in wanted:
        if w is None:
            reports.append(_skipped("flag", "no isotropic coordinate generator"))
        else:
            for n in (0, 1):
                reports.append(cliffmod.verify_flag_sequence(ctx, empty, w, n, **sampled))
    if suite == "all" and q.n % 2:
        # an explicit --suite duality still fails its precondition (exit 3)
        reports.append(_skipped("duality", "the duality pairing needs even rank"))
    elif "duality" in wanted:
        for k in range(target.r + 1):
            reports.append(cliffmod.verify_duality(ctx, target, k, **sampled))
    if "matrix-factorization" in wanted:
        runs = ([(w, [-1, 0, 1, 2])] if w else []) + [(empty, [-1, 0, 1])]
        for sub, degrees in runs:
            reports.append(cliffmod.verify_mf_report(ctx, sub, degrees, seed=seed))
    # the ideals refer back to the context: clearing them lets reference
    # counting, not the cyclic collector, free the finished run, its sample
    # points and row blocks with it
    ctx.ideals.clear()
    return reports


def cmd_verify(args):
    q = load_qf(args.input)
    reports = _run_suites(q, args.suite, args.seed, args.samples)
    ok = all(r.ok for r in reports)
    payload = {
        "command": "verify",
        "input": args.input,
        "suite": args.suite,
        "seed": args.seed,
        "ok": ok,
        "reports": [r.to_dict() for r in reports],
    }
    lines = [] if args.json else [r.to_text() for r in reports]
    lines.append(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if ok else 4


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadrikit",
        description="exact computations for quadric surface bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, seed=False, samples=False):
        # --json everywhere; --seed and --samples only where they are read
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        if seed:
            p.add_argument("--seed", type=_integer, default=DEFAULT_SEED)
        if samples:
            p.add_argument("--samples", type=functools.partial(_integer, minimum=1), default=5)
        return p

    p = command("degeneration", cmd_degeneration, "degeneration locus ideal")
    p.add_argument("input")
    p.add_argument("--k", type=_integer, required=True, help="corank bound k >= 1")

    p = command("reduce", cmd_reduce, "hyperbolic reduction by a pair")
    p.add_argument("input")
    p.add_argument("--v", required=True, help="isotropic vector, comma-separated")
    p.add_argument("--w", help="partner vector; computed when omitted")

    p = command("clifford", cmd_clifford, "graded basis, center, or trace")
    p.add_argument("input")
    p.add_argument("--table", type=_integer, help="list the degree-n basis")
    p.add_argument("--center", action="store_true")
    p.add_argument("--trace", help="element expression to trace")

    p = command("ideal", cmd_ideal, "one-sided ideal basis", seed=True)
    p.add_argument("input")
    p.add_argument("--w", default="", help="subbundle vectors 'v1;v2;...'")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")

    p = command("spinor", cmd_spinor, "presentation matrix in degree n", seed=True)
    p.add_argument("input")
    p.add_argument("--w", default="")
    p.add_argument("--n", type=_integer, required=True)

    p = command("lines", cmd_lines, "chart equations for the scheme of lines")
    p.add_argument("input")

    p = command("node-rank", cmd_node_rank, "rank of the chart node equation")
    p.add_argument("lam")
    p.add_argument("mu")

    p = command("fiber", cmd_fiber, "fiber classification at a base point")
    p.add_argument("input")
    p.add_argument("--point", default="", help="assignments 'a=1,b=0,c=-1'")

    p = command("net", cmd_net, "net of quadrics from constant forms")
    p.add_argument("inputs", nargs="+")

    p = command("verify", cmd_verify, "run a verification suite", seed=True, samples=True)
    p.add_argument("input")
    p.add_argument("--suite", choices=SUITES, default="all")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (QuadFormError, cl.CliffordError, PolyError) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
