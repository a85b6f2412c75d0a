"""End-to-end and per-layer benchmark of the quadrikit CLI.

    python3 perfbench/run.py --workload groebner-g4 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  One process, one client, closed
loop: each job calls `quadrikit.cli.main(argv)` and the next job starts
when it returns.  A pass runs the workload's job list once on fresh seeded
inputs; untraced runs repeat passes while another fits in `--seconds`.
Before each pass, quadrikit is imported from a clean module table and
the pass's inputs loaded, three times; `setup_s` is the median of all of
them.  Times are in reference seconds, corrected for the shared host's
speed (hostclock.py); the record keeps the wall seconds too.  `--trace 1`
runs one traced pass and one untraced pass and reports the per-layer
metrics instead.  The last stdout line is the JSON result; the
full record, with provenance, goes to .perfbench_run/results/.
"""

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import layers
import workloads
from hostclock import HostClock
from tracer import Tracer

SETUP_REPEATS = 3  # per pass
MAX_PASSES = 40
RESULTS_DIR = os.path.join(workloads.WORK_DIR, "results")
SOURCE_DIR = os.path.join("src", "quadrikit")


@dataclass
class JobResult:
    job: workloads.Job
    seconds: float  # reference seconds (hostclock)
    raw_seconds: float  # wall seconds
    probe_seconds: float  # host clock probes run during the job
    exit_code: object
    stdout: str
    stderr: str
    error: str = ""  # traceback of an exception the job raised
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    index: int
    results: list

    @property
    def wall_s(self):
        return sum(r.seconds for r in self.results)

    @property
    def raw_wall_s(self):
        return sum(r.raw_seconds for r in self.results)

    @property
    def probe_s(self):
        return sum(r.probe_seconds for r in self.results)

    def digest(self):
        h = hashlib.sha256()
        for r in self.results:
            h.update(r.stdout.encode("utf-8"))
        return h.hexdigest()


def _purge_quadrikit():
    for name in [m for m in sys.modules if m == "quadrikit" or m.startswith("quadrikit.")]:
        del sys.modules[name]
    # free the old modules now, or peak RSS grows with the number of passes
    gc.collect()


def setup(clock, paths, repeats):
    """Import quadrikit and load every input, `repeats` times from a clean
    module table; returns the cli module and the set-up times, each as
    (wall seconds, reference seconds)."""
    times = []
    for _ in range(repeats):
        _purge_quadrikit()
        mark = clock.mark()
        importlib.import_module("quadrikit")
        cli = importlib.import_module("quadrikit.cli")
        quadform = importlib.import_module("quadrikit.quadform")
        for path in paths:
            quadform.load_qf(path)
        raw, ref, _ = clock.since(mark)
        times.append((raw, ref))
    return cli, times


def run_job(clock, cli, job):
    out, err = io.StringIO(), io.StringIO()
    error = ""
    mark = clock.mark()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as e:
        code = e.code
    except Exception:  # a crashing job is a failed job; the run goes on
        code, error = None, traceback.format_exc()
    raw, ref, probe = clock.since(mark)
    return JobResult(job, ref, raw, probe, code, out.getvalue(), err.getvalue(), error)


def run_pass(clock, cli, jobs, index, tracer=None):
    results = []
    for n, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"p{index}j{n}"
        results.append(run_job(clock, cli, job))
    return Pass(index, results)


def check_passes(passes):
    """Run the oracles on every job; returns the number of failed jobs."""
    import oracles  # imports SymPy, so only after peak RSS is read

    failed = 0
    for p in passes:
        for r in p.results:
            if r.error:
                r.problems = ["exception: " + r.error.strip().splitlines()[-1]]
            else:
                r.problems = oracles.check_job(r.job, r.exit_code, r.stdout)
            if r.problems:
                failed += 1
                print(f"FAILED pass {p.index} {' '.join(r.job.argv)}: {r.problems} {r.stderr}",
                      file=sys.stderr)
    return failed


def source_digest():
    h = hashlib.sha256()
    for root, dirs, files in os.walk(SOURCE_DIR):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(path.encode("utf-8"))
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args, passes):
    backend = importlib.import_module("quadrikit").backend_name()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": backend,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "source_sha256": source_digest(),
        "jobs": {p.index: [list(r.job.argv) for r in p.results] for p in passes},
    }


def measure(args, jobs0):
    """Untraced passes until the next one would not fit in --seconds.
    Each pass starts from a fresh import, so no module state carries over
    from one pass to the next."""
    start = perf_counter()
    passes, setup_times = [], []
    with HostClock() as clock:
        while len(passes) < MAX_PASSES:
            index = len(passes)
            jobs = workloads.make_jobs(args.workload, args.seed, index) if index else jobs0
            cli, times = setup(clock, workloads.input_paths(jobs), SETUP_REPEATS)
            setup_times += times
            pass_start = perf_counter()
            passes.append(run_pass(clock, cli, jobs, index))
            now = perf_counter()
            # stop when another pass as long as this one would overrun
            if now - start + now - pass_start > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    job_times = [r.seconds for p in passes for r in p.results]
    # each job of the list, as its median over passes; a max of single job
    # times would report the host's worst moment instead of the program
    per_job = zip(*([r.seconds for r in p.results] for p in passes))
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup_times), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "job_p50_s": (statistics.median(job_times), "s"),
        "job_max_s": (max(statistics.median(times) for times in per_job), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "setup_wall_s": [raw for raw, _ in setup_times],
        "setup_ref_s": [ref for _, ref in setup_times],
        "probes": {"count": len(clock.probes), "median_s": statistics.median(clock.probes)},
    }
    return passes, metrics, extra


def _isolation(workload, stats, traced):
    """Shares of time and zero-call predictions that show the workload
    isolates its layers; reported, not gated.  Span times are wall
    seconds and include the host clock's probes, so the shares' bases do
    too."""
    out = {
        "predicted_zero_calls": {
            name: stats[name].calls for name in layers.PREDICTED_ZERO[workload]
        }
    }
    wall = traced.raw_wall_s + traced.probe_s
    if workload == "groebner-g4":
        out["groebner_share_of_wall"] = stats["polyalg.Ideal.groebner"].total_s / wall
    elif workload == "spinor-r6":
        mf = sum(r.raw_seconds + r.probe_seconds
                 for r in traced.results if "matrix-factorization" in r.job.argv)
        out["pf_solve_share_of_mf_job"] = stats["linalg.pf_solve"].total_s / mf
    else:
        verifiers = sum(
            stats[f"cliffmod.{v}"].self_s for v in layers.VERIFIERS
        )
        out["q_rank_share_of_wall"] = stats["linalg.q_rank"].total_s / wall
        # Poly.evaluate is counted, not timed; the sample workers that call
        # it run in the verifiers' self time
        out["verifier_self_share_of_wall"] = verifiers / wall
    return out


def dead_boundaries(workload, tracer):
    """Boundaries predicted to serve the workload that still exist but
    recorded no call: their wrappers are dead."""
    return sorted(
        b for b in layers.PREDICTED_USE[workload]
        if b not in tracer.skipped and tracer.stats[b].calls == 0
    )


def measure_traced(args, jobs0):
    """One traced pass, then one untraced pass on the next pass's inputs
    for the tracing overhead."""
    paths = workloads.input_paths(jobs0)
    with HostClock() as clock:
        cli, _ = setup(clock, paths, 1)
        tracer = Tracer(layers.BOUNDARIES)
        tracer.install()
        try:
            tracer.job = "setup"
            quadform = importlib.import_module("quadrikit.quadform")
            for path in paths:
                quadform.load_qf(path)
            traced = run_pass(clock, cli, jobs0, 0, tracer)
        finally:
            tracer.uninstall()
        jobs1 = workloads.make_jobs(args.workload, args.seed, 1)
        cli, _ = setup(clock, workloads.input_paths(jobs1), 1)
        plain = run_pass(clock, cli, jobs1, 1)
    stats = tracer.stats
    metrics = {name: (get(stats), unit) for name, unit, _, get in layers.PER_LAYER}
    name, unit, _ = layers.OVERHEAD_METRIC
    metrics[name] = (traced.wall_s / plain.wall_s, unit)
    dead = dead_boundaries(args.workload, tracer)
    extra = {
        "skipped_boundaries": tracer.skipped,
        "dead_boundaries": dead,
        "isolation": _isolation(args.workload, stats, traced),
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": plain.wall_s,
        "traced_raw_wall_s": traced.raw_wall_s,
        "untraced_raw_wall_s": plain.raw_wall_s,
        "boundaries": {
            n: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.counts}
            for n, s in stats.items()
        },
    }
    for b in dead:
        print(f"FAILED dead boundary {b}: no calls on {args.workload}", file=sys.stderr)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans_path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "job", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    extra["spans_file"] = spans_path
    return [traced, plain], metrics, extra


def _results_path(args, trace):
    return os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{trace}.json")


def compare_with_untraced(args, record):
    """Tracing must not change output: compare the traced pass-0 digest
    with an untraced run of the same seed and source, when one exists."""
    try:
        with open(_results_path(args, 0), encoding="utf-8") as fh:
            other = json.load(fh)
    except (OSError, ValueError):
        return None
    if other["provenance"]["source_sha256"] != record["provenance"]["source_sha256"]:
        return None
    return other["stdout_sha256"] == record["stdout_sha256"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE_DIR, "__init__.py")):
        print(f"no quadrikit sources under {SOURCE_DIR}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    jobs0 = workloads.make_jobs(args.workload, args.seed, 0)
    if args.trace:
        passes, metrics, extra = measure_traced(args, jobs0)
    else:
        passes, metrics, extra = measure(args, jobs0)

    failed = check_passes(passes)
    attempted = sum(len(p.results) for p in passes)
    record = {
        "provenance": provenance(args, passes),
        "stdout_sha256": passes[0].digest(),
        "pass_stdout_sha256": [p.digest() for p in passes],
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_raw_wall_s": [p.raw_wall_s for p in passes],
        "job_seconds": [[r.seconds for r in p.results] for p in passes],
        "job_raw_seconds": [[r.raw_seconds for r in p.results] for p in passes],
        "failures": [
            {"pass": p.index, "argv": list(r.job.argv), "problems": r.problems}
            for p in passes for r in p.results if r.problems
        ],
        **extra,
    }
    correct = failed == 0 and not extra.get("dead_boundaries")
    if args.trace:
        record["digest_matches_untraced"] = compare_with_untraced(args, record)
        correct = correct and record["digest_matches_untraced"] is not False
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(_results_path(args, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    prov = record["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={prov['backend']} python={prov['python']} nproc={prov['nproc']}")
    for p in passes:
        print(f"pass {p.index}: {len(p.results)} jobs, {p.wall_s:.3f} reference s, "
              f"{p.raw_wall_s:.3f} wall s")
    if args.trace:
        print(f"isolation {json.dumps(extra['isolation'], sort_keys=True)}")
        print(f"skipped boundaries: {extra['skipped_boundaries'] or 'none'}; "
              f"digest matches untraced run: {record['digest_matches_untraced']}")
    print(f"stdout_sha256 {record['stdout_sha256']}")
    print(f"record {_results_path(args, args.trace)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
