"""Checks of the benchmark itself: the oracles reject wrong answers, the
tracer patches every binding and survives missing boundaries, the host
clock leaves its probes out of the times it reports, and BENCHMARK.json
names the metrics the run prints.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import io
import json
import os
import signal
import statistics
import sys
from contextlib import redirect_stdout
from time import perf_counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostclock  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Boundary, Tracer  # noqa: E402

from quadrikit import cli  # noqa: E402
from quadrikit import clifford, cliffmod  # noqa: E402

UNIVERSAL = os.path.join(ROOT, "data", "universal.qf")
UNIVERSAL_VARS = ("a", "b", "c")


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _job(kind, argv):
    return workloads.Job(kind, tuple(argv), UNIVERSAL_VARS)


@pytest.fixture(scope="module")
def degeneration():
    argv = ["degeneration", UNIVERSAL, "--k", "2", "--json"]
    code, out = _run(argv)
    return _job("degeneration", argv), code, out


@pytest.fixture(scope="module")
def cokernel():
    argv = ["verify", UNIVERSAL, "--suite", "cokernel", "--samples", "3", "--json"]
    code, out = _run(argv)
    return _job("verify", argv), code, out


@pytest.fixture(scope="module")
def center():
    argv = ["clifford", UNIVERSAL, "--center", "--json"]
    code, out = _run(argv)
    return _job("center", argv), code, out


def _tampered(result, edit):
    job, code, out = result
    payload = copy.deepcopy(json.loads(out))
    edit(payload)
    return oracles.check_job(job, code, json.dumps(payload))


def test_oracles_accept_real_output(degeneration, cokernel, center):
    for job, code, out in (degeneration, cokernel, center):
        assert oracles.check_job(job, code, out) == []


def test_degeneration_oracle_rejects_missing_basis_element(degeneration):
    assert len(json.loads(degeneration[2])["groebner"]) > 1
    assert _tampered(degeneration, lambda p: p["groebner"].pop())


def test_degeneration_oracle_rejects_wrong_coefficient(degeneration):
    def edit(p):
        p["groebner"][0] = p["groebner"][0] + " + 2*a^7"

    assert _tampered(degeneration, edit)


def test_verify_oracle_rejects_zero_samples(cokernel):
    def edit(p):
        for r in p["reports"]:
            r["samples"] = []

    assert _tampered(cokernel, edit)


def test_verify_oracle_rejects_short_sample_count(cokernel):
    assert _tampered(cokernel, lambda p: p["reports"][0]["samples"].pop())


def test_verify_oracle_rejects_failed_report(cokernel):
    assert _tampered(cokernel, lambda p: p.update(ok=False))


def test_center_oracle_rejects_wrong_ratio(center):
    assert _tampered(center, lambda p: p.update(ratio="7"))


def test_oracles_reject_bad_exit_code_and_output(cokernel, degeneration):
    job, _, out = cokernel
    assert oracles.check_job(job, 4, out)
    assert oracles.check_job(job, 0, "not json")
    assert _tampered(cokernel, lambda p: p["reports"][0].pop("configuration"))
    assert _tampered(degeneration, lambda p: p["groebner"].append("a +* b"))


def test_tracer_patches_every_binding_and_restores():
    original = clifford.cl_mul
    assert cliffmod.cl_mul is original
    tracer = Tracer([Boundary("clifford.cl_mul", ("quadrikit.clifford",), "cl_mul")])
    tracer.install()
    try:
        assert clifford.cl_mul is not original
        assert cliffmod.cl_mul is clifford.cl_mul
        code, _ = _run(["verify", UNIVERSAL, "--suite", "duality", "--samples", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert clifford.cl_mul is original and cliffmod.cl_mul is original
    stat = tracer.stats["clifford.cl_mul"]
    assert stat.calls > 0 and 0 < stat.self_s <= stat.total_s
    assert len(tracer.spans) == stat.calls


def test_tracer_skips_missing_boundaries():
    gone = [
        Boundary("linalg.gone", ("quadrikit.linalg",), "no_such_function"),
        Boundary("nomodule.f", ("quadrikit.no_such_module",), "f"),
        Boundary("polyalg.Gone.m", ("quadrikit.polyalg",), "NoSuchClass.m"),
    ]
    tracer = Tracer(gone + layers.BOUNDARIES)
    tracer.install()
    tracer.uninstall()
    assert tracer.skipped == [b.name for b in gone]


def test_tracer_self_time_excludes_children():
    tracer = Tracer(layers.BOUNDARIES)
    tracer.install()
    try:
        _run(["degeneration", UNIVERSAL, "--k", "1"])
    finally:
        tracer.uninstall()
    main = tracer.stats["cli.main"]
    assert 0 < main.self_s < main.total_s
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, name, job, start, end, parent in tracer.spans:
        if parent is not None:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]


def test_uncalled_boundary_is_dead_unless_skipped():
    tracer = Tracer(layers.BOUNDARIES)
    tracer.install()
    try:
        _run(["degeneration", UNIVERSAL, "--k", "2"])
    finally:
        tracer.uninstall()
    assert run.dead_boundaries("groebner-g4", tracer) == []
    assert "linalg.pf_solve" in run.dead_boundaries("spinor-r6", tracer)
    tracer.skipped.append("linalg.pf_solve")
    assert "linalg.pf_solve" not in run.dead_boundaries("spinor-r6", tracer)


def test_host_clock_leaves_out_probes_and_scales_by_probe_time():
    with hostclock.HostClock(interval=0.002) as clock:
        mark = clock.mark()
        deadline = perf_counter() + 0.05
        while perf_counter() < deadline:
            pass
        raw, ref, probe = clock.since(mark)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe > 0  # the timer fired inside the region
    assert raw + probe >= 0.05  # the whole busy loop, probes and all
    speed = statistics.fmean(clock.probes[mark.sample:])
    assert ref == pytest.approx(raw * hostclock.PROBE_NOMINAL_S / speed)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [(n, u, b) for n, u, b, _ in layers.PER_LAYER] + [layers.OVERHEAD_METRIC]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "job_p50_s", "job_max_s", "peak_rss_mb"
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
