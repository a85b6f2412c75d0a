"""Seeded inputs and job lists for the three benchmark workloads.

Every pass of a workload gets fresh `.qf` variants drawn from
(workload, seed, pass), so no job sees an input another job has seen and
no in-process cache can carry results between passes.  Input paths do not
depend on the seed, because `--json` output echoes them and the stdout
digest must be comparable between runs and commits.
"""

import os
import random
from dataclasses import dataclass

WORK_DIR = ".perfbench_run"

SAMPLED_SUITES = ("multiplication-iso", "cokernel", "flag", "duality")


@dataclass(frozen=True)
class Job:
    kind: str  # "degeneration", "verify" or "center"
    argv: tuple
    base_vars: tuple


def _scaling(rng):
    while True:
        k = rng.randint(-5, 5)
        if k:
            return k


def _qf_text(base_vars, fiber_rank, fixed_terms, scaled_terms, rng):
    """A .qf file whose coefficient variables are each multiplied by a
    seeded nonzero integer in [-5, 5]."""
    terms = list(fixed_terms)
    terms += [f"{_scaling(rng)}*{var}*{mono}" for var, mono in scaled_terms]
    return (
        f"base_vars = [{', '.join(base_vars)}]\n"
        f"fiber_rank = {fiber_rank}\n"
        f'q = "{" + ".join(terms)}"\n'
    )


G4_VARS = tuple("abcdefghij")
R6_VARS = tuple("abcdef")
UNIVERSAL_VARS = tuple("abc")


def g4_text(rng):
    """Generic rank-4 form: one coefficient variable per x_i*x_j, i <= j."""
    monos = [
        f"x{i}^2" if i == j else f"x{i}*x{j}"
        for i in range(1, 5)
        for j in range(i, 5)
    ]
    return _qf_text(G4_VARS, 4, [], list(zip(G4_VARS, monos)), rng)


def r6_text(rng):
    monos = ["x3^2", "x3*x4", "x4^2", "x5^2", "x5*x6", "x6^2"]
    return _qf_text(R6_VARS, 6, ["x1*x2"], list(zip(R6_VARS, monos)), rng)


def universal_text(rng):
    monos = ["x3^2", "x3*x4", "x4^2"]
    return _qf_text(UNIVERSAL_VARS, 4, ["x1*x2"], list(zip(UNIVERSAL_VARS, monos)), rng)


def _write(workload, pass_index, name, text):
    path = os.path.join(WORK_DIR, "inputs", workload, f"p{pass_index}", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _groebner_g4(rng, pass_index):
    jobs = []
    for v in range(4):
        path = _write("groebner-g4", pass_index, f"g4-{v}.qf", g4_text(rng))
        for k in ("3", "2"):
            argv = ("degeneration", path, "--k", k, "--json")
            jobs.append(Job("degeneration", argv, G4_VARS))
    return jobs


def _spinor_r6(rng, pass_index):
    path = _write("spinor-r6", pass_index, "r6.qf", r6_text(rng))
    return [
        Job("verify", ("verify", path, "--suite", "matrix-factorization", "--json"), R6_VARS),
        Job("center", ("clifford", path, "--center", "--json"), R6_VARS),
    ]


def _certify_mixed(rng, pass_index):
    r6 = _write("certify-mixed", pass_index, "r6.qf", r6_text(rng))
    uni = _write("certify-mixed", pass_index, "universal.qf", universal_text(rng))
    jobs = []
    for path, samples, base_vars in ((r6, "10", R6_VARS), (uni, "40", UNIVERSAL_VARS)):
        for suite in SAMPLED_SUITES:
            seed = str(rng.randrange(1, 2**31))
            argv = ("verify", path, "--suite", suite, "--samples", samples, "--seed", seed, "--json")
            jobs.append(Job("verify", argv, base_vars))
    return jobs


WORKLOADS = {
    "groebner-g4": _groebner_g4,
    "spinor-r6": _spinor_r6,
    "certify-mixed": _certify_mixed,
}


def make_jobs(workload, seed, pass_index):
    """Write the inputs of one pass and return its job list, in order."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return WORKLOADS[workload](rng, pass_index)


def input_paths(jobs):
    return sorted({job.argv[1] for job in jobs})
