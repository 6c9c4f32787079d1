"""Seeded job lists for the three workloads.

A job is one ``mc-arelab`` command line plus the value of
``MC_ARELAB_THREADS`` it runs under (None = unset, serial). Every job
starts from a documented use of the tool: the configuration defaults
(``c`` = 0.2 m, ``n_mol`` = 100, ``c_noise`` = 0) or one of the example
commands in the README. The seed jitters that use by a little: ``c``
and the sweep ranges by up to 1%, ``n_mol`` within 99..101, and it picks
the extra ``cir`` sites and the RNG seeds. ``c_noise`` keeps its
documented value (0, or 10 where the README example sets it): the
default 0 is an edge of its range, so there is nothing to jitter it
around. Every job succeeds at these points on the seed commit.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WHY = {
    "sweep": "grid-compare, a hex are-sweep and optimize-radius, serial: the paper's "
    "headline figures, where scalar cir and optimal_threshold share the time",
    "point": "detect, ber-sweep and a fine cir trace at single operating points: "
    "threshold_set and the count-distribution layers, plus CSV emission",
    "simulate": "mc-validate in both modes and pbs-validate at 2 threads: the "
    "Monte Carlo and particle layers, with the analytic layers idle",
}

SIMULATE_THREADS = "2"


class Job(NamedTuple):
    name: str
    argv: list
    threads: str | None = None


def _jitter(rng: random.Random, value: float) -> str:
    return f"{value * rng.uniform(0.99, 1.01):.5f}"


def _nmol(rng: random.Random) -> list[str]:
    return ["--nmol", str(rng.randint(99, 101))]


def sweep_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"sweep-{seed}")
    return [
        # README: grid-compare --area-from 0.02 --area-to 0.8
        Job("grid-compare", ["grid-compare", "--area-from", _jitter(rng, 0.02),
                             "--area-to", _jitter(rng, 0.8), "--points", "16"] + _nmol(rng)),
        # README: are-sweep --grid hex --nmol 100 --c-from 0.1 --c-to 1.0 --points 60
        Job("are-sweep-hex", ["are-sweep", "--grid", "hex", "--c-from", _jitter(rng, 0.1),
                              "--c-to", _jitter(rng, 1.0), "--points", "16"] + _nmol(rng)),
        # README: optimize-radius --noise 10 --c 1.0
        Job("optimize-radius", ["optimize-radius", "--noise", "10", "--c", _jitter(rng, 1.0)]
            + _nmol(rng)),
    ]


def point_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"point-{seed}")
    jobs = [
        # README: detect --c 0.3 --nmol 100
        Job("detect-hex", ["detect", "--grid", "hex", "--c", _jitter(rng, 0.3)] + _nmol(rng)),
        # the defaults, on the square grid
        Job("detect-square", ["detect", "--grid", "square", "--c", _jitter(rng, 0.2)] + _nmol(rng)),
        # the defaults, at the theta range of the ROADMAP's count-distribution figure
        Job("ber-sweep-hex", ["ber-sweep", "--grid", "hex", "--theta-max", "200",
                              "--c", _jitter(rng, 0.2)] + _nmol(rng)),
        # README: ber-sweep --theta-max 80, on the square grid
        Job("ber-sweep-square", ["ber-sweep", "--grid", "square", "--theta-max", "80",
                                 "--c", _jitter(rng, 0.2)] + _nmol(rng)),
    ]
    # README: cir --tx-index 0 --tx-index 1 --d 0.5 --diff 0.01, plus two
    # seeded sites, at the finest record step
    cir = ["cir", "--record-every", "1", "--d", "0.5", "--diff", "0.01"]
    for site in [0, 1] + sorted(rng.sample(range(2, 19), 2)):
        cir += ["--tx-index", str(site)]
    jobs.append(Job("cir-trace", cir + ["--c", _jitter(rng, 0.2)]))
    return jobs


def simulate_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"simulate-{seed}")
    # the defaults; README: mc-validate --seed 7 --samples 100000 and
    # pbs-validate --tx-index 1 --realizations 3000 --particles 100
    point = ["--c", _jitter(rng, 0.2)] + _nmol(rng)
    jobs = [
        Job(f"mc-validate-{mode}", ["mc-validate", "--mode", mode, "--samples", "4000000",
                                    "--seed", str(rng.randrange(1, 10**6))] + point,
            SIMULATE_THREADS)
        for mode in ("stochastic", "semi-analytic")
    ]
    jobs += [
        Job(f"pbs-validate-{site}", ["pbs-validate", "--tx-index", str(site),
                                     "--realizations", "200", "--particles", "100",
                                     "--seed", str(rng.randrange(1, 10**6))] + point,
            SIMULATE_THREADS)
        for site in (0, 1)
    ]
    return jobs


# Jobs rerun once per invocation, outside the timed passes, whose CSV must
# match the timed run byte for byte; a thread count reruns at that count.
DETERMINISM = {
    "sweep": [("are-sweep-hex", None)],
    "point": [("ber-sweep-hex", None)],
    "simulate": [("mc-validate-stochastic", "1"), ("mc-validate-semi-analytic", "1")],
}

WORKLOADS = {"sweep": sweep_jobs, "point": point_jobs, "simulate": simulate_jobs}
