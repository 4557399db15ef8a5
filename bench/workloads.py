"""Seeded job lists for the three benchmark workloads.

A job is one ``robusthmm`` CLI invocation: a subcommand, a generated JSON
configuration and extra CLI arguments. Every random choice is drawn from a
``numpy`` generator keyed by the workload seed, so one seed always yields
byte-identical configuration files. The program only ever sees those files.

Job shapes (sizes, horizons, candidate counts) are fixed per workload; the
seed moves only the model entries, payoffs, costs and observed symbols, so
the work a pass does barely depends on the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Generators of the shipped sensing problem (configs/control_t3.json),
# embedded so later edits to the example config cannot move the benchmark.
SENSING_GENERATORS = (
    {"transition": [[0.9, 0.2], [0.1, 0.8]],
     "emission": [[0.75, 0.25], [0.25, 0.75]], "gamma": 0.0},
    {"transition": [[0.9, 0.2], [0.1, 0.8]],
     "emission": [[0.5, 0.5], [0.5, 0.5]], "gamma": 0.0},
)
SENSING_CONTROL_GAMMA = [[0.0, 2.0], [2.0, 0.0]]

# Support prior of configs/oracle_t3.json; every belief is a grid point at
# the oracle's resolutions 10, 20 and 40.
ORACLE_PRIOR = {
    "shape": "support",
    "beliefs": [[0.0, 1.0], [0.2, 0.8], [0.5, 0.5], [0.8, 0.2], [1.0, 0.0]],
    "values": [0.4, 0.1, 0.0, 0.2, 0.6],
}

# (mean self-transition, mean own-symbol probability) per candidate. The
# seed only perturbs these means, so the share of grid cells a surface
# reaches, and with it the work of a pass, hardly moves between seeds.
CANDIDATE_MEANS = ((0.9, 0.7), (0.8, 0.6), (0.7, 0.55))
CONCENTRATION = 2000

# Job sizes keep each job near 1 s (0.7-2.5 s) on a 2-vCPU Xeon VM, so one
# run times every job several times and a per-job median exists; with the
# multi-second jobs of longer horizons a run held one or two samples per job
# and the host's slow phases decided the result.
EVOLVE_STEPS = 16
# One control job rides with the trees: on its own, control's speed swung
# by up to 40% between runs on the same host while the calibration kernel
# did not move, so a control-only workload could not be made steady.
CONTROL_HORIZON = 5


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``robusthmm <command> --config <file> <args>``."""

    label: str
    command: str
    config: dict
    args: tuple[str, ...] = ()

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir,
                *self.args]


def _dirichlet_rows(rng, mean: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in rng.dirichlet(CONCENTRATION * row)]
            for row in mean]


def _generator(rng, n: int, d: int, stay: float, hit: float,
               gamma: float) -> dict:
    """Dirichlet rows centred on a sticky chain (self-transition ``stay``)
    whose state ``i`` emits symbol ``i mod d`` with probability ``hit``."""
    trans = np.full((n, n), (1.0 - stay) / (n - 1))
    np.fill_diagonal(trans, stay)
    emit = np.full((n, d), (1.0 - hit) / (d - 1))
    emit[np.arange(n), np.arange(n) % d] = hit
    # transition columns are next-state distributions: draw the transpose
    cols = _dirichlet_rows(rng, trans.T)
    transition = [[cols[j][i] for j in range(n)] for i in range(n)]
    return {"transition": transition, "emission": _dirichlet_rows(rng, emit),
            "gamma": gamma}


def _candidates(rng, n: int, d: int) -> list[dict]:
    gammas = [0.0] + [float(g) for g in rng.uniform(0.1, 1.0,
                                                    len(CANDIDATE_MEANS) - 1)]
    return [_generator(rng, n, d, stay, hit, gamma)
            for (stay, hit), gamma in zip(CANDIDATE_MEANS, gammas)]


def _base(n: int, d: int, horizon: int, m: int, framework: str,
          gens: list[dict], k: float) -> dict:
    return {"n_states": n, "n_symbols": d, "horizon": horizon,
            "grid_resolution": m, "framework": framework,
            "uncertainty": {"k": k, "k_exp": 1.0}, "generators": gens,
            "prior": {"shape": "zero"}}


def _seed31(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def _evolve_job(rng, n: int, m: int, framework: str,
                horizon: int) -> Job:
    d = 2
    cfg = _base(n, d, horizon, m, framework, _candidates(rng, n, d), 1.0)
    sim = _generator(rng, n, d, *CANDIDATE_MEANS[0], 0.0)
    cfg["simulation"] = {"transition": sim["transition"],
                         "emission": sim["emission"],
                         "p0": [1.0 / n] * n, "seed": _seed31(rng)}
    return Job(f"evolve N={n} m={m} {framework}", "penalty-evolve", cfg)


def _tree_job(rng, n: int, d: int, horizon: int, m: int) -> Job:
    k = float(rng.uniform(0.5, 2.0))
    cfg = _base(n, d, horizon, m, "dynamic-dr", _candidates(rng, n, d), k)
    cfg["phi"] = [float(x) for x in rng.uniform(-1.0, 1.0, n)]
    return Job(f"expect N={n} d={d} H={horizon} m={m}", "expect", cfg)


def _control_job(rng, horizon: int) -> Job:
    fee = float(rng.uniform(0.1, 0.5))
    cfg = _base(2, 2, horizon, 10, "dynamic-dr",
                [dict(g) for g in SENSING_GENERATORS], 1.0)
    cfg["control"] = {
        "labels": ["listen", "idle"],
        "gamma": SENSING_CONTROL_GAMMA,
        "running_cost": [[fee, 0.0]] * horizon,
        "terminal_cost": [float(x) for x in rng.uniform(0.0, 2.5, 2)],
    }
    return Job(f"control H={horizon}", "control", cfg)


def _oracle_job(rng, index: int, horizon: int = 3) -> Job:
    cfg = _base(2, 2, horizon, 10, "dynamic-dr", _candidates(rng, 2, 2), 1.0)
    cfg["prior"] = ORACLE_PRIOR
    cfg["observations"] = [int(y) for y in rng.integers(0, 2, horizon)]
    cfg["phi"] = [1.0, 0.0]
    return Job(f"oracle-check variant {index}", "oracle-check", cfg,
               ("--threads", "2"))


def _evolve_long(rng, warmup: bool) -> list[Job]:
    if warmup:
        return [_evolve_job(rng, 2, 20, "dynamic-dr", 4)]
    return [_evolve_job(rng, n, m, fw, EVOLVE_STEPS)
            for n, m in ((2, 1000), (3, 80), (4, 20))
            for fw in ("dynamic-dr", "static-up")]


def _tree_control(rng, warmup: bool) -> list[Job]:
    if warmup:
        return [_tree_job(rng, 2, 2, 3, 10)]
    trees = [_tree_job(rng, n, d, h, m)
             for n, d, h, m in ((2, 2, 7, 100), (3, 2, 7, 20), (3, 3, 5, 20),
                                (2, 2, 8, 30))]
    return trees + [_control_job(rng, CONTROL_HORIZON)]


def _verify(rng, warmup: bool) -> list[Job]:
    if warmup:
        return [_oracle_job(rng, -1, horizon=1)]
    return [_oracle_job(rng, i) for i in range(10)]


WORKLOADS = {
    "evolve-long": _evolve_long,
    "tree-control": _tree_control,
    "verify": _verify,
}


def make_jobs(workload: str, seed: int) -> tuple[Job, list[Job]]:
    """The warm-up job and the measured job list of a workload.

    The warm-up draws from its own stream so the measured jobs for a seed do
    not depend on the warm-up's shape.
    """
    build = WORKLOADS[workload]
    warm = build(np.random.default_rng([seed, 1]), warmup=True)[0]
    return warm, build(np.random.default_rng([seed, 0]), warmup=False)


def write_config(job: Job, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job.config, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
