"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from math import inf

import numpy as np

from robusthmm import (Generator, GeneratorGrid, SimplexGrid, StateFunctional,
                       TreeSetup, UncertaintyParams, backward_expectation,
                       brute_force, bsde_decompose, bsde_driver,
                       dr_expectation, evolve, fill_backward,
                       initial_exact_surface, initial_grid_surface,
                       one_step_expectation, solve)
from robusthmm.cli import main
from robusthmm.config import build_exact_prior
from robusthmm.oracles import (bernoulli_closed_forms, oracle_dr_direct,
                               oracle_penalty)
from conftest import CONFIGS, REPO, example1_generator

FRAMEWORK_LABELS = ("static-up", "dynamic-up", "static-dr", "dynamic-dr")


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _shipped_instance(oracle_cfg):
    grid, prior = oracle_cfg.grid_prior()
    beliefs, values = build_exact_prior(prior, grid)
    return beliefs, values, oracle_cfg.gens, list(oracle_cfg.observations)


def test_criterion_1_penalty_oracle_equivalence(oracle_cfg):
    beliefs, values, gens, obs = _shipped_instance(oracle_cfg)
    started = time.perf_counter()
    worst = 0.0
    for label in FRAMEWORK_LABELS:
        scope, framework = label.split("-")
        surfaces, _ = evolve(initial_exact_surface(beliefs, values, gens,
                                                   scope),
                             gens, obs, framework)
        for t, surface in enumerate(surfaces):
            oracle = oracle_penalty(beliefs, values, gens, obs[:t], framework,
                                    scope)
            engine = surface.as_lookup()
            assert set(oracle) == set(engine), (label, t)
            worst = max(worst, max(abs(oracle[k] - engine[k])
                                   for k in oracle))
    elapsed = time.perf_counter() - started
    _report("criterion 1: exact evolution equals enumeration, 4 frameworks",
            worst <= 1e-12 and elapsed < 5.0,
            f"max|diff|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_dr_expectation_oracle(oracle_cfg):
    beliefs, values, gens, obs = _shipped_instance(oracle_cfg)
    rng = np.random.Generator(np.random.Philox(key=42))
    worst = 0.0
    for label in FRAMEWORK_LABELS:
        scope, framework = label.split("-")
        surfaces, _ = evolve(initial_exact_surface(beliefs, values, gens,
                                                   scope),
                             gens, obs, framework)
        phis = rng.uniform(-2.0, 2.0, size=(50, oracle_cfg.n_states))
        oracle = oracle_dr_direct(phis, beliefs, values, gens, obs,
                                  framework, scope,
                                  k=oracle_cfg.params.k,
                                  k_exp=oracle_cfg.params.k_exp)
        for phi, oracle_value in zip(phis, oracle):
            engine, _ = dr_expectation(phi, surfaces[-1], oracle_cfg.params)
            worst = max(worst, abs(engine - oracle_value))
    _report("criterion 2: worst-case expectations equal enumeration",
            worst <= 1e-9, f"max|diff|={worst:.2e} over 4x50 draws")


def test_criterion_3_example1_closed_forms():
    gens = GeneratorGrid(candidates=(example1_generator(0.75, 0.25),),
                         prior_penalty=np.array([0.0]))
    beliefs = np.array([[q, 1 - q] for q in np.arange(0.1, 0.95, 0.1)])
    ells0 = np.log(beliefs[:, 0] / beliefs[:, 1])
    kappa0_fn = lambda ells: np.abs(ells)
    prior = initial_exact_surface(beliefs, kappa0_fn(ells0), gens, "static")
    worst = 0.0
    for obs in ([0], [0, 1, 0, 0, 1], [1] * 10):
        fixed_prior, data_driven = bernoulli_closed_forms(0.75, 0.25, obs,
                                                          kappa0_fn)
        up, _ = evolve(prior, gens, obs, "up")
        ells = np.log(up[-1].beliefs[:, 0] / up[-1].beliefs[:, 1])
        worst = max(worst, float(np.max(np.abs(up[-1].values
                                               - fixed_prior(ells)))))
        dr, _ = evolve(prior, gens, obs, "dr")
        ells = np.log(dr[-1].beliefs[:, 0] / dr[-1].beliefs[:, 1])
        worst = max(worst, float(np.max(np.abs(dr[-1].values
                                               - data_driven(ells)))))
    _report("criterion 3: closed-form shift and evidence formulas",
            worst <= 1e-9, f"max|diff|={worst:.2e}")


def test_criterion_4_expectation_axioms(oracle_cfg):
    grid = SimplexGrid.build(2, 10)
    gens = oracle_cfg.gens
    rng = np.random.Generator(np.random.Philox(key=7))
    param_cycle = [UncertaintyParams(k=1.0, k_exp=1.0),
                   UncertaintyParams(k=0.8, k_exp=2.0),
                   UncertaintyParams(k=1.5, k_exp=inf)]
    worst = 0.0
    for i in range(100):
        params = param_cycle[i % len(param_cycle)]
        vals = rng.exponential(1.0, len(grid))
        mask = rng.uniform(size=len(grid)) < 0.2
        vals[mask] = np.inf
        if not np.isfinite(vals).any():
            vals[0] = 0.0
        surface = initial_grid_surface(vals, gens, grid, "dynamic")
        gammas = rng.exponential(0.5, len(gens))
        gammas -= gammas.min()
        phi = rng.uniform(-3, 3, 2)
        psi = phi - np.abs(rng.uniform(0, 1, 2))
        c = float(rng.uniform(-2, 2))
        e_phi, _ = dr_expectation(phi, surface, params)
        e_psi, _ = dr_expectation(psi, surface, params)
        e_mid, _ = dr_expectation((phi + psi) / 2, surface, params)
        e_shift, _ = dr_expectation(phi + c, surface, params)
        e_const, _ = dr_expectation(np.array([c, c]), surface, params)
        worst = max(worst, e_psi - e_phi,
                    abs(e_shift - (e_phi + c)),
                    e_mid - (e_phi + e_psi) / 2,
                    abs(e_const - c))
        o_phi = one_step_expectation(phi, surface, gens, gammas, params)
        o_psi = one_step_expectation(psi, surface, gens, gammas, params)
        o_mid = one_step_expectation((phi + psi) / 2, surface, gens, gammas,
                                     params)
        o_shift = one_step_expectation(phi + c, surface, gens, gammas, params)
        o_const = one_step_expectation(np.array([c, c]), surface, gens,
                                       gammas, params)
        worst = max(worst, o_psi - o_phi,
                    abs(o_shift - (o_phi + c)),
                    o_mid - (o_phi + o_psi) / 2,
                    abs(o_const - c))
    _report("criterion 4: monotone/constant/translation/convexity axioms",
            worst <= 1e-9, f"max violation={worst:.2e} over 100 draws")


def _tree_setup(oracle_cfg, horizon=3):
    beliefs, values, gens, _ = _shipped_instance(oracle_cfg)
    return TreeSetup(gens=gens, framework="dr",
                     horizon=horizon,
                     initial_surface=initial_exact_surface(beliefs, values,
                                                           gens, "dynamic"),
                     params=oracle_cfg.params)


def test_criterion_5_dynamic_consistency(oracle_cfg):
    setup = _tree_setup(oracle_cfg, horizon=3)
    phi = StateFunctional(values=np.array([1.0, 0.0]))
    tree = backward_expectation(phi, setup)
    worst = 0.0
    for t in range(setup.horizon):
        kids = tree.values[t + 1].reshape(-1, setup.gens.n_symbols)
        for surface, child_vals, value in zip(tree.levels[t], kids,
                                              tree.values[t], strict=True):
            redo = one_step_expectation(
                child_vals, surface, setup.gens,
                setup.gens.prior_penalty, setup.params)
            worst = max(worst, abs(redo - value))
    import copy
    for cut in (1, 2):
        clone = copy.deepcopy(tree)
        clone.values[cut + 1:] = [None] * (len(clone.values) - cut - 1)
        fill_backward(clone, setup, terminal_depth=cut)
        for a, b in zip(tree.values[:cut + 1], clone.values[:cut + 1],
                        strict=True):
            worst = max(worst, float(np.abs(a - b).max()))
    _report("criterion 5: stepwise composition equals backward recursion",
            worst <= 1e-12, f"max|diff|={worst:.2e}")


def test_criterion_6_bsde_reconstruction(oracle_cfg):
    setup = _tree_setup(oracle_cfg, horizon=3)
    phi = StateFunctional(values=np.array([1.0, -0.5]))
    tree = backward_expectation(phi, setup)
    bsde_decompose(tree, setup)
    worst = 0.0
    zero_exact = True
    for t in range(setup.horizon):
        kids = tree.values[t + 1].reshape(-1, setup.gens.n_symbols)
        for surface, child_vals, value, driver in zip(
                tree.levels[t], kids, tree.values[t], tree.drivers[t],
                strict=True):
            worst = max(worst, abs(value - (child_vals.mean() + driver)))
            gammas = setup.gens.prior_penalty
            zero_exact &= bsde_driver(np.zeros(2), surface, setup.gens,
                                      gammas, setup.params) == 0.0
    rng = np.random.Generator(np.random.Philox(key=99))
    root_z, root_surface = tree.z[0][0], tree.levels[0][0]
    gammas = setup.gens.prior_penalty
    base = bsde_driver(root_z, root_surface, setup.gens, gammas, setup.params)
    shift_worst = 0.0
    for _ in range(20):
        c = float(rng.uniform(-5, 5))
        shifted = bsde_driver(root_z + c, root_surface, setup.gens, gammas,
                              setup.params)
        shift_worst = max(shift_worst, abs(shifted - base))
    _report("criterion 6: martingale reconstruction and driver invariances",
            worst <= 1e-9 and zero_exact and shift_worst <= 1e-9,
            f"recon={worst:.2e}, f(0)=0 exact={zero_exact}, "
            f"shift={shift_worst:.2e}")


def test_criterion_7_control_dp(control_cfg):
    started = time.perf_counter()
    problem = control_cfg.control_problem()
    solution = solve(problem)
    exhaustive = brute_force(problem)
    diff_root = abs(solution.root_value - exhaustive)
    # dynamic programming identity along the optimal policy
    d = problem.gens.n_symbols
    dp_worst = 0.0
    frontier = [((), solution.levels[0][()][0])]
    while frontier:
        history, sid = frontier.pop()
        record = solution.values[(history, sid)]
        if record.control is None:
            continue
        u = record.control
        child_vals = np.array([
            solution.values[(history + (y,),
                             solution.successors[(sid, u, y)])].value
            for y in range(d)])
        one_step = one_step_expectation(
            child_vals, solution.registry[sid], problem.gens,
            np.zeros(len(problem.gens)), problem.params)
        dp_worst = max(dp_worst, abs(
            record.value
            - (problem.running_cost[len(history), u] + one_step)))
        for y in range(d):
            frontier.append((history + (y,),
                             solution.successors[(sid, u, y)]))
    elapsed = time.perf_counter() - started
    n_policies = problem.n_controls ** 7
    _report("criterion 7: solver equals exhaustive policy search + DP identity",
            diff_root <= 1e-9 and dp_worst <= 1e-9 and elapsed < 30.0,
            f"|V-min over {n_policies} policies|={diff_root:.2e}, "
            f"DP={dp_worst:.2e}, {elapsed:.2f}s")


def test_criterion_8_up_dr_coincide_under_uniform_emissions():
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.array([[0.7, 0.4], [0.3, 0.6]]),
                              emission=np.full((2, 2), 0.5)),
                    Generator(transition=np.array([[0.55, 0.45], [0.45, 0.55]]),
                              emission=np.full((2, 2), 0.5))),
        prior_penalty=np.array([0.0, 0.4]))
    obs = [0, 1, 1, 0, 1]
    worst = 0.0
    grid = SimplexGrid.build(2, 10)
    with np.errstate(divide="ignore"):
        table = np.abs(np.log(grid.points[:, 0] / grid.points[:, 1]))
    for framework_pair in ("grid", "exact"):
        if framework_pair == "grid":
            prior = initial_grid_surface(table, gens, grid, "dynamic")
        else:
            prior = initial_exact_surface(
                np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]),
                np.array([0.3, 0.0, 0.5]), gens, "dynamic")
        up, _ = evolve(prior, gens, obs, "up")
        dr, _ = evolve(prior, gens, obs, "dr")
        pairs = [(a.values, b.values) for a, b in zip(up, dr)]
        for a, b in pairs:
            finite_a, finite_b = np.isfinite(a), np.isfinite(b)
            assert (finite_a == finite_b).all()
            if finite_a.any():
                worst = max(worst,
                            float(np.max(np.abs(a[finite_a] - b[finite_b]))))
    _report("criterion 8: fixed-prior and data-driven runs coincide when "
            "observations carry no information", worst <= 1e-12,
            f"max|diff|={worst:.2e}")


def test_criterion_9_learning_dichotomy():
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.array([[0.9, 0.2], [0.1, 0.8]]),
                              emission=np.array([[0.75, 0.25],
                                                 [0.25, 0.75]])),),
        prior_penalty=np.array([0.0]))
    beliefs = np.array([[q, 1 - q] for q in (0.2, 0.35, 0.5, 0.65, 0.8)])
    zeros = np.zeros(len(beliefs))
    obs = [0, 1, 0, 0, 1, 1, 0, 1, 0, 0]
    up_flat = True
    for scope in ("static", "dynamic"):
        surfaces, _ = evolve(initial_exact_surface(beliefs, zeros, gens, scope),
                             gens, obs, "up")
        up_flat &= all(float(np.max(s.values)) == 0.0 for s in surfaces)
    dr_surfaces, _ = evolve(initial_exact_surface(beliefs, zeros, gens,
                                                  "static"), gens, obs, "dr")
    dr_spread = min(float(np.max(s.values)) for s in dr_surfaces[1:])
    _report("criterion 9: flat priors stay flat without data feedback but "
            "sharpen with it", up_flat and dr_spread > 0,
            f"fixed-prior max=0 through t=10: {up_flat}, "
            f"min over t of data-driven spread={dr_spread:.3f}")


def test_criterion_10_grid_convergence(tmp_path):
    out = tmp_path / "oracle_check"
    code = main(["oracle-check", "--config",
                 str(CONFIGS / "oracle_t3.json"), "--out", str(out),
                 "--threads", "2"])
    manifest = json.loads((out / "manifest.json").read_text())
    conv = manifest["grid_convergence"]
    errors = conv["sup_errors"]
    monotone = all(errors[i] >= errors[i + 1] for i in range(len(errors) - 1))
    _report("criterion 10: refining the grid never increases the sup error",
            code == 0 and monotone and "final_error" in conv,
            f"errors at m=10/20/40: {[round(e, 4) for e in errors]}")


_DETERMINISM_RUNS = (
    ("simulate", "simulate.json"),
    ("filter", "example1.json"),
    ("penalty-evolve", "oracle_t3.json"),
    ("expect", "oracle_t3.json"),
    ("control", "control_t3.json"),
    ("oracle-check", "oracle_t3.json"),
)


def test_criterion_11_thread_count_determinism(tmp_path):
    identical = True
    detail = []
    for command, config in _DETERMINISM_RUNS:
        outs = []
        for threads in (1, 8):
            out = tmp_path / f"{command}-{threads}"
            code = main([command, "--config", str(CONFIGS / config),
                         "--out", str(out), "--threads", str(threads)])
            assert code == 0, (command, threads, code)
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            if name == "manifest.json":
                da, db = json.loads(a), json.loads(b)
                da.pop("wall_time_s"), db.pop("wall_time_s")
                same = da == db
            else:
                same = a == b
            if not same:
                identical = False
                detail.append(f"{command}/{name}")
    _report("criterion 11: artifacts byte-identical across thread counts",
            identical, "all six subcommands" if identical
            else "mismatch: " + ", ".join(detail))


def _artifact_digest(out) -> str:
    """sha256 over every artifact, the manifest without ``wall_time_s``."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s")
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()


def test_artifacts_identical_across_blas_thread_counts(tmp_path):
    # the level kernel pairs stacked blocks with BLAS products; their bits
    # must not depend on how many threads the BLAS library runs
    for command, config in (("expect", "oracle_t3.json"),
                            ("control", "control_t3.json")):
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=str(REPO / "src"),
                       PYTHONDONTWRITEBYTECODE="1")
            subprocess.run([sys.executable, "-m", "robusthmm", command,
                            "--config", str(CONFIGS / config),
                            "--out", str(out)], env=env, check=True,
                           capture_output=True)
            digests.append(_artifact_digest(out))
        assert digests[0] == digests[1], command
