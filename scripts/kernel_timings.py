"""Time the grid kernels and the surface renderer on their own: the best
of several runs of ``SimplexGrid.round_rows`` on every Bayes image of an
image table, of one grid step (``forward_image_step``) and of rendering the
stepped surface's CSV (``render_surface_csv`` with the step's report) in
the dynamic and the static scope, at the grid shapes N=2/m=1000, N=3/m=80
and N=4/m=20; of rendering the 255 nodes of an N=2/m=100 observation
tree of depth 7 in the batches the ``expect`` command uses; and of the
three stages of one ``oracle-check`` on ``configs/oracle_t3.json`` (N=2,
3 candidates, horizon 3, a 5-belief support prior): the enumeration walk
of each scope, the four exact runs and the grid-convergence sweep at
m = 10, 20 and 40, which reuses the exact runs as the check does.

It also times start-up: the best of several fresh interpreters importing
``robusthmm.cli`` (numpy already loaded) from a copy of the package with no
cached bytecode and ``PYTHONDONTWRITEBYTECODE=1``, so its modules are
compiled from source as in a fresh checkout; and it lists the ``robusthmm``
modules one ``penalty-evolve`` run on ``configs/oracle_t3.json`` and one
``simulate`` run on ``configs/simulate.json`` load.

Usage::

    python3 scripts/kernel_timings.py [--repeats 20]

Three sticky candidates on two symbols, from a fixed seed. The step starts
from the surface one step after a zero prior and reuses its image table, so
it times the gather, the scatter-min and the normalization. Rendering
times exclude the one-time build of the grid's row text. Times are
seconds of this machine; compare them only with runs on the same host.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

try:
    import robusthmm  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import robusthmm
from robusthmm import (Generator, GeneratorGrid, SimplexGrid, TreeSetup,
                       UncertaintyParams, build_observation_tree,
                       forward_image_step, initial_grid_surface,
                       render_surface_csv)
from robusthmm.cli import (_FRAMEWORK_LABELS, CONVERGENCE_RESOLUTIONS,
                           _convergence_error, _exact_run)
from robusthmm.config import build_exact_prior, load_config
from robusthmm.models import parse_framework
from robusthmm.oracles import _walk_models
from robusthmm.penalty import (_blocks, _gen_images, evolve,
                               initial_exact_surface)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ORACLE_CONFIG = CONFIGS / "oracle_t3.json"

STARTUP_RUNS = 7
_IMPORT_CLI = ("import time, numpy; start = time.perf_counter(); "
               "import robusthmm.cli; print(time.perf_counter() - start)")
_RUN_MODULES = (
    "import json, sys; from robusthmm.cli import main; "
    "main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]); "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] == 'robusthmm')))")

SHAPES = ((2, 1000), (3, 80), (4, 20))
# (self-transition, own-symbol probability) around which each candidate is
# drawn, and the step penalty of each
MEANS = ((0.9, 0.7), (0.8, 0.6), (0.7, 0.55))
GAMMAS = (0.0, 0.3, 0.6)


def candidates(rng, n: int) -> GeneratorGrid:
    """Sticky chains whose state ``i`` emits symbol ``i mod 2`` most."""
    cands = []
    for stay, hit in MEANS:
        trans = np.full((n, n), (1.0 - stay) / (n - 1))
        np.fill_diagonal(trans, stay)
        emit = np.full((n, 2), 1.0 - hit)
        emit[np.arange(n), np.arange(n) % 2] = hit
        cands.append(Generator(
            transition=np.array([rng.dirichlet(2000 * c) for c in trans.T]).T,
            emission=np.array([rng.dirichlet(2000 * r) for r in emit])))
    return GeneratorGrid(candidates=tuple(cands),
                         prior_penalty=np.array(GAMMAS))


def best_of(repeats: int, fn) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=20)
    repeats = parser.parse_args(argv).repeats
    rng = np.random.default_rng(2016)
    print(f"best of {repeats} runs, in ms")
    print(f"{'N':>2} {'m':>5} {'cells':>6} {'rows':>6} {'round_rows':>11} "
          f"{'step dyn':>9} {'step static':>12} {'render dyn':>11} "
          f"{'render static':>14}")
    for n, m in SHAPES:
        grid, gens = SimplexGrid.build(n, m), candidates(rng, n)
        images = np.concatenate([posts[alive] for posts, _, alive in (
            _gen_images(grid, gen, 0) for gen in gens.candidates)])
        rounding = best_of(repeats, lambda: grid.round_rows(images))
        steps, renders = [], []
        for scope in ("dynamic", "static"):
            gammas = gens.prior_penalty if scope == "dynamic" else None
            surface, _ = forward_image_step(
                initial_grid_surface(np.zeros(len(grid)), gens, grid, scope),
                gens, gammas, 1, "dr")
            steps.append(best_of(repeats, lambda: forward_image_step(
                surface, gens, gammas, 0, "dr")))
            stepped, report = forward_image_step(surface, gens, gammas, 0,
                                                 "dr")
            render_surface_csv([stepped], [report])  # builds the row text
            renders.append(best_of(repeats, lambda: render_surface_csv(
                [stepped], [report])))
        print(f"{n:>2} {m:>5} {len(grid):>6} {len(images):>6} "
              f"{rounding * 1e3:>11.3f} {steps[0] * 1e3:>9.3f} "
              f"{steps[1] * 1e3:>12.3f} {renders[0] * 1e3:>11.3f} "
              f"{renders[1] * 1e3:>14.3f}")
    grid, gens = SimplexGrid.build(2, 100), candidates(rng, 2)
    nodes = build_observation_tree(TreeSetup(
        gens=gens, framework="dr", horizon=7, params=UncertaintyParams(k=1.0),
        initial_surface=initial_grid_surface(np.zeros(len(grid)), gens, grid,
                                             "dynamic"))).nodes
    blocks = _blocks(nodes, len(grid))
    tree = best_of(repeats, lambda: [render_surface_csv(nodes[b])
                                     for b in blocks])
    print(f"tree N=2 m=100 depth 7: {len(nodes)} nodes in {len(blocks)} "
          f"batches, render {tree * 1e3:.3f}")
    oracle_stages(repeats)
    startup()


def startup() -> None:
    """Import time of ``robusthmm.cli`` compiled from source, and the
    modules a ``penalty-evolve`` and a ``simulate`` run load, each in fresh
    interpreters."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(Path(robusthmm.__file__).parent,
                        Path(tmp) / "robusthmm",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")

        def child(*args) -> str:
            return subprocess.run([sys.executable, "-c", *args], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout.splitlines()[-1]

        best = min(float(child(_IMPORT_CLI)) for _ in range(STARTUP_RUNS))
        loads = []
        for command, config in (("penalty-evolve", "oracle_t3.json"),
                                ("simulate", "simulate.json")):
            modules = json.loads(child(_RUN_MODULES, command,
                                       str(CONFIGS / config),
                                       str(Path(tmp) / command)))
            loads.append(f"{command} loads {', '.join(modules)}")
    print(f"start-up: import robusthmm.cli from source {best * 1e3:.3f} "
          f"(best of {STARTUP_RUNS}); {'; '.join(loads)}")


def oracle_stages(repeats: int) -> None:
    cfg = load_config(str(ORACLE_CONFIG))
    obs, gens = list(cfg.observations), cfg.gens
    grid, prior = cfg.grid_prior()
    beliefs, values = build_exact_prior(prior, grid)
    labels = [parse_framework(label) for label in _FRAMEWORK_LABELS]
    walks = best_of(repeats, lambda: [
        _walk_models(beliefs, values, gens, obs, scope, None)
        for scope in ("static", "dynamic")])
    exact = best_of(repeats, lambda: [
        evolve(initial_exact_surface(beliefs, values, gens, scope), gens,
               obs, framework) for scope, framework in labels])
    runs: dict = {}
    for scope, framework in labels:
        _exact_run(runs, beliefs, values, gens, obs, framework, scope)
    sweep = [cfg.grid_prior(m) for m in CONVERGENCE_RESOLUTIONS]
    errors = best_of(repeats, lambda: [
        _convergence_error(grid, prior, cfg, obs, runs)
        for grid, prior in sweep])
    print(f"oracle-check {ORACLE_CONFIG.name}: walk per scope (2) "
          f"{walks * 1e3:.3f}, exact runs (4) {exact * 1e3:.3f}, "
          f"sweep m={'/'.join(map(str, CONVERGENCE_RESOLUTIONS))} "
          f"{errors * 1e3:.3f}")


if __name__ == "__main__":
    main()
