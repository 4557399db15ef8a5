"""Measure how fast grid-propagated penalty surfaces approach the exact
(ungridded) evolution as the simplex resolution doubles."""

import sys
from pathlib import Path

try:
    import robusthmm  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robusthmm import SimplexGrid
from robusthmm.cli import (_convergence_error, _exact_run, build_exact_prior,
                           build_grid_prior, load_config)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "oracle_t3.json"


def main() -> None:
    cfg = load_config(str(CONFIG))
    obs = list(cfg.observations)
    runs: dict = {}  # exact runs shared by every resolution's prior
    beliefs, values = build_exact_prior(cfg.prior_values, cfg.grid)
    exact = _exact_run(runs, beliefs, values, cfg.gens, obs, "dr", "dynamic")
    print(f"observations {obs}; "
          f"{len(exact[-1])} exactly reachable beliefs at t={len(obs)}")
    print(f"{'m':>5} {'cells':>6} {'sup error':>12}")
    for m in (10, 20, 40, 80):
        grid = SimplexGrid.build(cfg.n_states, m)
        worst = _convergence_error(grid, build_grid_prior(cfg.prior_cfg, grid),
                                   cfg, obs, runs)
        print(f"{m:>5} {len(grid):>6} {worst:>12.6f}")


if __name__ == "__main__":
    main()
