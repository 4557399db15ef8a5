"""Measure how fast grid-propagated penalty surfaces approach the exact
(ungridded) evolution as the simplex resolution doubles."""

import sys
from pathlib import Path

try:
    import robusthmm  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robusthmm import SimplexGrid, evolve_exact_tree
from robusthmm.cli import _convergence_error, build_exact_prior, load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "oracle_t3.json"


def main() -> None:
    cfg = load_config(str(CONFIG))
    obs = list(cfg.observations)
    base_grid = SimplexGrid.build(cfg.n_states, cfg.grid_resolution)
    exact_prior = build_exact_prior(cfg.prior_cfg, base_grid)
    exact, _ = evolve_exact_tree(exact_prior, cfg.gens, obs, "dr", "dynamic")
    print(f"observations {obs}; "
          f"{len(exact[-1])} exactly reachable beliefs at t={len(obs)}")
    print(f"{'m':>5} {'cells':>6} {'sup error':>12}")
    for m in (10, 20, 40, 80):
        cells = len(SimplexGrid.build(cfg.n_states, m))
        worst = _convergence_error((m, cfg, obs))
        print(f"{m:>5} {cells:>6} {worst:>12.6f}")


if __name__ == "__main__":
    main()
