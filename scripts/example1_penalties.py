"""Two-state coin-bias demo: propagate a V-shaped prior penalty through a
stream of observations and compare the fixed-prior update (a pure shift in
log-odds) with the data-driven update (which sharpens around the models the
data favors). Prints one table per time step and writes penalties.csv."""

import csv
import sys
from pathlib import Path

import numpy as np

try:
    import robusthmm  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robusthmm import (Generator, GeneratorGrid, evolve, initial_exact_surface,
                       simulate_path)

A, B = 0.75, 0.25
HORIZON = 8
SEED = 314


def main() -> None:
    gen = Generator(transition=np.eye(2),
                    emission=np.array([[A, 1 - A], [B, 1 - B]]))
    gens = GeneratorGrid(candidates=(gen,), prior_penalty=np.array([0.0]))
    path = simulate_path([gen] * HORIZON, np.array([0.5, 0.5]), HORIZON, SEED)
    obs = [int(y) for y in path.observed]
    print(f"true state: {path.hidden[0]}, observations: {obs}")

    beliefs = np.array([[q, 1 - q] for q in np.linspace(0.1, 0.9, 9)])
    ells = np.log(beliefs[:, 0] / beliefs[:, 1])
    prior = initial_exact_surface(beliefs, np.abs(ells), gens, "static")

    fixed, _ = evolve(prior, gens, obs, "up")
    data, _ = evolve(prior, gens, obs, "dr")

    rows = []
    for t in range(HORIZON + 1):
        print(f"\nt={t} (observed {obs[:t]})")
        print(f"  {'belief':>8} {'fixed-prior':>12} {'data-driven':>12}")
        for i in range(len(beliefs)):
            b = fixed[t].beliefs[i]
            print(f"  {b[0]:8.4f} {fixed[t].values[i]:12.4f} "
                  f"{data[t].values[i]:12.4f}")
            rows.append([t, b[0], b[1], fixed[t].values[i],
                         data[t].values[i]])

    out = Path("out")
    out.mkdir(exist_ok=True)
    with open(out / "penalties.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "p0", "p1", "fixed_prior", "data_driven"])
        writer.writerows(rows)
    print(f"\nwrote {out / 'penalties.csv'}")


if __name__ == "__main__":
    main()
