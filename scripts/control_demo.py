"""Solve the shipped sensing problem: pay a fee to make observations
informative, or idle and stay uncertain. Prints the optimal value, the
exhaustive policy-search cross-check, the optimal policy (history -> control)
and the decision at every reachable (history, surface) state."""

import sys
from pathlib import Path

try:
    import robusthmm  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robusthmm import brute_force, solve
from robusthmm.control import decision_nodes
from robusthmm.config import load_config
from robusthmm.expectation import history_label

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "control_t3.json"


def main() -> None:
    problem = load_config(str(CONFIG)).control_problem()
    solution = solve(problem)
    print(f"optimal value: {solution.root_value:.6f}")
    exhaustive = brute_force(problem)
    print(f"exhaustive search over "
          f"{problem.n_controls ** len(decision_nodes(problem))} policies: {exhaustive:.6f} "
          f"(diff {abs(exhaustive - solution.root_value):.2e})")
    print("\noptimal policy (history -> control):")
    for history, u in solution.policy.items():
        print(f"  {history_label(history):>8} -> {problem.labels[u]}")
    print("\ndecisions (history | surface-state id -> control):")
    for (history, sid), record in sorted(solution.values.items()):
        if record.control is None:
            continue
        qs = ", ".join(f"{q:.4f}" for q in record.q_values)
        print(f"  {history_label(history):>8} | state {sid:3d} -> "
              f"{problem.labels[record.control]:6s} (q: {qs})")


if __name__ == "__main__":
    main()
