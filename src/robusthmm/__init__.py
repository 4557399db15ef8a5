"""Robust filtering of finite-state hidden Markov chains under model
uncertainty: penalty surfaces over the belief simplex, worst-case
expectations, backward consistent valuation, and robust control."""

__version__ = "0.1.0"

from .errors import (CapExceeded, ConfigError, DegenerateObservation,
                     InfeasibleSurface, RobustHMMError)
from .hmm import (Generator, Path, as_filter_state, filter_step,
                  obs_predictive, predict, simulate_path)
from .models import (DR, DYNAMIC, STATIC, UP, GeneratorGrid, PriorSpec,
                     SimplexGrid, gamma_at, parse_framework)
from .penalty import (ExactPrior, ExactSurface, ExtendedPenaltySurface,
                      PenaltySurface, StepReport, evolve, evolve_exact_tree,
                      exact_step, forward_image_step, initial_exact_surface,
                      initial_grid_surface, project, render_surface_csv)
from .expectation import (ObservationTree, StateFunctional, TreeSetup,
                          UncertaintyParams, backward_expectation,
                          bsde_decompose, bsde_driver, build_observation_tree,
                          dr_expectation, fill_backward, one_step_expectation,
                          penalty_to_rho, tree_document)
from .control import (ControlProblem, ControlSolution, ControlValue,
                      brute_force, evaluate_policy, solve, terminal_value)
from .oracles import (OracleReport, bernoulli_closed_forms, oracle_dr_direct,
                      oracle_penalty, render_report_csv)
