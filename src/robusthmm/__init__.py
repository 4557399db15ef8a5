"""Robust filtering of finite-state hidden Markov chains under model
uncertainty: penalty surfaces over the belief simplex, worst-case
expectations, backward consistent valuation, and robust control.

The public names below are resolved on first use (PEP 562), so importing
the package, or one of its modules, loads only the modules actually used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it defines
    "errors": ("CapExceeded", "ConfigError", "DegenerateObservation",
               "InfeasibleSurface", "RobustHMMError"),
    "hmm": ("Generator", "Path", "as_filter_state", "filter_step",
            "simulate_path"),
    "models": ("DR", "DYNAMIC", "STATIC", "UP", "GeneratorGrid",
               "SimplexGrid", "UncertaintyParams", "parse_framework"),
    "penalty": ("ExactSurface", "ExtendedPenaltySurface", "PenaltySurface",
                "StepReport", "evolve", "exact_step", "forward_image_step",
                "initial_exact_surface", "initial_grid_surface",
                "render_surface_csv"),
    "expectation": ("ObservationTree", "StateFunctional", "TreeSetup",
                    "backward_expectation", "bsde_decompose", "bsde_driver",
                    "build_observation_tree", "dr_expectation",
                    "fill_backward", "one_step_expectation",
                    "tree_document"),
    "control": ("ControlProblem", "ControlSolution", "ControlValue",
                "brute_force", "evaluate_policy", "solve"),
    "oracles": ("OracleReport", "bernoulli_closed_forms", "oracle_dr_direct",
                "oracle_penalty", "render_report_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
    elif name in _EXPORTS:  # ``robusthmm.models`` after ``import robusthmm``
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
