"""Truncation-based equilibrium approximations for Markov chains and jump
processes, with certified two-sided expectation bounds and weighted
total-variation guarantees from user-supplied drift certificates.

The names below are loaded on first access (PEP 562), so importing
``truncbound.cli`` loads no numerics and ``--threads`` can still cap the
BLAS and OpenMP pools before numpy starts them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CertificateError", "EnumerationLimitError", "IrreducibilityError",
        "ModelError", "NumericalError", "TruncboundError",
    ),
    "statespace": ("Partition", "StateSpace", "enumerate_space", "explicit_k_predicate"),
    "linalg": ("SubstochasticSolver", "is_irreducible", "stationary_small"),
    "censor": ("CensoredApprox", "TauFamily", "TruncationWorkspace"),
    "lyapunov": (
        "BoundInputs", "DriftCertificate", "DriftData", "DriftReport", "construct_K",
        "drift_excess", "evaluate_certificate", "moment_bound", "tail_mass_bound",
        "verify_certificate", "verify_drift",
    ),
    "bounds": (
        "BoundReport", "combine_signed", "compute_bounds", "delta2_bound", "ell_lower_bound",
        "minorization_bounds", "reward_interval", "tv_bound_general", "tv_bound_singleton",
    ),
    "ctmc": ("JumpModel", "embed", "exit_rate"),
    "models": ("DiscreteModel", "GM1Model", "GeometricLaw", "Model", "ToggleSwitchModel"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
