"""Two-person red-and-black stake game.

Library for constructing win-probability tables, verifying the functional
inequalities that govern bold and timid play, computing exact hitting
values of strategy profiles, certifying or refuting Nash equilibria, and
cross-checking everything with seeded Monte Carlo simulation.

Every name in ``__all__`` is re-exported from the module that defines it,
and loads on first use: ``import redblack`` imports neither numpy nor any
submodule, and ``redblack.simulate`` imports ``redblack.montecarlo`` (and
what it depends on) the first time it is read.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Home module -> the names it exports, in dependency order.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "reports": (
        "DEFAULT_TOL",
        "DEFAULT_WITNESS_CAP",
        "CheckReport",
        "FairnessReport",
        "Witness",
        "canonical_json",
    ),
    "game": (
        "GameError",
        "IllegalBetError",
        "Player",
        "Profile",
        "StationaryStrategy",
        "UndefinedEntryError",
        "UnitBetCurve",
        "WinProbTable",
        "bold_strategy",
        "check_border",
        "check_fairness",
        "timid_strategy",
        "unit_bet_curve",
    ),
    "families": (
        "DecayParams",
        "ExtendedTable",
        "FamilyMember",
        "SincovTable",
        "check_submultiplicative",
        "curve_from_decay",
        "exp_difference_table",
        "exp_member",
        "explicit_member",
        "extend_table",
        "family_infimum",
        "min_exp_table",
        "power_family",
        "power_member",
        "sincov_of",
        "table_of_sincov",
    ),
    "checks": (
        "check_bold_inequality",
        "check_product_bound",
        "check_sincov",
        "check_supermultiplicative",
        "check_supermultiplicative_extended",
        "check_uniqueness_conditions",
    ),
    "solver": (
        "BestResponse",
        "Deviation",
        "EnumerationLimitError",
        "EquilibriumCertificate",
        "ValueVector",
        "absorption_certain",
        "all_strategies",
        "best_response",
        "bold_timid_values",
        "check_bold_excessive",
        "check_timid_excessive",
        "enumerate_equilibria",
        "hitting_values",
        "strategy_count",
        "verify_nash",
    ),
    "montecarlo": (
        "AgreementReport",
        "SimConfig",
        "SimResult",
        "TrialPath",
        "compare_exact",
        "replay_trial",
        "replay_trials",
        "simulate",
        "step_uniform",
        "trial_key",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
