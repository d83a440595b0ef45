"""Two-person red-and-black stake game.

Library for constructing win-probability tables, verifying the functional
inequalities that govern bold and timid play, computing exact hitting
values of strategy profiles, certifying or refuting Nash equilibria, and
cross-checking everything with seeded Monte Carlo simulation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .reports import (
    DEFAULT_TOL,
    DEFAULT_WITNESS_CAP,
    CheckReport,
    FairnessReport,
    Witness,
    canonical_json,
)
from .game import (
    GameError,
    IllegalBetError,
    Player,
    Profile,
    StationaryStrategy,
    UndefinedEntryError,
    UnitBetCurve,
    WinProbTable,
    bold_strategy,
    check_border,
    check_fairness,
    timid_strategy,
    unit_bet_curve,
)
from .families import (
    DecayParams,
    ExtendedTable,
    FamilyMember,
    SincovTable,
    check_submultiplicative,
    curve_from_decay,
    exp_difference_table,
    exp_member,
    explicit_member,
    extend_table,
    family_infimum,
    min_exp_table,
    power_family,
    power_member,
    sincov_of,
    table_of_sincov,
)
from .checks import (
    check_bold_inequality,
    check_product_bound,
    check_sincov,
    check_supermultiplicative,
    check_supermultiplicative_extended,
    check_uniqueness_conditions,
)
from .solver import (
    BestResponse,
    Deviation,
    EnumeratedBestResponse,
    EnumerationLimitError,
    EquilibriumCertificate,
    ValueVector,
    absorption_certain,
    all_strategies,
    best_response,
    bold_timid_values,
    check_bold_excessive,
    check_timid_excessive,
    enumerate_best_response,
    enumerate_equilibria,
    hitting_values,
    strategy_count,
    verify_nash,
)
from .montecarlo import (
    AgreementReport,
    SimConfig,
    SimResult,
    TrialPath,
    compare_exact,
    replay_trial,
    simulate,
    step_uniform,
    trial_key,
)

__all__ = [
    "__version__",
    # reports
    "DEFAULT_TOL",
    "DEFAULT_WITNESS_CAP",
    "CheckReport",
    "FairnessReport",
    "Witness",
    "canonical_json",
    # game
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
    # families
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
    # checks
    "check_bold_inequality",
    "check_product_bound",
    "check_sincov",
    "check_supermultiplicative",
    "check_supermultiplicative_extended",
    "check_uniqueness_conditions",
    # solver
    "BestResponse",
    "Deviation",
    "EnumeratedBestResponse",
    "EnumerationLimitError",
    "EquilibriumCertificate",
    "ValueVector",
    "absorption_certain",
    "all_strategies",
    "best_response",
    "bold_timid_values",
    "check_bold_excessive",
    "check_timid_excessive",
    "enumerate_best_response",
    "enumerate_equilibria",
    "hitting_values",
    "strategy_count",
    "verify_nash",
    # montecarlo
    "AgreementReport",
    "SimConfig",
    "SimResult",
    "TrialPath",
    "compare_exact",
    "replay_trial",
    "simulate",
    "step_uniform",
    "trial_key",
]
