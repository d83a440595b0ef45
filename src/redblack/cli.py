"""Command-line interface.

Subcommands: ``gen`` (build a table or curve artifact), ``check`` (full
inequality suite with witnesses), ``solve`` (exact values of a profile),
``nash`` (certify or refute an equilibrium), ``enum`` (all stationary
deterministic equilibria), ``sim`` (seeded Monte Carlo with exact
cross-check), ``report`` (render an artifact as text).

Exit codes: ``0`` success / verified / agreement; ``1`` at least one check
violated, equilibrium refuted, or simulation disagreement; ``2`` usage,
I/O or validation errors.

Every JSON artifact embeds a run manifest (tool version, subcommand,
parameters, input paths, seed, tolerance — no timestamps) and is written
with sorted keys and repr floats, so reruns are byte-identical.

The comparison tolerance resolves as ``--tol`` over the ``REDBLACK_TOL``
environment variable over the built-in default ``1e-12``; a non-finite
tolerance is a usage error.

Each subcommand imports only the layers it runs, so ``--help``,
``--version`` and ``report`` on anything but a table artifact never load
numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import __version__

if TYPE_CHECKING:
    from .game import Profile, WinProbTable

_ENV_TOL = "REDBLACK_TOL"


class _UsageError(Exception):
    """Invalid invocation or unreadable input; mapped to exit code 2."""


def _resolve_tol(arg_tol: float | None) -> float:
    if arg_tol is not None:
        tol = arg_tol
    else:
        raw = os.environ.get(_ENV_TOL)
        if raw is None:
            from .reports import DEFAULT_TOL

            return DEFAULT_TOL
        try:
            tol = float(raw)
        except ValueError as exc:
            raise _UsageError(f"{_ENV_TOL} must be a float, got {raw!r}") from exc
    if not math.isfinite(tol):
        raise _UsageError(f"tolerance must be finite, got {tol!r}")
    return tol


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_table(path: str) -> WinProbTable:
    from .game import WinProbTable

    payload = _read_json(path)
    try:
        return WinProbTable.from_json_dict(payload)
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"{path} is not a valid table artifact: {exc}") from exc


def _load_profile(spec: str, M: int) -> Profile:
    from .game import Profile

    if "-" in spec and not os.path.exists(spec):
        try:
            return Profile.from_name(spec, M)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    payload = _read_json(spec)
    try:
        profile = Profile.from_json_dict(payload)
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"{spec} is not a valid profile: {exc}") from exc
    if profile.M != M:
        raise _UsageError(f"profile money {profile.M} disagrees with table money {M}")
    return profile


def _manifest(
    subcommand: str,
    parameters: dict[str, Any],
    *,
    inputs: list[str] | None = None,
    seed: int | None = None,
    tolerance: float | None = None,
) -> dict[str, Any]:
    return {
        "tool": "redblack",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": inputs or [],
        "seed": seed,
        "tolerance": tolerance,
    }


def _emit(payload: dict[str, Any], out: str | None) -> None:
    from .reports import canonical_json

    text = canonical_json(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_gen(args: argparse.Namespace) -> int:
    from .families import (
        DecayParams,
        FamilyMember,
        curve_from_decay,
        exp_difference_table,
        family_infimum,
        min_exp_table,
        power_family,
    )

    family = args.family
    parameters: dict[str, Any] = {"M": args.M, "family": family}
    inputs: list[str] = []
    if family == "power":
        if args.p is None:
            raise _UsageError("--family power needs --p")
        parameters["p"] = args.p
        payload: dict[str, Any] = power_family(args.M, args.p).to_json_dict()
    elif family == "min-exp":
        if args.m is None:
            raise _UsageError("--family min-exp needs --m")
        parameters["m"] = args.m
        payload = min_exp_table(args.M, args.m).to_json_dict()
    elif family == "exp-diff":
        payload = exp_difference_table(args.M).to_json_dict()
    elif family == "k-exp":
        parameters["c"] = args.c
        if args.k_file is None:
            k = tuple(1.0 for _ in range(args.M + 1))
        else:
            inputs.append(args.k_file)
            raw = _read_json(args.k_file)
            values = raw.get("k") if isinstance(raw, dict) else raw
            try:
                if not isinstance(values, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
                ):
                    raise TypeError('expected a list of numbers, or an object with a "k" list')
                k = tuple(float(v) for v in values)
            except (TypeError, OverflowError) as exc:
                raise _UsageError(f"{args.k_file} is not a valid k file: {exc}") from exc
            parameters["k_file"] = args.k_file
        curve = curve_from_decay(DecayParams(k, args.c))
        if curve.M != args.M:
            raise _UsageError(
                f"--k-file holds {curve.M + 1} values but --M {args.M} needs {args.M + 1}"
            )
        payload = curve.to_json_dict()
    elif os.path.exists(family):
        inputs.append(family)
        raw = _read_json(family)
        try:
            members = tuple(FamilyMember.from_json_dict(m) for m in raw["members"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"{family} is not a valid gauge-family file: {exc}") from exc
        payload = family_infimum(args.M, members).to_json_dict()
    else:
        raise _UsageError(
            f"unknown family {family!r}: use power, min-exp, exp-diff, k-exp, "
            "or a path to a gauge-family JSON file"
        )
    payload["manifest"] = _manifest("gen", parameters, inputs=inputs)
    _emit(payload, args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .reports import DEFAULT_WITNESS_CAP
    from .game import check_border, check_fairness, unit_bet_curve
    from .families import sincov_of
    from .checks import (
        check_bold_inequality,
        check_product_bound,
        check_sincov,
        check_supermultiplicative,
        check_uniqueness_conditions,
    )

    tol = _resolve_tol(args.tol)
    cap = DEFAULT_WITNESS_CAP if args.max_witnesses is None else args.max_witnesses
    if cap < 0:
        raise _UsageError(f"--max-witnesses must be >= 0, got {cap}")
    table = _load_table(args.table)
    curve = unit_bet_curve(table)
    reports = [
        check_border(table, tol=tol, max_witnesses=cap),
        check_bold_inequality(curve, tol=tol, max_witnesses=cap),
        check_product_bound(curve, tol=tol, max_witnesses=cap),
        check_supermultiplicative(table, tol=tol, max_witnesses=cap),
        check_sincov(sincov_of(table), tol=tol, max_witnesses=cap),
        check_uniqueness_conditions(table, max_witnesses=cap),
    ]
    fairness = check_fairness(table, tol=tol, max_witnesses=cap)
    ok = all(report.passed for report in reports)
    payload = {
        "manifest": _manifest(
            "check",
            {"table": args.table, "max_witnesses": cap},
            inputs=[args.table],
            tolerance=tol,
        ),
        "M": table.M,
        "pass": ok,
        "fairness": fairness.to_json_dict(),
        "checks": [report.to_json_dict() for report in reports],
    }
    _emit(payload, args.out)
    return 0 if ok else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    from .game import unit_bet_curve
    from .solver import absorption_certain, hitting_values, product_form_values

    table = _load_table(args.table)
    if args.x0 is not None and not 0 <= args.x0 <= table.M:
        raise _UsageError(f"initial fortune {args.x0} outside 0..{table.M}")
    profile = _load_profile(args.profile, table.M)
    values = hitting_values(table, profile)
    absorbing = absorption_certain(table, profile)
    exact = product_form_values(profile, unit_bet_curve(table))
    payload: dict[str, Any] = {
        "manifest": _manifest(
            "solve",
            {"table": args.table, "profile": args.profile, "method": "auto", "x0": args.x0},
            inputs=[args.table],
        ),
        "M": table.M,
        "profile": profile.to_json_dict(),
        "absorbing": absorbing,
        "values": values.to_json_dict(),
        "product_form": None if exact is None else list(exact.q),
    }
    if args.x0 is not None:
        payload["x0"] = args.x0
        payload["value_I"] = values.q[args.x0]
        payload["value_II"] = values.t[args.x0]
    _emit(payload, args.out)
    return 0


def _cmd_nash(args: argparse.Namespace) -> int:
    from .solver import verify_nash

    tol = _resolve_tol(args.tol)
    table = _load_table(args.table)
    profile = _load_profile(args.profile, table.M)
    certificate = verify_nash(table, profile, args.x0, tol=tol)
    payload = {
        "manifest": _manifest(
            "nash",
            {"table": args.table, "profile": args.profile, "x0": args.x0},
            inputs=[args.table],
            tolerance=tol,
        ),
        "certificate": certificate.to_json_dict(),
    }
    _emit(payload, args.out)
    return 0 if certificate.equilibrium else 1


def _cmd_enum(args: argparse.Namespace) -> int:
    from .solver import DEFAULT_ENUM_CAP, enumerate_equilibria, strategy_count

    tol = _resolve_tol(args.tol)
    cap = DEFAULT_ENUM_CAP if args.cap is None else args.cap
    table = _load_table(args.table)
    found = enumerate_equilibria(table, args.x0, tol=tol, cap=cap)
    payload = {
        "manifest": _manifest(
            "enum",
            {"table": args.table, "x0": args.x0, "cap": cap},
            inputs=[args.table],
            tolerance=tol,
        ),
        "M": table.M,
        "x0": args.x0,
        "strategies_per_player": strategy_count(table.M),
        "count": len(found),
        "equilibria": found.to_json_dicts(),
    }
    _emit(payload, args.out)
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    if args.traj_limit < 0:
        raise _UsageError(f"--traj-limit must be nonnegative, got {args.traj_limit}")
    from .solver import hitting_values
    from .montecarlo import SimConfig, compare_exact, replay_trials, simulate

    table = _load_table(args.table)
    profile = _load_profile(args.profile, table.M)
    config = SimConfig(x0=args.x0, trials=args.trials, seed=args.seed, horizon=args.horizon)
    result = simulate(table, profile, config, jobs=args.jobs)
    values = hitting_values(table, profile)
    agreement = compare_exact(result, values)
    if args.traj_csv is not None:
        limit = min(args.traj_limit, config.trials)
        with open(args.traj_csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["trial", "stage", "fortune", "stake_I", "stake_II"])
            for path in replay_trials(table, profile, config, range(limit)):
                writer.writerows((path.trial, *stage) for stage in path.stages)
    payload = {
        "manifest": _manifest(
            "sim",
            {
                "table": args.table,
                "profile": args.profile,
                "x0": args.x0,
                "trials": args.trials,
                "horizon": args.horizon,
                "jobs": args.jobs,
            },
            inputs=[args.table],
            seed=args.seed,
        ),
        "result": result.to_json_dict(),
        "exact": {"player_I": list(values.q), "value_at_x0": values.q[args.x0]},
        "agreement": agreement.to_json_dict(),
    }
    _emit(payload, args.out)
    return 0 if agreement.passed else 1


def _render_report(payload: dict[str, Any]) -> list[str]:
    lines: list[str] = []
    manifest = payload.get("manifest", {})
    if manifest:
        lines.append(
            f"{manifest.get('tool', '?')} {manifest.get('version', '?')} "
            f"— {manifest.get('subcommand', '?')}"
        )
    if "entries" in payload:
        from .game import WinProbTable

        lines.append(f"win-probability table, money M = {payload['M']}")
        table = WinProbTable.from_json_dict(payload)
        lines.extend(table.to_csv().rstrip("\n").split("\n"))
    elif "curve" in payload:
        lines.append(f"unit-bet curve, money M = {payload['M']}")
        lines.append(" ".join(repr(v) for v in payload["curve"]))
    elif "checks" in payload:
        lines.append(f"check suite: {'pass' if payload['pass'] else 'FAIL'}")
        fairness = payload["fairness"]
        lines.append(
            f"  fairness: {fairness['verdict']} "
            f"(above {fairness['above_count']}, below {fairness['below_count']})"
        )
        for report in payload["checks"]:
            status = "pass" if report["pass"] else "FAIL"
            lines.append(
                f"  {report['check']}: {status} "
                f"({report['violations']} violations, {report['skipped']} skipped)"
            )
            for witness in report["witnesses"][:4]:
                lines.append(
                    f"    at {tuple(witness['index'])}: lhs={witness['lhs']:.12g} "
                    f"rhs={witness['rhs']:.12g} margin={witness['margin']:.3g}"
                )
    elif "certificate" in payload:
        certificate = payload["certificate"]
        verdict = "equilibrium" if certificate["equilibrium"] else "REFUTED"
        lines.append(
            f"nash at x0={certificate['x0']}: {verdict} "
            f"via {certificate['method']} (coverage: {certificate['coverage']})"
        )
        lines.append(
            f"  value_I = {certificate['value_I']:.12g}, "
            f"value_II = {certificate['value_II']:.12g}"
        )
        if certificate["deviation"] is not None:
            deviation = certificate["deviation"]
            lines.append(
                f"  player {deviation['player']} improves to {deviation['value']:.12g} "
                f"(gain {deviation['gain']:.6g}) with stakes {deviation['strategy']['bets']}"
            )
    elif "equilibria" in payload:
        lines.append(
            f"equilibria at x0={payload['x0']}: {payload['count']} profile(s) "
            f"among {payload['strategies_per_player']}^2"
        )
        for certificate in payload["equilibria"]:
            profile = certificate["profile"]
            lines.append(
                f"  I stakes {profile['player_I']} / II stakes {profile['player_II']}: "
                f"value_I = {certificate['value_I']:.12g}"
            )
    elif "result" in payload:
        result = payload["result"]
        agreement = payload["agreement"]
        z = agreement["z"]
        lines.append(
            f"simulation: {result['trials']} trials from x0={result['x0']}, "
            f"freq_I = {result['freq_I']:.6g} vs exact {agreement['exact']:.12g}"
        )
        lines.append(
            f"  z = {'n/a' if z is None else format(z, '.4g')}, "
            f"truncated fraction = {result['truncated_fraction']:.3g}, "
            f"agreement: {'pass' if agreement['passed'] else 'FAIL'}"
        )
    elif "values" in payload:
        lines.append(f"values for profile on M = {payload['M']}")
        lines.append(f"  player I:  {payload['values']['player_I']}")
        lines.append(f"  player II: {payload['values']['player_II']}")
    else:
        raise _UsageError("unrecognized artifact shape")
    return lines


def _cmd_report(args: argparse.Namespace) -> int:
    payload = _read_json(args.artifact)
    if not isinstance(payload, dict):
        raise _UsageError("artifact must be a JSON object")
    for line in _render_report(payload):
        sys.stdout.write(line + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redblack",
        description="Two-person red-and-black stake game: tables, checks, "
        "exact values, equilibrium certificates, Monte Carlo.",
    )
    parser.add_argument("--version", action="version", version=f"redblack {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate a table or curve artifact")
    gen.add_argument("--M", type=int, required=True, help="total money in play")
    gen.add_argument(
        "--family",
        required=True,
        help="power | min-exp | exp-diff | k-exp | path to a gauge-family JSON",
    )
    gen.add_argument("--p", type=float, default=None, help="exponent for --family power")
    gen.add_argument("--m", type=float, default=None, help="rate for --family min-exp")
    gen.add_argument("--c", type=float, default=1.0, help="decay rate for --family k-exp")
    gen.add_argument("--k-file", default=None, help="JSON factor values for --family k-exp")
    gen.add_argument("--out", default=None, help="output path (default stdout)")

    check = sub.add_parser("check", help="run the full inequality suite on a table")
    check.add_argument("--table", required=True)
    check.add_argument("--tol", type=float, default=None)
    check.add_argument("--max-witnesses", type=int, default=None)
    check.add_argument("--out", default=None)

    solve = sub.add_parser("solve", help="exact values of a profile")
    solve.add_argument("--table", required=True)
    solve.add_argument("--profile", default="bold-timid", help="name like bold-timid, or a JSON path")
    solve.add_argument("--x0", type=int, default=None)
    solve.add_argument("--out", default=None)

    nash = sub.add_parser("nash", help="certify or refute an equilibrium at x0")
    nash.add_argument("--table", required=True)
    nash.add_argument("--profile", default="bold-timid")
    nash.add_argument("--x0", type=int, required=True)
    nash.add_argument("--tol", type=float, default=None)
    nash.add_argument("--out", default=None)

    enum = sub.add_parser("enum", help="all stationary deterministic equilibria at x0")
    enum.add_argument("--table", required=True)
    enum.add_argument("--x0", type=int, required=True)
    enum.add_argument("--tol", type=float, default=None)
    enum.add_argument("--cap", type=int, default=None)
    enum.add_argument("--out", default=None)

    sim = sub.add_parser("sim", help="seeded Monte Carlo with exact cross-check")
    sim.add_argument("--table", required=True)
    sim.add_argument("--profile", default="bold-timid")
    sim.add_argument("--x0", type=int, required=True)
    sim.add_argument("--trials", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--horizon", type=int, default=None)
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--traj-csv", default=None, help="write replayed trajectories as CSV")
    sim.add_argument("--traj-limit", type=int, default=10)
    sim.add_argument("--out", default=None)

    report = sub.add_parser("report", help="render an artifact as text")
    report.add_argument("artifact")
    return parser


def _expected_errors() -> tuple[type[Exception], ...]:
    """Errors reported as exit 2.  A ``GameError`` can only be raised once
    ``game`` has loaded, so it is looked up when an error is being matched."""
    errors = (ValueError, IndexError, KeyError, OSError, RuntimeError)
    game = sys.modules.get(f"{__package__}.game")
    return errors if game is None else (game.GameError, *errors)


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "gen": _cmd_gen,
        "check": _cmd_check,
        "solve": _cmd_solve,
        "nash": _cmd_nash,
        "enum": _cmd_enum,
        "sim": _cmd_sim,
        "report": _cmd_report,
    }
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse: 0 for --help/--version, 2 for usage
        return int(exit_.code or 0)
    try:
        return handlers[args.subcommand](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _expected_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
