"""Spans around calls into redblack's public functions, and the per-layer
metrics computed from them.

:meth:`Tracer.install` replaces every public function of the package with a
wrapper in every module namespace that holds it, so that a call made through
``redblack.cli`` (which imports solver and checks functions by name) or from
one module into another is recorded as well.  A span is
``[id, parent, name, start_ns, end_ns, attrs]``; spans stay in memory and are
written out once, at the end.  Counts that happen behind private helpers are
computed from a call's inputs (see ``_HOOKS``), not observed.

Importing this module imports neither ``redblack`` nor numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import threading
import time
from pathlib import Path

LAYERS = ("cli", "game", "families", "checks", "solver", "montecarlo", "reports")
_NAMESPACES = tuple(f"redblack.{layer}" for layer in LAYERS) + ("redblack",)
# Called once per simulated stage inside replay_trial: a span would cost
# more than the call it measures.
_UNTRACED = frozenset({"step_uniform", "trial_key"})


def _supermultiplicative_terms(M: int) -> int:
    """0 <= x <= M, 0 <= a <= M - x, 0 <= b <= M - a, minus the M + 1 with x = a = 0."""
    return sum(M - a + 1 for x in range(M + 1) for a in range(M - x + 1)) - (M + 1)


def _check_terms(name: str, args: tuple, kwargs: dict) -> int:
    """Terms a checker evaluates, from the index ranges in its docstring."""
    M = args[0].M
    if name == "check_bold_inequality":
        return (M + 1) * (M + 2) // 2 + M
    if name == "check_product_bound":
        return (M + 1) * (M + 2) // 2
    if name == "check_supermultiplicative":
        return _supermultiplicative_terms(M)
    if name == "check_supermultiplicative_extended":
        span = kwargs.get("span", 3)
        n = M + 2 * span + 1
        # Skipped: (x, a) = (0, 0) for every b, (x + a, b) = (0, 0) and
        # (x, a + b) = (0, 0) for a in -span..span; overlaps only at (0, 0, 0).
        return n**3 - (n + 4 * span)
    if name == "check_sincov":
        return math.comb(M + 3, 3) - (M + 1)
    if name == "check_uniqueness_conditions":
        return 2 * M
    raise KeyError(name)


class Tracer:
    """Collects spans for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._enumerated: set = set()
        self._installed = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start_ns: int, end_ns: int, attrs: dict | None = None) -> None:
        """Add a span measured elsewhere, such as a child process's lifetime."""
        stack = self._stack()
        self.spans.append([len(self.spans), stack[-1] if stack else None, name, start_ns, end_ns, attrs])

    def call(self, name: str, func, *args, **kwargs):
        stack = self._stack()
        span = [len(self.spans), stack[-1] if stack else None, name, time.monotonic_ns(), 0, None]
        self.spans.append(span)
        stack.append(span[0])
        try:
            result = func(*args, **kwargs)
        finally:
            span[4] = time.monotonic_ns()
            stack.pop()
        hook = _HOOKS.get(name)
        if hook is not None:
            span[5] = hook(self, args, kwargs, result)
        return result

    def wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every public redblack function in every namespace holding it."""
        if self._installed:
            return
        self._installed = True
        wrapped: dict[int, object] = {}
        for module_name in _NAMESPACES:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or attr in _UNTRACED or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("redblack."):
                    continue
                if id(obj) not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrapped[id(obj)])
        from redblack.game import WinProbTable

        loader = WinProbTable.__dict__["from_json_dict"].__func__
        WinProbTable.from_json_dict = classmethod(self.wrap(loader, "game.WinProbTable.from_json_dict"))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _enum_hook(tracer: Tracer, args, kwargs, result) -> dict:
    table = args[0]
    cold = table not in tracer._enumerated  # lru_cache keys tables by value, as here
    tracer._enumerated.add(table)
    solved = math.factorial(table.M - 1) ** 2 if cold else 0
    return {"enum_cold": int(cold), "enum_warm": int(not cold),
            "profiles_solved": solved, "equilibria_found": len(result)}


def _checks_hook(name: str):
    def hook(tracer, args, kwargs, result) -> dict:
        return {"terms": _check_terms(name, args, kwargs), "violations": result.violations}

    return hook


_HOOKS = {
    "game.WinProbTable.from_json_dict": lambda t, a, k, r: {"table_entries": (r.M + 1) ** 2},
    "solver.enumerate_equilibria": _enum_hook,
    "solver.hitting_values": lambda t, a, k, r: {"method": k.get("method", "auto")},
    "montecarlo.simulate": lambda t, a, k, r: {"trial_steps": r.total_steps},
    "reports.canonical_json": lambda t, a, k, r: {"artifact_bytes": len(r)},
}
_CHECKERS = ("check_bold_inequality", "check_product_bound", "check_supermultiplicative",
             "check_supermultiplicative_extended", "check_sincov", "check_uniqueness_conditions")
for _name in _CHECKERS:
    _HOOKS[f"checks.{_name}"] = _checks_hook(_name)


def load_spans(path: Path) -> list[list]:
    """Spans as ``[process, id, parent, name, start_ns, end_ns, attrs]``,
    where ``process`` is the name of the file one process wrote."""
    with open(path, encoding="utf-8") as handle:
        return [[path.name, *json.loads(line)] for line in handle]


# Inclusive time of each metric: calls nested inside another call of the same
# group are not counted twice.
_TIMED = {
    "game.table_load_s": ["game.WinProbTable.from_json_dict"],
    "game.check_border_s": ["game.check_border"],
    "game.check_fairness_s": ["game.check_fairness"],
    "families.build_s": [f"families.{n}" for n in (
        "power_family", "family_infimum", "min_exp_table", "exp_difference_table",
        "curve_from_decay", "table_of_sincov", "power_member", "exp_member", "explicit_member")],
    "families.sincov_of_s": ["families.sincov_of"],
    "families.extend_table_s": ["families.extend_table"],
    "checks.bold_inequality_s": ["checks.check_bold_inequality"],
    "checks.product_bound_s": ["checks.check_product_bound"],
    "checks.supermultiplicative_s": ["checks.check_supermultiplicative"],
    "checks.supermultiplicative_extended_s": ["checks.check_supermultiplicative_extended"],
    "checks.sincov_s": ["checks.check_sincov"],
    "checks.uniqueness_s": ["checks.check_uniqueness_conditions"],
    "solver.enumerate_equilibria_s": ["solver.enumerate_equilibria"],
    "solver.verify_nash_s": ["solver.verify_nash"],
    "solver.enumerate_best_response_s": ["solver.enumerate_best_response"],
    "solver.best_response_s": ["solver.best_response"],
    "solver.hitting_values_s": ["solver.hitting_values"],
    "solver.excessive_checks_s": ["solver.check_bold_excessive", "solver.check_timid_excessive"],
    "montecarlo.simulate_s": ["montecarlo.simulate"],
    "montecarlo.replay_trial_s": ["montecarlo.replay_trial"],
    "montecarlo.compare_exact_s": ["montecarlo.compare_exact"],
    "reports.canonical_json_s": ["reports.canonical_json"],
}
_CLI_SUBCOMMANDS = ("gen", "check", "solve", "nash", "enum", "sim", "report")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (spans of every process)."""
    by_key = {(s[0], s[1]): s for s in spans}

    def ancestors(span):
        parent = span[2]
        while parent is not None:
            span = by_key[(span[0], parent)]
            yield span
            parent = span[2]

    def attrs(span) -> dict:
        return span[6] or {}  # None when the call raised

    def duration(span) -> float:
        return (span[5] - span[4]) / 1e9

    def top_level(names) -> list[list]:
        names = set(names)
        return [s for s in spans if s[3] in names and not any(a[3] in names for a in ancestors(s))]

    def total(names) -> float:
        return sum(duration(s) for s in top_level(names))

    def attr_sum(key: str, name_prefix: str = "") -> int:
        return sum(attrs(s).get(key, 0) for s in spans if s[3].startswith(name_prefix))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[3] == name)

    out = {metric: total(names) for metric, names in _TIMED.items()}

    processes = [s for s in spans if s[3] == "bench.cli_process"]
    imports = [duration(s) for s in spans if s[3] == "cli.import"]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for sub in _CLI_SUBCOMMANDS:
        times = [duration(s) for s in processes if attrs(s).get("subcommand") == sub]
        out[f"cli.{sub}_s"] = statistics.median(times) if times else 0.0
    out["cli.invocations"] = len(processes)

    out["game.table_entries"] = attr_sum("table_entries")

    out["checks.terms"] = attr_sum("terms", "checks.")
    out["checks.violations"] = attr_sum("violations", "checks.")
    scan_time = total([f"checks.{n}" for n in _CHECKERS])
    out["checks.terms_per_s"] = _ratio(out["checks.terms"], scan_time)

    enum = "solver.enumerate_equilibria"
    out["solver.enum_cold_calls"] = attr_sum("enum_cold", enum)
    out["solver.enum_warm_calls"] = attr_sum("enum_warm", enum)
    out["solver.profiles_solved"] = attr_sum("profiles_solved", enum)
    out["solver.equilibria_found"] = attr_sum("equilibria_found", enum)
    cold_time = sum(duration(s) for s in spans if s[3] == enum and attrs(s).get("enum_cold"))
    out["solver.profiles_per_s"] = _ratio(out["solver.profiles_solved"], cold_time)
    out["solver.best_response_calls"] = calls("solver.best_response")
    out["solver.hitting_values_calls"] = calls("solver.hitting_values")
    out["solver.hitting_iterate_s"] = sum(
        duration(s) for s in top_level(["solver.hitting_values"]) if attrs(s).get("method") == "iterate"
    )

    out["montecarlo.trial_steps"] = attr_sum("trial_steps")
    out["montecarlo.steps_per_s"] = _ratio(out["montecarlo.trial_steps"], out["montecarlo.simulate_s"])
    out["montecarlo.replay_calls"] = calls("montecarlo.replay_trial")

    out["reports.artifact_bytes"] = attr_sum("artifact_bytes")

    # Self time: a span's duration less the part its child spans cover.
    # Spans of one process are nested and single-threaded, so children do
    # not overlap.  Benchmark spans (bench.*) and the interpreter start
    # before cli.import are not attributed to any layer.
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s[2] is not None:
            child_time[(s[0], s[2])] = child_time.get((s[0], s[2]), 0.0) + duration(s)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        layer = s[3].split(".", 1)[0]
        if layer in LAYERS and s[3] != "cli.import":
            out[f"{layer}.self_s"] += duration(s) - child_time.get((s[0], s[1]), 0.0)
    return out
