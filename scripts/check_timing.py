"""Time the composition checks and the whole ``check`` suite.

    PYTHONPATH=src python scripts/check_timing.py

Times ``check_supermultiplicative``, ``check_sincov(sincov_of(table))``,
``check_supermultiplicative_extended`` at its default span, and the whole
suite ``redblack check`` runs (its six reports plus fairness), on
``power_family(M, 2)``, ``exp_difference_table(M)`` and
``min_exp_table(M, 0.3)`` at M = 100, 200, 500 and 1000.  Each figure is
the best of a few runs.  The composition scans run one plane per middle
index, M + 1 planes of up to (M + 1)^2 terms, and each line ends with the
``supermultiplicative`` time per plane and per term, then the number of
terms the extended scan visits and its time per term.  At a tolerance
``>= 0`` the extended scan visits only the terms that can fail: the same
planes ``0 <= a <= M`` of (M - a + 1)^2 terms, not the (M + 7)^3 of its
cube.  The per-plane and per-term figures show two regimes: at M = 100 a
plane holds a few thousand terms and the fixed cost of its numpy calls is a
large share of its time, so the time per term is about twice the M = 1000
figure; from M = 500 on the time per term is flat, as the work per term
dominates.  Before timing, it checks the frozen sha256 of ``canonical_json``
over the suite's reports and the extended one, at the default witness cap
and at cap 1000, and exits 1 on a mismatch, so a faster scan that changes a
bit is caught at sizes the test suite does not reach.  It is kept out of the
test suite because the M = 1000 scans take seconds each.
"""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Any, Callable

import redblack as rb

REPEATS = 2
SIZES = (100, 200, 500, 1000)
CAPS = (rb.DEFAULT_WITNESS_CAP, 1000)
BUILDERS: dict[str, Callable[[int], rb.WinProbTable]] = {
    "power_family(M, 2)": lambda M: rb.power_family(M, 2),
    "exp_difference_table(M)": rb.exp_difference_table,
    "min_exp_table(M, 0.3)": lambda M: rb.min_exp_table(M, 0.3),
}
# sha256 of canonical_json(_reports(table, cap)), per builder, M and cap.
DIGESTS: dict[str, dict[int, dict[int, str]]] = {
    "power_family(M, 2)": {
        100: {
            16: "4760e4d68aaff8d64691c8df7d4fcce931dbee0b211ad43ff09ab1597bfb9bc8",
            1000: "82661edd8e9310c24f653ffe0a9ab09941a2d63d58131c5bac28e4c60c386067",
        },
        200: {
            16: "11747ca9b06fdcef34624111dc162b988d22aea379ed9a465becd63f5e537ef0",
            1000: "82bd7e283a16b431c0d376da91a07350b1974ea1d85a6ecb95a83989321e65a0",
        },
        500: {
            16: "29f19868a61ebc0b1a11dc7cd4b63efda746df965f7b144c241c5da109a9b615",
            1000: "dbcf5d59592f92fb9379580f0c3e66d6d9a48ff708c2bfee015b7e61cac6f910",
        },
        1000: {
            16: "25803e16d3c68cc1a31abebaf670349ec3a4dbfbc7afd28d16d550b5922053ff",
            1000: "e0d0a7d0ed6e3750528e698e6606f8568e28f50546ffdf59a39476748b4c4520",
        },
    },
    "exp_difference_table(M)": {
        100: {
            16: "4de8168154200cfbb0a9686cfe387d8262220028b7abc5b8ec0ab5e68ce61e43",
            1000: "b533dd5e390f0602cbac7e72a9620758a5af3f58e01bb2e4d061db66e86e76da",
        },
        200: {
            16: "638afae9f6edb85b388373495e9ed2c143586708b0927b9ad0947fa2875eb83f",
            1000: "19d306302d0cd7f666d8e1ec720ebae4f7e941fcf4dcc13820f56200d1b558ae",
        },
        500: {
            16: "72b670a27383066f4d68395abfa28e87720239a0934e72520b74fc20f3cd1415",
            1000: "caec2e40c7e8fbee5851c0a67b04c73aaf16145362dca80c6bf9ae7938611691",
        },
        1000: {
            16: "971af7e18a5358a14bb46ae45aca8bf450c1c1c31c49a5e6668b8674e6b35995",
            1000: "60dbc7e5754ab7cc1a9a5278109f85581dd132aaacdea7ecf05829512b97e06c",
        },
    },
    "min_exp_table(M, 0.3)": {
        100: {
            16: "7e4b943be33c1c31529f716930634082404c54e78b60f040d1bac1d73db1a6a8",
            1000: "44499d72db13cd6aa9fc08cf8f319c65076fa74a354573f701969434ee1bc16a",
        },
        200: {
            16: "10971b6b189a918240c20b199eabef2fd5e303131cb51e5744aeb973d5ed4225",
            1000: "f5add7273660a5c24791a28edd00211a7403e075d990e676b9474091aa597fa3",
        },
        500: {
            16: "113541d87e3b1c5b42908066bea61c8c5f382180337052ff2d96fb65943000f9",
            1000: "83a7a836db05590f594065ca0152184b3c3a3b2304584b15a7ca10f100df45f2",
        },
        1000: {
            16: "cee0a7770e5c6d9824ff8fe40202811182ad9a5b8683a8899276571a115543e1",
            1000: "1e4cc55fa365a6541de9cfc5c8e84ba3c1c99dcbc7c6bfcf5e29d3fc8804a6f8",
        },
    },
}


def _suite(table: rb.WinProbTable, cap: int) -> list[Any]:
    """The reports of ``redblack check``, in the order it writes them."""
    curve = rb.unit_bet_curve(table)
    return [
        rb.check_border(table, max_witnesses=cap),
        rb.check_bold_inequality(curve, max_witnesses=cap),
        rb.check_product_bound(curve, max_witnesses=cap),
        rb.check_supermultiplicative(table, max_witnesses=cap),
        rb.check_sincov(rb.sincov_of(table), max_witnesses=cap),
        rb.check_uniqueness_conditions(table, max_witnesses=cap),
        rb.check_fairness(table, max_witnesses=cap),
    ]


def _reports(table: rb.WinProbTable, cap: int) -> list[dict[str, Any]]:
    extended = rb.check_supermultiplicative_extended(rb.extend_table(table), max_witnesses=cap)
    return [report.to_json_dict() for report in [*_suite(table, cap), extended]]


def _digest(table: rb.WinProbTable, cap: int) -> str:
    return hashlib.sha256(rb.canonical_json(_reports(table, cap)).encode("utf-8")).hexdigest()


def _best(run: Callable[[], object]) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    failures = 0
    for M in SIZES:
        for name, build in BUILDERS.items():
            table = build(M)
            for cap in CAPS:
                digest, expected = _digest(table, cap), DIGESTS[name][M][cap]
                if digest != expected:
                    print(
                        f"{name} at M = {M}, cap {cap}: sha256 {digest}, expected {expected}",
                        file=sys.stderr,
                    )
                    failures += 1
            extended = rb.extend_table(table)
            timings = {
                "supermultiplicative": _best(lambda: rb.check_supermultiplicative(table)),
                "sincov": _best(lambda: rb.check_sincov(rb.sincov_of(table))),
                "extended": _best(lambda: rb.check_supermultiplicative_extended(extended)),
                "check suite": _best(lambda: _suite(table, rb.DEFAULT_WITNESS_CAP)),
            }
            terms = (M + 1) * (M + 2) * (2 * M + 3) // 6  # sum of the plane sizes (M - a + 1)^2
            per_plane = timings["supermultiplicative"] / (M + 1) * 1e6
            per_term = timings["supermultiplicative"] / terms * 1e9
            extended_terms = terms  # span 3 covers the planes a = 0..M of x, b in 0..M - a
            extended_per_term = timings["extended"] / extended_terms * 1e9
            label = f"M = {M}, {name}: "
            line = ", ".join(f"{key} {t:.3f} s" for key, t in timings.items())
            print(f"{label}{line}; {per_plane:.0f} us/plane, {per_term:.1f} ns/term; "
                  f"extended {extended_terms} terms, {extended_per_term:.1f} ns/term", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
