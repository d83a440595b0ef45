"""Counterexample witnesses, verdict reports and the one inequality kernel.

Every inequality check in this package runs through :func:`scan_slabs`, so
the semantics are uniform:

* a term ``lhs <= rhs`` counts as violated exactly when ``lhs > rhs + tol``;
* the exact number of violations is always counted, even past the witness cap;
* the retained witnesses are the first violations in scan order.

A check hands the kernel its terms as :class:`Slab` arrays, in ascending
order of the leading reported index: the whole range for a two-index
check, one two-dimensional plane per leading index ``x`` for a three-index
one.  Within a slab, positions are taken in C order, which is lexicographic
order of the reported index, so witnesses come out in lexicographic scan
order.  Memory is O(M^2) per slab.  Witnesses hold plain Python ints and
floats: the compared values are the same IEEE results a term-by-term scan
computes, so reports and the artifacts serialized from them do not depend
on how a scan is sliced.

Reports are plain frozen dataclasses with deterministic JSON dict forms, so
artifacts serialized from them are byte-identical across runs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

import numpy as np

DEFAULT_TOL = 1e-12
DEFAULT_WITNESS_CAP = 16


@dataclass(frozen=True)
class Witness:
    """One violating index, with both sides of the failed comparison.

    ``margin`` measures how badly the comparison failed (``lhs - rhs`` for
    one-sided checks; always positive for a genuine violation).  ``constraint``
    tags which sub-inequality of a multi-part check produced the witness.
    """

    index: tuple[int, ...]
    lhs: float
    rhs: float
    margin: float
    constraint: str = ""

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "index": list(self.index),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "constraint": self.constraint,
        }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality scan.

    ``violations`` is the exact total count; ``witnesses`` holds at most the
    cap requested by the caller (``None`` cap keeps every violation).
    ``skipped`` counts index combinations excluded because they would touch
    an undefined table entry.  ``flagged`` counts combinations that were
    evaluated but only involve entries unreachable in actual play; their
    violations still count.
    """

    name: str
    passed: bool
    violations: int
    witnesses: tuple[Witness, ...]
    skipped: int
    tolerance: float
    flagged: int = 0
    constraint_counts: tuple[tuple[str, int], ...] = ()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "check": self.name,
            "pass": self.passed,
            "violations": self.violations,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "skipped": self.skipped,
            "flagged": self.flagged,
            "tolerance": self.tolerance,
            "constraints": {label: n for label, n in self.constraint_counts},
        }


class Slab(NamedTuple):
    """One plane of an inequality scan: ``lhs <= rhs`` wherever ``valid`` holds.

    ``lhs``, ``rhs`` and ``valid`` broadcast to one shape.  ``index`` holds
    the coordinates of the reported index, each an int or an integer array
    broadcastable to that shape; a violation at position ``p`` reports
    ``tuple(c[p] for c in index)``.  Every position of a slab carries the
    tag ``constraint``.
    """

    lhs: Any
    rhs: Any
    valid: Any
    index: tuple[Any, ...]
    constraint: str


def scan_slabs(
    name: str,
    slabs: Iterable[Slab],
    *,
    tol: float = DEFAULT_TOL,
    max_witnesses: int | None = DEFAULT_WITNESS_CAP,
    skipped: int = 0,
    flagged: int = 0,
    strict: bool = False,
) -> CheckReport:
    """The inequality kernel: count and witness violations slab by slab.

    A valid position violates ``lhs <= rhs`` exactly when
    ``lhs > rhs + tol``.  With ``strict`` the requirement is instead the
    strict gap ``lhs > rhs + tol``, violated wherever that comparison fails,
    and a witness's ``margin`` is the shortfall ``rhs + tol - lhs``.  Slabs
    must arrive in report order; within a slab, violations are taken in C
    order of its positions.  A negative ``max_witnesses`` keeps none.
    """
    violations = 0
    witnesses: list[Witness] = []
    counts: dict[str, int] = {}
    for slab in slabs:
        lhs, rhs, valid = np.broadcast_arrays(slab.lhs, slab.rhs, slab.valid)
        hit = lhs > rhs + tol
        hit = (~hit if strict else hit) & valid
        found = int(np.count_nonzero(hit))
        if not found:
            continue
        violations += found
        counts[slab.constraint] = counts.get(slab.constraint, 0) + found
        room = found
        if max_witnesses is not None:
            room = max(0, min(found, max_witnesses - len(witnesses)))
        if room:
            witnesses.extend(_slab_witnesses(slab, hit, lhs, rhs, room, tol, strict))
    return CheckReport(
        name=name,
        passed=violations == 0,
        violations=violations,
        witnesses=tuple(witnesses),
        skipped=skipped,
        tolerance=tol,
        flagged=flagged,
        constraint_counts=tuple(sorted(counts.items())),
    )


def _slab_witnesses(
    slab: Slab,
    hit: np.ndarray,
    lhs: np.ndarray,
    rhs: np.ndarray,
    room: int,
    tol: float,
    strict: bool,
) -> list[Witness]:
    """The first ``room`` violations of one slab as plain-Python witnesses."""
    hit, lhs, rhs = np.atleast_1d(hit, lhs, rhs)  # a slab of scalars is one position
    pos = np.unravel_index(np.flatnonzero(hit)[:room], hit.shape)
    coords = [np.broadcast_to(c, hit.shape)[pos].tolist() for c in slab.index]
    indices = zip(*coords) if coords else itertools.repeat(())
    return [
        Witness(index, l, r, r + tol - l if strict else l - r, slab.constraint)
        for index, l, r in zip(indices, lhs[pos].tolist(), rhs[pos].tolist())
    ]


@dataclass(frozen=True)
class FairnessReport:
    """Classification of a table against the even-odds benchmark a/(a+b).

    Quantified over stake pairs that can actually occur in play
    (``0 < a + b <= M``).  ``above`` are entries strictly above the
    benchmark (they break the sub-fair direction), ``below`` strictly under
    it (they break the super-fair direction); both lists are lexicographic
    and capped, with exact counts alongside.
    """

    verdict: str
    above: tuple[Witness, ...]
    below: tuple[Witness, ...]
    above_count: int
    below_count: int
    unreachable_entries: int
    tolerance: float

    @property
    def is_subfair(self) -> bool:
        """No playable entry exceeds the even-odds benchmark."""
        return self.verdict in ("fair", "subfair")

    @property
    def is_superfair(self) -> bool:
        """No playable entry falls under the even-odds benchmark."""
        return self.verdict in ("fair", "superfair")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "above": [w.to_json_dict() for w in self.above],
            "below": [w.to_json_dict() for w in self.below],
            "above_count": self.above_count,
            "below_count": self.below_count,
            "unreachable_entries": self.unreachable_entries,
            "tolerance": self.tolerance,
        }


def canonical_json(payload: Any) -> str:
    """Serialize plain Python values deterministically: sorted keys, two-space
    indent, repr floats.  A nan or infinite float raises ``ValueError``."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
