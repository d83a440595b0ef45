"""Counterexample witnesses, verdict reports and the one inequality kernel.

Every inequality check in this package runs through :func:`scan_slabs`, so
the semantics are uniform:

* a term ``lhs <= rhs`` counts as violated exactly when ``lhs > rhs + tol``;
* the exact number of violations is always counted, even past the witness cap;
* the retained witnesses are the first violations ordered by constraint,
  in the order the constraints first appear, then by reported index.

A check hands the kernel its terms as :class:`Slab` arrays, in any order:
the whole range for a two-index check, one plane per middle index for a
three-index one.  Within a slab, C order must be the order of the reported
index; once the cap is full, the kernel reads only the rows of a slab whose
leading index can still enter it.  Memory is O(M^2) per slab.  Witnesses
hold plain Python ints and floats: the compared values are the same IEEE
results a term-by-term scan computes, so reports and the artifacts
serialized from them do not depend on how a scan is sliced.

Reports are plain frozen dataclasses with deterministic JSON dict forms, so
artifacts serialized from them are byte-identical across runs.
"""

from __future__ import annotations

import bisect
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
    ``tuple(c[p] for c in index)``, and C order of the positions must be
    the order of their reported indices.  Every position of a slab carries
    the tag ``constraint``.  ``bound``, when given, must equal
    ``np.add(rhs, tol)`` bit for bit under the tolerance of the scan; a
    check that compares many planes with one table computes ``table + tol``
    once and passes views of it, since ``(A + tol)[view]`` is
    ``A[view] + tol`` elementwise.
    """

    lhs: Any
    rhs: Any
    valid: Any
    index: tuple[Any, ...]
    constraint: str
    bound: Any = None


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
    and a witness's ``margin`` is the shortfall ``rhs + tol - lhs``.  The
    witnesses kept are the first ``max_witnesses`` ordered by constraint, in
    the order the constraints first appear, then by reported index, so slabs
    may arrive in any order.  A negative ``max_witnesses`` keeps none.
    A slab's ``bound`` stands in for ``rhs + tol`` in the comparison and
    must be that sum to the bit; ``rhs`` is still what a witness reports.
    """
    cap = None if max_witnesses is None else max(0, max_witnesses)
    violations = 0
    witnesses: list[Witness] = []
    counts: dict[str, int] = {}
    rank: dict[str, int] = {}

    def key(w: Witness) -> tuple[int, tuple[int, ...]]:
        return rank[w.constraint], w.index

    for slab in slabs:
        order = rank.setdefault(slab.constraint, len(rank))
        bound = np.add(slab.rhs, tol) if slab.bound is None else slab.bound
        hit = np.greater(slab.lhs, bound)
        if strict:
            hit = ~hit
        if slab.valid is not True:
            hit = hit & slab.valid
        hit = hit if hit.ndim else hit.reshape(1)  # a slab of scalars is one position
        found = int(np.count_nonzero(hit))
        if not found:
            continue
        violations += found
        counts[slab.constraint] = counts.get(slab.constraint, 0) + found
        last = witnesses[-1] if cap and len(witnesses) == cap else None
        if cap == 0 or last and order > rank[last.constraint]:
            continue
        before = last.index if last and order == rank[last.constraint] else None
        new = _slab_witnesses(slab, hit, cap, tol, strict, before)
        if cap is None:
            witnesses += new
        elif new:
            witnesses = sorted(witnesses + new, key=key)[:cap]
    witnesses.sort(key=key)
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
    slab: Slab, hit: np.ndarray, room: int | None, tol: float, strict: bool, before: tuple | None
) -> list[Witness]:
    """The first ``room`` violations of one slab as plain-Python witnesses,
    only those whose index precedes ``before`` when it is given."""
    lead = np.asarray(slab.index[0]) if before else None
    if lead is not None and lead.ndim == hit.ndim and len(lead) > 1:
        # C order is index order, so the leading index only grows down the rows
        hit = hit[: lead.reshape(len(lead), -1)[:, 0].searchsorted(before[0], side="right")]
    flat = hit.ravel().nonzero()[0][:room]
    if not flat.size:
        return []
    pos = np.unravel_index(flat, hit.shape)
    indices = list(zip(*(_at(c, pos) for c in slab.index))) or [()] * flat.size
    n = flat.size if before is None else bisect.bisect_left(indices, before)
    indices, pos = indices[:n], tuple(p[:n] for p in pos)
    return [
        Witness(index, l, r, r + tol - l if strict else l - r, slab.constraint)
        for index, l, r in zip(indices, _at(slab.lhs, pos), _at(slab.rhs, pos))
    ]


def _at(values: Any, pos: tuple[np.ndarray, ...]) -> list:
    """``values``, broadcast to the slab that ``pos`` indexes, at ``pos``."""
    values = np.asarray(values)
    at = tuple(p if n > 1 else 0 for n, p in zip(values.shape, pos[len(pos) - values.ndim :]))
    picked = values[at]
    return picked.tolist() if picked.ndim else [picked.item()] * len(pos[0])


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
