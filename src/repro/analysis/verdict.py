"""One result schema for every correctness harness.

``repro torture``, ``chaos``, ``chaos --scenario``, ``recover`` and
``serve`` all grade a run guarantee by guarantee.  A :class:`Verdict`
is one guarantee's fate, a :class:`RunResult` is one run's verdicts
plus the counters that explain them, and :func:`results_as_json` is
the artifact CI uploads.  :func:`audit_delivery` is the one Definition
3.2 audit every harness shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..core.message import UserMessage
from ..core.mid import Mid
from ..types import ProcessId
from .checkers import check_uniform_atomicity, check_uniform_ordering

__all__ = [
    "TIMEOUT_TOLERATED",
    "Verdict",
    "RunResult",
    "grade",
    "violations_of",
    "audit_delivery",
    "results_as_json",
]

#: Verdicts from best to worst.
_RANK = {"survived": 0, "degraded": 1, "violated": 2}

#: Expectations of a randomized run, which may spend its wall-clock or
#: round budget before the group quiesces: only prefix consistency is
#: auditable then, and that is not a failure.
TIMEOUT_TOLERATED: Mapping[str, str] = {"total-order": "degraded"}


@dataclass(frozen=True)
class Verdict:
    """One guarantee's fate in one run.

    ``expected`` is the worst verdict the run documents as acceptable;
    the verdict is ``ok`` when it is no worse.  An expected
    ``violated`` renders as *violated-by-design*: the run deliberately
    exceeds what the protocol promises.  ``violations`` are the checker
    lines behind a ``violated`` verdict; the verdict itself always tells
    the truth, whatever was expected.
    """

    guarantee: str
    verdict: str
    expected: str = "survived"
    detail: str = ""
    violations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in _RANK:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.expected not in _RANK:
            raise ValueError(f"unknown expected verdict {self.expected!r}")

    @property
    def ok(self) -> bool:
        """The outcome is no worse than the run documents."""
        return _RANK[self.verdict] <= _RANK[self.expected]

    def describe(self) -> str:
        expected = (
            "violated-by-design" if self.expected == "violated" else self.expected
        )
        mark = "ok " if self.ok else "FAIL"
        text = f"{mark} {self.guarantee:<18s} {self.verdict:<9s} (expected <= {expected})"
        if self.detail:
            text += f"  {self.detail}"
        return text

    def as_dict(self) -> dict:
        return {
            "guarantee": self.guarantee,
            "verdict": self.verdict,
            "expected": self.expected,
            "by_design": self.expected == "violated",
            "ok": self.ok,
            "detail": self.detail,
            "violations": list(self.violations),
        }


def grade(
    guarantee: str,
    violations: Sequence[str],
    *,
    quiesced: bool = True,
    expected: str = "survived",
    detail: str = "",
) -> Verdict:
    """Grade one guarantee from its checker lines.

    Any line makes it ``violated``.  With none, a run that did not
    quiesce is ``degraded`` — only part of the guarantee could be
    audited — and a quiesced run ``survived`` (with ``detail``).
    """
    if violations:
        more = len(violations) - 1
        return Verdict(
            guarantee,
            "violated",
            expected,
            violations[0] + (f" (+{more} more)" if more else ""),
            tuple(violations),
        )
    if not quiesced:
        return Verdict(
            guarantee, "degraded", expected, "run did not quiesce; audited prefixes only"
        )
    return Verdict(guarantee, "survived", expected, detail)


def violations_of(verdicts: Iterable[Verdict]) -> list[str]:
    """Every checker line behind ``verdicts``, in verdict order."""
    return [line for verdict in verdicts for line in verdict.violations]


@dataclass(frozen=True)
class RunResult:
    """One harness run: its verdicts and the counters that explain them.

    ``family`` names the harness (``torture``, ``chaos``, ``scenario``,
    ``recover``, ``serve``) and ``name`` the run within it (the
    scenario name; the family again for randomized runs).  ``evidence``
    holds the run's parameters and counters.  ``wall_time`` is not part
    of the outcome, so two runs of the same seed compare equal.
    """

    family: str
    name: str
    seed: int
    quiesced: bool
    verdicts: tuple[Verdict, ...]
    evidence: Mapping[str, float] = field(default_factory=dict)
    wall_time: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(violations_of(self.verdicts))

    def describe(self) -> str:
        evidence = " ".join(
            f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in self.evidence.items()
        )
        lines = [
            f"{self.name:<22s} seed={self.seed:<6d} "
            f"{'quiesced ' if self.quiesced else 'timed out'} "
            f"{self.wall_time:6.2f}s  {'ok' if self.ok else 'FAIL'}  [{evidence}]"
        ]
        lines.extend(f"    {verdict.describe()}" for verdict in self.verdicts)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "name": self.name,
            "seed": self.seed,
            "quiesced": self.quiesced,
            "wall_time": round(self.wall_time, 3),
            "ok": self.ok,
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
            "evidence": dict(self.evidence),
        }


def results_as_json(results: Sequence[RunResult], *, experiment: str) -> dict:
    """CI artifact: every run's verdicts plus a rollup."""
    return {
        "experiment": experiment,
        "runs": len(results),
        "clean": sum(1 for r in results if r.ok),
        "quiesced": sum(1 for r in results if r.quiesced),
        "failing": [{"name": r.name, "seed": r.seed} for r in results if not r.ok],
        "results": [r.as_dict() for r in results],
    }


def audit_delivery(
    streams: Mapping[ProcessId, Sequence[UserMessage]],
    generated: Iterable[Mid],
    processed_by: Mapping[Mid, Iterable[ProcessId]],
    active: set[ProcessId],
    voided: Iterable[Mid] = (),
    *,
    converged: bool,
    expected: Mapping[str, str] | None = None,
) -> tuple[Verdict, Verdict]:
    """Definition 3.2 over one group's delivery logs, as two verdicts.

    * **causal-delivery** — every site processes dependencies first and
      each origin's sequence in order (Property 3.1);
    * **total-order** — per-origin subsequences agree across sites and,
      once ``converged``, are equal and Uniform Atomicity holds over
      ``active``.  Not converged, it is ``degraded`` at best.

    ``voided`` mids — orphan discards and crash-void ranges — are exempt
    from atomicity and excised from the ordering comparison (a site may
    have processed a message shortly before the group voided it).  Each
    checker line is filed under the guarantee its
    :attr:`~repro.analysis.checkers.Violation.check` names, once.
    """
    expected = expected or {}
    voided = frozenset(voided)
    found = check_uniform_ordering(
        dict(streams), converged=converged, voided=voided
    ).violations
    if converged:
        found += check_uniform_atomicity(
            generated,
            {mid: set(by) for mid, by in processed_by.items()},
            active,
            discarded=voided,
        ).violations
    causal = [str(v) for v in found if v.check == "local-causal-order"]
    ordering = [str(v) for v in found if v.check != "local-causal-order"]
    return (
        grade(
            "causal-delivery",
            causal,
            expected=expected.get("causal-delivery", "survived"),
        ),
        grade(
            "total-order",
            ordering,
            quiesced=converged,
            expected=expected.get("total-order", "survived"),
        ),
    )
