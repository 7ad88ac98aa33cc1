"""Invariant oracles shared by the sim and live replay harnesses.

Each oracle states a property that must hold for *any* scenario on
*any* plane, however adversarial the mix:

* **conservation** — every submitted task is accounted for exactly
  once: ``submitted = completed + dead-lettered + rejected``.  Nothing
  is lost, nothing is double-counted.
* **exactly-once-visible** — each task's completion becomes visible to
  the client exactly once (one settle per ``TaskFuture``; duplicate
  deliveries and replays must be absorbed below the API).
* **no stuck futures** — every future settles; a task may fail, but it
  may not hang.
* **journal/DLQ consistency** — after the run (and through a
  recovery), the journal's reconstructed state agrees with the
  dispatcher's: DLQ membership matches, no phantom pending tasks, no
  torn records on a clean close.

Oracles append :class:`Violation`\\ s to a shared :class:`OracleReport`
rather than raising, so one run reports every broken invariant at
once — the form a soak harness needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

__all__ = [
    "Violation",
    "OracleReport",
    "check_conservation",
    "check_federation_conservation",
    "check_exactly_once",
    "check_no_stuck",
    "check_journal_consistency",
    "check_sim_workload",
]


@dataclass(frozen=True)
class Violation:
    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass
class OracleReport:
    """Accumulated oracle outcomes for one replay."""

    checked: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, oracle: str) -> None:
        if oracle not in self.checked:
            self.checked.append(oracle)

    def fail(self, oracle: str, detail: str) -> None:
        self.record(oracle)
        self.violations.append(Violation(oracle, detail))

    def summary(self) -> str:
        if self.ok:
            return f"all oracles passed ({', '.join(self.checked)})"
        return "; ".join(str(v) for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": list(self.checked),
            "violations": [
                {"oracle": v.oracle, "detail": v.detail}
                for v in self.violations
            ],
        }


def check_conservation(
    report: OracleReport,
    submitted: int,
    stats,
    expected_poison: Optional[int] = None,
    rejected_final: int = 0,
) -> None:
    """``submitted = completed + dead-lettered + rejected``.

    *stats* is a live :class:`DispatcherStats`-like object (attribute
    access).  ``rejected_final`` counts tasks the client permanently
    gave up on after SUBMIT_REJECT (0 in these harnesses — admission
    pushback is always retried to acceptance).
    """
    report.record("conservation")
    accepted = stats.accepted
    completed = stats.completed
    failed = stats.failed
    if accepted + rejected_final != submitted:
        report.fail("conservation",
                    f"accepted({accepted}) + rejected({rejected_final}) "
                    f"!= submitted({submitted})")
    if completed + failed != accepted:
        report.fail("conservation",
                    f"completed({completed}) + failed({failed}) "
                    f"!= accepted({accepted})")
    if stats.dlq_total != failed:
        report.fail("conservation",
                    f"dlq_total({stats.dlq_total}) != failed({failed}) — "
                    "a terminal failure bypassed quarantine")
    if expected_poison is not None and failed != expected_poison:
        report.fail("conservation",
                    f"failed({failed}) != poison tasks({expected_poison}) — "
                    "a healthy task died or a poison task slipped through")


def check_federation_conservation(
    report: OracleReport,
    submitted: int,
    settled_ok: int,
    settled_failed: int,
    dlq_ids: Iterable[str],
    poison_ids: Iterable[str],
) -> None:
    """Client-vantage conservation for federated runs.

    A shard killed mid-run loses its unflushed counter state (and a
    resubmitted task is legitimately accepted twice — once by the dead
    shard's journal, once by the survivor), so per-shard counter sums
    cannot balance.  What *must* still balance is the router's view:
    every submitted task settles exactly once, the only failures are
    the designed poison set, and the cross-shard DLQ union quarantines
    exactly that set.
    """
    report.record("conservation")
    dlq = set(dlq_ids)
    poison = set(poison_ids)
    if settled_ok + settled_failed != submitted:
        report.fail("conservation",
                    f"settled ok({settled_ok}) + failed({settled_failed}) "
                    f"!= submitted({submitted})")
    if settled_failed != len(poison):
        report.fail("conservation",
                    f"failed({settled_failed}) != poison tasks({len(poison)})"
                    " — a healthy task died or a poison task slipped through")
    if dlq != poison:
        report.fail("conservation",
                    f"DLQ union {sorted(dlq ^ poison)[:5]} does not match "
                    "the generated poison set")


def check_exactly_once(
    report: OracleReport,
    expected_ids: Iterable[str],
    settle_counts: Mapping[str, int],
) -> None:
    """Each expected task settled exactly once at the client surface."""
    report.record("exactly-once-visible")
    expected = set(expected_ids)
    for task_id in sorted(expected):
        count = settle_counts.get(task_id, 0)
        if count != 1:
            report.fail("exactly-once-visible",
                        f"{task_id} settled {count} times (want 1)")
            if count == 0:
                continue
    for task_id in sorted(set(settle_counts) - expected):
        report.fail("exactly-once-visible",
                    f"{task_id} settled but was never submitted")


def check_no_stuck(report: OracleReport, stuck_ids: Iterable[str]) -> None:
    """Every future settled within the harness deadline."""
    report.record("no-stuck-futures")
    stuck = sorted(stuck_ids)
    if stuck:
        shown = ", ".join(stuck[:5])
        more = f" (+{len(stuck) - 5} more)" if len(stuck) > 5 else ""
        report.fail("no-stuck-futures",
                    f"{len(stuck)} futures never settled: {shown}{more}")


def check_journal_consistency(
    report: OracleReport,
    recovered,
    dlq_ids: Iterable[str],
    accepted: int,
    pruned: bool = False,
    clean_close: bool = True,
) -> None:
    """The journal's reconstruction agrees with the dispatcher's state.

    *recovered* is a :class:`repro.live.journal.RecoveredState` built
    from the run's journal directory after shutdown.  With ``pruned``
    (bounded retention), settled acked tasks legitimately vanish from
    the journal, so only the DLQ and pending sets are compared; an
    unpruned journal must additionally account for every accepted task.
    """
    report.record("journal-consistency")
    recovered_dlq = {t.task_id for t in recovered.tasks.values() if t.in_dlq}
    dlq = set(dlq_ids)
    if recovered_dlq != dlq:
        missing = sorted(dlq - recovered_dlq)[:5]
        phantom = sorted(recovered_dlq - dlq)[:5]
        report.fail("journal-consistency",
                    f"DLQ mismatch: journal missing {missing}, "
                    f"journal-only {phantom}")
    pending = [t.task_id for t in recovered.pending() if not t.in_dlq]
    if pending:
        report.fail("journal-consistency",
                    f"{len(pending)} tasks recovered as pending after a "
                    f"completed run: {sorted(pending)[:5]}")
    if clean_close and recovered.truncated:
        report.fail("journal-consistency",
                    f"{recovered.truncated} torn journal records after a "
                    "clean close")
    if not pruned and len(recovered.tasks) != accepted:
        report.fail("journal-consistency",
                    f"journal holds {len(recovered.tasks)} tasks, "
                    f"dispatcher accepted {accepted}")


def check_sim_workload(report: OracleReport, n_tasks: int,
                       completed: int, failed: int) -> None:
    """Sim-plane conservation: every record settled, one result each."""
    report.record("conservation")
    if completed + failed != n_tasks:
        report.fail("conservation",
                    f"sim settled {completed}+{failed} of {n_tasks} tasks")
