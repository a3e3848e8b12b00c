"""Per-figure experiment definitions (the paper's Section 6).

Each function runs the simulations for one table/figure and returns a
structured result whose ``render()`` prints the same rows/series the
paper reports.  The benchmarks under ``benchmarks/`` are thin wrappers
around these, so EXPERIMENTS.md can quote their output verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..analysis.cost_models import (
    cbcast_agreement_time,
    cbcast_control_traffic,
    urcgc_agreement_time,
    urcgc_control_traffic,
    urcgc_history_bound,
)
from ..analysis.report import render_table
from ..core.config import UrcgcConfig
from ..types import ProcessId, Time
from ..workloads.generators import BernoulliWorkload, FixedBudgetWorkload
from ..workloads.scenarios import (
    consecutive_coordinator_crashes,
    crashes,
    general_omission,
    omission,
    reliable,
)
from .cbcast_cluster import CbcastCluster
from .cluster import SimCluster

__all__ = [
    "Figure4Result",
    "figure4_delay",
    "Figure5Result",
    "figure5_agreement",
    "Table1Result",
    "table1_traffic",
    "Figure6Result",
    "figure6_history",
]


def _pids(n: int) -> list[ProcessId]:
    return [ProcessId(i) for i in range(n)]


# ----------------------------------------------------------------------
# Figure 4: mean end-to-end delay D vs offered load
# ----------------------------------------------------------------------

FIGURE4_SCENARIOS = ("reliable", "crash", "omission-1/500", "omission-1/100")


@dataclass
class Figure4Result:
    """D (rtd) per scenario per offered load (messages per rtd)."""

    n: int
    K: int
    #: scenario -> list of (offered load msgs/rtd, mean delay D in rtd)
    curves: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        loads = [load for load, _ in self.curves[FIGURE4_SCENARIOS[0]]]
        for i, load in enumerate(loads):
            rows.append(
                [load] + [self.curves[s][i][1] for s in FIGURE4_SCENARIOS]
            )
        return render_table(
            ["load (msg/rtd)", *FIGURE4_SCENARIOS],
            rows,
            title=(
                f"Figure 4 — mean end-to-end delay D (rtd) vs offered load; "
                f"n={self.n}, K={self.K}"
            ),
        )

    def as_dict(self) -> dict:
        return {
            "experiment": "figure4",
            "n": self.n,
            "K": self.K,
            "curves": {
                scenario: [{"load": l, "delay": d} for l, d in points]
                for scenario, points in self.curves.items()
            },
        }


def figure4_delay(
    *,
    n: int = 10,
    K: int = 3,
    send_probabilities: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0),
    crash_count: int = 4,
    duration_rounds: int = 60,
    seed: int = 1,
) -> Figure4Result:
    """The four curves of Figure 4.

    "The observed values of D are the same under both reliable and
    crash conditions (4 crashes was considered).  The mean delay may
    grow when omission failures occur."
    """
    result = Figure4Result(n=n, K=K)
    pids = _pids(n)
    for scenario in FIGURE4_SCENARIOS:
        curve: list[tuple[float, float]] = []
        for p in send_probabilities:
            if scenario == "reliable":
                faults = reliable()
            elif scenario == "crash":
                # Spread the crashes over the early run.
                victims = {
                    ProcessId(n - 1 - i): 2.0 + 2.0 * i for i in range(crash_count)
                }
                faults = crashes(victims)
            elif scenario == "omission-1/500":
                faults = omission(pids, 500, rng=random.Random(seed))
            else:
                faults = omission(pids, 100, rng=random.Random(seed))
            workload = BernoulliWorkload(
                pids, p, rng=random.Random(seed), stop_after_round=duration_rounds
            )
            cluster = SimCluster(
                UrcgcConfig(n=n, K=K),
                workload=workload,
                faults=faults,
                max_rounds=duration_rounds * 4,
                seed=seed,
                trace=False,
            )
            cluster.run_until_quiescent(drain_subruns=2)
            report = cluster.delay_report()
            offered = workload.offered / ((duration_rounds + 1) / 2.0)
            curve.append((offered, report.mean_delay))
        result.curves[scenario] = curve
    return result


# ----------------------------------------------------------------------
# Figure 5: agreement time T vs consecutive coordinator crashes f
# ----------------------------------------------------------------------


@dataclass
class Figure5Result:
    n: int
    K: int
    #: rows of (f, urcgc measured, urcgc analytic, cbcast measured,
    #: cbcast analytic) — times in rtd.
    rows: list[tuple[int, float, float, float, float]] = field(default_factory=list)

    def render(self) -> str:
        return render_table(
            [
                "f",
                "urcgc T (sim)",
                "urcgc 2K+f",
                "cbcast T (sim)",
                "cbcast K(5f+6)",
            ],
            self.rows,
            title=(
                f"Figure 5 — group agreement time T (rtd) vs consecutive "
                f"coordinator crashes f; n={self.n}, K={self.K}"
            ),
        )

    def as_dict(self) -> dict:
        return {
            "experiment": "figure5",
            "n": self.n,
            "K": self.K,
            "rows": [
                {
                    "f": f,
                    "urcgc_sim": urcgc_sim,
                    "urcgc_paper": urcgc_paper,
                    "cbcast_sim": cbcast_sim,
                    "cbcast_paper": cbcast_paper,
                }
                for f, urcgc_sim, urcgc_paper, cbcast_sim, cbcast_paper in self.rows
            ],
        }


def _measure_urcgc_agreement(n: int, K: int, f: int, *, seed: int = 1) -> float:
    """Time from the first crash until every active member has removed
    all crashed processes and adopted a post-removal full-group
    decision (history cleanable again)."""
    first_subrun = 1
    if f > 0:
        faults = consecutive_coordinator_crashes(n, f, first_subrun=first_subrun)
    else:
        # f = 0 "describes the crash of a server process": a plain
        # member (never a coordinator during detection) fail-stops.
        faults = crashes({ProcessId(n - 1): 2.0})
    config = UrcgcConfig(n=n, K=K, R=2 * K + f + 1)
    pids = _pids(n)
    workload = BernoulliWorkload(pids, 0.2, rng=random.Random(seed))
    cluster = SimCluster(
        config,
        workload=workload,
        faults=faults,
        max_rounds=40 + 8 * (K + f),
        seed=seed,
        trace=False,
    )
    crashed = set(faults.crashes.crashed_by(1e9))
    crash_start: Time = min(
        (faults.crashes.crash_time(pid) for pid in crashed), default=0.0
    )
    agreed_at: list[Time | None] = [None]

    def probe(round_no: int) -> None:
        if agreed_at[0] is not None:
            return
        now = cluster.kernel.now
        if now <= crash_start:
            return
        for pid in cluster.active_pids():
            member = cluster.members[pid]
            decision = member.latest_decision
            if not decision.full_group:
                return
            if any(decision.alive[victim] for victim in crashed):
                return
        agreed_at[0] = now

    cluster.scheduler.subscribe(probe)
    cluster.kernel.run(stop_when=lambda: agreed_at[0] is not None)
    if agreed_at[0] is None:
        return float("nan")
    return agreed_at[0] - crash_start


def _measure_cbcast_agreement(n: int, K: int, f: int, *, seed: int = 1) -> float:
    """Time from the first crash until every survivor has installed the
    final view (all f victims excluded) and is unblocked.

    The f victims are successive view managers: each crashes just after
    taking over the flush protocol, forcing a full restart (the paper's
    "started all over again" behaviour).
    """
    if f > 0:
        victim_times = {ProcessId(i): 2.0 + 2.0 * K * i for i in range(f)}
    else:
        # f = 0: a plain member crash; one flush round, no restarts.
        victim_times = {ProcessId(n - 1): 2.0}
    faults = crashes(victim_times)
    pids = _pids(n)
    workload = BernoulliWorkload(pids, 0.2, rng=random.Random(seed))
    cluster = CbcastCluster(
        n,
        K=K,
        workload=workload,
        faults=faults,
        max_rounds=200 + 40 * K * (f + 1),
        seed=seed,
        trace=False,
    )
    crash_start = min(victim_times.values())
    victims = set(victim_times)
    agreed_at: list[Time | None] = [None]

    def probe(round_no: int) -> None:
        if agreed_at[0] is not None or cluster.kernel.now <= crash_start:
            return
        for pid in cluster.active_pids():
            engine = cluster.engines[pid]
            if engine.blocked:
                return
            if any(engine.alive[victim] for victim in victims):
                return
        agreed_at[0] = cluster.kernel.now

    cluster.scheduler.subscribe(probe)
    cluster.kernel.run(stop_when=lambda: agreed_at[0] is not None)
    if agreed_at[0] is None:
        return float("nan")
    return agreed_at[0] - crash_start


def figure5_agreement(
    *,
    n: int = 10,
    K: int = 2,
    f_values: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
    seed: int = 1,
) -> Figure5Result:
    result = Figure5Result(n=n, K=K)
    for f in f_values:
        urcgc_sim = _measure_urcgc_agreement(n, K, f, seed=seed)
        cbcast_sim = _measure_cbcast_agreement(n, K, f, seed=seed)
        result.rows.append(
            (
                f,
                urcgc_sim,
                urcgc_agreement_time(K, f),
                cbcast_sim,
                cbcast_agreement_time(K, f),
            )
        )
    return result


# ----------------------------------------------------------------------
# Table 1: control traffic, urcgc vs CBCAST, reliable vs crash
# ----------------------------------------------------------------------


@dataclass
class Table1Result:
    K: int
    f: int
    #: rows of (n, condition, protocol, msgs/subrun measured,
    #: msgs/subrun analytic, mean size measured, size analytic)
    rows: list[tuple[int, str, str, float, float, float, float]] = field(
        default_factory=list
    )

    def render(self) -> str:
        return render_table(
            [
                "n",
                "condition",
                "protocol",
                "ctrl msgs/subrun (sim)",
                "ctrl msgs/subrun (paper)",
                "mean ctrl size B (sim)",
                "ctrl size B (paper)",
            ],
            self.rows,
            title=(
                f"Table 1 — control traffic per subrun; K={self.K}, f={self.f}"
            ),
            precision=1,
        )

    def as_dict(self) -> dict:
        keys = (
            "n", "condition", "protocol",
            "msgs_per_subrun_sim", "msgs_per_subrun_paper",
            "mean_size_sim", "size_paper",
        )
        return {
            "experiment": "table1",
            "K": self.K,
            "f": self.f,
            "rows": [dict(zip(keys, row)) for row in self.rows],
        }


def _urcgc_traffic(n: int, K: int, crash: bool, seed: int) -> tuple[float, float]:
    pids = _pids(n)
    faults = crashes({ProcessId(n - 1): 2.0}) if crash else reliable()
    subruns = 24
    cluster = SimCluster(
        UrcgcConfig(n=n, K=K),
        workload=FixedBudgetWorkload(pids, total=2 * n),
        faults=faults,
        max_rounds=subruns * 2,
        seed=seed,
        trace=False,
    )
    cluster.run()
    stats = cluster.network.stats
    control = stats.total(control_only=True)
    # n-unicast accounting: multicast decisions fan out to n-1 copies,
    # so the carried (delivered) count is the honest Table 1 figure on
    # a reliable network; under crash we count offered transmissions.
    messages = control.delivered if not crash else control.delivered + control.dropped
    sizes = [
        stats.kind(kind).mean_size
        for kind in stats.kinds()
        if kind != "data" and stats.kind(kind).sent
    ]
    mean_size = sum(sizes) / len(sizes) if sizes else 0.0
    return messages / subruns, mean_size


def _cbcast_traffic(n: int, K: int, crash: bool, seed: int) -> tuple[float, float]:
    pids = _pids(n)
    faults = crashes({ProcessId(n - 1): 2.0}) if crash else reliable()
    subruns = 24
    cluster = CbcastCluster(
        n,
        K=K,
        workload=FixedBudgetWorkload(pids, total=2 * n),
        faults=faults,
        max_rounds=subruns * 2,
        seed=seed,
        trace=False,
    )
    cluster.run()
    stats = cluster.network.stats
    control = stats.total(control_only=True)
    messages = control.delivered if not crash else control.delivered + control.dropped
    sizes = [
        stats.kind(kind).mean_size
        for kind in stats.kinds()
        if kind != "data" and stats.kind(kind).sent
    ]
    mean_size = sum(sizes) / len(sizes) if sizes else 0.0
    return messages / subruns, mean_size


def table1_traffic(
    *,
    ns: tuple[int, ...] = (5, 10, 15, 40),
    K: int = 3,
    f: int = 0,
    seed: int = 1,
) -> Table1Result:
    result = Table1Result(K=K, f=f)
    for n in ns:
        for crash in (False, True):
            condition = "crash" if crash else "reliable"
            sim_msgs, sim_size = _urcgc_traffic(n, K, crash, seed)
            paper = urcgc_control_traffic(n, K=K, f=f, crash=crash)
            paper_msgs = paper.messages / ((2 * K + f) if crash else 1)
            result.rows.append(
                (n, condition, "urcgc", sim_msgs, float(paper_msgs),
                 sim_size, paper.message_size_bytes)
            )
            sim_msgs, sim_size = _cbcast_traffic(n, K, crash, seed)
            paper = cbcast_control_traffic(n, K=K, f=f, crash=crash)
            paper_msgs = paper.messages / ((2 * K + f) if crash else 1)
            result.rows.append(
                (n, condition, "cbcast", sim_msgs, float(paper_msgs),
                 sim_size, paper.message_size_bytes)
            )
    return result


# ----------------------------------------------------------------------
# Figure 6: history length over time; flow control
# ----------------------------------------------------------------------


@dataclass
class Figure6Result:
    n: int
    total_messages: int
    flow_threshold: int
    #: label -> (history.max series points, termination time, peak)
    runs: dict[str, tuple[list[tuple[float, float]], float | None, float]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        rows = []
        for label, (series, done, peak) in self.runs.items():
            rows.append(
                [
                    label,
                    peak,
                    done if done is not None else float("nan"),
                    urcgc_history_bound(self.n, K=int(label.split("K=")[1].split(",")[0]))
                    if "K=" in label
                    else 0,
                ]
            )
        title = (
            f"Figure 6 — history length; n={self.n}, "
            f"{self.total_messages} messages, flow threshold="
            f"{self.flow_threshold if self.flow_threshold else 'off'}"
        )
        return render_table(
            ["run", "peak history", "terminate (rtd)", "paper bound 2(2K+f)n"],
            rows,
            title=title,
            precision=1,
        )

    def as_dict(self) -> dict:
        return {
            "experiment": "figure6",
            "n": self.n,
            "total_messages": self.total_messages,
            "flow_threshold": self.flow_threshold,
            "runs": {
                label: {
                    "peak_history": peak,
                    "terminate_rtd": done,
                    "series": [{"t": t, "history": v} for t, v in series],
                }
                for label, (series, done, peak) in self.runs.items()
            },
        }


def figure6_history(
    *,
    n: int = 40,
    total_messages: int = 480,
    K_values: tuple[int, ...] = (2, 3, 4),
    flow_threshold: int = 0,
    omission_one_in: int = 500,
    seed: int = 1,
    max_rounds: int = 400,
) -> Figure6Result:
    """Figure 6a (``flow_threshold=0``) and 6b (``flow_threshold=8n``).

    "Simulations consider n = 40, 480 messages to be processed ...
    for different values of K and under reliable and faulty (general
    omission with 1 crash failure and 1/500 omission failures)
    conditions.  Failures are considered to occur during the first
    5 rtd."
    """
    result = Figure6Result(
        n=n, total_messages=total_messages, flow_threshold=flow_threshold
    )
    pids = _pids(n)
    for K in K_values:
        for faulty in (False, True):
            if faulty:
                # "Failures are considered to occur during the first
                # 5 rtd": the crash and the omission window both land
                # inside it.
                faults = general_omission(
                    pids,
                    crash_schedule={ProcessId(n - 1): 4.0},
                    one_in=omission_one_in,
                    rng=random.Random(seed),
                    window=(0.0, 5.0),
                )
            else:
                faults = reliable()
            cluster = SimCluster(
                UrcgcConfig(n=n, K=K, flow_threshold=flow_threshold),
                workload=FixedBudgetWorkload(pids, total=total_messages),
                faults=faults,
                max_rounds=max_rounds,
                seed=seed,
                trace=False,
            )
            done = cluster.run_until_quiescent(drain_subruns=2 * K + 2)
            series = list(cluster.max_history_series())
            label = f"K={K}, {'general-omission' if faulty else 'reliable'}"
            result.runs[label] = (series, done, cluster.max_history_series().max())
    return result
