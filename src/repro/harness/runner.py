"""Experiment registry and command-line entry point.

``python -m repro.harness.runner list`` shows every reproducible
table/figure; ``python -m repro.harness.runner run figure4`` runs one
and prints its rendering (the same output the benchmarks assert on and
EXPERIMENTS.md quotes).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from typing import Callable

from ..analysis.verdict import RunResult, results_as_json
from . import ablations, experiments
from .compare import compare_protocols

__all__ = ["EXPERIMENTS", "run_experiment", "main"]


def _figure6a() -> "experiments.Figure6Result":
    return experiments.figure6_history(flow_threshold=0)


def _figure6b() -> "experiments.Figure6Result":
    # A threshold low enough to bind in our (faster-cleaning)
    # implementation; the paper used 8n — see EXPERIMENTS.md.
    return experiments.figure6_history(K_values=(3,), flow_threshold=60)


#: Experiment id -> (description, zero-argument runner).
EXPERIMENTS: dict[str, tuple[str, Callable[[], object]]] = {
    "figure4": (
        "Mean end-to-end delay D vs offered load (reliable / crash / omission)",
        experiments.figure4_delay,
    ),
    "figure5": (
        "Group agreement time T vs consecutive coordinator crashes f",
        experiments.figure5_agreement,
    ),
    "table1": (
        "Control messages per subrun and sizes, urcgc vs CBCAST",
        experiments.table1_traffic,
    ),
    "figure6a": (
        "History length over time without flow control",
        _figure6a,
    ),
    "figure6b": (
        "History length with the distributed flow control engaged",
        _figure6b,
    ),
    "ablation-circulation": (
        "Decision circulation on/off under omission",
        ablations.ablate_circulation,
    ),
    "ablation-causality": (
        "Declared vs conservative vs temporal (vector clock) causality",
        ablations.ablate_causality,
    ),
    "ablation-flow-threshold": (
        "Flow-control threshold sweep around the paper's 8n",
        ablations.ablate_flow_threshold,
    ),
    "ablation-flow-style": (
        "urcgc throttling vs Psync drop-based flow control",
        ablations.ablate_flow_control_style,
    ),
    "ablation-transport-h": (
        "Transport-level reliability (h) vs history recovery",
        ablations.ablate_transport_h,
    ),
    "ablation-bus": (
        "Delay vs offered load on a saturable Ethernet bus",
        ablations.ablate_bus_saturation,
    ),
    "compare-reliable": (
        "urcgc vs CBCAST head-to-head, fault-free",
        lambda: compare_protocols(scenario="reliable"),
    ),
    "compare-crash": (
        "urcgc vs CBCAST head-to-head, one crash",
        lambda: compare_protocols(scenario="crash"),
    ),
    "compare-omission": (
        "urcgc vs CBCAST head-to-head over a lossy subnet",
        lambda: compare_protocols(scenario="omission-1/50"),
    ),
}


def run_experiment(name: str, *, as_json: bool = False) -> str:
    """Run one registered experiment; return its rendering (or JSON)."""
    try:
        _, runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    result = runner()
    if as_json:
        payload = result.as_dict()  # type: ignore[attr-defined]
        if "experiment" not in payload:
            payload = {"experiment": name, **payload}
        return json.dumps(payload, indent=2)
    return result.render()  # type: ignore[attr-defined]


def _report_command(trace: str | None, *, mid: str | None, demo: bool) -> int:
    """The ``report`` subcommand: parse (or demo-produce) a JSONL trace
    and print its rendering."""
    from ..obs import read_jsonl, render_trace_report

    if demo:
        from ..core.config import UrcgcConfig
        from ..types import ProcessId
        from ..workloads.generators import FixedBudgetWorkload
        from .cluster import SimCluster

        config = UrcgcConfig(n=4, observability=True)
        pids = [ProcessId(0), ProcessId(1)]
        cluster = SimCluster(config, workload=FixedBudgetWorkload(pids, 6))
        cluster.run_until_quiescent(drain_subruns=2)
        if trace is not None:
            cluster.write_trace(trace, experiment="demo")
            records = read_jsonl(trace)
        else:
            from ..obs import events_as_dicts, registry_records

            records = [{"ev": "meta", "runner": "sim", "clock": "sim"}]
            records += events_as_dicts(cluster.recorder.events)
            for metric in registry_records(cluster.recorder.registry):
                record: dict = {"ev": "metric", "name": metric.name,
                               "family": metric.family, "labels": metric.labels}
                if metric.value is not None:
                    record["value"] = metric.value
                if metric.summary is not None:
                    record["summary"] = metric.summary
                records.append(record)
        print(render_trace_report(records, mid=mid))
        return 0
    if trace is None:
        print("report: a TRACE path is required (or pass --demo)", file=sys.stderr)
        return 2
    try:
        records = read_jsonl(trace)
    except OSError as exc:
        print(f"report: cannot read {trace}: {exc}", file=sys.stderr)
        return 2
    print(render_trace_report(records, mid=mid))
    return 0


def _by_seed(result: RunResult) -> str:
    """Replay one randomized run: its seed is the whole recipe."""
    return f"{result.family} --iterations 1 --seed {result.seed}"


def _print_runs(
    results: list[RunResult],
    *,
    experiment: str,
    reproduce: Callable[[RunResult], str],
    as_json: bool = False,
) -> int:
    """Print graded runs — each run's verdicts, its first violations and
    the command that replays a failing one, then a ``k/N`` rollup; or
    the one JSON artifact.  Returns the exit code: 1 iff a run is not
    ok."""
    if as_json:
        print(json.dumps(results_as_json(results, experiment=experiment), indent=2))
    else:
        for result in results:
            print(result.describe())
            for violation in result.violations[:5]:
                print(f"    {violation}")
            if not result.ok:
                print(f"    reproduce: python -m repro {reproduce(result)}")
        clean = sum(1 for r in results if r.ok)
        print(f"{clean}/{len(results)} scenarios clean")
    return 0 if all(r.ok for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["lint"]:
        # Dispatched before argparse: the lint CLI owns its own flags
        # (argparse.REMAINDER cannot forward leading optionals).
        from ..lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    run_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    torture_parser = sub.add_parser(
        "torture", help="fuzz random scenarios and audit the URCGC theorems"
    )
    torture_parser.add_argument("-n", "--iterations", type=int, default=20)
    torture_parser.add_argument("--seed", type=int, default=0)
    chaos_parser = sub.add_parser(
        "chaos",
        help="live fault-injected asyncio runs, audited with the "
        "Definition 3.2 checkers",
    )
    chaos_parser.add_argument("-n", "--iterations", type=int, default=10)
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument(
        "--budget",
        type=float,
        default=20.0,
        help="wall-clock seconds allowed per iteration",
    )
    chaos_parser.add_argument(
        "--round-interval",
        type=float,
        default=0.005,
        help="seconds per protocol round at every node",
    )
    chaos_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    chaos_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME|all",
        help="run a named adversarial scenario (or 'all') with "
        "per-guarantee survival verdicts instead of randomized runs; "
        "--seed picks the base seed and -n the seeds per scenario",
    )
    recover_parser = sub.add_parser(
        "recover",
        help="crash-and-recover torture: WAL + snapshot restore, rejoin "
        "as a new incarnation, audited across incarnations",
    )
    recover_parser.add_argument("-n", "--iterations", type=int, default=10)
    recover_parser.add_argument("--seed", type=int, default=0)
    recover_parser.add_argument(
        "--budget",
        type=float,
        default=30.0,
        help="wall-clock seconds allowed per iteration",
    )
    recover_parser.add_argument(
        "--round-interval",
        type=float,
        default=0.004,
        help="seconds per protocol round at every node",
    )
    recover_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    serve_parser = sub.add_parser(
        "serve",
        help="service-tier demo: simulated chat clients over sharded "
        "URCGC groups, audited per shard (Definition 3.2) and across "
        "shards (bridge ordering)",
    )
    serve_parser.add_argument("--shards", type=int, default=4)
    serve_parser.add_argument("--members", type=int, default=3)
    serve_parser.add_argument(
        "--clients",
        type=int,
        default=1_000_000,
        help="client id space (sessions are sampled from it)",
    )
    serve_parser.add_argument(
        "--sessions", type=int, default=48, help="concurrently active sessions"
    )
    serve_parser.add_argument(
        "--messages", type=int, default=160, help="total publishes"
    )
    serve_parser.add_argument("--topics", type=int, default=64)
    serve_parser.add_argument(
        "--zipf-s", type=float, default=1.1, help="topic popularity exponent"
    )
    serve_parser.add_argument(
        "--multi-ratio",
        type=float,
        default=0.2,
        help="fraction of multi-topic (bridge-eligible) publishes",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--kill-frontends",
        type=int,
        default=0,
        metavar="N",
        help="kill N frontends spread across the run (client failover; "
        "kills that would cost a shard its majority are skipped)",
    )
    serve_parser.add_argument(
        "--ring-changes",
        type=int,
        default=0,
        metavar="N",
        help="add N shards spread across the run (topic handoff through "
        "the causal bridge)",
    )
    serve_parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the obs registry report to PATH",
    )
    sub.add_parser(
        "lint",
        help="protocol-aware static analysis (determinism, async-safety, "
        "wire-schema, hygiene rules)",
        add_help=False,
    )
    report_parser = sub.add_parser(
        "report",
        help="render a JSONL observability trace: span counts, registry "
        "state, and one message's causal timeline",
    )
    report_parser.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="path to a trace written by SimCluster/AsyncGroup.write_trace",
    )
    report_parser.add_argument(
        "--mid",
        default=None,
        help="message id to reconstruct (e.g. 'p0:1'); default: first generated",
    )
    report_parser.add_argument(
        "--demo",
        action="store_true",
        help="run a small observed simulation first and report on it; "
        "with a TRACE argument the demo trace is also written there",
    )
    args = parser.parse_args(argv)
    if args.command == "report":
        return _report_command(args.trace, mid=args.mid, demo=args.demo)
    if args.command == "serve":
        from ..obs import Registry
        from ..svc.serve import registry_report, serve

        registry = Registry()
        result = serve(
            shards=args.shards,
            members=args.members,
            clients=args.clients,
            sessions=args.sessions,
            messages=args.messages,
            topics=args.topics,
            zipf_s=args.zipf_s,
            multi_ratio=args.multi_ratio,
            seed=args.seed,
            kill_frontends=args.kill_frontends,
            ring_changes=args.ring_changes,
            registry=registry,
        )
        command = shlex.join(argv)
        code = _print_runs([result], experiment="serve", reproduce=lambda _: command)
        report = registry_report(registry)
        print(report)
        if args.report is not None:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(result.describe() + "\n\n" + report + "\n")
        return code
    if args.command == "recover":
        from .recover_torture import recover_torture

        results = recover_torture(
            args.iterations,
            start_seed=args.seed,
            budget=args.budget,
            round_interval=args.round_interval,
        )
        return _print_runs(
            results, experiment="recover", as_json=args.json, reproduce=_by_seed
        )
    if args.command == "chaos" and args.scenario is not None:
        from .adversarial import SCENARIOS, run_scenarios

        if args.scenario != "all" and args.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            parser.error(f"unknown scenario {args.scenario!r} (known: {known}, all)")
        names = None if args.scenario == "all" else [args.scenario]
        results = run_scenarios(
            names,
            seeds=range(args.seed, args.seed + max(1, args.iterations)),
            budget=args.budget,
            round_interval=args.round_interval,
        )
        return _print_runs(
            results,
            experiment="adversarial-chaos",
            as_json=args.json,
            reproduce=lambda r: f"chaos --scenario {r.name} -n 1 --seed {r.seed}",
        )
    if args.command == "chaos":
        from .live_torture import live_torture

        results = live_torture(
            args.iterations,
            start_seed=args.seed,
            budget=args.budget,
            round_interval=args.round_interval,
        )
        return _print_runs(
            results, experiment="chaos", as_json=args.json, reproduce=_by_seed
        )
    if args.command == "torture":
        from .torture import torture

        results = torture(args.iterations, start_seed=args.seed)
        return _print_runs(results, experiment="torture", reproduce=_by_seed)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        print("experiments (python -m repro run <name>):")
        for name, (description, _) in sorted(EXPERIMENTS.items()):
            print(f"  {name:{width}s}  {description}")
        print()
        print("other subcommands:")
        subcommands = {
            "run": "run one experiment (or 'all'); --json for machine output",
            "torture": "randomized simulator scenarios audited against the "
            "URCGC theorems",
            "chaos": "live fault-injected asyncio runs (Definition 3.2 audit); "
            "--scenario NAME|all for adversarial per-guarantee verdicts",
            "recover": "crash-and-recover runs: WAL/snapshot restore + rejoin",
            "serve": "service-tier demo: chat clients over sharded groups "
            "(per-shard Definition 3.2 + cross-shard bridge audit)",
            "lint": "protocol-aware static analysis (D/A/W/H/I/T rule families)",
            "report": "render a JSONL observability trace (--demo to produce one)",
        }
        sub_width = max(len(name) for name in subcommands)
        for name, description in subcommands.items():
            print(f"  {name:{sub_width}s}  {description}")
        return 0
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    for i, name in enumerate(names):
        if i:
            print()
        print(run_experiment(name, as_json=args.json))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
