"""The end-to-end benchmark: four workloads, bounded metrics, a layer trace.

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                 [--trace [0|1]] [--quick]
                                 [--check-noise [--repeats K]]
                                 [--check-determinism]

Every workload runs in its own subprocess (``worker.py``), one after
the other: this host has two cores and the load is single-threaded.
The command prints every metric by name with its unit, audits every
run, and exits non-zero when an audit or a self-check fails.  With
``--workload`` the last line of standard output is the result object
the benchmark contract asks for (README "Contract").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import estimators
import spec

HERE, ROOT = spec.HERE, spec.ROOT
RESULTS = os.path.join(HERE, "results")
QUICK_SECONDS = 2.0

#: Per-epoch values are reduced to a run value by the good quartile:
#: upper for these rates, lower for everything else (times).
RATES = {"agreed_msgs_per_s"}

#: Bit-equal across runs of one seed on the sim workloads.
DETERMINISTIC_SUFFIXES = ("_per_msg", "_per_publish", "_per_generate", "_share", "_max")
LIVE_WORKLOAD = "live_durable"  # wall-clock paced: nothing repeats exactly


class BenchmarkError(Exception):
    """A worker failed: crashed, timed out, or failed its audit."""


def run_worker(workload: str, mode: str, seed: int, seconds: float, quick: bool) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--mode", mode,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    if quick:
        command.append("--quick")
    # A fixed hash seed: set iteration order (topic sets) and with it
    # memory layout repeat from process to process; without it the same
    # seed ran in two speed modes 5% apart.
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        raise BenchmarkError(f"{workload}/{mode}: worker exited {done.returncode}")
    result = json.loads(lines[-1])
    if done.returncode == 1:
        raise BenchmarkError(
            f"{workload}/{mode}: audit failed: {result['failed']} of "
            f"{result['attempted']} operations, e.g. {result['violations'][:3]}"
        )
    return result


# ----------------------------------------------------------------------
# one pass of one workload
# ----------------------------------------------------------------------


def end_to_end(declared: dict, workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """The untraced pass: every declared end-to-end metric."""
    run = run_worker(workload, "measure", seed, seconds, quick)
    epochs, totals = run["epochs"], run["totals"]
    whole_run = {
        "setup_s": run["setup_s"],
        "delay_mean_rtd": totals["delay_mean_rtd"],
        "wire_bytes_per_msg": totals["wire_bytes"] / totals["agreed"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {}
    for metric in declared["end_to_end"]:
        name = metric["name"]
        if name in whole_run:
            metrics[name] = whole_run[name]
        else:
            pick = estimators.best_rate if name in RATES else estimators.best_time
            metrics[name] = pick([row[name] for row in epochs])
    run["metrics"] = metrics
    save(f"{workload}.json", run)
    return run


def traced(declared: dict, workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """The traced pass and its untraced twin at the same reduced size:
    every declared per-layer metric (0 for a layer the workload does
    not touch)."""
    reference = run_worker(workload, "reference", seed, seconds, quick)
    run = run_worker(workload, "trace", seed, seconds, quick)
    layers = run["layers"]
    layers["obs.trace_overhead_ratio"] = run["wall_per_msg_s"] / reference["wall_per_msg_s"]
    layers.update(reference["diagnostics"])
    layers.setdefault("obs.recorder_on_over_off", 0.0)  # group_wide's pass measures it
    unknown = [m["name"] for m in declared["per_layer"] if m["name"] not in layers]
    if unknown:
        raise BenchmarkError(f"BENCHMARK.json declares per-layer metrics nobody measures: {unknown}")
    run["metrics"] = {metric["name"]: layers[metric["name"]] for metric in declared["per_layer"]}
    run["attempted"] += reference["attempted"]
    run["failed"] += reference["failed"]
    save(f"{workload}_trace.json", run)
    return run


def save(name: str, payload: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w") as handle:
        json.dump(payload, handle, indent=1)


def report(declared: dict, workload: str, run: dict) -> None:
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    totals = run["totals"]
    note = "  (quick: not comparable)" if run["quick"] else ""
    print(
        f"== {workload}  mode={run['mode']} seed={run['seed']}{note}  "
        f"attempted={run['attempted']} failed={run['failed']}  "
        f"agreed={totals['agreed']} "
        f"last-delivery samples={totals['last_delivery_samples']}  audit=ok"
    )
    for name, value in run["metrics"].items():
        bound = f"  bound {bounds[name]:.0%}" if name in bounds else ""
        print(f"  {name:<42s} {value:>14.4f} {units[name]}{bound}")
    if run.get("missing_entry_points"):
        print(f"  not traced (entry point gone): {', '.join(run['missing_entry_points'])}")


def contract_line(declared: dict, runs: dict[str, dict], *, prefix: bool) -> str:
    """The benchmark contract's result object (one JSON line)."""
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    metrics = {}
    for workload, run in runs.items():
        for name, value in run["metrics"].items():
            if not math.isfinite(value):
                raise BenchmarkError(f"{workload}: {name} has no samples")
            label = f"{workload}.{name}" if prefix else name
            metrics[label] = {"value": value, "unit": units[name]}
    return json.dumps(
        {
            "correct": all(run["correct"] for run in runs.values()),
            "attempted": sum(run["attempted"] for run in runs.values()),
            "failed": sum(run["failed"] for run in runs.values()),
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# self-checks
# ----------------------------------------------------------------------


def check_noise(declared: dict, workloads: list[str], seed: int, seconds: float,
                quick: bool, repeats: int) -> bool:
    """Two sets of runs of the same code must agree within the bounds.

    Each set runs every workload ``repeats`` times (seeds ``seed`` ..
    ``seed + repeats - 1``), the second set in reverse workload order.
    Compared per (workload, metric): the two sets' medians, and — with
    four or more repeats — each set's interquartile spread.
    """
    sets: list[dict[str, list[dict]]] = []
    for order in (workloads, list(reversed(workloads))):
        batch: dict[str, list[dict]] = {}
        for workload in order:
            batch[workload] = [
                end_to_end(declared, workload, seed + i, seconds, quick)["metrics"]
                for i in range(repeats)
            ]
        sets.append(batch)
    ok = True
    print(f"{'workload':<13s}{'metric':<24s}{'set A':>12s}{'set B':>12s}"
          f"{'gap':>8s}{'spread A':>10s}{'spread B':>10s}{'bound':>7s}")
    observed = {}
    for workload in workloads:
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name] for m in sets[0][workload]]
            b = [m[name] for m in sets[1][workload]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / med_a
            spreads = (
                [estimators.spread(a), estimators.spread(b)] if repeats >= 4 else []
            )
            fail = gap > bound or any(s > bound for s in spreads)
            ok = ok and not fail
            observed[f"{workload}.{name}"] = {"a": a, "b": b, "gap": gap, "spreads": spreads}
            cells = "".join(f"{s:>10.2%}" for s in spreads) or f"{'-':>10s}{'-':>10s}"
            print(f"{workload:<13s}{name:<24s}{med_a:>12.4f}{med_b:>12.4f}"
                  f"{gap:>8.2%}{cells}{bound:>7.0%}{'  OVER' if fail else ''}")
    save("noise.json", observed)
    return ok


def check_determinism(workloads: list[str], seed: int, seconds: float, quick: bool) -> bool:
    """Same seed, same numbers; another seed, other inputs, audits green."""
    ok = True
    for workload in workloads:
        first, second = [
            (run_worker(workload, "measure", seed, seconds, quick),
             run_worker(workload, "trace", seed, seconds, quick))
            for _ in range(2)
        ]
        other = run_worker(workload, "measure", seed + 1, seconds, quick)
        for key in ("agreed", "wire_bytes", "delay_mean_rtd", "inputs_digest"):
            same = first[0]["totals"][key] == second[0]["totals"][key]
            ok = ok and same
            print(f"{workload:<13s}{key:<44s}{'bit-equal' if same else 'DIFFERS'}")
        for name in first[1]["layers"]:
            if name.endswith(DETERMINISTIC_SUFFIXES) and not name.endswith("self_share") \
                    and name != "bench.cpu_share":
                same = first[1]["layers"][name] == second[1]["layers"][name]
                ok = ok and same
                print(f"{workload:<13s}{name:<44s}{'bit-equal' if same else 'DIFFERS'}")
        changed = other["totals"]["inputs_digest"] != first[0]["totals"]["inputs_digest"]
        ok = ok and changed
        print(f"{workload:<13s}{'seed+1 changes the inputs, audit green':<44s}"
              f"{'yes' if changed else 'NO'}")
    return ok


# ----------------------------------------------------------------------


def main() -> int:
    declared = spec.load()
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                        help="measured window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=[0, 1])
    parser.add_argument("--quick", action="store_true",
                        help=f"tiny sizes ({QUICK_SECONDS:g} s); not comparable")
    parser.add_argument("--check-noise", action="store_true")
    parser.add_argument("--repeats", type=int, default=1, help="runs per set for --check-noise")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"benchmarks/e2e: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    seconds = QUICK_SECONDS if args.quick else args.seconds
    workloads = [args.workload] if args.workload else names

    try:
        if args.check_noise:
            same = check_noise(declared, workloads, args.seed, seconds, args.quick, args.repeats)
            return 0 if same else 1
        if args.check_determinism:
            sim = [name for name in workloads if name != LIVE_WORKLOAD]
            return 0 if check_determinism(sim, args.seed, seconds, args.quick) else 1
        runs = {}
        for workload in workloads:
            one_pass = traced if args.workload and args.trace else end_to_end
            runs[workload] = one_pass(declared, workload, args.seed, seconds, args.quick)
            report(declared, workload, runs[workload])
        if args.trace and not args.workload:
            # every workload: the end-to-end table above, then the trace
            for workload in workloads:
                run = traced(declared, workload, args.seed, seconds, args.quick)
                report(declared, workload, run)
        print(contract_line(declared, runs, prefix=not args.workload))
    except (BenchmarkError, subprocess.TimeoutExpired) as failure:
        print(f"benchmarks/e2e: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
