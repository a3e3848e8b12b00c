"""Self-check of the end-to-end benchmark.  Not part of tier-1
``testpaths``; run it explicitly (75 s)::

    python -m pytest benchmarks/e2e/test_selfcheck.py -q

It drives ``run.py`` the way the benchmark driver does, at ``--quick``
size: every workload runs, audits clean and prints every metric; the
result object has the contract's shape; and the command refuses to run
where there is no source tree to measure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)

import estimators  # noqa: E402
import spec  # noqa: E402

DECLARED = spec.load()
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
END_TO_END = [metric["name"] for metric in DECLARED["end_to_end"]]
PER_LAYER = [metric["name"] for metric in DECLARED["per_layer"]]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_within_the_contract_and_the_issue():
    declared = DECLARED
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    metrics = declared["end_to_end"] + declared["per_layer"]
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(set(m) == {"name", "unit", "better"} for m in declared["per_layer"])
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    # ISSUE 14 rule (d): no bound above 10%; a metric that cannot hold
    # it is demoted to per_layer, never given a wider one.
    assert all(0 < bound <= 0.10 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_good_quartile_estimators():
    # The prototype's disturbed and undisturbed group_wide runs (ISSUE):
    # medians 186 vs 219, upper quartiles within 3% of each other.
    disturbed = [240, 234, 181, 186, 177]
    undisturbed = [239, 229, 206, 219, 214]
    assert abs(estimators.best_rate(disturbed) / estimators.best_rate(undisturbed) - 1) < 0.03
    assert estimators.best_time([5, 1, 2, 3, 4]) == 1.5
    assert estimators.percentile([1, 2, 3, 4, 5], 0.5) == 3


def test_quick_run_of_every_workload_audits_clean_and_prints_every_metric():
    result = result_of(run("--quick"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{workload}.{name}" for workload in WORKLOADS for name in END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for workload in WORKLOADS:
        with open(os.path.join(HERE, "results", f"{workload}.json")) as handle:
            assert json.load(handle)["quick"] is True  # marked non-comparable


def test_driver_invocation_has_the_contract_shape():
    args = ("--workload", "svc_bridged", "--seed", "7", "--seconds", "2")
    plain = result_of(run(*args, "--trace", "0"))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert list(plain["metrics"]) == END_TO_END
    assert all(set(m) == {"value", "unit"} for m in plain["metrics"].values())

    traced = result_of(run(*args, "--trace", "1"))
    assert list(traced["metrics"]) == PER_LAYER
    shares = {
        name: m["value"] for name, m in traced["metrics"].items()
        if name.endswith(".self_share")
    }
    assert abs(sum(shares.values()) - 1.0) < 0.05
    assert shares["svc.bridge.self_share"] > 0
    assert os.path.exists(os.path.join(HERE, "results", "trace_svc_bridged.jsonl"))


def test_a_vanished_entry_point_is_skipped_and_reported():
    # A later refactor may rename what the trace wraps; the traced pass
    # must lose that layer's split, not crash.
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import spec, tracing\n"
        "from repro.svc.frontend import Frontend\n"
        "del Frontend.drain_outbox\n"
        "tracer = tracing.Tracer(spec.layers(spec.load()))\n"
        "tracing.install(tracer)\n"
        "print(tracer.missing)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, HERE, os.path.join(ROOT, "src")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['repro.svc.frontend:Frontend.drain_outbox']"


def test_same_seed_same_counts_other_seed_other_inputs():
    done = run("--check-determinism", "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "DIFFERS" not in done.stdout


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = run("--workload", "svc_fanout", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
