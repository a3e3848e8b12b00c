"""``BENCHMARK.json`` is the one place workloads, metrics, units and
bounds are declared; the command, the workers and the self-check read
it from here."""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))


def load() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def layers(spec: dict) -> list[str]:
    """The traced layers: every ``<layer>.self_share`` but the
    remainder (``bench.driver``)."""
    suffix = ".self_share"
    return [
        metric["name"][: -len(suffix)]
        for metric in spec["per_layer"]
        if metric["name"].endswith(suffix) and metric["name"] != "bench.driver" + suffix
    ]
