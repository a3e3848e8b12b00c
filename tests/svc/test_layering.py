"""The service tier sits below the live runtime and the harnesses that
grade it: importing it must not pull either in."""

import subprocess
import sys


def test_importing_svc_loads_neither_the_adversarial_harness_nor_the_live_node():
    probe = (
        "import sys, repro.svc; "
        "print(' '.join(sorted(m for m in ('repro.harness.adversarial', "
        "'repro.runtime.node') if m in sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
