"""What importing the package loads.

scipy backs only E9b's paired tests in
:mod:`repro.analysis.significance`, which import it on first call; the
kernels and the service must start without it.  Each check runs in a
fresh interpreter, since this test process may already hold scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _loaded_scipy_modules(code: str) -> str:
    probe = code + (
        "\nimport sys"
        "\nprint(sorted(m for m in sys.modules"
        " if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_kernels_and_service_import_without_scipy():
    assert _loaded_scipy_modules(
        "import repro, repro.service.server, repro.routing.batch, "
        "repro.safety.levels") == "[]"


def test_significance_imports_scipy_on_first_call():
    loaded = _loaded_scipy_modules(
        "from repro.analysis.significance import (PairedOutcomes, "
        "paired_delivery_test)\n"
        "outcomes = PairedOutcomes('a', 'b', [True, False], [False, True], "
        "[], [])\n"
        "print(paired_delivery_test(outcomes))")
    assert "'scipy.stats'" in loaded
