"""Every demo script runs to completion as documented (``python demos/X.py``)
and prints exactly the bytes pinned below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; a refactor that keeps outputs bit-identical
# keeps these, and a deliberate output change updates them.
STDOUT_SHA256 = {
    "closed_form_tour.py": "98d3a57dcf294fd8b6c1fdf37ebe7deb688d720b576580a7397ba1b3616f1b90",
    "equal_budget_accounting.py":
        "fb572a6fba1aa77a9b093e40368e8a0f2243000b769a625139b12943335cd531",
    "mechanism_race.py": "eea03e12960a9ca0c01cdb7b44bd65756e80f493ac3bfe6d19b40e5e97bdeb73",
    "query_language.py": "a6049a028edd0d112106cd608f47684305a28b5e39863b9f355d2f7b205b412f",
    "subset_certification.py":
        "3324abcc17de4fafb422a6df31cfc8802f2de22fe2c706371298a2cbebad392b",
}


def test_demos_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]
