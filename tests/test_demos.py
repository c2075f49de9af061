"""Every demo script runs to completion against the current API and prints
its recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridorbits

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's standard output; timings go to standard error
STDOUT_DIGESTS = {
    "01_worked_example.py": "42d277a84c501b24bbbb1e4af106d1d6ea1972f90478ad7e411dbb3ce08b42aa",
    "02_orbit_census_and_poset.py": "3350b71c00c2996a9b9caa40e21e290e0a838c26b7b166b24e5a1b789c55e5ed",
    "03_flat_scan.py": "c7bb3a25eee4590ac5f4ddb701c49dc2d244ada432c78a25ea74517be9bac9b5",
    "04_hom_audit.py": "066c3d25fd1a56e3e0cf5ebb37229c8e0841a1960348c07334a15b4f04fbe34a",
}


def test_all_demos_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demos may write files (02 writes orbit_poset_n2.dot), so each runs in
    # its own directory, with the package found wherever the tests find it
    src = str(Path(gridorbits.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.name], proc.stdout
