"""Every script under ``examples/`` runs to completion.

``examples/trace_comparison.py`` is also the home of the ASCII trace
panels of Figures 6, 7 and 9 (``run-all`` prints their headline
numbers), so its three captions are checked too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

CAPTIONS = {
    "trace_comparison.py": (
        "Figure 6: TCP Reno with no other traffic",
        "Figure 7: TCP Vegas with no other traffic",
        "Figure 9: TCP Vegas with tcplib background traffic",
    ),
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    for caption in CAPTIONS.get(script.name, ()):
        assert caption in done.stdout
