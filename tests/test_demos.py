"""The quick demos run to completion against the package in ``src``.

``end_to_end.py`` trains a model for several seconds and is left to a manual
run: ``PYTHONPATH=src python demos/end_to_end.py``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["group_matching.py", "heatmap_targets.py",
                                  "room_features.py", "set_encoder.py"])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
