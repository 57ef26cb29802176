"""Every script under ``demos/`` runs to completion.

Each runs from a copy in a temporary directory, so the SVGs a demo writes
next to itself land there and not in ``demos/out/``; each must equal its
committed twin there byte for byte.
"""
import runpy
import shutil
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, capsys):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    for svg in (tmp_path / "out").glob("*.svg"):
        assert svg.read_bytes() == (DEMO_DIR / "out" / svg.name).read_bytes(), svg.name
