"""Each demo script runs to completion and writes its outputs."""

import pathlib
import runpy
import shutil

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, capsys, demo):
    # a copy writes its out/ directory next to itself, inside tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert any(p.is_file() for p in (tmp_path / "out").iterdir())
    # stdout names outputs relative to the demo, never the checkout's path
    assert str(tmp_path) not in capsys.readouterr().out
