"""Every notebook script runs to its end, so a public name that a notebook
imports cannot disappear unnoticed.  The scripts write no files."""

import pathlib
import runpy

import pytest

NOTEBOOKS = sorted((pathlib.Path(__file__).parent.parent / "notebooks").glob("*.py"))


@pytest.mark.parametrize("path", NOTEBOOKS, ids=lambda p: p.name)
def test_notebook_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
