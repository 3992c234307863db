"""Every script under `scripts/` loads against the package as it stands.

A script imports the names it uses from `foilrl` when it is loaded, so a
rename in `src/foilrl` that breaks one shows here. Loading under a name
other than `__main__` runs no script's `main`.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from foilrl import bundled_airfoil_dir

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _bundled_files() -> dict[str, int]:
    return {p.name: p.stat().st_mtime_ns for p in Path(bundled_airfoil_dir()).iterdir()}


def test_every_script_is_found():
    assert "generate_bundled_airfoils.py" in [p.name for p in SCRIPTS]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_loads_without_running(script, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts put this checkout's src/ first
    name = f"_foilrl_script_{script.stem}"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    bundled = _bundled_files()

    spec.loader.exec_module(module)

    assert callable(module.main)
    assert _bundled_files() == bundled  # generate_bundled_airfoils.main did not run
