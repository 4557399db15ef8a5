import subprocess
import sys

import pytest

from conftest import REPO

SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(tmp_path, script):
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_runs():
    text = (REPO / "README.md").read_text()
    tour = text.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["p1"].tolist() == [0.75, 0.25]
    assert len(scope["surfaces"]) == len(scope["grid_surfaces"]) == 4
    assert scope["value"] <= 1.0
