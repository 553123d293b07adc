"""``tools/recipe_hashes.py``, the same-bytes check: it runs, names every
checkpoint of its recipe, and prints the same lines each time."""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "recipe_hashes.py"


def test_recipe_hashes_lists_every_run_and_repeats_itself():
    spec = importlib.util.spec_from_file_location("recipe_hashes", SCRIPT)
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    runs = [subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                           timeout=300) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    lines = runs[0].stdout.splitlines()
    # The digests depend on the BLAS kernels, so only their form is checked.
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    assert [line.split("  ")[1] for line in lines] == [
        f"{name}/{file}" for name, _ in recipe.RUNS
        for file in ("model.ssfc", "model.ssfc.meta.json")]
    assert runs[1].stdout == runs[0].stdout
