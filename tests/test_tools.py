"""The tools: ``tools/recipe_hashes.py``, the same-bytes check, runs, names
every checkpoint of its recipe and prints the same lines each time; and
``tools/bench_pairs.py`` summarises fixed run records with the right arithmetic."""
import importlib.util
import math
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


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPT.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairs:
    """``tools/bench_pairs.py`` on fixed run records: the arithmetic of its summary."""

    @staticmethod
    def runs():
        """Four pairs: the change is faster in three and ties in one."""
        values = {1: (100.0, 110.0), 2: (90.0, 99.0), 3: (120.0, 120.0), 4: (80.0, 100.0)}
        runs = []
        for seed, (parent, change) in values.items():
            for side, v in (("parent", parent), ("change", change)):
                runs.append({"seed": seed, "side": side, "order": 0, "environment": {"n": 1},
                             "record": {"end_to_end": {"rate": v, "ms": 1000.0 / v},
                                        "result": {"correct": True}}})
        return runs

    def test_summary_of_fixed_records(self):
        tool = load_tool("bench_pairs")
        spec = {"run_seconds": 20, "end_to_end": [{"name": "rate", "better": "higher"},
                                                  {"name": "ms", "better": "lower"}]}
        out = tool.section(self.runs(), spec)
        assert out["seeds"] == [1, 2, 3, 4] and out["all_correct"] and out["seconds"] == 20
        rate = out["metrics"]["rate"]
        # parent 80, 90, 100, 120: median 95, q1 87.5, q3 105 (linear interpolation);
        # change 99, 100, 110, 120: median 105, q1 99.75, q3 112.5.
        assert rate["parent"] == {"median": 95.0, "q1": 87.5, "q3": 105.0}
        assert rate["change"] == {"median": 105.0, "q1": 99.75, "q3": 112.5}
        assert rate["pairs"] == 4 and rate["change_wins"] == 3
        # 105 - 95 = 10 is not more than the parent IQR of 17.5.
        assert rate["beyond_parent_iqr"] is False
        # Ratios 1.1, 1.1, 1.0, 1.25: median 1.1. Three wins of three untied pairs: p = 2/8.
        assert math.isclose(rate["median_ratio"], 1.1)
        assert rate["sign_test_p"] == 0.25
        ms = out["metrics"]["ms"]
        assert ms["better"] == "lower" and ms["change_wins"] == 3
        assert ms["sign_test_p"] == 0.25

    def test_sign_test_and_iqr_rule(self):
        tool = load_tool("bench_pairs")
        assert round(tool.sign_test_p(10, 0), 3) == 0.002
        assert tool.sign_test_p(0, 10) == tool.sign_test_p(10, 0)
        assert tool.sign_test_p(5, 5) == 1.0 and tool.sign_test_p(0, 0) == 1.0
        assert math.isclose(tool.sign_test_p(8, 2), 2 * (1 + 10 + 45) / 1024)
        s = tool.summarize([10.0, 11.0, 12.0], [20.0, 21.0, 22.0], "higher")
        assert s["beyond_parent_iqr"] is True and s["change_wins"] == 3
        s = tool.summarize([10.0, 11.0, 12.0], [20.0, 21.0, 22.0], "lower")
        assert s["beyond_parent_iqr"] is False and s["change_wins"] == 0
        assert tool.seed_range("3-5") == [3, 4, 5] and tool.seed_range("7") == [7]
