"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seeds A-B \\
        [--out FILE]

Each tree is a source checkout (``src/``, ``bench/``, ``BENCHMARK.json``).
Both must hold the same ``bench/`` files, so the two sides of a pair differ
only in ``src/``. For each seed, ``bench/run.py --workload W --seed N
--seconds S`` runs once in each tree, S being ``run_seconds`` of
``BENCHMARK.json``, one after the other: the parent first
on odd seeds, the change first on even ones, so a drift of the machine
during a set weighs on both sides alike.

Every run's record (``bench/runs/<W>-seed<N>-trace0/result.json``) is
kept, without its per-round ``samples`` lists, with the environment block
it printed. Per end-to-end metric of ``BENCHMARK.json``, ``summarize``
gives each side's median and quartiles (linear interpolation), the pairs
the change won (ties count for neither), ``beyond_parent_iqr`` (the change
median is better than the parent median by more than the parent's
q3 - q1), the median per-pair ratio change / parent, and the two-sided
sign-test p of the wins among the untied pairs (10 of 10 gives 0.002;
Kalibera & Jones, ISMM 2013). The IQR rule is the rule; the paired figures
stand beside it.

With ``--out FILE``, the workload's section is written into FILE, keeping
the other workloads' sections already there; without it the JSON goes to
standard output. A run that fails stops the tool with its error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

METHOD = ("alternating parent/change pairs, one per seed, the parent first on odd seeds; "
          "each side runs bench/run.py in its own tree, with identical bench/ files; "
          "quartiles by linear interpolation; change_wins counts pairs the change won, ties "
          "counting for neither; beyond_parent_iqr says whether the change median is better "
          "than the parent median by more than the parent q3 - q1; median_ratio is the "
          "median of change / parent over the pairs; sign_test_p is the two-sided exact "
          "sign-test p of the wins among untied pairs.")


def seed_range(text: str) -> list[int]:
    """``"A-B"`` as the seeds A to B inclusive, or ``"N"`` as one seed."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> dict:
    """Median, q1 and q3 by linear interpolation (numpy's default percentile)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign test: the chance of a split at least this uneven
    among ``wins + losses`` pairs if either side were equally likely to win."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The figures of one metric over pairs ``(parent[i], change[i])``;
    ``better`` is ``"higher"`` or ``"lower"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one change value per parent value, and at least one pair")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    ratios = [cv / pv for pv, cv in zip(parent, change) if pv != 0]
    return {
        "better": better,
        "parent": p,
        "change": c,
        "pairs": len(parent),
        "change_wins": wins,
        "beyond_parent_iqr": sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
        "median_ratio": statistics.median(ratios) if ratios else None,
        "sign_test_p": sign_test_p(wins, losses),
    }


def bench_digest(tree: Path) -> str:
    """sha256 over the files of ``tree/bench``, leaving out run output and caches."""
    h = hashlib.sha256()
    for path in sorted((tree / "bench").rglob("*")):
        rel = path.relative_to(tree / "bench")
        if path.is_file() and rel.parts[0] != "runs" and "__pycache__" not in rel.parts:
            h.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its environment line and its record."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        raise SystemExit(f"bench/run.py in {tree}, seed {seed}, exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    record = json.loads((tree / "bench" / "runs" / f"{workload}-seed{seed}-trace0"
                         / "result.json").read_text())
    del record["samples"]   # the per-round lists the record's medians come from
    return {"environment": json.loads(lines[-2][4:]), "record": record}


def run_pairs(parent: Path, change: Path, workload: str, seeds: list[int],
              seconds: float) -> list[dict]:
    runs = []
    for seed in seeds:
        sides = [("parent", parent), ("change", change)]
        for order, (side, tree) in enumerate(sides if seed % 2 else sides[::-1]):
            out = run_once(tree, workload, seed, seconds)
            runs.append({"seed": seed, "side": side, "order": order, **out})
            print(f"{workload} seed {seed} {side}: {out['record']['result']['metrics']}",
                  file=sys.stderr)
    return runs


def section(runs: list[dict], spec: dict) -> dict:
    """The summary of one workload's runs, with the runs themselves."""
    by = {(r["seed"], r["side"]): r["record"] for r in runs}
    seeds = sorted({r["seed"] for r in runs})
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        metrics[name] = summarize([by[s, "parent"]["end_to_end"][name] for s in seeds],
                                  [by[s, "change"]["end_to_end"][name] for s in seeds],
                                  m["better"])
    return {
        "seeds": seeds,
        "seconds": spec["run_seconds"],
        "all_correct": all(r["record"]["result"]["correct"] for r in runs),
        "environment": runs[0]["environment"],
        "metrics": metrics,
        "runs": runs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Alternating parent/change benchmark pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    if bench_digest(parent) != bench_digest(change):
        print("error: the two trees' bench/ files differ", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text())
    runs = run_pairs(parent, change, args.workload, args.seeds, spec["run_seconds"])

    doc = {"method": METHOD, "workloads": {}}
    if args.out is not None and args.out.exists():
        doc = json.loads(args.out.read_text())
    doc.setdefault("workloads", {})[args.workload] = section(runs, spec)
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
