"""Benchmark of ssfx.

    python3 bench/run.py --workload ingest|train-cnn|fusion --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One run starts, one after another:
two set-up processes, four cold-ingest processes, the main workload
process (which sets up a third time, then measures for ``--seconds``) and a
checkpoint process that round-trips the main process's trained model. Every
process runs with the settings in ``SETTINGS``. The last line of standard
output is the result: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The line before it is the environment block. The full record, spans of a
traced run included, is left in ``bench/runs/<workload>-seed<N>-trace<T>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "train-cnn", "fusion")
SETUP_ONLY_REPS = 2   # plus the main process's own set-up: three samples
COLD_REPS = 4
RUN_LIMIT_S = 170     # one run must end within 180 s
# One BLAS/OpenMP thread, and no transparent huge pages for numpy arrays:
# whether the kernel can back an array with huge pages depends on what other
# tenants of a shared machine do with memory, and it changes the heap layout
# that checkpoint round trips and extraction speed depend on. With it off, the
# same run gives the same minor-fault pattern every time.
SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "NUMPY_MADVISE_HUGEPAGE": "0"}


class ChildFailed(RuntimeError):
    pass


def child(phase: str, args, rundir: Path, env: dict, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), phase, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(rundir), *extra]
    if args.trace:
        cmd.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{phase}: no time left within {RUN_LIMIT_S} s")
    proc = subprocess.run(cmd + ["--t0", repr(time.time())], env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise ChildFailed(f"{phase} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, env: dict) -> dict:
    """The block every result records: the software and thread settings it ran with."""
    code = ("import json, numpy; c = numpy.show_config(mode='dicts');"
            "b = c['Build Dependencies']['blas'];"
            "print(json.dumps({'numpy': numpy.__version__, 'blas': b.get('name'),"
            " 'blas_version': b.get('version'), 'blas_config': b.get('openblas configuration')}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    info = json.loads(proc.stdout) if proc.returncode == 0 else {"numpy": "unknown"}
    info.update({
        "settings": {k: env[k] for k in SETTINGS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    })
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of ssfx")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ssfx" / "__init__.py").is_file():
        print(f"error: no ssfx sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, **SETTINGS)
    rundir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    inputs_dir = rundir / "inputs"
    try:
        setups = []
        for _ in range(SETUP_ONLY_REPS):
            shutil.rmtree(inputs_dir, ignore_errors=True)
            setups.append(child("setup", args, rundir, env, deadline)["setup_s"])
        colds = [child("cold", args, rundir, env, deadline, "--rep", str(i))
                 for i in range(COLD_REPS)]
        shutil.rmtree(inputs_dir)
        main_out = child("main", args, rundir, env, deadline, "--seconds", str(args.seconds))
        ckpt_out = child("checkpoint", args, rundir, env, deadline)
    except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
        for leftover in rundir.glob("*.ssfc*"):
            leftover.unlink()

    errors = list(main_out["errors"])
    errors += [f"cold pass {i} extracted different features from the warm pass"
               for i, c in enumerate(colds) if c["ssf_sha256"] != main_out["ssf_sha256"]]
    end_to_end = {
        "setup_s": statistics.median(setups + [main_out["setup_s"]]),
        "masks_per_s_cold": statistics.median(c["masks"] / c["seconds"] for c in colds),
        "masks_per_s": main_out["masks_per_s"],
        "train_samples_per_s": main_out["train_samples_per_s"],
        "predict_ms_p50": main_out["predict_ms_p50"],
        "checkpoint_s": ckpt_out["checkpoint_s"],
        "peak_rss_mb": main_out["peak_rss_mb"],
    }
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed, env), "end_to_end": end_to_end,
              "setup_samples_s": setups + [main_out["setup_s"]],
              "cold_samples": [{k: c[k] for k in ("masks", "seconds")} for c in colds],
              "rounds": main_out["rounds"],
              "samples": {**main_out["samples"], "checkpoint_s": ckpt_out["samples"]},
              "errors": errors}

    if args.trace:
        measured = dict(main_out["per_layer"])
        for key in ("features.extract_ms_cold", "features.minflt_per_mask"):
            measured[key] = statistics.median(c["per_layer"][key] for c in colds)
        measured.update(ckpt_out["per_layer"])
        record["per_layer"] = measured
        # A layer or branch that this workload's models lack did no work: 0.
        chosen = {m["name"]: (measured.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (end_to_end[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    attempted = (main_out["attempted"] + sum(c["masks"] for c in colds)
                 + len(ckpt_out["samples"]))
    result = {"correct": not errors, "attempted": attempted, "failed": 0,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in chosen.items()}}
    (rundir / "result.json").write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print("env " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
