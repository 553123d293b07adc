"""Print the sha256 of every checkpoint and sidecar of the seeded recipe.

The recipe is a 12-per-class ``split-info`` dataset (seed 3), trained with
seed 3 for 2 epochs at learning rate 1e-3 six ways: semantic ``nn``,
``cnn`` and ``pc1d --subset pc``, then step 1, step 2, and step 2 with
``--head nn``.
Each run goes through ``ssfx.cli.main`` in a temporary directory, using the
``src/`` of the checkout this script lives in. One ``sha256  path`` line is
printed per ``model.ssfc`` and ``model.ssfc.meta.json``.

A change that should keep training bit-identical is checked by running
this script in a checkout of the commit before it (copy the script in if
that commit lacks it) and in the change's, on one machine, and diffing the
two outputs:

    python3 tools/recipe_hashes.py > after.txt

The hashes depend on the BLAS kernels, so they are compared between two
checkouts on one machine and never pinned.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssfx.cli import main as ssfx  # noqa: E402

# Output directory and options of each training run, in order; step 2
# builds on the step-1 checkpoint.
RUNS = [
    ("semantic-nn", ["--head", "nn"]),
    ("semantic-cnn", ["--head", "cnn"]),
    ("semantic-pc1d", ["--head", "pc1d", "--subset", "pc"]),
    ("step1", ["--stage", "step1"]),
    ("step2", ["--stage", "step2"]),
    ("step2-nn", ["--stage", "step2", "--head", "nn"]),
]


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ssfx(argv)
    if code != 0:
        raise SystemExit(f"ssfx {' '.join(argv)} exited {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run(["synth", "--out", str(root / "data"), "--variant", "split-info",
             "--samples", "12", "--seed", "3"])
        manifest = str(root / "data" / "dataset.manifest")
        base = ["--from-checkpoint", str(root / "step1" / "model.ssfc")]
        for name, options in RUNS:
            run(["train", "--manifest", manifest, "--seed", "3", "--epochs", "2", "--lr", "1e-3",
                 *options, *(base if "step2" in options else []), "--out", str(root / name)])
        for name, _ in RUNS:
            for file in ("model.ssfc", "model.ssfc.meta.json"):
                digest = hashlib.sha256((root / name / file).read_bytes()).hexdigest()
                print(f"{digest}  {name}/{file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
