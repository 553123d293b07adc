"""Command-line interface.

One executable, one subcommand per run: extract, synth, train, eval,
ablate, gradcheck, bench. Flags are the only configuration.

Exit codes: 0 success, 1 data or runtime error, 2 usage error, 130
interrupted. ``main`` owns the output directory: it refuses an ``--out``
that exists and is not a directory (one ``error:`` line, exit 1, nothing
run), creates it, and, after the command has returned, failed with exit 1
or been interrupted, writes a ``run_record.json`` reproducibility record
into it; an interrupt is then raised again. The record holds the command,
its resolved configuration, the package version, the numpy build, CPUs and
thread variables it ran with, its ``exit_code``, and ``error``: the
``error:`` line of a failure or an interrupt, or null. A usage error writes no record.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    benchmark_spec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    map_masks,
    split_information_spec,
)
from .evaluation import (
    evaluate,
    extraction_benchmark,
    measure_complexity,
    run_ablation,
)
from .features import FeatureSubset, extract_ssf
from .io import FormatError, load_mask, write_feature_csv, write_feature_matrix
from .mask import SegmentationMask, ValidationError
from .models import (
    BATCH_SIZE,
    FusionConfig,
    TrainPlan,
    build_fusion_classifier,
    build_global_classifier,
    build_semantic_classifier,
    check_descriptor,
    load_model,
    train,
)
from .nn import CheckpointError, CorruptedGradients, grad_check, load_checkpoint, save_checkpoint
from .nn.helper import blas_threads, usable_cpus

_STAGE_NAMES = {"semantic": "semantic_only", "step1": "step1_global", "step2": "step2_fusion"}


def _subset(text: str) -> FeatureSubset:
    try:
        return FeatureSubset.parse(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssfx",
        description="Per-category layout statistics from segmentation masks, "
                    "plus small classifier heads trained on them.",
    )
    parser.add_argument("--version", action="version", version=f"ssfx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract feature matrices from masks")
    p.add_argument("masks", nargs="*", help="mask files (PGM or SSFM container)")
    p.add_argument("--manifest", type=Path, help="extract every mask in a dataset manifest")
    p.add_argument("--L", type=int, dest="num_categories",
                   help="number of categories (required for bare mask files)")
    p.add_argument("--void", type=int, default=0, help="void sentinel value (default 0)")
    p.add_argument("--no-void", action="store_true", help="forbid unlabeled pixels")
    p.add_argument("--format", choices=("csv", "bin"), default="csv", help="output format")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--variant", choices=("benchmark", "split-info"), default="benchmark",
                   help="benchmark: 6 separable classes; split-info: class identity "
                        "split between mask layout and global vector")
    p.add_argument("--samples", type=int, default=100, help="samples per class")
    p.add_argument("--noise", type=float, default=0.1, help="jitter and pixel noise level in [0, 1)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--global-width", type=int, default=16, help="global feature vector width")
    p.add_argument("--global-sigma", type=float, default=0.25, help="global vector noise sigma")

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--stage", choices=tuple(_STAGE_NAMES), default="semantic",
                   help="semantic: head over features; step1: global branch only; "
                        "step2: fusion with a frozen step-1 branch")
    p.add_argument("--head", choices=("cnn", "nn", "pc1d"), default="cnn")
    p.add_argument("--subset", type=_subset, default=FeatureSubset(),
                   help="feature groups, e.g. pc,ap,sd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=BATCH_SIZE)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--from-checkpoint", type=Path, help="step-1 checkpoint to build step 2 on")
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("eval", help="evaluate a trained checkpoint")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", type=Path, help="directory for report.json and confusion.csv")

    p = sub.add_parser("ablate", help="train the full feature-subset x head grid")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch", type=int, default=BATCH_SIZE)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--out", type=Path, help="directory for ablation.json")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--model", choices=("ssf-cnn", "ssf-nn", "pc1d", "fusion"), default="ssf-cnn")
    p.add_argument("--L", type=int, dest="num_categories", default=5)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-per-block", type=int, default=64,
                   help="entries checked per parameter block; 0 checks everything")
    p.add_argument("--negative-control", action="store_true",
                   help="corrupt one gradient block and require the check to fail")

    p = sub.add_parser("bench", help="complexity and throughput measurements")
    p.add_argument("--model", choices=("ssf-cnn", "ssf-nn"), default="ssf-cnn")
    p.add_argument("--L", type=int, dest="num_categories", default=40)
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extract", action="store_true",
                   help="also time feature extraction on a 224x224 mask")
    p.add_argument("--runs", type=int, default=1000, help="extraction timing repetitions")
    p.add_argument("--out", type=Path, help="directory for bench.json")

    return parser


def _usage_problem(args: argparse.Namespace) -> str | None:
    """What argparse cannot check on its own about a command's flags, or None."""
    if args.command == "extract":
        if args.masks and args.num_categories is None:
            return "--L is required when extracting bare mask files"
        if not args.masks and args.manifest is None:
            return "nothing to extract: pass mask files or --manifest"
    if args.command == "train" and args.stage == "step2" and args.from_checkpoint is None:
        return "--stage step2 requires --from-checkpoint with the step-1 model"
    return None


def _record(args: argparse.Namespace, exit_code: int, error: str | None) -> None:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key == "command":
            continue
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, FeatureSubset):
            value = value.spec_string()
        config[key] = value
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError):  # an older numpy, without the dict form
        blas = None
    variables = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    environment = {"numpy": np.__version__, "blas": blas, "cpu_count": os.cpu_count(),
                   "usable_cpus": usable_cpus(), "blas_threads": blas_threads(),
                   "thread_variables": {k: os.environ.get(k) for k in variables}}
    record = {"command": args.command, "config": config, "version": __version__,
              "environment": environment, "exit_code": exit_code, "error": error}
    (args.out / "run_record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def cmd_extract(args: argparse.Namespace) -> int:
    void = None if args.no_void else args.void
    jobs: list[tuple[str, Path, int, int | None]] = []  # (output stem, path, L, void)
    if args.manifest is not None:
        manifest = load_manifest(args.manifest)
        for e in manifest.entries:
            jobs.append((e.id, manifest.root / e.mask_path,
                         manifest.num_categories, manifest.void_value))
    for raw in args.masks:
        path = Path(raw)
        jobs.append((path.stem, path, args.num_categories, void))
    suffix = ".csv" if args.format == "csv" else ".ssff"
    sources: dict[str, Path] = {}
    for stem, path, _, _ in jobs:
        if stem in sources:  # refused before any file is written
            raise ValidationError(f"two inputs have the stem {stem!r}, {sources[stem]} and "
                                  f"{path}: both would be written to {stem}{suffix}")
        sources[stem] = path

    def run_one(job: tuple[str, Path, int, int | None]) -> tuple[tuple[str, str | None], int]:
        stem, path, L, void_value = job
        try:
            mask = load_mask(path, L, void_value)
            matrix = extract_ssf(mask)
            if args.format == "csv":
                write_feature_csv(args.out / f"{stem}{suffix}", matrix)
            else:
                write_feature_matrix(args.out / f"{stem}{suffix}", matrix.values)
            return (stem, None), mask.data.size
        except (ValidationError, FormatError, FileNotFoundError, OSError) as exc:
            return (stem, str(exc)), 0

    results = map_masks(run_one, jobs)
    failures = [(stem, err) for stem, err in results if err is not None]
    for stem, err in failures:
        print(f"error: {stem}: {err}", file=sys.stderr)
    print(f"extracted {len(results) - len(failures)} of {len(results)} masks -> {args.out}")
    if failures:
        print(f"{len(failures)} mask(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    make = benchmark_spec if args.variant == "benchmark" else split_information_spec
    spec = make(samples_per_class=args.samples, noise=args.noise, seed=args.seed,
                height=args.height, width=args.width, global_width=args.global_width,
                global_sigma=args.global_sigma)
    manifest_path = generate_synthetic(spec, args.out)
    print(f"wrote {spec.num_classes * spec.samples_per_class} samples -> {manifest_path}")
    return 0


@contextmanager
def _naming(path: Path):
    """Start a ``CheckpointError`` raised inside with ``path``, as ``load_checkpoint``'s do."""
    try:
        yield
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def cmd_train(args: argparse.Namespace) -> int:
    stage = _STAGE_NAMES[args.stage]
    # Read the step-1 base before clearing --out, which may hold it.
    base = load_checkpoint(args.from_checkpoint) if stage == "step2_fusion" else None
    for name in ("model.ssfc", "model.ssfc.meta.json", "metrics.jsonl"):
        (args.out / name).unlink(missing_ok=True)
    manifest = load_manifest(args.manifest)
    data = load_dataset(manifest)
    rng = np.random.default_rng(args.seed)
    frozen: tuple[str, ...] = ()

    if stage == "semantic_only":
        model = build_semantic_classifier(args.head, args.subset, data.num_categories,
                                          data.num_classes, rng)
    elif stage == "step1_global":
        if data.global_vecs is None:
            raise ValidationError("manifest has no global feature vectors; step 1 needs them")
        cfg = FusionConfig(global_input_width=data.global_vecs.shape[1],
                           num_classes=data.num_classes)
        model = build_global_classifier(cfg, rng)
    else:
        if data.global_vecs is None:
            raise ValidationError("manifest has no global feature vectors; step 2 needs them")
        with _naming(args.from_checkpoint):
            base_width = check_descriptor(base.descriptor).get("global_width",
                                                                 FusionConfig.global_width)
            cfg = FusionConfig(global_input_width=data.global_vecs.shape[1],
                               num_classes=data.num_classes, global_width=base_width)
            model = build_fusion_classifier(cfg, args.head, args.subset, data.num_categories,
                                            rng, base=base)
        frozen = model.global_param_names()

    plan = TrainPlan(stage=stage, epochs=args.epochs, batch_size=args.batch,
                     learning_rate=args.lr, weight_decay=args.weight_decay,
                     seed=args.seed, frozen=frozen)
    ckpt, metrics = train(plan, data, model)

    save_checkpoint(ckpt, args.out / "model.ssfc")
    with open(args.out / "metrics.jsonl", "w") as fh:
        for m in metrics:
            fh.write(json.dumps(m, sort_keys=True, allow_nan=False) + "\n")
    last = ckpt.metadata["final_metrics"]
    print(f"trained {stage} for {args.epochs} epochs -> {args.out / 'model.ssfc'}")
    print(f"final train acc {last['train']['accuracy']:.4f}, "
          f"test acc {last['test']['accuracy']:.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    with _naming(args.checkpoint):
        model = load_model(ckpt)
    manifest = load_manifest(args.manifest)
    data = load_dataset(manifest)
    width = model.descriptor().get("global_input_width")
    if width is not None and data.global_vecs is not None and data.global_vecs.shape[1] != width:
        raise ValidationError(f"{args.checkpoint}: global_input_width={width} does not match the "
                              f"manifest's global vectors of width {data.global_vecs.shape[1]}")
    report = evaluate(model, data, args.split)
    print(report.to_text())
    if args.out is not None:
        (args.out / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        (args.out / "confusion.csv").write_text(report.confusion_csv())
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    data = load_dataset(manifest)
    grid = run_ablation(data, epochs=args.epochs, batch_size=args.batch,
                        learning_rate=args.lr, weight_decay=args.weight_decay,
                        seed=args.seed)
    print(grid.to_text())
    if args.out is not None:
        (args.out / "ablation.json").write_text(json.dumps(grid.to_dict(), indent=2) + "\n")
    failed = [c for c in grid.cells if c.accuracy is None]
    for c in failed:
        print(f"error: cell ({c.subset_label}, {c.head}): {c.error}", file=sys.stderr)
    return 1 if failed else 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    L, C, B = args.num_categories, args.classes, args.batch
    if B < 1:
        raise ValidationError(f"batch must be >= 1, got {B}")
    subset = FeatureSubset(pc=True, ap=False, sd=False) if args.model == "pc1d" else FeatureSubset()
    if args.model == "fusion":
        cfg = FusionConfig(global_input_width=8, num_classes=C, global_width=16,
                           semantic_width=32, fc3_width=16)
        model = build_fusion_classifier(cfg, "nn", subset, L, rng, hidden=(24, 32))
        global_vec = rng.standard_normal((B, 8))
    else:
        head = {"ssf-cnn": "cnn", "ssf-nn": "nn", "pc1d": "pc1d"}[args.model]
        model = build_semantic_classifier(head, subset, L, C, rng)
        global_vec = None
    ssf = rng.uniform(0.0, 1.0, size=(B, L, 5))
    labels = rng.integers(0, C, size=B)

    sample = None if args.sample_per_block == 0 else args.sample_per_block
    target = model
    if args.negative_control:
        block = model.parameters()[0][0]
        target = CorruptedGradients(model, block)
    report = grad_check(target, ssf, global_vec, labels, tolerance=args.tol,
                        sample_per_block=sample, rng=np.random.default_rng(args.seed + 1))
    for line in report.summary_lines():
        print(line)
    if args.negative_control:
        if report.passed:
            print("negative control unexpectedly passed: corrupted gradients went "
                  "undetected", file=sys.stderr)
            return 1
        print("negative control failed as required")
        return 0
    return 0 if report.passed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    head = "cnn" if args.model == "ssf-cnn" else "nn"
    model = build_semantic_classifier(head, FeatureSubset(), args.num_categories,
                                      args.classes, rng)
    report = measure_complexity(model, iterations=args.iters, warmup=args.warmup)
    print(f"model: {args.model} (L={args.num_categories}, k=5, classes={args.classes})")
    print(report.to_text())
    out_data = {"model": args.model, **report.to_dict()}
    if args.extract:
        grid = np.asarray(rng.integers(0, 41, size=(224, 224)), dtype=np.uint16)
        mask = SegmentationMask(data=grid, num_categories=40, void_value=0)
        median = extraction_benchmark(mask, runs=args.runs)
        print(f"extraction median ({args.runs} runs, 224x224, L=40): {median * 1e3:.4f} ms")
        out_data["extract_median_seconds"] = median
    if args.out is not None:
        (args.out / "bench.json").write_text(json.dumps(out_data, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "extract": cmd_extract,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _usage_problem(args)
    if problem is not None:
        print(f"usage error: {problem}", file=sys.stderr)
        return 2
    out = getattr(args, "out", None)
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # FileExistsError when --out names a file
            print(f"error: cannot use --out {out} as the output directory: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 1
    error = None
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"seed must be >= 0, got {args.seed}")
        # An overflow or invalid operation (inf - inf, 0/0) ends the run
        # with one error line rather than a warning; underflow stays ignored.
        with np.errstate(over="raise", invalid="raise"):
            exit_code = _COMMANDS[args.command](args)
    except (ValidationError, FormatError, CheckpointError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError, ArithmeticError) as exc:
        error = f"error: {exc}"
    except MemoryError as exc:
        error = f"error: out of memory: {str(exc) or 'an allocation failed'}"
    except KeyboardInterrupt:
        if out is not None:
            _record(args, 130, "error: interrupted")
        raise
    if error is not None:
        print(error, file=sys.stderr)
        exit_code = 1
    if out is not None:
        _record(args, exit_code, error)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
