"""One process of a benchmark run; ``run.py`` starts it and reads its last line.

    worker.py setup      --workload W --seed N --dir D --t0 T
    worker.py cold       --workload W --seed N --dir D [--trace]
    worker.py main       --workload W --seed N --dir D --t0 T --seconds S [--trace]
    worker.py checkpoint --workload W --seed N --dir D [--trace]

``setup`` writes the workload's inputs and builds its models, then exits.
``cold`` runs ``load_dataset(load_manifest(...))`` as the first work after
the imports. ``main`` sets up like ``setup``, then repeats rounds of the
workload until ``--seconds`` have passed. Every round makes the same calls
in the same order: two ingest passes, the training and one prediction per
test sample. The order is fixed so that the allocator state, which
extraction speed depends on, repeats from run to run. ``main`` also saves
the trained model once; ``checkpoint`` then times save+load round trips of
it in a fresh process. In the long-lived main process the heap's history
decides whether a round trip takes 0 or 20k minor faults, and that history
differed from seed to seed; a fresh process repeats it exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import ssfx.data as data  # noqa: E402
import ssfx.evaluation as evaluation  # noqa: E402
import ssfx.features as features  # noqa: E402
import ssfx.io as io  # noqa: E402
import ssfx.models as models  # noqa: E402
import ssfx.nn.checkpoint as checkpoint  # noqa: E402
from ssfx.features import FeatureSubset  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

FULL = FeatureSubset.parse("pc,ap,sd")
L = inputs.NUM_CATEGORIES
C = inputs.NUM_CLASSES


@dataclass(frozen=True)
class Shape:
    """What one round of a workload trains and how often it round-trips."""

    head: str            # semantic head, or "fusion" for the two-step protocol
    epochs: int          # of the semantic head, or of step 1 for "fusion"
    fusion_epochs: int = 0  # of step 2


SHAPES = {
    "ingest": Shape(head="pc1d", epochs=3),
    "train-cnn": Shape(head="cnn", epochs=2),
    # Step 2 at Adam's 1e-3 swings between epochs early on: after 3 epochs
    # fused test accuracy ranged 0.78-1.0 over 40 seeds, after 8 it was
    # 0.94-1.0. With 8, the fusion check judges a trained model, not a swing.
    "fusion": Shape(head="fusion", epochs=3, fusion_epochs=8),
}
BATCH = 32
TRAINED = "trained.ssfc"  # the main process's trained model, for the checkpoint process
# The checkpoint process round-trips for at least this long and this often,
# so that its median spans more than one moment of a shared machine.
CHECKPOINT_SECONDS = 2.0
MIN_ROUND_TRIPS = 8
INGEST_PASSES = 2     # warm load_dataset calls per round
MIN_ROUNDS = 3        # round 0 gives no warm ingest sample; three give four
LEARNING_RATE = 1e-3
FUSION_CFG = models.FusionConfig(global_input_width=inputs.LAYOUTS["fusion"].global_width,
                                 num_classes=C)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def build_models(workload: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, 0])
    head = SHAPES[workload].head
    if head == "fusion":
        return {"global": models.build_global_classifier(FUSION_CFG, rng),
                "fusion": build_fusion(seed, base=None)}
    subset = FeatureSubset.parse("pc") if head == "pc1d" else FULL
    return {"semantic": models.build_semantic_classifier(head, subset, L, C, rng)}


def build_fusion(seed: int, base):
    return models.build_fusion_classifier(FUSION_CFG, "nn", FULL, L,
                                          np.random.default_rng([seed, 1]), base=base)


def set_up(args) -> tuple[Path, dict]:
    manifest = inputs.write_inputs(args.workload, args.seed, args.dir / "inputs")
    return manifest, build_models(args.workload, args.seed)


def ssf_digest(ssf: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(ssf).tobytes()).hexdigest()


def run_cold(args) -> dict:
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t = time.perf_counter()
    ds = data.load_dataset(data.load_manifest(args.dir / "inputs" / "dataset.manifest"))
    seconds = time.perf_counter() - t
    out = {"masks": len(ds.labels), "seconds": seconds, "ssf_sha256": ssf_digest(ds.ssf)}
    if tracer:
        out["per_layer"] = spans.cold_metrics(tracer)
        tracer.dump(args.dir / f"spans-cold-{args.rep}.json")
    return out


def run_checkpoint(args) -> dict:
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        tracer.install()
    ckpt = checkpoint.load_checkpoint(args.dir / TRAINED)
    path = args.dir / "round-trip.ssfc"
    seconds = []
    deadline = time.perf_counter() + CHECKPOINT_SECONDS
    while len(seconds) < MIN_ROUND_TRIPS or time.perf_counter() < deadline:
        with tracer.span("op.checkpoint"):
            t = time.perf_counter()
            checkpoint.save_checkpoint(ckpt, path)
            # Held until the next load replaces it, as a caller keeps a model.
            loaded = checkpoint.load_checkpoint(path)  # noqa: F841
            seconds.append(time.perf_counter() - t)
        # Every save writes a new file: truncating one whose pages are
        # still being written back would time the disk, not the program.
        path.unlink()
    out = {"checkpoint_s": statistics.median(seconds), "samples": seconds}
    if args.trace:
        out["per_layer"] = spans.checkpoint_metrics(tracer)
        tracer.dump(args.dir / "spans-checkpoint.json")
    return out


class Main:
    """The measured part of a run: rounds of the workload until the deadline."""

    def __init__(self, args, manifest_path: Path, built: dict, tracer) -> None:
        self.args = args
        self.shape = SHAPES[args.workload]
        self.manifest_path = manifest_path
        self.manifest = data.load_manifest(manifest_path)
        self.built = built
        self.init = {name: m.state_arrays() for name, m in built.items()}
        self.tracer = tracer
        for name, model in built.items():
            tracer.watch_model(model, self.shape.head if name == "semantic" else name)
        self.errors: list[str] = []
        self.ingest_rates: list[float] = []
        self.round_trains: list[tuple[int, float]] = []  # samples, seconds per round
        self.train_calls: list[float] = []
        self.predict_ms: list[float] = []
        self.attempted = 0
        self.first_ssf = None
        self.notes: dict[str, float] = {}

    def run(self) -> None:
        deadline = time.perf_counter() + self.args.seconds
        self.rounds = 0
        while self.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            self.one_round(self.rounds)
            self.rounds += 1
        self.check_features()

    def one_round(self, rnd: int) -> None:
        for _ in range(INGEST_PASSES):
            with self.tracer.span("op.ingest"):
                t = time.perf_counter()
                ds = data.load_dataset(data.load_manifest(self.manifest_path))
                seconds = time.perf_counter() - t
            # Round 0 runs before any training, in the allocator state of a
            # fresh process (what masks_per_s_cold measures), so it is not warm.
            if rnd > 0:
                self.ingest_rates.append(len(ds.labels) / seconds)
            self.attempted += len(ds.labels)
            if self.first_ssf is None:
                self.first_ssf = ds.ssf
                self.notes["mem.rss_after_ingest_mb"] = peak_rss_mb()
            elif not np.array_equal(ds.ssf, self.first_ssf):
                self.errors.append(f"round {rnd}: ingest pass differs from the first")

        self.round_train = [0, 0.0]  # samples, seconds of this round's train() calls
        model, ckpt = self.train(ds, rnd)
        self.round_trains.append(tuple(self.round_train))
        if rnd == 0:
            self.notes["mem.rss_after_train_mb"] = peak_rss_mb()
        self.predict(ds, model, rnd)
        if rnd == 0:
            self.save_trained(ds, model, ckpt)

    def timed_train(self, plan, ds, model):
        t = time.perf_counter()
        ckpt, metrics = models.train(plan, ds, model)
        self.train_calls.append(time.perf_counter() - t)
        n = len(ds.train_idx)
        self.round_train[0] += plan.epochs * n
        self.round_train[1] += self.train_calls[-1]
        self.attempted += plan.epochs * math.ceil(n / plan.batch_size)
        return ckpt, metrics

    def train(self, ds, rnd: int):
        seed = self.args.seed
        where = f"round {rnd}"
        if self.shape.head != "fusion":
            model = self.built["semantic"]
            model.load_arrays(self.init["semantic"])
            plan = models.TrainPlan(stage="semantic_only", epochs=self.shape.epochs,
                                    batch_size=BATCH, learning_rate=LEARNING_RATE, seed=seed)
            ckpt, metrics = self.timed_train(plan, ds, model)
            accuracy = evaluation.evaluate(model, ds, "test").accuracy
            self.errors += checks.training_errors(metrics, accuracy, where)
            return model, ckpt

        glob = self.built["global"]
        glob.load_arrays(self.init["global"])
        plan1 = models.TrainPlan(stage="step1_global", epochs=self.shape.epochs,
                                 batch_size=BATCH, learning_rate=LEARNING_RATE, seed=seed)
        ckpt1, _ = self.timed_train(plan1, ds, glob)
        model = build_fusion(seed, base=ckpt1)
        self.tracer.watch_model(model, "fusion")
        frozen = model.global_param_names()
        plan2 = models.TrainPlan(stage="step2_fusion", epochs=self.shape.fusion_epochs,
                                 batch_size=BATCH, learning_rate=LEARNING_RATE, seed=seed,
                                 frozen=frozen)
        ckpt2, _ = self.timed_train(plan2, ds, model)
        self.errors += checks.frozen_errors(ckpt1.block_hashes(), ckpt2.block_hashes(),
                                            frozen, where)
        self.errors += checks.fusion_errors(evaluation.evaluate(model, ds, "test").accuracy, where)
        return model, ckpt2

    def predict(self, ds, model, rnd: int) -> None:
        root = self.manifest.root
        for i in ds.test_idx:
            entry = self.manifest.entries[i]
            with self.tracer.span("op.predict"):
                t = time.perf_counter()
                mask = io.load_mask(root / entry.mask_path, L, inputs.VOID)
                ssf = features.extract_ssf(mask)
                g = None if entry.global_path is None else io.read_feature_vector(root / entry.global_path)
                models.predict(model, ssf.values, g)
                self.predict_ms.append((time.perf_counter() - t) * 1e3)
            self.attempted += 1
            if not np.array_equal(ssf.values, ds.ssf[i]):
                self.errors.append(f"round {rnd}: {entry.id} extracts differently in predict")

    def save_trained(self, ds, model, ckpt) -> None:
        path = self.args.dir / TRAINED
        checkpoint.save_checkpoint(ckpt, path)
        self.notes["checkpoint.bytes"] = path.stat().st_size
        sel = ds.test_idx
        g = None if ds.global_vecs is None else ds.global_vecs[sel]
        self.errors += checks.logits_errors(
            model.forward(ds.ssf[sel], g),
            models.load_model(checkpoint.load_checkpoint(path)).forward(ds.ssf[sel], g),
            "checkpoint")

    def check_features(self) -> None:
        layout = inputs.LAYOUTS[self.args.workload]
        for n, (cls, index, _) in enumerate(inputs.samples(layout)):
            grid = inputs.mask_grid(layout, self.args.seed, cls, index)
            self.errors += checks.feature_errors(self.first_ssf[n], grid, L, inputs.VOID,
                                                 self.manifest.entries[n].id)

    def flops_per_sample(self) -> int:
        return (self.built["fusion"] if "fusion" in self.built else self.built["semantic"]).flop_count()

    def train_rate(self) -> float:
        """Median over the pairs of rounds (0, 1), (2, 3), ... of samples per second.

        Rounds of one run are not alike: on `fusion`, step 2 trains about 40%
        faster in odd rounds than in even ones, every seed, as the program's
        heap history repeats with period two. A median over single rounds
        would jump by about 15% when a faster or slower machine fits one round
        more or less into ``--seconds``; a pair always holds one of each.
        """
        rounds = self.round_trains
        pairs = [rounds[i : i + 2] for i in range(0, len(rounds) - 1, 2)]
        return statistics.median(sum(n for n, _ in p) / sum(s for _, s in p) for p in pairs)

    def result(self) -> dict:
        return {
            "masks_per_s": statistics.median(self.ingest_rates),
            "train_samples_per_s": self.train_rate(),
            "predict_ms_p50": statistics.median(self.predict_ms),
            "peak_rss_mb": peak_rss_mb(),
            "rounds": self.rounds,
            "samples": {"masks_per_s": self.ingest_rates,
                        "train_samples_per_s": [n / s for n, s in self.round_trains],
                        "train_calls_s": self.train_calls, "predict_ms": self.predict_ms},
            "attempted": self.attempted,
            "errors": self.errors,
            "ssf_sha256": ssf_digest(self.first_ssf),
        }


def run_main(args) -> dict:
    manifest_path, built = set_up(args)
    setup_s = time.time() - args.t0
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        tracer.install()
    job = Main(args, manifest_path, built, tracer)
    job.run()
    out = {"setup_s": setup_s, **job.result()}
    if args.trace:
        per_layer = spans.layer_metrics(tracer)
        per_layer.update(job.notes)
        per_layer["nn.flops_per_sample"] = job.flops_per_sample()
        out["per_layer"] = per_layer
        tracer.dump(args.dir / "spans-main.json")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=("setup", "cold", "main", "checkpoint"))
    p.add_argument("--workload", required=True, choices=sorted(SHAPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--t0", type=float, default=0.0, help="wall-clock time the parent started this process")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if args.phase == "setup":
        set_up(args)
        out = {"setup_s": time.time() - args.t0}
    elif args.phase == "cold":
        out = run_cold(args)
    elif args.phase == "checkpoint":
        out = run_checkpoint(args)
    else:
        out = run_main(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
