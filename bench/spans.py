"""Spans recorded from outside the program, and the per-layer metrics they give.

The traced run wraps public functions of ``ssfx`` and the forward/backward
methods of each layer object of a model; the program's sources are not
touched. A span has a name, a start, an end, a parent and a group: spans of
one mask (from ``load_mask`` on) or of one model call (a train step, an eval
batch, a prediction) share a group. Spans stay in memory and are written out
when the process ends.
"""
from __future__ import annotations

import contextlib
import json
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    """Stands in for the tracer in untraced runs: records nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def watch_model(self, model, head: str) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, group, extra]
        self._open: list[int] = []
        self._group = 0
        self.model = None            # model of the latest forward, for the optimizer wrapper
        self.grad_used = 0
        self.grad_computed = 0

    def begin(self, name: str, new_group: bool = False) -> int:
        if new_group:
            self._group += 1
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._group, None])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, new_group: bool = False):
        idx = self.begin(name, new_group)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(self, owner, attr: str, name: str, new_group: bool = False, on_enter=None):
        """Replace ``owner.attr`` by a version that records a span per call."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self.begin(name, new_group)
            if on_enter is not None:
                on_enter(idx, args)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the program's public functions that the workloads reach."""
        import ssfx.data
        import ssfx.features
        import ssfx.io
        import ssfx.mask
        import ssfx.models
        import ssfx.nn.checkpoint
        import ssfx.nn.optim

        # Names the program imported into other modules are wrapped there too.
        self.wrap(ssfx.data, "load_manifest", "data.load_manifest")
        self.wrap(ssfx.data, "load_dataset", "data.load_dataset")
        for module in (ssfx.io, ssfx.data):
            self.wrap(module, "load_mask", "io.load_mask", new_group=True)
        self.wrap(ssfx.io, "read_pgm", "io.read_mask")
        self.wrap(ssfx.io, "read_mask_container", "io.read_mask")
        self.wrap(ssfx.mask.SegmentationMask, "__post_init__", "mask.validate")
        extract = self._extract_with_faults(ssfx.features.extract_ssf)
        ssfx.features.extract_ssf = extract
        ssfx.data.extract_ssf = extract
        self.wrap(ssfx.models, "train", "models.train", on_enter=self._note_plan)
        self.wrap(ssfx.models, "predict", "models.predict")
        self.wrap(ssfx.models, "softmax_cross_entropy", "loss.softmax_ce")
        self.wrap(ssfx.nn.optim.Adam, "step", "optim.adam", on_enter=self._count_grads)
        self.wrap(ssfx.nn.checkpoint, "save_checkpoint", "checkpoint.save")
        self.wrap(ssfx.nn.checkpoint, "load_checkpoint", "checkpoint.load")

    def _extract_with_faults(self, original):
        def traced(mask):
            idx = self.begin("features.extract")
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                return original(mask)
            finally:
                self.spans[idx][5] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                self.end(idx)
        return traced

    def _note_plan(self, idx: int, args) -> None:
        plan = args[0]
        self.spans[idx][5] = {"stage": plan.stage,
                              "frozen": sorted({n.rsplit(".", 1)[0] for n in plan.frozen})}

    def _count_grads(self, idx: int, args) -> None:
        opt = args[0]
        self.grad_used += sum(p.size for _, p in opt.params if p.grad is not None)
        if self.model is not None:
            self.grad_computed += sum(t.size for _, t in self.model.parameters()
                                      if t.grad is not None)

    def watch_model(self, model, head: str) -> None:
        """Wrap the model's calls and each of its layers' forward and backward.

        A parameterised layer is named after its parameters (``head.conv1``),
        so the names match checkpoint block names; layers without parameters
        (ReLU, Flatten) are pooled as ``other``.
        """
        names = {id(t): n for n, t in model.parameters()}
        for layer in _layers(model):
            params = layer.params()
            prefix = names[id(params[0][1])].rsplit(".", 1)[0] if params else "other"
            self.wrap(layer, "forward", f"layer:{head}:{prefix}:fwd")
            self.wrap(layer, "backward", f"layer:{head}:{prefix}:bwd")

        def note_model(idx, args):
            self.model = model
        self.wrap(model, "forward", "model.forward", new_group=True, on_enter=note_model)
        self.wrap(model, "backward", "model.backward")

    def dump(self, path: Path) -> None:
        rows = [{"name": s[0], "start_us": round((s[1] - self.t0) * 1e6, 1),
                 "end_us": round((s[2] - self.t0) * 1e6, 1), "parent": s[3],
                 "group": s[4], **({"extra": s[5]} if s[5] is not None else {})}
                for s in self.spans if s[2] is not None]
        path.write_text(json.dumps(rows))


def _layers(obj, seen=None):
    """Leaf layers reachable from a model's attributes, in attribute order."""
    seen = set() if seen is None else seen
    for value in vars(obj).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        for item in items:
            if isinstance(item, tuple) and len(item) == 2:
                item = item[1]
            if id(item) in seen or not type(item).__module__.startswith("ssfx"):
                continue
            seen.add(id(item))
            if hasattr(item, "spec") and hasattr(item, "backward"):
                yield item
            elif hasattr(item, "__dict__"):
                yield from _layers(item, seen)


def _ms(spans) -> float:
    return statistics.median((s[2] - s[1]) * 1e3 for s in spans) if spans else 0.0


def _under(spans: list[list], idx: int, ancestor: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == ancestor:
            return True
        idx = spans[idx][3]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one process from its spans.

    Layer, loss and optimizer figures are medians per train step; eval is
    the median per epoch of the test pass that ``train`` makes; reads,
    validation and extraction are medians per mask of the warm passes.
    """
    spans = tracer.spans
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[3]].append(i)

    def descendants(i):
        for c in children[i]:
            yield c
            yield from descendants(c)

    per_step = defaultdict(list)   # metric -> one value per train step
    adam, ce, evals = [], [], []
    for t, s in enumerate(spans):
        if s[0] != "models.train":
            continue
        frozen = set(s[5]["frozen"])
        kids = children[t]
        kinds = [spans[k][0] for k in kids]
        mark = s[1]      # end of the latest optimizer step, or the start of train()
        in_eval = False
        for pos, k in enumerate(kids):
            if kinds[pos] != "model.forward":
                if kinds[pos] == "optim.adam":
                    adam.append(spans[k])
                    mark = spans[k][2]
                continue
            following = kinds[pos + 1 : pos + 4]
            is_step = "model.backward" in following and (
                "model.forward" not in following
                or following.index("model.backward") < following.index("model.forward"))
            if is_step:
                if in_eval:
                    evals.append(spans[k][1] - mark)
                    in_eval = False
                ce.extend(spans[c] for c in kids[pos + 1 : pos + 3] if spans[c][0] == "loss.softmax_ce")
                backward = kids[pos + 1 + following.index("model.backward")]
                step = defaultdict(float)
                for part in (k, backward):
                    for d in descendants(part):
                        name = spans[d][0]
                        if name.startswith("layer:"):
                            _, head, prefix, way = name.split(":")
                            if prefix in frozen:
                                key = f"models.frozen_{way}_ms"
                            elif prefix == "other":
                                key = f"nn.{head}.other_ms"
                            else:
                                key = f"nn.{head}.{prefix}.{way}_ms"
                            step[key] += (spans[d][2] - spans[d][1]) * 1e3
                for key, value in step.items():
                    per_step[key].append(value)
            else:
                in_eval = True
        if in_eval:
            evals.append(s[2] - mark)

    def named(name, ancestor):
        return [s for i, s in enumerate(spans) if s[0] == name and _under(spans, i, ancestor)]

    out = {key: statistics.median(v) for key, v in per_step.items()}
    out.update({
        "optim.adam_ms": _ms(adam),
        "loss.softmax_ce_ms": _ms(ce),
        "models.eval_ms": statistics.median(evals) * 1e3 if evals else 0.0,
        "io.read_mask_ms": _ms(named("io.read_mask", "op.ingest")),
        "mask.validate_ms": _ms(named("mask.validate", "op.ingest")),
        "data.load_manifest_ms": _ms(named("data.load_manifest", "op.ingest")),
        "features.extract_ms": _ms(named("features.extract", "op.ingest")),
        "predict.extract_ms": _ms(named("features.extract", "op.predict")),
        "predict.forward_ms": _ms(named("models.predict", "op.predict")),
    })
    if tracer.grad_computed:
        out["nn.grad_used_fraction"] = tracer.grad_used / tracer.grad_computed
    return out


def cold_metrics(tracer: Tracer) -> dict[str, float]:
    """Extraction time and minor page faults per mask of a cold ingest pass."""
    extracts = [s for s in tracer.spans if s[0] == "features.extract"]
    return {"features.extract_ms_cold": _ms(extracts),
            "features.minflt_per_mask": sum(s[5] for s in extracts) / max(1, len(extracts))}


def checkpoint_metrics(tracer: Tracer) -> dict[str, float]:
    """Save and load time per round trip of the checkpoint process."""
    spans = tracer.spans
    return {f"checkpoint.{way}_ms": _ms([s for i, s in enumerate(spans) if s[0] == f"checkpoint.{way}"
                                         and _under(spans, i, "op.checkpoint")])
            for way in ("save", "load")}
