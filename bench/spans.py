"""Spans around noisylearn's public functions, recorded from outside the package.

A job runs inside a `Tracer`. On entry it replaces each target name with a
wrapper in the module (or class) that looks the name up at call time:
`semi.graph_regularizer`, not `graphreg.graph_regularizer`, because semi
imported the function by name. On exit it puts the originals back. Nothing
under src/ is edited.

A timed tracer keeps one span per call, with its parent's id, in memory;
job.py hands them to run.py, which writes them out when the run ends. An
untimed tracer only keeps the return values that the output checks read.
A target that no longer exists raises `MissingTarget`, so a rename cannot
silently drop a metric to zero.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from noisylearn import cli, credibility, harness, io, numnet, semi, ssrl

LAYERS = ("cli", "io", "harness", "data", "ssrl", "credibility", "semi",
          "graphreg", "numnet")


class MissingTarget(RuntimeError):
    """A traced name is gone from the module that used to look it up."""


# -- hooks: (values, bound arguments, result) -> None --------------------------

def _rows(values, args, result):
    values["data.augment_batch.rows"] += len(result)


def _edge_density(values, args, graph):
    n = graph.n_nodes
    off_diagonal = np.count_nonzero(graph.affinity) - np.count_nonzero(
        np.diag(graph.affinity))
    values["graphreg.edge_density_sum"] += off_diagonal / (n * (n - 1))


def _em_iterations(values, args, gmm):
    iters = len(gmm.log_likelihood_trace)
    values["credibility.fit_gmm_em.iters"] += iters
    if iters >= args["max_iter"]:
        values["credibility.em_max_iter_hits"] += 1


def _triage(values, args, stage2):
    y_clean = args["train"].y_clean
    for entry in stage2.transfer.labeled:
        values[f"credibility.{entry.origin}"] += 1
        if entry.origin == "corrected":
            values["credibility.corrected_right"] += int(
                entry.label == y_clean[entry.index])
    values["credibility.unknown"] += len(stage2.transfer.unlabeled)


def cell_name(config) -> str:
    """Ablation cell of a stage-3 config, e.g. cbs_on_gsr_off."""
    on = {True: "on", False: "off"}
    return f"cbs_{on[config.use_cbs]}_gsr_{on[config.use_gsr]}"


def _best_acc(values, args, stage3):
    accs = [row["test_acc"] for row in stage3.history if "test_acc" in row]
    if accs:
        values[f"semi.best_acc.{cell_name(args['config'])}"] = max(accs)


def _regime_acc(values, args, log):
    for regime in harness.DECOUPLING_REGIMES:
        values[f"harness.acc.{regime}"] = log.series(regime, "accuracy")[-1]


def _bytes_written(values, args, result):
    values["io.bytes_written"] += os.path.getsize(args["path"])


@dataclass(frozen=True)
class Target:
    owner: object            # module or class that holds the name
    attr: str
    span: str                # span name; several targets may share one
    layer: str
    hook: Callable | None = None
    keep: bool = False       # keep (arguments, result) for the output checks


def targets() -> list[Target]:
    T = Target
    return [
        T(cli, "main", "cli.main", "cli"),
        T(harness, "run_pipeline", "harness.run_pipeline", "harness"),
        T(harness, "run_ablation", "harness.run_ablation", "harness"),
        T(harness, "run_decoupling_experiment",
          "harness.run_decoupling_experiment", "harness", _regime_acc),
        T(harness, "train_supervised", "harness.train_supervised", "harness"),
        T(harness, "evaluate", "harness.evaluate", "harness"),
        T(harness, "generate_data", "harness.generate_data", "data",
          keep=True),
        T(ssrl, "augment_batch", "data.augment_batch", "data", _rows),
        T(semi, "augment_batch", "data.augment_batch", "data", _rows),
        T(harness, "train_encoder", "ssrl.train_encoder", "ssrl", keep=True),
        T(ssrl, "nt_xent_loss", "ssrl.nt_xent_loss", "ssrl"),
        T(harness, "run_stage2", "harness.run_stage2", "credibility",
          _triage, keep=True),
        T(harness, "train_frozen_classifier",
          "credibility.train_frozen_classifier", "credibility"),
        T(credibility, "fit_gmm_em", "credibility.fit_gmm_em", "credibility",
          _em_iterations),
        T(harness, "train_stage3", "semi.train_stage3", "semi", _best_acc,
          keep=True),
        T(semi, "prepare_mixmatch_batch", "semi.prepare_mixmatch_batch",
          "semi"),
        T(semi, "balanced_sample_L", "semi.sampler", "semi"),
        T(semi, "uniform_sample_L", "semi.sampler", "semi"),
        T(semi, "build_neighbor_graph", "graphreg.build_neighbor_graph",
          "graphreg", _edge_density),
        T(semi, "graph_regularizer", "graphreg.graph_regularizer",
          "graphreg"),
        T(numnet, "grad", "numnet.grad", "numnet"),
        T(numnet.Tensor, "backward", "numnet.backward", "numnet"),
        T(numnet, "optimizer_step", "numnet.optimizer_step", "numnet"),
        T(numnet, "ema_update", "numnet.ema_update", "numnet"),
        T(numnet, "ema_params", "numnet.ema_params", "numnet"),
        T(numnet, "mlp_forward", "numnet.mlp_forward", "numnet"),
        T(io, "save_dataset_csv", "io.save", "io", _bytes_written),
        T(io, "save_checkpoint", "io.save", "io", _bytes_written),
        T(io, "save_transfer", "io.save", "io", _bytes_written),
        T(io, "load_dataset_csv", "io.load", "io"),
        T(io, "load_checkpoint", "io.load", "io"),
        T(io, "load_transfer", "io.load", "io"),
    ]


SPAN_NAMES = tuple(dict.fromkeys(t.span for t in targets()))

# Totals the hooks keep, printed as they are.
TALLIES = ("data.augment_batch.rows", "credibility.fit_gmm_em.iters",
           "credibility.em_max_iter_hits", "credibility.kept",
           "credibility.corrected", "credibility.unknown", "io.bytes_written",
           *(f"semi.best_acc.{cell}" for cell, _, _ in harness.ABLATION_CELLS),
           *(f"harness.acc.{regime}" for regime in harness.DECOUPLING_REGIMES))


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.s"]
    names += ["numnet.forward.s", "graphreg.edge_density",
              "credibility.corrected_precision", *TALLIES]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.spans", "trace.wall_s", "trace.overhead_s"]
    return names


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "wall_s", "overhead_s"):
        return "s"
    if name == "io.bytes_written":
        return "B"
    if name.startswith(("semi.best_acc.", "harness.acc.")) or last in (
            "edge_density", "corrected_precision"):
        return "fraction"
    return "count"


class Tracer:
    """Patch the targets for the length of a `with` block.

    `timed=False` installs only the targets the output checks keep, and
    records no spans and no hook values.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.targets = [t for t in targets() if timed or t.keep]
        # [span id, parent id or -1, name, layer, start, end]
        self.spans: list[list] = []
        self.values: Counter = Counter()
        self.kept: dict[str, list] = {}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        originals = [getattr(t.owner, t.attr, None) for t in self.targets]
        for target, original in zip(self.targets, originals):
            if not callable(original):
                owner = getattr(target.owner, "__name__", target.owner)
                raise MissingTarget(
                    f"{owner}.{target.attr} no longer exists; update the "
                    f"targets in bench/spans.py")
        for target, original in zip(self.targets, originals):
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        hook = target.hook if self.timed else None
        signature = inspect.signature(fn) if hook or target.keep else None
        kept = self.kept.setdefault(target.span, []) if target.keep else None
        spans, stack, timed = self.spans, self._open, self.timed

        def wrapper(*args, **kwargs):
            if timed:
                span = [len(spans), stack[-1] if stack else -1, target.span,
                        target.layer, time.perf_counter(), 0.0]
                spans.append(span)
                stack.append(span[0])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[5] = time.perf_counter()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if hook is not None:
                    hook(self.values, bound.arguments, result)
                if kept is not None:
                    kept.append((bound.arguments, result))
            return result

        return wrapper

    def calls(self, span: str) -> int:
        return sum(1 for s in self.spans if s[2] == span)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, seconds, hook values and self time of one traced job."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        covered = [0.0] * len(self.spans)
        for _, parent, name, _, start, end in self.spans:
            calls[name] += 1
            seconds[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        for (_, _, _, layer, start, end), child in zip(self.spans, covered):
            self_s[layer] += end - start - child
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.s"] = seconds[span]
        out["numnet.forward.s"] = (seconds["numnet.grad"]
                                   - seconds["numnet.backward"])
        graphs = calls["graphreg.build_neighbor_graph"]
        out["graphreg.edge_density"] = (
            self.values["graphreg.edge_density_sum"] / graphs if graphs else 0.0)
        corrected = self.values["credibility.corrected"]
        out["credibility.corrected_precision"] = (
            self.values["credibility.corrected_right"] / corrected
            if corrected else 0.0)
        for name in TALLIES:
            out[name] = self.values[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["trace.spans"] = len(self.spans)
        return out


def median_layer_metrics(jobs: list[dict[str, float]]) -> dict[str, float]:
    """Seconds as the median over traced jobs; counts and values from the last.

    Counts and hook values repeat exactly from job to job.
    """
    out = dict(jobs[-1])
    for name in out:
        if unit(name) == "s":
            out[name] = statistics.median(job[name] for job in jobs)
    return out
