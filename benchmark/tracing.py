"""Traced run of the cftorus CLI, and the per-layer metrics derived from it.

Run as a script, this module installs timing and counting wrappers around
the public functions of each cftorus layer, patched where each name is
looked up (``cftorus.cli.evaluate_cell``, ``cftorus.exterior._rank_exact``,
...), then calls ``cftorus.cli.main`` in-process with the given arguments.
Spans (name, start, end, parent, run id) and counters stay in memory and
are written as JSON to OUT when the command ends:

    python3 benchmark/tracing.py OUT RUN_ID -- <cftorus arguments>

The importing side (the benchmark runner) turns span files into the
per-layer metrics with `layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import stats

#: per-layer metric -> unit; BENCHMARK.json lists the same names and units
LAYER_UNITS = {
    "scalars.cyclotomic_new": "count",
    "scalars.cyclotomic_mul": "count",
    "scalars.cyclotomic_addsub": "count",
    "scalars.approx_new": "count",
    "exterior.validate_s": "s",
    "exterior.validate_calls": "count",
    "exterior.matmul_mults": "count",
    "exterior.rank_exact_s": "s",
    "exterior.rank_exact_calls": "count",
    "exterior.rank_entries": "count",
    "exterior.rank_svd_s": "s",
    "exterior.rank_svd_calls": "count",
    "exterior.wedge_s": "s",
    "exterior.wedge_calls": "count",
    "floer.cells": "count",
    "floer.nonvanishing": "count",
    "floer.cell_s": "s",
    "floer.cell_self_s": "s",
    "floer.weights_s": "s",
    "floer.closedform_s": "s",
    "floer.holonomy_build_s": "s",
    "maslov.discs": "count",
    "maslov.disc_s": "s",
    "maslov.loop_s": "s",
    "maslov.frame_s": "s",
    "maslov.frames_built": "count",
    "maslov.samples_per_disc": "count",
    "maslov.first_try_ratio": "ratio",
    "discs.random_disc_s": "s",
    "discs.eval_many_calls": "count",
    "cli.emit_s": "s",
    "cli.child_cpu_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; `after(args, result)` runs on success."""
        spans, stack, run_id = self.spans, self.stack, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable,
                amount: Optional[Callable] = None) -> Callable:
        """Wrap fn to add 1, or amount(args), to a counter per call."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)
        return wrapper


def _matmul_mults(args) -> int:
    """Scalar products `validate` spends on its dense D_(k+1) o D_k."""
    mats = args[0].matrices
    return sum(len(a) * len(b) * len(b[0])
               for a, b in zip(mats[1:], mats) if a and b)


def _entries(args) -> int:
    matrix = args[0]
    return len(matrix) * len(matrix[0])


def install(tracer: Tracer) -> None:
    """Patch every traced name where cftorus looks it up."""
    from cftorus import cli, discs, exterior, floer, maslov, scalars

    t, c, counts = tracer.timed, tracer.counted, tracer.counts

    def nonvanishing(args, cell):
        counts["floer.nonvanishing"] += cell.table.nonvanishing

    def final_samples(args, result):
        counts["maslov.final_samples"] += len(args[0].frames)

    cli.evaluate_cell = t("floer.cell", cli.evaluate_cell, nonvanishing)
    cli._emit_json = t("cli.emit", cli._emit_json)
    floer.weights = t("floer.weights", floer.weights)
    floer.floer_ranks_closedform = t("floer.closedform", floer.floer_ranks_closedform)
    for name in ("from_angles", "from_values"):
        build = vars(floer.HolonomyAssignment)[name].__func__
        setattr(floer.HolonomyAssignment, name,
                classmethod(t("floer.holonomy_build", build)))

    exterior.wedge_by_vector = t("exterior.wedge", exterior.wedge_by_vector)
    exterior.GradedMatrixComplex.validate = t("exterior.validate", c(
        "exterior.matmul_mults", exterior.GradedMatrixComplex.validate, _matmul_mults))
    exterior._rank_exact = t("exterior.rank_exact", c(
        "exterior.rank_entries", exterior._rank_exact, _entries))
    exterior._rank_svd = t("exterior.rank_svd", exterior._rank_svd)

    cyc = scalars.Cyclotomic
    cyc.__init__ = c("scalars.cyclotomic_new", cyc.__init__)
    for name in ("__mul__", "__rmul__"):
        setattr(cyc, name, c("scalars.cyclotomic_mul", getattr(cyc, name)))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        setattr(cyc, name, c("scalars.cyclotomic_addsub", getattr(cyc, name)))
    scalars.ApproxComplex.__init__ = c("scalars.approx_new", scalars.ApproxComplex.__init__)

    maslov.disc_boundary_maslov = t("maslov.disc", maslov.disc_boundary_maslov)
    maslov.loop_maslov = t("maslov.loop", maslov.loop_maslov, final_samples)
    maslov.diag_phase_frame = t("maslov.frame", maslov.diag_phase_frame)
    frame = maslov.LagrangianFrame
    frame.__post_init__ = c("maslov.frames_built", frame.__post_init__)
    discs.random_disc = t("discs.random_disc", discs.random_disc)
    discs.BlaschkeComponent.eval_many = c(
        "discs.eval_many_calls", discs.BlaschkeComponent.eval_many)


def layer_metrics(spans: Sequence[Sequence], counts: Dict[str, int],
                  child_cpu_s: float, overhead_s: float) -> Dict[str, float]:
    """Every metric of LAYER_UNITS from merged spans and counters; a layer
    that did not run reads 0."""
    totals = stats.outer_totals(spans)
    calls = Counter(span[0] for span in spans)
    selfs = stats.self_times(spans)
    # loop_maslov is called straight from the disc, so a loop's parent is its disc
    loops_per_disc = Counter(p for name, _, _, p, _ in spans if name == "maslov.loop")
    discs = calls["maslov.disc"]
    first_try = sum(1 for i, span in enumerate(spans)
                    if span[0] == "maslov.disc" and loops_per_disc[i] == 1)
    out = {
        "exterior.validate_s": totals.get("exterior.validate", 0.0),
        "exterior.validate_calls": calls["exterior.validate"],
        "exterior.rank_exact_s": totals.get("exterior.rank_exact", 0.0),
        "exterior.rank_exact_calls": calls["exterior.rank_exact"],
        "exterior.rank_svd_s": totals.get("exterior.rank_svd", 0.0),
        "exterior.rank_svd_calls": calls["exterior.rank_svd"],
        "exterior.wedge_s": totals.get("exterior.wedge", 0.0),
        "exterior.wedge_calls": calls["exterior.wedge"],
        "floer.cells": calls["floer.cell"],
        "floer.cell_s": totals.get("floer.cell", 0.0),
        "floer.cell_self_s": sum(s for s, span in zip(selfs, spans) if span[0] == "floer.cell"),
        "floer.weights_s": totals.get("floer.weights", 0.0),
        "floer.closedform_s": totals.get("floer.closedform", 0.0),
        "floer.holonomy_build_s": totals.get("floer.holonomy_build", 0.0),
        "maslov.discs": discs,
        "maslov.disc_s": totals.get("maslov.disc", 0.0),
        "maslov.loop_s": totals.get("maslov.loop", 0.0),
        "maslov.frame_s": totals.get("maslov.frame", 0.0),
        "maslov.samples_per_disc": counts.get("maslov.final_samples", 0) / discs if discs else 0.0,
        "maslov.first_try_ratio": first_try / discs if discs else 0.0,
        "discs.random_disc_s": totals.get("discs.random_disc", 0.0),
        "cli.emit_s": totals.get("cli.emit", 0.0),
        "cli.child_cpu_s": child_cpu_s,
        "trace.overhead_s": overhead_s,
    }
    for name in LAYER_UNITS:
        out.setdefault(name, counts.get(name, 0))
    return out


def merge(files: Sequence[dict]) -> tuple:
    """Concatenate span lists of several traced commands, re-basing parents."""
    spans: List[list] = []
    counts: Counter = Counter()
    for data in files:
        base = len(spans)
        spans.extend([name, start, end, parent + base if parent >= 0 else -1, run]
                     for name, start, end, parent, run in data["spans"])
        counts.update(data["counts"])
    return spans, counts


def main(argv: Sequence[str]) -> int:
    out_path, run_id, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: tracing.py OUT RUN_ID -- <cftorus arguments>")
    from cftorus import cli

    tracer = Tracer(int(run_id))
    install(tracer)
    try:
        return tracer.timed("cli.main", cli.main)(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
