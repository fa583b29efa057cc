"""Spans recorded around calls into the program's layers, from the outside.

The traced run swaps the program's module-level names (and a few methods)
for wrappers that time each call. Each span is [name, start, end, parent,
count]; they stay in memory and are reduced to per-layer metrics when the run
ends. Workers forked by `simulate --jobs N` inherit the wrappers; they hand
their spans back through small files in a spool directory.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from pathlib import Path

UNIT = "unit:"

# Per-layer metrics: span name -> metric name is the identity; counts ride on
# the spans named here.
TIME_LAYERS = (
    "workload.generate_s",
    "engine.run_s",
    "traceio.write_csv_s",
    "traceio.read_csv_s",
    "traceio.join_s",
    "traceio.write_samples_s",
    "traceio.read_samples_s",
    "preprocess.standardize_s",
    "preprocess.window_s",
    "preprocess.unwindow_s",
    "models.forward_infer_s.bigru",
    "models.forward_infer_s.bilstm",
    "models.forward_infer_s.transformer",
    "train.forward_s",
    "train.backward_s",
    "train.adam_s",
    "evaluate.kde_s",
)
COUNT_LAYERS = {"preprocess.windows": "preprocess.window_s", "train.steps": "train.adam_s"}


def tape_size(loss) -> int:
    """Autodiff nodes reachable from `loss` (the tape one backward walks)."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def _layer_patches():
    """(owner, attribute, span name or name-from-args, count-from-result)."""
    from simsurrogate import cli, evaluate, train
    from simsurrogate.nn.autodiff import Tensor
    from simsurrogate.preprocess import Standardizer

    def infer_name(config, *_args, **_kwargs):
        return f"models.forward_infer_s.{config.architecture}"

    return [
        (cli, "generate_workload", "workload.generate_s", None),
        (cli, "run_simulation", "engine.run_s", None),
        (cli, "write_workload_csv", "traceio.write_csv_s", None),
        (cli, "write_trace_csv", "traceio.write_csv_s", None),
        (cli, "read_workload_csv", "traceio.read_csv_s", None),
        (cli, "read_trace_csv", "traceio.read_csv_s", None),
        (cli, "join_traces", "traceio.join_s", None),
        (cli, "write_samples_csv", "traceio.write_samples_s", None),
        (cli, "read_samples_csv", "traceio.read_samples_s", None),
        (Standardizer, "transform", "preprocess.standardize_s", None),
        (Standardizer, "inverse_transform", "preprocess.standardize_s", None),
        (cli, "make_windows", "preprocess.window_s", len),
        (evaluate, "make_windows", "preprocess.window_s", len),
        (evaluate, "unwindow_aligned", "preprocess.unwindow_s", None),
        (evaluate, "model_forward_infer", infer_name, None),
        (train, "model_forward", "train.forward_s", None),
        (train, "mse_loss", "train.forward_s", None),
        (Tensor, "backward", "train.backward_s", None),
        (train.Adam, "step", "train.adam_s", lambda _out: 1),
        (evaluate, "kde", "evaluate.kde_s", None),
    ]


class Tracer:
    """Records spans while `active`; a tracer never activated costs one check."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.units: list[tuple[str, bool, float]] = []  # (kind, traced, seconds)
        self.tape_nodes: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else None, 0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def unit(self, kind: str, traced: bool):
        """One measured unit (a set-up, a round or a pass); traced or not."""
        self.active = traced
        if traced:
            self._install()
        t0 = time.perf_counter()
        try:
            with self.span(UNIT + kind):
                yield
        finally:
            self.units.append((kind, traced, time.perf_counter() - t0))
            if traced:
                self._uninstall()
            self.active = False

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as rec:
                out = fn(*args, **kwargs)
            if count is not None and rec is not None:
                rec[4] += count(out)
            return out
        return traced

    def _wrap_backward(self, fn):
        wrapped = self._wrap(fn, "train.backward_s", None)

        @functools.wraps(fn)
        def backward(loss, *args, **kwargs):
            if self.tape_nodes is None:
                self.tape_nodes = tape_size(loss)
            return wrapped(loss, *args, **kwargs)
        return backward

    def _spooling(self, fn):
        """Task wrapper that ships a forked worker's spans to the spool."""
        @functools.wraps(fn)
        def task(*args, **kwargs):
            mark = len(self.spans)
            out = fn(*args, **kwargs)
            if os.getpid() != self.pid:
                path = self.spool / f"{os.getpid()}-{time.perf_counter_ns()}.json"
                path.write_text(json.dumps([mark] + self.spans[mark:]), encoding="utf-8")
                del self.spans[mark:]
            return out
        return task

    def _install(self) -> None:
        from simsurrogate import cli

        for owner, attr, name, count in _layer_patches():
            original = getattr(owner, attr)
            wrapper = (self._wrap_backward(original) if attr == "backward"
                       else self._wrap(original, name, count))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        self._saved.append((cli, "_simulate_one", cli._simulate_one))
        cli._simulate_one = self._spooling(cli._simulate_one)

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def collect_spool(self) -> None:
        """Adopt spans that forked workers left in the spool under the open span."""
        parent = self.stack[-1] if self.stack else None
        for path in sorted(self.spool.glob("*.json")):
            mark, *spans = json.loads(path.read_text(encoding="utf-8"))
            offset = len(self.spans)
            for name, start, end, up, count in spans:
                up = up - mark + offset if up is not None and up >= mark else parent
                self.spans.append([name, start, end, up, count])
            path.unlink()

    # -- reduction -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per layer: sum over unit kinds of the median per-unit self time (or count)."""
        # Spans adopted from workers ran in parallel under a stage span, so
        # that stage's self time can go negative; only layer spans are reported.
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                self_time[parent] -= end - start
        per_unit: dict[int, dict[str, float]] = {}
        counts: dict[int, dict[str, float]] = {}
        for i, (name, _, _, _, count) in enumerate(self.spans):
            if name.startswith(UNIT):
                per_unit.setdefault(i, {})
                counts.setdefault(i, {})
                continue
            root = i
            while self.spans[root][3] is not None:
                root = self.spans[root][3]
            sums = per_unit.setdefault(root, {})
            sums[name] = sums.get(name, 0.0) + self_time[i]
            tally = counts.setdefault(root, {})
            tally[name] = tally.get(name, 0) + count
        kinds: dict[str, list[int]] = {}
        for root in per_unit:
            kinds.setdefault(self.spans[root][0], []).append(root)

        def reduce(table, key):
            return sum(statistics.median(table[r].get(key, 0.0) for r in roots)
                       for roots in kinds.values())

        out = {name: reduce(per_unit, name) for name in TIME_LAYERS}
        out.update({name: reduce(counts, span) for name, span in COUNT_LAYERS.items()})
        return out

