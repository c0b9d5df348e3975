"""Step clock, evaluation clock and per-layer spans, attached from outside
the program by replacing names in ``mmcl`` module namespaces.

Two kinds of span roots (containers) exist:

* ``step``: from the first ``augment_batch`` call of a batch to the return
  of ``adam_step``, i.e. one training step;
* ``evaluate``: from the first ``eval_embeddings`` call to the return of
  ``linear_probe``, i.e. one evaluation.

The container hooks run in every run, traced or not: they cost two clock
reads per step. Layer spans nest inside a container and are recorded only
while ``Recorder.active`` is set. Each closed span adds its duration to
its container's total for that name and its self time (duration minus the
time its child spans cover) to the container's self total.

A name missing from the program is skipped: its metric is absent and its
time falls into the parent's self time. The container hooks are required.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name) of the layer spans.
LAYER_SPANS = (
    ("mmcl.encoder", "forward", "encoder.forward"),
    ("mmcl.encoder", "backward", "encoder.backward"),
    ("mmcl.loss", "gram", "kernels.gram"),
    ("mmcl.loss", "_anchor_deltas", "loss.assemble"),
    ("mmcl.loss", "resolve_step_sizes", "svm.step_size"),
    ("mmcl.loss", "_accumulate_anchor_terms", "loss.accumulate"),
    ("mmcl.evaluate", "knn_readout", "evaluate.knn"),
)


class Recorder:
    """In-memory spans of the current container and per-container totals.

    ``steps`` gets one ``(seconds, traced, totals, selfs)`` entry per
    completed step after the warm-up step; ``evals`` one ``(seconds,
    totals)`` per evaluation. ``on_step_end(index)`` is called after each
    step with the index the next step will have (0 after warm-up).
    """

    def __init__(self, traced: bool, on_step_end=None):
        self.traced = traced
        self.on_step_end = on_step_end
        self.active = False
        self.step_index = -1  # -1 during the warm-up step
        self.kind = None
        self.frames = []
        self.totals = self.selfs = None
        self.steps = []
        self.evals = []
        self.pgd_iterations = []

    # containers -----------------------------------------------------------
    def begin(self, kind: str) -> None:
        # In a traced run, layer spans are on in every evaluation and in
        # every other timed step, so the steps between measure the overhead.
        self.kind = kind
        self.active = self.traced and (kind != "step" or self.step_index % 2 == 0)
        self.totals = defaultdict(float)
        self.selfs = defaultdict(float)
        self.frames = [[kind, perf_counter(), 0.0]]

    def end(self) -> None:
        self.close()
        seconds = self.totals[self.kind]
        kind, traced = self.kind, self.active
        self.kind = None
        self.active = False
        if kind == "step":
            if self.step_index >= 0:
                self.steps.append((seconds, traced, dict(self.totals), dict(self.selfs)))
            self.step_index += 1
            if self.on_step_end is not None:
                self.on_step_end(self.step_index)
        else:
            self.evals.append((seconds, dict(self.totals)))

    # spans ----------------------------------------------------------------
    def open(self, name: str) -> None:
        self.frames.append([name, perf_counter(), 0.0])

    def close(self) -> None:
        name, t0, child = self.frames.pop()
        seconds = perf_counter() - t0
        if self.frames:
            self.frames[-1][2] += seconds
        self.totals[name] += seconds
        self.selfs[name] += seconds - child

    def timed(self, fn, name: str, on_result=None):
        """``fn`` wrapped in a span that is recorded while ``active``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if on_result is not None:
                on_result(out)
            return out
        return wrapper


class _Proxy:
    """``module`` with some names replaced by ``overrides``."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        value = getattr(self._module, name)
        setattr(self, name, value)  # later lookups skip __getattr__
        return value


class Hooks:
    """Installed replacements of module attributes, restored by ``remove``."""

    def __init__(self):
        self.saved = []
        self.missing = []

    def replace(self, module: str, attr: str, make, required: bool = False) -> None:
        mod = importlib.import_module(module)
        if not hasattr(mod, attr):
            if required:
                raise RuntimeError(f"{module}.{attr} is gone; the benchmark cannot find "
                                   f"the step or evaluation boundary")
            self.missing.append(f"{module}.{attr}")
            return
        original = getattr(mod, attr)
        self.saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def remove(self) -> None:
        while self.saved:
            mod, attr, original = self.saved.pop()
            setattr(mod, attr, original)


def install(rec: Recorder, on_loss) -> Hooks:
    """Attach the container hooks, and with ``rec.traced`` the layer spans.

    ``on_loss(kind, args, kwargs, out)`` sees every training loss call,
    ``kind`` being ``"mmcl"`` or ``"nce"``.
    """
    hooks = Hooks()

    def hook(span_name, begins=None, ends=None, then=None):
        """A span that may open or close a container, and ``then`` called
        with every call's arguments and result."""
        def make(fn):
            span = rec.timed(fn, span_name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if begins and rec.kind is None:
                    rec.begin(begins)
                out = span(*args, **kwargs)
                if ends and rec.kind == ends:
                    rec.end()
                if then is not None:
                    then(args, kwargs, out)
                return out
            return wrapper
        return make

    def loss(kind):
        return lambda args, kwargs, out: on_loss(kind, args, kwargs, out)

    try:
        hooks.replace("mmcl.training", "augment_batch", hook("data.augment", begins="step"), True)
        hooks.replace("mmcl.encoder", "adam_step", hook("encoder.adam", ends="step"), True)
        hooks.replace("mmcl.training", "batch_loss", hook("loss", then=loss("mmcl")), True)
        hooks.replace("mmcl.training", "nce_batch_loss", hook("loss.nce", then=loss("nce")), True)
        hooks.replace("mmcl.training", "eval_embeddings", hook("evaluate.embed", begins="evaluate"), True)
        hooks.replace("mmcl.evaluate", "linear_probe", hook("evaluate.probe", ends="evaluate"), True)
        if rec.traced:
            for module, attr, name in LAYER_SPANS:
                hooks.replace(module, attr, lambda fn, name=name: rec.timed(fn, name))
            hooks.replace("mmcl.loss", "_pgd_batched", lambda fn: rec.timed(
                fn, "svm.solve.pgd", on_result=lambda out: rec.pgd_iterations.append(out[1])))
            # the inv solve is an inline np.linalg.solve in mmcl.loss
            solve = rec.timed(np.linalg.solve, "svm.solve.inv")
            hooks.replace("mmcl.loss", "np", lambda _: _Proxy(np, linalg=_Proxy(np.linalg, solve=solve)))
    except BaseException:
        hooks.remove()
        raise
    return hooks
