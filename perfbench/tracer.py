"""Layer spans recorded from outside the library.

Each wrapper is installed on the namespace where the caller looks the
name up: ``filters`` imports ``propagate_pairs`` by name and
``experiment`` imports the step, QoI and Kalman functions by name, so a
wrapper on ``mlenkf.model.propagate_pairs`` alone would record nothing.
``RngKey.generator`` is a method, so it is wrapped on the class.

Spans stay in memory as ``[name, start, end, parent, level]`` lists and
are written out once, by :meth:`Tracer.write`.  The tracer assumes one
thread of execution (studies run at ``jobs = 1`` while traced).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module attribute path, attribute, span name)
PATCHES = (
    ("experiment", "run_experiment", "experiment.run"),
    ("experiment", "synthesize_truth_and_obs", "experiment.synth"),
    ("experiment", "kalman_step", "filters.kalman"),
    ("experiment", "mlenkf_step", "filters.step"),
    ("experiment", "enkf_step", "filters.step"),
    ("experiment", "empirical_qoi", "filters.qoi"),
    ("filters", "compute_R_ml", "filters.moments"),
    ("filters", "sample_cov_action", "filters.moments"),
    ("filters", "ml_gain", "filters.gain"),
    ("filters", "ml_update", "filters.update"),
    ("filters", "enkf_update", "filters.update"),
    ("rng.RngKey", "generator", "rng.key"),
)


def _forward_shape(coarse, fine, level, cfg, hierarchy, rng, solver):
    """Level and Gaussian draws of one ``propagate_pairs`` call."""
    n, m = fine.shape
    j = hierarchy.level_params(level)[1] if solver == "expeuler" else 1
    return level, n * m * j


def _resolve(mlenkf, path):
    obj = mlenkf
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Span recorder plus the normals counted at the forward boundary."""

    def __init__(self):
        self.spans = []
        self.normals = 0
        self._open = []
        self._undo = []

    def call(self, name, fn, args, kwargs, level=-1):
        """Run ``fn(*args, **kwargs)`` inside a span; nested calls become
        its children."""
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, level]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _wrap_forward(self, fn):
        def wrapper(*args, **kwargs):
            level, normals = _forward_shape(*args, **kwargs)
            self.normals += normals
            return self.call("model.forward", fn, args, kwargs, level)
        return wrapper

    def install(self, mlenkf):
        """Wrap the layer entry points; :meth:`uninstall` restores them."""
        targets = [(_resolve(mlenkf, path), attr, name) for path, attr, name in PATCHES]
        for owner, attr, name in targets:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        forward = mlenkf.filters.propagate_pairs
        self._patch(mlenkf.filters, "propagate_pairs", self._wrap_forward(forward))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per span: (name, level, self seconds), children subtracted."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, level in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, level, end - start - child[i])
            for i, (name, start, end, parent, level) in enumerate(self.spans)
        ]

    def layer_self(self):
        """Self seconds summed per layer (the prefix of the span name)."""
        out = defaultdict(float)
        for name, _, seconds in self.self_times():
            out[name.split(".")[0]] += seconds
        return dict(out)

    def write(self, path):
        """One JSON list per line: name, start, end, parent line, level.

        Parents are 0-based line numbers, -1 for a root span.
        """
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
