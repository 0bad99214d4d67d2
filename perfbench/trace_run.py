"""Run one failcast CLI command with spans around each layer's public calls.

Usage: python3 perfbench/trace_run.py SPANS_JSON COMMAND [FLAGS...]

The failcast package is left unchanged.  Before ``failcast.cli.main`` runs,
the layers' public functions are replaced, as module attributes, by wrappers
that record a span (name, start, end, parent) and a few counts.  This works
because ``cli``, ``ingest``, ``evaluate`` and ``logreg._descend`` look those
names up at call time.  Spans stay in memory and are written to SPANS_JSON
when the command ends; nothing is added to the command's own outputs.

The root span ``cli.main`` covers importing failcast, installing the
wrappers and the whole command, so every span's self time adds up to the
root span's duration.  Counting done by the wrappers after a call returns
runs inside a ``trace.bookkeeping`` span, so it is not charged to a layer.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.rss_mb = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def note_rss(self, name):
        """Peak RSS of this process so far, taken right after ``name`` returned."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.rss_mb[name] = max(self.rss_mb.get(name, 0.0), peak)

    def payload(self, exit_code):
        return {"exit_code": exit_code, "spans": self.spans,
                "counts": dict(self.counts), "rss_mb": self.rss_mb}


def _wrap(tracer, module, attr, after=None):
    """Replace ``module.attr`` by a spanned wrapper; ``after(result)`` counts."""
    inner = getattr(module, attr)
    name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

    @functools.wraps(inner)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = inner(*args, **kwargs)
        with tracer.span("trace.bookkeeping"):
            tracer.counts[f"{name}_calls"] += 1
            tracer.note_rss(name)
            if after is not None:
                after(result)
        return result

    setattr(module, attr, traced)


def _count_only(tracer, module, attr):
    """Count calls to a hot inner function without the cost of a span."""
    inner = getattr(module, attr)
    key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}_calls"

    @functools.wraps(inner)
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return inner(*args, **kwargs)

    setattr(module, attr, counted)


def install(tracer):
    """Wrap every traced layer function; returns the imported ``cli`` module."""
    from failcast import (assemble, cli, evaluate, ingest, logreg, report,
                          schema, synth)

    counts = tracer.counts

    def after_load(result):
        bundle, violations = result
        counts["ingest.records_in"] += sum(
            len(getattr(bundle, key)) for key in ingest.BUNDLE_FILENAMES)
        counts["ingest.violations"] += len(violations)

    def after_stream(rows):
        counts["assemble.rows_out"] += len(rows)
        counts["assemble.positive_rows"] += sum(1 for r in rows if r.label)

    def after_folds(folds):
        counts["evaluate.folds"] += len(folds)

    def after_fit(model):
        meta = model.fit_meta
        counts["logreg.fits"] += 1
        counts["logreg.iterations"] += meta.iterations
        counts["logreg.unconverged_fits"] += 0 if meta.converged else 1

    _wrap(tracer, synth, "generate")
    _wrap(tracer, ingest, "write_bundle")
    _wrap(tracer, ingest, "load_bundle", after_load)
    _wrap(tracer, schema, "validate_dataset")
    _wrap(tracer, assemble, "build_event_stream", after_stream)
    _wrap(tracer, assemble, "raw_feature_matrix")
    _wrap(tracer, evaluate, "make_folds", after_folds)
    _wrap(tracer, evaluate, "evaluate_cv")
    _wrap(tracer, logreg, "fit", after_fit)
    _wrap(tracer, report, "dataset_digest")
    _wrap(tracer, report, "write_bundle")
    _count_only(tracer, logreg, "objective")
    _count_only(tracer, logreg, "gradient")
    return cli


def main(argv):
    if len(argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.main"):
        sys.path.insert(0, SRC)
        cli = install(tracer)
        expected = os.path.join(SRC, "failcast")
        if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
            print(f"failcast imported from {cli.__file__}, not {expected}",
                  file=sys.stderr)
            return 1
        exit_code = cli.main(command)
    with open(spans_path, "w") as handle:
        json.dump(tracer.payload(exit_code), handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
