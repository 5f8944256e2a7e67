"""Span tracer for the benchmark's traced run.

The traced run rebinds public jointvec functions at the module attributes
through which another module (or the benchmark) calls them, so every call
across a layer boundary records a span: name, start, end, parent span and
a work count. Nothing under ``src/`` changes; ``Tracer.uninstall`` puts
every original function back.

Spans live in flat in-memory arrays while the run goes and are written
out once at the end (``Tracer.save``). A span's self time is its duration
minus the durations of its direct children (children nest strictly inside
their parent, so their sum is the part of the interval they cover).

A name that a later version of the package no longer has is reported as
absent rather than raised as an error, so the benchmark keeps working
across refactors that delete functions.
"""

import importlib
import inspect
import os
import time
from array import array

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _rows_in(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "inputs", ()))


def _grad_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "grads", ()))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 2, "path"))


def _rows_scanned(args, kwargs, result):
    bundle = _arg(args, kwargs, 0, "bundle")
    target = _arg(args, kwargs, 3, "target_language", "all")
    langs = bundle.languages if target == "all" else [target]
    return sum(bundle.table(lang).vocab_size for lang in langs)


def _doc_key(args, kwargs, result):
    doc = _arg(args, kwargs, 0, "doc")
    return hash((doc.language, doc.doc_id))


# (span name, [(module, attribute), ...], work count or None).
# Each (module, attribute) is a binding some caller looks up at call time:
# either another jointvec module's import of the function, or the defining
# module's own global when the caller lives in that module or in the bench.
# For evaluation.represent the work value is a document key, so only its
# distinct count means anything.
NAME_TABLE = [
    ("corpus.load", [
        ("jointvec.corpus", "iter_token_sentences"),
        ("jointvec.corpus", "iter_document_token_sentences"),
        ("jointvec.corpus", "load_parallel"),
        ("jointvec.corpus", "load_document_pairs"),
        ("jointvec.corpus", "load_documents"),
    ], None),
    ("corpus.noise", [("jointvec.training", "sample_indices_excluding")], None),
    ("composition.compose", [
        ("jointvec.objective", "compose"),
        ("jointvec.objective", "compose_document"),
        ("jointvec.evaluation", "compose"),
        ("jointvec.evaluation", "compose_document"),
    ], _rows_in),
    ("composition.backprop", [("jointvec.objective", "backprop")], None),
    ("objective.loss", [
        ("jointvec.training", "pair_loss_and_grads"),
        ("jointvec.training", "doc_loss_and_grads"),
    ], None),
    ("objective.merge", [("jointvec.training", "merge_grads")], None),
    ("training.train", [
        ("jointvec.training", "train_joint"),
        ("jointvec.training", "train_single"),
    ], None),
    ("training.adagrad", [("jointvec.training", "adagrad_apply")], _grad_rows),
    ("training.checkpoint", [("jointvec.training", "checkpoint")], None),
    ("training.resume", [("jointvec.training", "resume")], None),
    # table init, and assembling tables into a model (the planted serve
    # model is assembled, never initialised)
    ("embeddings.init", [
        ("jointvec.embeddings", "init_table"),
        ("jointvec.embeddings", "ModelBundle"),
    ], None),
    ("embeddings.export", [("jointvec.training", "export_table")], _file_bytes),
    ("embeddings.import", [("jointvec.training", "import_table")], None),
    ("embeddings.nn", [("jointvec.embeddings", "nearest_neighbors")], _rows_scanned),
    ("evaluation.represent", [("jointvec.evaluation", "doc_representation")], _doc_key),
    ("evaluation.perceptron", [
        ("jointvec.evaluation", "train_multiclass"),
        ("jointvec.evaluation", "train_multilabel"),
    ], None),
]


class Tracer:
    """Records spans around the bindings in NAME_TABLE while installed."""

    def __init__(self, name_table=NAME_TABLE):
        self.name_table = name_table
        self.span_names = [entry[0] for entry in name_table]
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._saved = []  # (module, attribute, original)
        self.absent = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_id, work_fn):
        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration, including the caller's
            # loop body between items (vocabulary building, for the loaders).
            def traced_iter(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(idx)

            traced_iter.__wrapped__ = fn
            return traced_iter

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work_fn is not None:
                self.work[idx] = work_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name_id, (span, bindings, work_fn) in enumerate(self.name_table):
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name_id, work_fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict:
        """Spans as numpy arrays, with per-span duration and self time."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        work = np.frombuffer(self.work, dtype=np.int64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name_id": name_id, "parent": parent, "start": start, "end": end,
            "work": work, "dur": dur, "self": dur - child,
        }

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, work sum, distinct work keys."""
        a = self.arrays()
        out = {}
        for name_id, name in enumerate(self.span_names):
            mask = a["name_id"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(a["dur"][mask].sum()),
                "self_s": float(a["self"][mask].sum()),
                "work": int(a["work"][mask].sum()),
                "distinct_work": int(len(np.unique(a["work"][mask]))),
            }
        return out

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.span_names),
            absent=np.array(self.absent, dtype=str),
            **{k: a[k] for k in ("name_id", "parent", "start", "end", "work")},
        )
