"""Spans around the calls into each layer of `knnmt`, for the traced run.

`install` replaces each public function named in TRACED in every `knnmt`
module that holds it (so calls made from `cli` and `pipeline` are seen, not
only calls made by the benchmark), and each traced method on its class.
`uninstall` puts the originals back; untraced rounds run the program
unwrapped. Spans stay in memory, in flat columns, until `write` saves them.
A span's self time is its duration minus the time its child spans cover;
every self time is charged to exactly one per-layer metric, so the layer
self times of a round add up to the time its CLI commands took.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from pathlib import Path

import knnmt.cli
import knnmt.core
import knnmt.datastore
import knnmt.decode
import knnmt.metrics
import knnmt.pipeline
import knnmt.refmodel


def _train_tokens(args, kwargs, result):
    corpus, cfg = args[1], args[2]
    return cfg.epochs * sum(len(p.target) + 1 for p in corpus.pairs), 0


def _entries(args, kwargs, result):
    return len(result), 0


def _exact_search(args, kwargs, result):
    store, queries = args[0], args[1]
    return len(queries), len(store) * store.dim * 4


def _search_batch_name(args):
    # decode calls search_batch only for stores with an IVF index; on a
    # plain store it is exact search, charged like search_batch_rows
    return "datastore.search_exact" if args[0].index is None else "datastore.search_ivf"


def _file_bytes(path):
    return 0, os.path.getsize(path)


def _load_bytes(args, kwargs, result):
    return _file_bytes(args[0])


def _save_bytes(args, kwargs, result):
    return _file_bytes(args[1])


# (owner, attribute, span name, note): the name may be a function of the
# call's arguments; `note(args, kwargs, result)` gives the span's (work,
# bytes). A function is replaced in every knnmt module that holds it.
TRACED = (
    (knnmt.cli, "main", "cli.main", None),
    (knnmt.core, "load_corpus", "core.load_corpus", None),
    (knnmt.core, "write_corpus", "core.write_corpus", None),
    (knnmt.core.Vocab, "load", "core.Vocab.load", None),
    (knnmt.refmodel, "train", "refmodel.train", _train_tokens),
    (knnmt.refmodel.RefModel, "step", "refmodel.step", None),
    (knnmt.refmodel, "load_checkpoint", "refmodel.load_checkpoint", None),
    (knnmt.refmodel, "save_checkpoint", "refmodel.save_checkpoint", None),
    (knnmt.datastore, "build", "datastore.build", _entries),
    (knnmt.datastore.Datastore, "search_batch_rows", "datastore.search_exact", _exact_search),
    (knnmt.datastore.Datastore, "search_batch", _search_batch_name, _exact_search),
    (knnmt.datastore, "train_ivf", "datastore.train_ivf", None),
    (knnmt.datastore, "load_datastore", "datastore.load_datastore", _load_bytes),
    (knnmt.datastore, "save_datastore", "datastore.save_datastore", _save_bytes),
    (knnmt.datastore, "load_ivf", "datastore.load_ivf", _load_bytes),
    (knnmt.datastore, "save_ivf", "datastore.save_ivf", _save_bytes),
    (knnmt.decode, "beam_decode", "decode.beam_decode", None),
    (knnmt.decode, "grid_search", "decode.grid_search", None),
    (knnmt.pipeline, "diversify", "pipeline.diversify", None),
    (knnmt.pipeline, "leave_one_out_eval", "pipeline.leave_one_out_eval", None),
    (knnmt.metrics, "bleu", "metrics.bleu", None),
)

# span name -> per-layer metric charged with the span's self time, and the
# metrics its call count, work and bytes add to
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "core.load_corpus": "core.corpus_io_s",
    "core.write_corpus": "core.corpus_io_s",
    "core.Vocab.load": "core.corpus_io_s",
    "refmodel.train": "refmodel.train_s",
    "refmodel.step": "refmodel.step_s",
    "refmodel.load_checkpoint": "refmodel.checkpoint_io_s",
    "refmodel.save_checkpoint": "refmodel.checkpoint_io_s",
    "datastore.build": "datastore.build_s",
    "datastore.search_exact": "datastore.search_s",
    "datastore.search_ivf": "datastore.ivf_search_s",
    "datastore.train_ivf": "datastore.kmeans_s",
    "datastore.load_datastore": "datastore.io_s",
    "datastore.save_datastore": "datastore.io_s",
    "datastore.load_ivf": "datastore.io_s",
    "datastore.save_ivf": "datastore.io_s",
    "decode.beam_decode": "decode.self_s",
    "decode.grid_search": "decode.grid_self_s",
    "pipeline.diversify": "pipeline.diversify_self_s",
    "pipeline.leave_one_out_eval": "pipeline.loo_self_s",
    "metrics.bleu": "metrics.bleu_s",
}
CALLS_METRIC = {
    "refmodel.step": "refmodel.step_calls",
    "datastore.search_exact": "datastore.search_calls",
    "datastore.search_ivf": "datastore.ivf_search_calls",
    "metrics.bleu": "metrics.bleu_calls",
}
WORK_METRIC = {
    "refmodel.train": "refmodel.train_tokens",
    "datastore.build": "datastore.build_entries",
    "datastore.search_exact": "datastore.search_queries",
}
BYTES_METRIC = {
    "datastore.search_exact": "datastore.search_key_bytes",
    "datastore.load_datastore": "datastore.io_bytes",
    "datastore.save_datastore": "datastore.io_bytes",
    "datastore.load_ivf": "datastore.io_bytes",
    "datastore.save_ivf": "datastore.io_bytes",
}


class Tracer:
    """Spans in flat columns: name id, start, end, parent span (-1 at a CLI
    command's root), command id, work and bytes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cmd = array("i")
        self.work = array("q")
        self.nbytes = array("q")
        self._stack: list[int] = []
        self._cmd = -1
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, note):
        fixed = None if callable(name) else self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            if not stack:
                self._cmd += 1
            self.name.append(fixed if fixed is not None else self.name_id(name(args)))
            self.parent.append(stack[-1] if stack else -1)
            self.cmd.append(self._cmd)
            self.work.append(0)
            self.nbytes.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if note is not None:
                self.work[idx], self.nbytes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "knnmt" or n.startswith("knnmt.")]
        for owner, attr, name, note in TRACED:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name, note))
                else:
                    wrapped = self.wrap(raw, name, note)
                self._installed.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, note)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __len__(self) -> int:
        return len(self.name)

    def layer_totals(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per-layer metrics summed over spans first..last-1, which must be
        whole CLI commands."""
        last = len(self.name) if last is None else last
        child_time = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= 0:
                child_time[p - first] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(first, last):
            name = self.names[self.name[i]]
            key = SELF_METRIC[name]
            out[key] = out.get(key, 0.0) + (self.end[i] - self.start[i]) - child_time[i - first]
            for table, value in ((CALLS_METRIC, 1), (WORK_METRIC, self.work[i]), (BYTES_METRIC, self.nbytes[i])):
                if name in table:
                    out[table[name]] = out.get(table[name], 0) + value
        return out

    def write(self, path: str | Path) -> None:
        """One line per span: span, parent, command, name, start, end,
        work, bytes; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        lines = ["span\tparent\tcommand\tname\tstart_s\tend_s\twork\tbytes"]
        for i in range(len(self.name)):
            lines.append(
                f"{i}\t{self.parent[i]}\t{self.cmd[i]}\t{self.names[self.name[i]]}\t"
                f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.work[i]}\t{self.nbytes[i]}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run with its unit."""
    names = list(dict.fromkeys(SELF_METRIC.values()))
    for table in (CALLS_METRIC, WORK_METRIC, BYTES_METRIC):
        names += [n for n in dict.fromkeys(table.values()) if n not in names]
    units = {n: "s" if n.endswith("_s") else "B" if n.endswith("_bytes") else "count" for n in names}
    units["refmodel.train_tokens"] = "tok"
    units["trace.wall_s"] = units["trace.overhead_s"] = "s"
    return units
