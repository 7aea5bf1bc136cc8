"""Command-line front end for the full pipeline.

Subcommands: train, build-datastore, decode, grid-search, diversify,
select-data, leave-one-out, score, and lm-train (produces the count files
decode's fusion flags consume).

Exit codes: 0 success, 1 usage error (a bad flag, such as a non-finite
number or two output flags naming one file), 2 data error (an exception in
`_DATA_ERRORS`: a missing, malformed or mismatched file, an out-of-range
value). Either prints one `error:` line; any other exception is a defect in
the program and keeps its traceback.

A failed run changes no file. Each command returns its result and one
writer per output flag given, and `main` alone writes them: every output,
and the --manifest copy, goes under a temporary name beside its path, and
all are moved into place only once every one is written.

stdout carries one JSON result line per command. stderr carries progress
and, only on success, a final manifest line built from the parsed flags
alone: `outputs` holds the output flags given (`_OUTPUT_FLAGS`) with a
sha256 checksum of each, `inputs` every input flag (`_INPUT_FLAGS`, null
when not given), `seed` the --seed, and `config` every other flag, so a run
can be checked for bit-reproducibility. All randomness flows from --seed
through numpy's default PCG64 generator. No JSON written holds NaN or
Infinity, which are not JSON: a non-finite number in an output is a data
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import struct
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Sequence

from .core import (
    ParallelCorpus, Vocab, build_vocab, corpus_token_lists, load_corpus, naming, read_text, tokenize, write_corpus,
)
from .datastore import build, check_index, load_datastore, load_ivf, save_datastore, save_ivf, train_ivf
from .decode import T_GRID_DEFAULT, W_GRID_DEFAULT, DecodeConfig, beam_decode_batch, check_store, grid_search
from .metrics import bleu, corpus_wer
from .ngram import lm_interpolate, lm_train, load_ngram_counts, save_ngram_counts, select_data
from .pipeline import diversify, leave_one_out_eval
from .refmodel import RefModel, TrainConfig, TrainStats, init_params, load_checkpoint, save_checkpoint, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


_INPUT_FLAGS = (
    "model", "vocab", "corpus", "init", "datastore", "ivf_index", "lm", "lm_domain", "dev",
    "forward_model", "backward_model", "pool", "seed_corpus", "talkset", "hyp", "ref",
)
_OUTPUT_FLAGS = ("out", "vocab_out", "ivf_out")
_DATA_ERRORS = (ValueError, KeyError, OSError, RuntimeError, struct.error)


_Writer = Callable[[Path], None]  # writes one output's content at the path given
_Result = tuple[dict, dict | None, dict[str, _Writer]]  # payload, stats, a writer per output flag given


def _text(content: str) -> _Writer:
    return lambda path: path.write_text(content, encoding="utf-8")


def _check_outputs(ns) -> None:
    """Refuse an output flag, --manifest among them, that names a directory
    or the file an earlier one names: the moves into place must not fail,
    nor one replace another."""
    seen: dict[str, str] = {}
    for flag in (*_OUTPUT_FLAGS, "manifest"):
        name, path = "--" + flag.replace("_", "-"), getattr(ns, flag, None)
        if path and os.path.isdir(path):
            raise _UsageError(f"{name} names a directory: {path}")
        if path and (other := seen.setdefault(os.path.realpath(path), name)) != name:
            raise _UsageError(f"{other} and {name} name one file: {path}")


def _stage(path: str, write: _Writer, tmps: dict[str, Path]) -> None:
    """Write `path`'s content under a temporary name beside it, recorded in
    `tmps`; an OSError names `path`, not the temporary name."""
    tmp = tmps[path] = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        write(tmp)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _manifest(ns, t0: float, stats: dict | None, checksums: dict[str, str]) -> str:
    """The run manifest line: checksums cover every output, keyed by its
    final path; `stats`, when given, reports how the run went."""
    config = {k: v for k, v in vars(ns).items() if k not in ("command", "func", "manifest", "seed")}
    outputs = {k: v for k in _OUTPUT_FLAGS if (v := config.pop(k, None))}
    inputs = {k: config.pop(k) for k in _INPUT_FLAGS if k in config}
    manifest = {
        "command": ns.command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": getattr(ns, "seed", None),
        "duration_s": round(time.perf_counter() - t0, 3),
        "checksums": checksums,
    }
    if stats is not None:
        manifest["stats"] = stats
    return json.dumps(manifest, sort_keys=True, allow_nan=False)


def _load_direction(path: str, vocab: Vocab, direction: str) -> ParallelCorpus:
    corpus = load_corpus(path, vocab)
    if direction == "reverse":
        return ParallelCorpus(tuple(replace(p, source=p.target, target=p.source) for p in corpus.pairs))
    return corpus


def _resolve_vocab(ns, corpus_paths: Sequence[str]) -> Vocab:
    if ns.vocab:
        return Vocab.load(ns.vocab)
    lists = []
    for path in corpus_paths:
        lists.extend(corpus_token_lists(path))
    return build_vocab(lists, ns.max_vocab)


def _add_vocab_flags(sp, vocab_out: bool = False) -> None:
    """--vocab and --max-vocab for _resolve_vocab, with train's --vocab-out
    between them when `vocab_out`."""
    sp.add_argument("--vocab", default=None, help="existing vocabulary file")
    if vocab_out:
        sp.add_argument("--vocab-out", default=None, help="write the vocabulary here")
    sp.add_argument("--max-vocab", type=int, default=200, help="cap when building a vocabulary")


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(value):  # NaN passes every range check, and is not JSON
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(part) for part in text.split(","))


def _load_models(paths: Sequence[str], adapter: str | None, vocab: Vocab) -> list[RefModel]:
    models = []
    for path in paths:
        model = load_checkpoint(path)
        if model.params.vocab_size != len(vocab):
            raise ValueError(
                f"{path}: checkpoint vocab size {model.params.vocab_size} "
                f"!= vocabulary size {len(vocab)}"
            )
        if adapter is not None:
            model.set_active_adapter(adapter)
        models.append(model)
    return models


def _load_stores(ns, models: Sequence[RefModel]):
    if not ns.datastore:
        if ns.ivf_index:
            raise _UsageError("--ivf-index requires --datastore")
        return None
    if len(ns.datastore) != len(models):
        raise _UsageError(f"{len(models)} models but {len(ns.datastore)} datastores")
    if ns.ivf_index and len(ns.ivf_index) != len(models):
        raise _UsageError("--ivf-index count must match --datastore count")
    stores = []
    for model, path, index_path in zip(models, ns.datastore, ns.ivf_index or [None] * len(models)):
        store = load_datastore(path)
        naming(path, check_store, model, store)
        if index_path:
            store.index = load_ivf(index_path)
            naming(index_path, check_index, store)  # another store's index, refused before any output
        stores.append(store)
    return stores


def _load_lm(ns, vocab: Vocab):
    if not ns.lm:
        if ns.lm_domain:
            raise _UsageError("--lm-domain requires --lm")
        if ns.fusion_alpha:  # with no LM to fuse it would change nothing
            raise _UsageError("--fusion-alpha requires --lm")
        return None
    general = load_ngram_counts(ns.lm, vocab)
    domain = load_ngram_counts(ns.lm_domain, vocab) if ns.lm_domain else None
    # checked once every input has loaded, so a bad file is still a data error
    if not ns.fusion_alpha:  # with no weight the LM would change nothing
        raise _UsageError("--lm requires --fusion-alpha")
    return general.distribution if domain is None else lm_interpolate(general, domain, ns.lm_lambda)


def _decode_config(ns) -> DecodeConfig:
    return DecodeConfig(
        k=ns.k,
        T=ns.T,
        w=ns.w,
        beam=ns.beam,
        max_len=ns.max_len,
        fusion_alpha=getattr(ns, "fusion_alpha", 0.0),
        exclude_talk=getattr(ns, "exclude_talk", None),
    )


def _cmd_train(ns) -> _Result:
    vocab = _resolve_vocab(ns, [ns.corpus])
    corpus = _load_direction(ns.corpus, vocab, ns.lang)
    if ns.adapters_only and not ns.init:
        raise _UsageError("--adapters-only requires --init")
    if ns.init:
        model = _load_models([ns.init], None, vocab)[0]
    else:
        model = RefModel(
            init_params(len(vocab), ns.embed_dim, ns.hidden_dim, ns.seed),
            adapter_rank=ns.adapter_rank,
        )
    cfg = TrainConfig(
        learning_rate=ns.lr,
        epochs=ns.epochs,
        batch_size=ns.batch_size,
        clip_norm=ns.clip,
        seed=ns.seed,
    )
    if ns.adapters_only:
        if ns.adapter_tag not in model.adapters:
            model.add_adapter(ns.adapter_tag, seed=ns.seed)
        model.set_active_adapter(ns.adapter_tag)
    stats = TrainStats()
    losses = train(model, corpus, cfg, ns.adapters_only, stats)
    for epoch, loss in enumerate(losses):
        print(f"epoch {epoch} loss {loss:.6f}", file=sys.stderr)
    writers = {"out": lambda path: save_checkpoint(model, path)}
    if ns.vocab_out:
        writers["vocab_out"] = vocab.save
    payload = {"command": "train", "epochs": ns.epochs, "final_loss": losses[-1], "out": ns.out}
    return payload, stats.summary(), writers


def _cmd_build_datastore(ns) -> _Result:
    if ns.ivf_out and ns.ivf_clusters is None:
        raise _UsageError("--ivf-out requires --ivf-clusters")
    if ns.ivf_clusters is not None and not ns.ivf_out:
        raise _UsageError("--ivf-clusters requires --ivf-out")
    vocab = Vocab.load(ns.vocab)
    models = _load_models([ns.model], ns.adapter, vocab)
    corpus = _load_direction(ns.corpus, vocab, ns.lang)
    store = build(models[0], corpus)
    payload = {"command": "build-datastore", "entries": len(store), "dim": store.dim, "out": ns.out}
    writers = {"out": lambda path: save_datastore(store, path)}
    if ns.ivf_clusters is not None:
        index = train_ivf(  # checks 1 <= clusters <= entries before anything is written
            store,
            ns.ivf_clusters,
            iterations=ns.ivf_iterations,
            seed=ns.seed,
            nprobe=ns.ivf_nprobe,
        )
        writers["ivf_out"] = lambda path: save_ivf(index, path)
        payload["ivf_clusters"] = ns.ivf_clusters
    return payload, None, writers


def _cmd_decode(ns) -> _Result:
    vocab = Vocab.load(ns.vocab)
    models = _load_models(ns.model, ns.adapter, vocab)
    stores = _load_stores(ns, models)
    corpus = _load_direction(ns.corpus, vocab, ns.lang)
    lm = _load_lm(ns, vocab)
    cfg = _decode_config(ns)
    cfg_snapshot = asdict(cfg)
    results = beam_decode_batch(models, stores, [pair.source for pair in corpus], cfg, lm=lm)
    records = (
        {
            "id": i,
            "source": " ".join(vocab.decode(pair.source.token_ids)),
            "hypothesis": " ".join(vocab.decode(hyp)),
            "score": score,
            "config": cfg_snapshot,
        }
        for i, (pair, (hyp, score)) in enumerate(zip(corpus, results))
    )
    text = "".join(json.dumps(record, sort_keys=True, allow_nan=False) + "\n" for record in records)
    return {"command": "decode", "segments": len(corpus), "out": ns.out}, None, {"out": _text(text)}


def _cmd_grid_search(ns) -> _Result:
    vocab = Vocab.load(ns.vocab)
    models = _load_models(ns.model, ns.adapter, vocab)
    stores = _load_stores(ns, models)
    dev_corpus = _load_direction(ns.dev, vocab, ns.lang)
    dev = [(p.source, p.target) for p in dev_corpus.pairs]
    result = grid_search(
        models,
        stores,
        dev,
        T_grid=ns.T_grid,
        w_grid=ns.w_grid,
        base=DecodeConfig(k=ns.k, beam=ns.beam, max_len=ns.max_len),
    )
    lines = ["T\tw\tBLEU"]
    lines += [f"{T:g}\t{w:g}\t{score:.6f}" for T, w, score in result.rows]
    payload = {
        "command": "grid-search",
        "best_T": result.best_T,
        "best_w": result.best_w,
        "best_bleu": result.best_bleu,
        "out": ns.out,
    }
    return payload, None, {"out": _text("\n".join(lines) + "\n")}


def _cmd_diversify(ns) -> _Result:
    vocab = Vocab.load(ns.vocab)
    corpus = load_corpus(ns.corpus, vocab)
    forward, backward = _load_models([ns.forward_model, ns.backward_model], None, vocab)
    augmented = diversify(corpus, forward, backward, ns.beam)
    payload = {"command": "diversify", "original": len(corpus), "total": len(augmented), "out": ns.out}
    return payload, None, {"out": lambda path: write_corpus(path, augmented, vocab)}


def _cmd_select_data(ns) -> _Result:
    vocab = _resolve_vocab(ns, [ns.pool, ns.seed_corpus])
    pool = load_corpus(ns.pool, vocab)
    seed_corpus = load_corpus(ns.seed_corpus, vocab)
    selected = select_data(pool, [p.source for p in seed_corpus.pairs], ns.max_order, ns.top_k)
    payload = {"command": "select-data", "selected": len(selected), "pool": len(pool), "out": ns.out}
    return payload, None, {"out": lambda path: write_corpus(path, selected, vocab)}


def _cmd_leave_one_out(ns) -> _Result:
    vocab = Vocab.load(ns.vocab)
    models = _load_models(ns.model, ns.adapter, vocab)
    talkset = load_corpus(ns.talkset, vocab)
    cfg = _decode_config(ns)
    report = leave_one_out_eval(models, talkset, cfg)
    payload = {
        "command": "leave-one-out",
        "aggregate_retrieval": report.aggregate_retrieval,
        "aggregate_baseline": report.aggregate_baseline,
        "delta": report.delta,
        "per_talk": [
            {
                "talk_id": r.talk_id,
                "bleu_retrieval": r.bleu_retrieval,
                "bleu_baseline": r.bleu_baseline,
                "delta": r.delta,
            }
            for r in report.per_talk
        ],
    }
    report_text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    return payload, None, {"out": _text(report_text)} if ns.out else {}


def _cmd_score(ns) -> _Result:
    hyps = [tokenize(line) for line in read_text(ns.hyp).splitlines()]
    refs = [tokenize(line) for line in read_text(ns.ref).splitlines()]
    if ns.metric == "bleu":
        report = bleu(hyps, refs)
        payload = {
            "metric": "bleu",
            "value": report.bleu,
            "details": {
                "precisions": list(report.precisions),
                "brevity_penalty": report.brevity_penalty,
                "hyp_length": report.hyp_length,
                "ref_length": report.ref_length,
            },
        }
    else:
        payload = {
            "metric": "wer",
            "value": corpus_wer(hyps, refs),
            "details": {"segments": len(refs)},
        }
    return payload, None, {}


def _cmd_lm_train(ns) -> _Result:
    vocab = Vocab.load(ns.vocab)
    corpus = load_corpus(ns.corpus, vocab)
    sents = [p.target if ns.side == "target" else p.source for p in corpus.pairs]
    lm = lm_train(sents, ns.order, len(vocab))
    payload = {"command": "lm-train", "grams": len(lm.counts), "order": ns.order, "out": ns.out}
    return payload, None, {"out": lambda path: save_ngram_counts(lm, vocab, path)}


def _add_common_model_flags(sp, multi: bool) -> None:
    sp.add_argument(
        "--model",
        required=True,
        action="append" if multi else "store",
        help="model checkpoint" + (" (repeat to ensemble)" if multi else ""),
    )
    sp.add_argument("--vocab", required=True, help="vocabulary file")
    sp.add_argument("--adapter", default=None, help="adapter tag to activate")


def _add_store_flags(sp) -> None:
    sp.add_argument("--datastore", action="append", help="datastore file, one per model (repeatable)")
    sp.add_argument("--ivf-index", action="append", help="IVF index file, one per datastore (repeatable)")


def _add_lang_flag(sp) -> None:
    sp.add_argument(
        "--lang", choices=("forward", "reverse"), default="forward", help="reverse swaps source and target"
    )


def _add_mixing_flags(sp, grid: bool = False) -> None:
    """--k, then --T and --w, or with `grid` their comma-separated grids."""
    sp.add_argument("--k", type=int, default=8, help="neighbors per query")
    if grid:
        sp.add_argument("--T-grid", type=_float_list, default=T_GRID_DEFAULT, help="comma-separated temperatures")
        sp.add_argument("--w-grid", type=_float_list, default=W_GRID_DEFAULT, help="comma-separated weights")
    else:
        sp.add_argument("--T", type=_finite_float, default=50.0, help="retrieval temperature")
        sp.add_argument("--w", type=_finite_float, default=0.3, help="retrieval interpolation weight")


def _add_beam_flags(sp) -> None:
    sp.add_argument("--beam", type=int, default=4, help="beam width")
    sp.add_argument("--max-len", type=int, default=None, help="decode length cap")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="knnmt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, func, help_text: str):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--manifest", default=None, help="also write the run manifest here")
        return sp

    sp = command("train", _cmd_train, "train a model or an adapter on a TSV corpus")
    sp.add_argument("--corpus", required=True, help="training corpus TSV")
    sp.add_argument("--out", required=True, help="checkpoint to write")
    _add_vocab_flags(sp, vocab_out=True)
    sp.add_argument("--init", default=None, help="checkpoint to start from")
    sp.add_argument("--adapters-only", action="store_true", help="freeze the base, train an adapter")
    sp.add_argument("--adapter-tag", default="default", help="adapter name in the checkpoint")
    sp.add_argument("--epochs", type=int, default=10)
    sp.add_argument("--lr", type=_finite_float, default=0.5)
    sp.add_argument("--batch-size", type=int, default=8)
    sp.add_argument("--clip", type=_finite_float, default=5.0, help="gradient clip norm")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--embed-dim", type=int, default=32)
    sp.add_argument("--hidden-dim", type=int, default=64)
    sp.add_argument("--adapter-rank", type=int, default=8)
    _add_lang_flag(sp)

    sp = command("build-datastore", _cmd_build_datastore, "record (hidden state, token) entries for a corpus")
    _add_common_model_flags(sp, multi=False)
    sp.add_argument("--corpus", required=True, help="bitext to teacher-force")
    sp.add_argument("--out", required=True, help="datastore to write")
    sp.add_argument("--ivf-clusters", type=int, default=None, help="also train an IVF index")
    sp.add_argument("--ivf-iterations", type=int, default=25)
    sp.add_argument("--ivf-nprobe", type=int, default=1)
    sp.add_argument("--ivf-out", default=None, help="IVF index to write")
    sp.add_argument("--seed", type=int, default=0)
    _add_lang_flag(sp)

    sp = command("decode", _cmd_decode, "beam-decode a corpus, optionally with retrieval and LM fusion")
    _add_common_model_flags(sp, multi=True)
    _add_store_flags(sp)
    _add_mixing_flags(sp)
    _add_beam_flags(sp)
    sp.add_argument("--corpus", required=True, help="TSV whose source side is decoded")
    sp.add_argument("--out", required=True, help="JSONL hypotheses to write")
    sp.add_argument("--exclude-talk", type=int, default=None, help="never retrieve from this talk")
    sp.add_argument("--fusion-alpha", type=_finite_float, default=0.0, help="LM fusion weight")
    sp.add_argument("--lm", default=None, help="n-gram counts for fusion")
    sp.add_argument("--lm-domain", default=None, help="domain n-gram counts to mix in")
    sp.add_argument("--lm-lambda", type=_finite_float, default=0.5, help="domain LM mixture weight")
    _add_lang_flag(sp)

    sp = command("grid-search", _cmd_grid_search, "sweep retrieval temperature and weight on a dev set")
    _add_common_model_flags(sp, multi=True)
    _add_store_flags(sp)
    _add_mixing_flags(sp, grid=True)
    _add_beam_flags(sp)
    sp.add_argument("--dev", required=True, help="dev corpus TSV")
    sp.add_argument("--out", required=True, help="TSV of (T, w, BLEU) rows")
    _add_lang_flag(sp)

    sp = command("diversify", _cmd_diversify, "augment a bitext with round-trip translations")
    sp.add_argument("--corpus", required=True, help="bitext TSV to augment")
    sp.add_argument("--forward-model", required=True, help="source-to-target checkpoint")
    sp.add_argument("--backward-model", required=True, help="target-to-source checkpoint")
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--out", required=True, help="augmented corpus TSV")
    sp.add_argument("--beam", type=int, default=4)

    sp = command("select-data", _cmd_select_data, "pick pool pairs by n-gram overlap with a seed corpus")
    sp.add_argument("--pool", required=True, help="candidate corpus TSV")
    sp.add_argument("--seed-corpus", required=True, help="in-domain seed TSV")
    sp.add_argument("--top-k", type=int, required=True, help="pairs to keep")
    sp.add_argument("--max-order", type=int, default=2, help="largest n-gram order scored")
    sp.add_argument("--out", required=True, help="selected corpus TSV")
    _add_vocab_flags(sp)

    sp = command("leave-one-out", _cmd_leave_one_out, "score retrieval vs baseline, holding each talk out")
    _add_common_model_flags(sp, multi=True)
    sp.add_argument("--talkset", required=True, help="TSV with talk ids in column 4")
    _add_mixing_flags(sp)
    _add_beam_flags(sp)
    sp.add_argument("--out", default=None, help="also write the JSON report here")

    sp = command("score", _cmd_score, "corpus BLEU or WER of hypothesis lines against reference lines")
    sp.add_argument("--metric", choices=("bleu", "wer"), required=True)
    sp.add_argument("--hyp", required=True, help="hypotheses, one per line")
    sp.add_argument("--ref", required=True, help="references, one per line")

    sp = command("lm-train", _cmd_lm_train, "count n-grams for decode's fusion flags")
    sp.add_argument("--corpus", required=True, help="corpus TSV")
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--order", type=int, default=3)
    sp.add_argument("--side", choices=("source", "target"), default="target")
    sp.add_argument("--out", required=True, help="counts file to write")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        _check_outputs(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    tmps: dict[str, Path] = {}  # final path -> its temporary file
    try:
        t0 = time.perf_counter()
        payload, stats, writers = ns.func(ns)
        result = json.dumps(payload, sort_keys=True, allow_nan=False)
        for flag, write in writers.items():
            _stage(getattr(ns, flag), write, tmps)
        line = _manifest(ns, t0, stats, {path: _sha256(tmp) for path, tmp in tmps.items()})
        if ns.manifest:
            _stage(ns.manifest, _text(line + "\n"), tmps)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
    print(line, file=sys.stderr)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
