"""End-to-end checks for the whole toolkit, one test per guarantee.

Each test prints a single PASS/FAIL line (outside pytest's capture) so a
full run reads as a checklist. Heavier fixtures are module-scoped and
shared; every number here is seeded.
"""

import copy
import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import knnmt
from knnmt.benchmark import make_domain_shift_benchmark, make_general_corpus, shift_noun_targets, shift_term_targets, terminology_recall
from knnmt.core import ParallelCorpus
from knnmt.datastore import Datastore, Neighbor, build, query_exact, query_ivf, train_ivf
from knnmt.decode import DecodeConfig, beam_decode, grid_search, interpolate, knn_distribution
from knnmt.metrics import bleu, wer
from knnmt.pipeline import SamplingConfig, diversify, leave_one_out_eval, sample_languages, sample_weights
from knnmt.refmodel import RefModel, TrainConfig, base_param_checksum, grad_check, init_params, train
from helpers import CopyModel, random_corpus


def report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bench():
    return make_domain_shift_benchmark()


@pytest.fixture(scope="module")
def base_model(bench):
    model = RefModel(init_params(len(bench.vocab), seed=3))
    train(model, bench.general, TrainConfig(learning_rate=1.0, epochs=50, seed=0))
    return model


@pytest.fixture(scope="module")
def talks_store(bench, base_model):
    return build(base_model, bench.talks)


def decode_corpus_bleu(model, corpus, cfg):
    hyps = [beam_decode(model, None, p.source, cfg)[0] for p in corpus.pairs]
    refs = [list(p.target.token_ids) for p in corpus.pairs]
    return bleu(hyps, refs).bleu


def oracle_knn(keys: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """Brute-force neighbor indices in float64, ties by row order."""
    d = ((keys.astype(np.float64) - query.astype(np.float64)) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(keys)), d))
    return [int(i) for i in order[:k]]


def test_01_exact_search_matches_brute_force(capsys):
    rng = np.random.default_rng(0)
    keys = rng.standard_normal((1000, 64)).astype(np.float32)
    keys[500:510] = keys[0:10]  # exact duplicates force distance ties
    ds = Datastore(
        dim=64,
        keys=keys,
        values=rng.integers(0, 50, size=1000).astype(np.uint32),
        talk_ids=rng.integers(0, 4, size=1000).astype(np.uint32),
    )
    queries = [q.astype(np.float32) for q in rng.standard_normal((90, 64))]
    queries += [keys[i].copy() for i in range(10)]  # zero-distance tie pairs
    checked = 0
    mismatches = 0
    for q in queries:
        for k in (1, 8, 32):
            got = [n.index for n in query_exact(ds, q, k)]
            want = oracle_knn(keys, q, k)
            checked += 1
            if got != want:
                mismatches += 1
    report(
        capsys, 1, "exact-search-oracle",
        mismatches == 0,
        f"{checked} query/k combinations, {mismatches} mismatches",
    )


def test_02_ivf_full_probe_exact_and_high_recall(capsys):
    rng = np.random.default_rng(5)
    small_keys = rng.standard_normal((1000, 16)).astype(np.float32)
    small = Datastore(
        dim=16,
        keys=small_keys,
        values=rng.integers(0, 50, size=1000).astype(np.uint32),
        talk_ids=rng.integers(0, 4, size=1000).astype(np.uint32),
    )
    small.index = train_ivf(small, 25, seed=0, nprobe=25)
    verbatim = all(
        query_ivf(small, q, 8) == query_exact(small, q, 8)
        for q in rng.standard_normal((50, 16)).astype(np.float32)
    )

    big_rng = np.random.default_rng(0)
    big_keys = big_rng.standard_normal((10_000, 8)).astype(np.float32)
    big = Datastore(
        dim=8,
        keys=big_keys,
        values=np.zeros(10_000, dtype=np.uint32),
        talk_ids=np.zeros(10_000, dtype=np.uint32),
    )
    big.index = train_ivf(big, 64, seed=0, nprobe=8)
    q_rng = np.random.default_rng(1)
    hit = 0
    n_queries = 200
    for q in q_rng.standard_normal((n_queries, 8)).astype(np.float32):
        exact = {n.index for n in query_exact(big, q, 8)}
        approx = {n.index for n in query_ivf(big, q, 8)}
        hit += len(exact & approx)
    recall = hit / (8 * n_queries)
    report(
        capsys, 2, "ivf-soundness",
        verbatim and recall >= 0.9,
        f"full-probe verbatim={verbatim}, recall@8={recall:.4f} over {n_queries} queries",
    )


def test_03_retrieval_math_and_w_zero_identity(capsys, bench, base_model, talks_store):
    T = 50.0
    two_thirds = knn_distribution(
        [Neighbor(0, 0.0, 5, 0), Neighbor(1, T * math.log(2.0), 7, 0)], T, 10
    )
    closed_form = (
        abs(two_thirds[5] - 2.0 / 3.0) < 1e-9
        and abs(two_thirds[7] - 1.0 / 3.0) < 1e-9
        and abs(two_thirds.sum() - 1.0) < 1e-12
    )
    shifted = knn_distribution(
        [Neighbor(0, 13.7, 5, 0), Neighbor(1, 13.7 + T * math.log(2.0), 7, 0)], T, 10
    )
    shift_invariant = np.abs(shifted - two_thirds).max() < 1e-9
    accumulated = knn_distribution(
        [Neighbor(0, 0.0, 5, 0), Neighbor(1, 0.0, 5, 1), Neighbor(2, 0.0, 7, 0)], T, 10
    )
    accumulation = (
        abs(accumulated[5] - 2.0 / 3.0) < 1e-9 and abs(accumulated[7] - 1.0 / 3.0) < 1e-9
    )
    p_model = np.zeros(10)
    p_model[0] = 0.5
    p_model[1] = 0.5
    p_knn = np.zeros(10)
    p_knn[0] = 1.0
    mixed = interpolate(p_model, p_knn, 0.3)
    mixing = abs(mixed[0] - 0.65) < 1e-12 and abs(mixed[1] - 0.35) < 1e-12

    cfg_off = DecodeConfig(w=0.0, beam=4)
    identical = True
    for pair in bench.talks.pairs[:8]:
        with_store = beam_decode(base_model, talks_store, pair.source, cfg_off)
        without = beam_decode(base_model, None, pair.source, cfg_off)
        if with_store[0] != without[0] or with_store[1] != without[1]:
            identical = False
    report(
        capsys, 3, "retrieval-math",
        closed_form and shift_invariant and accumulation and mixing and identical,
        f"closed-form={closed_form}, shift-invariant={shift_invariant}, "
        f"accumulation={accumulation}, mixing={mixing}, w0-identity={identical}",
    )


def test_04_analytic_gradients_match_finite_differences(capsys):
    worst = 0.0
    for seed in range(100, 110):
        model = RefModel(init_params(14, embed_dim=8, hidden_dim=12, seed=seed))
        if seed % 2:
            model.add_adapter("t", seed=seed)
            model.adapters["t"].W_up += 0.05
            model.adapters["t"].W_down += 0.03
            model.set_active_adapter("t")
        pair = random_corpus(seed, 1, 14, min_len=3, max_len=5).pairs[0]
        worst = max(worst, grad_check(model, pair, seed=seed))
    report(
        capsys, 4, "gradient-check",
        worst < 1e-4,
        f"max relative error {worst:.3e} over 10 models, threshold 1e-4",
    )


def test_05_adapter_matches_full_retrain(capsys, bench, base_model):
    vocab = bench.vocab
    new_orig = shift_noun_targets(make_general_corpus(550, seed=77, vocab=vocab), vocab, limit=4)
    fwd = RefModel(init_params(len(vocab), seed=4))
    train(fwd, new_orig, TrainConfig(learning_rate=1.0, epochs=25, seed=0))
    flipped = ParallelCorpus(
        tuple(replace(p, source=p.target, target=p.source) for p in new_orig.pairs)
    )
    bwd = RefModel(init_params(len(vocab), seed=5))
    train(bwd, flipped, TrainConfig(learning_rate=1.0, epochs=25, seed=0))
    div = diversify(new_orig, fwd, bwd, beam=4)

    retrain = RefModel(init_params(len(vocab), seed=3))
    train(retrain, div, TrainConfig(learning_rate=1.0, epochs=50, seed=0))
    eval_cfg = DecodeConfig(w=0.0, beam=4)
    retrain_bleu = decode_corpus_bleu(retrain, div, eval_cfg)

    adapted = copy.deepcopy(base_model)
    before = base_param_checksum(adapted)
    adapted.add_adapter("newdom", seed=0)
    adapted.set_active_adapter("newdom")
    train(adapted, div, TrainConfig(learning_rate=0.2, epochs=200, seed=0), adapters_only=True)
    frozen = base_param_checksum(adapted) == before == base_param_checksum(base_model)
    adapter_bleu = decode_corpus_bleu(adapted, div, eval_cfg)

    gap = abs(retrain_bleu - adapter_bleu)
    report(
        capsys, 5, "adapter-parity",
        frozen and gap <= 2.0,
        f"retrain {retrain_bleu:.2f} vs adapter {adapter_bleu:.2f} BLEU on "
        f"{len(div)} pairs, gap {gap:.2f} <= 2.0, base frozen={frozen}",
    )


def test_06_retrieval_lifts_heldout_talks(capsys, bench, base_model):
    cfg = DecodeConfig(k=8, T=50.0, w=0.3)
    rep = leave_one_out_eval(base_model, bench.talks, cfg)
    rec_ret = terminology_recall(rep.hyps_retrieval, rep.refs, bench.term_target_ids)
    rec_base = terminology_recall(rep.hyps_baseline, rep.refs, bench.term_target_ids)
    rec_gain = rec_ret - rec_base
    report(
        capsys, 6, "domain-gain",
        rep.delta > 0.0 and rec_gain >= 0.10,
        f"BLEU {rep.aggregate_baseline:.2f} -> {rep.aggregate_retrieval:.2f} "
        f"(delta {rep.delta:+.2f}), terminology recall {rec_base:.3f} -> {rec_ret:.3f} "
        f"({rec_gain:+.3f}, need +0.10)",
    )


def test_07_grid_search_prefers_retrieval_on_shifted_domain(capsys, bench):
    corrupted = shift_term_targets(bench.talks, bench.vocab)
    mixed = ParallelCorpus(bench.general.pairs + corrupted.pairs)
    wrong = RefModel(init_params(len(bench.vocab), seed=3))
    train(wrong, mixed, TrainConfig(learning_rate=1.0, epochs=40, seed=0))
    store = build(wrong, bench.talks)  # datastore carries the true terminology
    dev = [(p.source, p.target) for p in bench.talks.pairs]
    result = grid_search(wrong, store, dev)

    cells = [(T, w) for T, w, _ in result.rows]
    expected = [(T, w) for T in (10.0, 50.0, 100.0) for w in (0.1, 0.3, 0.5)]
    grid_ok = cells == expected
    top_w = [score for T, w, score in result.rows if w == 0.5]
    low_w = [score for T, w, score in result.rows if w < 0.5]
    separated = min(top_w) > max(low_w)
    report(
        capsys, 7, "grid-search-selects-retrieval",
        grid_ok and result.best_w == 0.5 and separated,
        f"grid={len(cells)} cells ok={grid_ok}, best (T={result.best_T:g}, "
        f"w={result.best_w:g}) at {result.best_bleu:.2f} BLEU, "
        f"min w=0.5 {min(top_w):.2f} > max w<0.5 {max(low_w):.2f}",
    )


def test_08_diversify_contract(capsys):
    raw = random_corpus(11, 40, 20, min_len=3, max_len=6)
    seen = set()
    uniq = []
    for p in raw.pairs:
        key = (p.source.token_ids, p.target.token_ids)
        if key not in seen:
            seen.add(key)
            uniq.append(p)
    corpus = ParallelCorpus(tuple(uniq))
    n = len(corpus)
    cm = CopyModel(20)

    div = diversify(corpus, cm, cm)
    prefix = div.pairs[:n] == corpus.pairs
    srcs = {p.source.token_ids for p in corpus.pairs}
    tgts = {p.target.token_ids for p in corpus.pairs}
    one_side = all(
        p.source.token_ids in srcs or p.target.token_ids in tgts
        for p in div.pairs[n:]
    )

    doubled = ParallelCorpus(corpus.pairs + corpus.pairs)
    dedup_out = diversify(doubled, cm, cm)
    keys = [(p.source.token_ids, p.target.token_ids) for p in dedup_out.pairs]
    deduped = len(keys) == len(set(keys)) and dedup_out.pairs[:n] == corpus.pairs

    ident = random_corpus(12, 30, 20, identity=True)
    fixed_point = diversify(ident, cm, cm).pairs == ident.pairs

    report(
        capsys, 8, "diversify-contract",
        prefix and one_side and deduped and fixed_point,
        f"originals-prefix={prefix}, one-original-side={one_side}, "
        f"dedup={deduped}, copy-model-fixed-point={fixed_point}",
    )


def test_09_temperature_sampling_weights(capsys):
    sizes = {"hi": 4, "lo": 1}
    w1 = sample_weights(SamplingConfig(sizes, tau=1.0))
    w2 = sample_weights(SamplingConfig(sizes, tau=2.0))
    exact = (
        abs(w1["hi"] - 0.8) < 1e-12
        and abs(w1["lo"] - 0.2) < 1e-12
        and abs(w2["hi"] - 2.0 / 3.0) < 1e-12
        and abs(w2["lo"] - 1.0 / 3.0) < 1e-12
    )
    draws = sample_languages(SamplingConfig(sizes, tau=1.0), 100_000, seed=7)
    freq = Counter(draws)
    err = max(abs(freq["hi"] / 100_000 - 0.8), abs(freq["lo"] / 100_000 - 0.2))
    report(
        capsys, 9, "sampling-weights",
        exact and err < 0.01,
        f"tau=1 (0.8, 0.2) and tau=2 (2/3, 1/3) exact={exact}, "
        f"empirical error {err:.4f} < 0.01 over 100k draws",
    )


def oracle_bleu(hyps, refs) -> float:
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            h = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            r = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            totals[n - 1] += sum(h.values())
            matches[n - 1] += sum(min(c, r[g]) for g, c in h.items())
    if any(t == 0 for t in totals) or any(m == 0 for m in matches):
        return 0.0
    product = 1.0
    for m, t in zip(matches, totals):
        product *= m / t
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * product**0.25


def test_10_metric_oracles(capsys):
    same = [["the", "dog", "runs", "fast"], ["a", "cat", "sat", "down", "there"]]
    identity = bleu(same, same).bleu
    zero = bleu([["a", "b", "c", "d"]], [["a", "b", "x", "y"]]).bleu

    rng = np.random.default_rng(17)
    words = [f"t{i}" for i in range(20)]
    worst = 0.0
    for _ in range(20):
        refs = [
            [words[int(j)] for j in rng.integers(0, 20, size=int(rng.integers(5, 13)))]
            for _ in range(25)
        ]
        hyps = [
            [w if rng.random() > 0.25 else words[int(rng.integers(0, 20))] for w in ref]
            for ref in refs
        ]
        worst = max(worst, abs(bleu(hyps, refs).bleu - oracle_bleu(hyps, refs)))

    wer_ok = (
        wer(["a", "b", "c"], ["a", "b", "c"]) == 0.0
        and wer(["the", "dog", "walks"], ["the", "dog", "runs"]) == 1 / 3
        and wer(["a", "b"], ["a"]) == 1.0
        and wer(["a"], ["a", "b"]) == 0.5
        and wer(["x", "y", "z"], ["a"]) == 3.0
    )
    report(
        capsys, 10, "metric-oracles",
        identity == 100.0 and zero == 0.0 and worst < 1e-9 and wer_ok,
        f"identity={identity}, zero-case={zero}, max |BLEU - oracle| = {worst:.2e} "
        f"over 20 corpora, WER hand cases ok={wer_ok}",
    )


def test_11_heldout_talk_never_retrieved(capsys, bench, base_model, monkeypatch):
    calls = []
    batch_rows = Datastore.search_batch_rows

    # every search, exact or IVF, Neighbor view or not, goes through this one
    def spy_rows(self, queries, k, exclude_talk=None):
        rows, dists = batch_rows(self, queries, k, exclude_talk=exclude_talk)
        for rw in rows:
            calls.append((exclude_talk, tuple(self.talk_ids[rw[rw >= 0]].tolist())))
        return rows, dists

    monkeypatch.setattr(Datastore, "search_batch_rows", spy_rows)
    leave_one_out_eval(base_model, bench.talks, DecodeConfig(k=8, T=50.0, w=0.3, beam=2))
    talks = set(bench.talks.talk_ids())
    excluded_seen = {exc for exc, _ in calls}
    always_excluding = all(exc is not None for exc, _ in calls)
    leaks = sum(exc in got for exc, got in calls)
    report(
        capsys, 11, "exclusion-honored",
        len(calls) > 0 and always_excluding and excluded_seen == talks and leaks == 0,
        f"{len(calls)} retrievals over talks {sorted(excluded_seen)}, {leaks} leaks",
    )


def test_12_retrieval_overhead_bounded(capsys, bench, base_model, talks_store):
    import time

    cfg_knn = DecodeConfig(k=8, T=50.0, w=0.3, beam=4)
    cfg_off = DecodeConfig(w=0.0, beam=4)
    sources = [p.source for p in bench.talks.pairs]

    def run_plain():
        for src in sources:
            beam_decode(base_model, None, src, cfg_off)

    def run_knn():
        for src in sources:
            beam_decode(base_model, talks_store, src, cfg_knn)

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    run_knn()  # warm caches on both paths before timing
    run_plain()
    # the arms alternate and each keeps its fastest of 5 wall-clock
    # readings, so a drift in the host's speed reaches both arms alike and
    # scheduler noise is trimmed without touching the workload itself
    t_off = t_knn = float("inf")
    for _ in range(5):
        t_off = min(t_off, timed(run_plain))
        t_knn = min(t_knn, timed(run_knn))
    ratio = t_knn / t_off
    report(
        capsys, 12, "retrieval-overhead",
        ratio <= 3.0,
        f"{len(sources)} segments: retrieval {t_knn:.2f}s vs plain {t_off:.2f}s, "
        f"ratio {ratio:.2f} <= 3.0",
    )


CLI_CORPUS = """\
w1 w2 w3\tw4 w5
w2 w2\tw5 w1
w3 w1\tw2 w2 w4
w4 w5 w1\tw3 w2
w5 w3\tw1 w4
w1 w4\tw5 w5 w2
w2 w5 w4\tw1 w3
w3 w3 w1\tw4 w2
w4 w1\tw2 w5
w5 w2 w3\tw3 w1
w1 w5\tw4 w4
w2 w4 w1\tw5 w3 w2
"""

CLI_TALKS = """\
w1 w3 w5\tw2 w4\ttalks\t0
w2 w1\tw5 w3\ttalks\t0
w4 w2 w5\tw1 w1 w3\ttalks\t0
w3 w4\tw2 w5\ttalks\t0
w5 w1 w2\tw3 w4\ttalks\t1
w1 w2\tw4 w5 w1\ttalks\t1
w2 w3 w4\tw5 w2\ttalks\t1
w4 w5\tw1 w2\ttalks\t1
"""

CLI_COMMANDS = [
    ["train", "--corpus", "corpus.tsv", "--out", "fwd.rmdl", "--vocab-out", "vocab.txt",
     "--epochs", "3", "--lr", "0.5", "--seed", "7"],
    ["train", "--corpus", "corpus.tsv", "--vocab", "vocab.txt", "--out", "bwd.rmdl",
     "--lang", "reverse", "--epochs", "3", "--lr", "0.5", "--seed", "7"],
    ["build-datastore", "--model", "fwd.rmdl", "--vocab", "vocab.txt", "--corpus", "talks.tsv",
     "--out", "talks.knnd", "--ivf-clusters", "4", "--ivf-nprobe", "2",
     "--ivf-out", "talks.knni", "--seed", "7"],
    ["decode", "--model", "fwd.rmdl", "--vocab", "vocab.txt", "--corpus", "talks.tsv",
     "--out", "hyps.jsonl", "--datastore", "talks.knnd", "--ivf-index", "talks.knni",
     "--w", "0.3", "--beam", "2"],
    ["grid-search", "--model", "fwd.rmdl", "--vocab", "vocab.txt", "--datastore", "talks.knnd",
     "--dev", "talks.tsv", "--out", "grid.tsv", "--T-grid", "10,50", "--w-grid", "0.1,0.5",
     "--beam", "2"],
    ["diversify", "--corpus", "corpus.tsv", "--forward-model", "fwd.rmdl",
     "--backward-model", "bwd.rmdl", "--vocab", "vocab.txt", "--out", "div.tsv", "--beam", "2"],
    ["select-data", "--pool", "corpus.tsv", "--seed-corpus", "talks.tsv", "--top-k", "5",
     "--out", "sel.tsv"],
    ["leave-one-out", "--model", "fwd.rmdl", "--vocab", "vocab.txt", "--talkset", "talks.tsv",
     "--beam", "2", "--out", "loo.json"],
    ["lm-train", "--corpus", "corpus.tsv", "--vocab", "vocab.txt", "--order", "2",
     "--out", "lm.txt"],
    ["score", "--metric", "bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"],
]


def cli_child_env():
    """Environment for `python -m knnmt.cli` children that run in a temp dir.

    A relative PYTHONPATH entry such as `src` would be resolved against the
    child's cwd, so the directory holding the imported `knnmt` package goes
    first and the inherited entries follow, made absolute.
    """
    entries = [str(Path(knnmt.__file__).resolve().parent.parent)]
    entries += [
        str(Path(entry).resolve())
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def run_cli_sequence(root):
    root.mkdir()
    (root / "corpus.tsv").write_text(CLI_CORPUS)
    (root / "talks.tsv").write_text(CLI_TALKS)
    (root / "hyp.txt").write_text("w1 w2 w3\nw4 w5\n")
    (root / "ref.txt").write_text("w1 w2 w4\nw4 w5\n")
    env = cli_child_env()
    stdouts = []
    for args in CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "knnmt.cli", *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, f"{args[0]} failed: {proc.stderr}"
        stdouts.append(proc.stdout)
    checksums = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }
    return stdouts, checksums


def test_13_cli_runs_are_reproducible(capsys, tmp_path):
    out_a, sums_a = run_cli_sequence(tmp_path / "a")
    out_b, sums_b = run_cli_sequence(tmp_path / "b")
    stdout_ok = out_a == out_b
    files_ok = sums_a == sums_b
    diff = [name for name in sums_a if sums_a.get(name) != sums_b.get(name)]
    report(
        capsys, 13, "cli-reproducibility",
        stdout_ok and files_ok,
        f"{len(CLI_COMMANDS)} commands x 2 runs, {len(sums_a)} files checksummed, "
        f"stdout identical={stdout_ok}, differing files={diff}",
    )
