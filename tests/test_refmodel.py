import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt.core import BOS_ID, EOS_ID, Sentence, SentencePair
from knnmt.refmodel import (
    BASE_PARAM_NAMES,
    RefModel,
    TrainConfig,
    TrainStats,
    base_param_checksum,
    grad_check,
    init_params,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train,
)
from knnmt.refmodel import _pair_grads
from helpers import CopyModel, random_corpus

VOCAB = 14


def fresh_model(seed=0, rank=8):
    return RefModel(init_params(VOCAB, seed=seed), adapter_rank=rank)


def some_pair(seed=0):
    rng = np.random.default_rng(seed)
    src = Sentence(tuple(int(x) for x in rng.integers(4, VOCAB, size=3)))
    tgt = Sentence(tuple(int(x) for x in rng.integers(4, VOCAB, size=4)))
    return SentencePair(source=src, target=tgt, domain="general", talk_id=0)


class TestParams:
    def test_init_deterministic(self):
        a = init_params(VOCAB, seed=5)
        b = init_params(VOCAB, seed=5)
        for name in BASE_PARAM_NAMES:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a = init_params(VOCAB, seed=5)
        b = init_params(VOCAB, seed=6)
        assert not np.array_equal(a.E, b.E)

    @pytest.mark.parametrize("dims", [(0, 4), (4, 0)])
    def test_dims_below_one_rejected(self, dims):
        with pytest.raises(ValueError, match="must be >= 1"):
            init_params(VOCAB, *dims)

    def test_softmax_normalizes_and_survives_large_logits(self):
        p = softmax(np.array([1000.0, 1000.0, 999.0]))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.isfinite(p).all()


class TestStep:
    def test_distribution_is_normalized(self):
        model = fresh_model()
        ctx = model.encode(Sentence((4, 5)))
        hidden, dist, state = model.step(ctx, model.initial_state(), 4)
        assert abs(dist.sum() - 1.0) < 1e-12
        assert hidden.shape == (model.hidden_dim(),)
        np.testing.assert_array_equal(state, hidden)

    def test_bad_token_rejected(self):
        model = fresh_model()
        ctx = model.encode(Sentence((4,)))
        with pytest.raises(ValueError):
            model.step(ctx, model.initial_state(), VOCAB)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            fresh_model().encode(Sentence(()))


def batch_inputs(model, rng, rows):
    contexts = [
        model.encode(Sentence(tuple(int(x) for x in rng.integers(4, VOCAB, size=rng.integers(1, 6)))))
        for _ in range(rows)
    ]
    states = [rng.uniform(-1.0, 1.0, size=model.hidden_dim()) for _ in range(rows)]
    tokens = [int(x) for x in rng.integers(0, VOCAB, size=rows)]
    return contexts, states, tokens


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), adapter=st.booleans())
def test_step_batch_rows_equal_one_step_per_row(seed, rows, adapter):
    """step_batch's one forward over B rows gives each row the bytes of
    one step() call on it: hidden state, distribution and new state."""
    rng = np.random.default_rng(seed)
    model = fresh_model(seed=seed)
    if adapter:
        model.add_adapter("dom", seed=seed)
        model.adapters["dom"].W_up += rng.uniform(-0.2, 0.2, size=model.adapters["dom"].W_up.shape)
        model.set_active_adapter("dom")
    contexts, states, tokens = batch_inputs(model, rng, rows)
    hidden, dists, new_states = model.step_batch(contexts, states, tokens)
    assert hidden.shape == (rows, model.hidden_dim()) and dists.shape == (rows, VOCAB)
    assert len(new_states) == rows
    for i in range(rows):
        h, dist, state = model.step(contexts[i], states[i], tokens[i])
        assert hidden[i].tobytes() == h.tobytes()
        assert dists[i].tobytes() == dist.tobytes()
        assert np.asarray(new_states[i]).tobytes() == state.tobytes()


class TestStepBatch:
    @pytest.mark.parametrize(
        "arg, bad",
        [
            ("contexts", lambda x: [c[:-1] for c in x]),
            ("contexts", lambda x: x[:-1]),
            ("states", lambda x: [np.append(s, 0.0) for s in x]),
            ("states", lambda x: x[:-1]),
            ("tokens", lambda x: x[:-1] + [VOCAB]),
            ("tokens", lambda x: x[:-1] + [-1]),
            ("tokens", lambda x: x[:-1]),
            ("tokens", lambda x: [float(t) for t in x]),
        ],
    )
    def test_bad_input_rejected_as_step_rejects_it(self, arg, bad):
        model = fresh_model()
        inputs = dict(zip(("contexts", "states", "tokens"), batch_inputs(model, np.random.default_rng(0), 3)))
        inputs[arg] = bad(inputs[arg])
        with pytest.raises(ValueError):
            model.step_batch(inputs["contexts"], inputs["states"], inputs["tokens"])

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            fresh_model().step_batch([], [], [])

    def test_base_class_stacks_step_calls(self):
        model = CopyModel(VOCAB, dim=3)
        contexts = [model.encode(Sentence((4, 5))), model.encode(Sentence((6,)))]
        hidden, dists, states = model.step_batch(contexts, [1, 1], [BOS_ID, BOS_ID])
        assert hidden.shape == (2, 3) and dists.shape == (2, VOCAB)
        assert dists[:, 5].tolist() == [1.0, 0.0] and dists[:, EOS_ID].tolist() == [0.0, 1.0]
        assert states == [2, 2]


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        worst = 0.0
        for seed in range(3):
            model = fresh_model(seed=seed)
            worst = max(worst, grad_check(model, some_pair(seed), seed=seed))
        assert worst < 1e-4

    def test_adapter_gradients_checked_too(self):
        model = fresh_model(seed=1)
        model.add_adapter("dom", seed=3)
        model.set_active_adapter("dom")
        # W_up starts at zero, so nudge both adapter arrays off init
        model.adapters["dom"].W_up += 0.05
        model.adapters["dom"].W_down += 0.03
        assert grad_check(model, some_pair(1), seed=1) < 1e-4

    def test_detects_a_broken_gradient(self):
        # the checker itself must flag a corrupted analytic gradient
        model = fresh_model(seed=2)
        pair = some_pair(2)
        _, _, grads = _pair_grads(model, pair.source, pair.target)
        grads["W_c"] = grads["W_c"] + 0.5
        assert grad_check(model, pair, seed=2, grads=grads) > 1e-2

    def test_training_forward_is_the_step_forward(self):
        # _pair_grads runs the cell step runs, so its loss is the sum of
        # step's token NLLs bit for bit, with and without an adapter
        model = fresh_model(seed=3)
        model.add_adapter("dom", seed=4)
        model.adapters["dom"].W_up += 0.05
        pair = some_pair(3)
        for tag in (None, "dom"):
            model.set_active_adapter(tag)
            ctx, state, prev, want = model.encode(pair.source), model.initial_state(), BOS_ID, 0.0
            for tgt in list(pair.target.token_ids) + [EOS_ID]:
                _, dist, state = model.step(ctx, state, prev)
                want -= float(np.log(dist[tgt]))
                prev = tgt
            loss, _, _ = _pair_grads(model, pair.source, pair.target)
            assert loss == want

    def test_frozen_base_skips_base_gradients(self):
        model = fresh_model(seed=5)
        model.add_adapter("dom", seed=1)
        model.set_active_adapter("dom")
        pair = some_pair(5)
        _, _, grads = _pair_grads(model, pair.source, pair.target, model.adapters["dom"].arrays())
        assert sorted(grads) == ["A.W_down", "A.W_up"]
        _, _, grads = _pair_grads(model, pair.source, pair.target)
        assert sorted(grads) == sorted(BASE_PARAM_NAMES + ("A.W_down", "A.W_up"))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 12),
    src_len=st.integers(1, 6),
    tgt_len=st.integers(0, 8),
)
def test_adapters_only_gradients_equal_full_computation(seed, rank, src_len, tgt_len):
    """Skipping the base gradients leaves the loss, the token count and the
    adapter's gradients byte-equal to the full computation's."""
    rng = np.random.default_rng(seed)
    model = RefModel(init_params(VOCAB, seed=seed), adapter_rank=rank)
    model.add_adapter("dom", seed=seed)
    model.set_active_adapter("dom")
    adapter = model.adapters["dom"]
    adapter.W_up += rng.uniform(-0.2, 0.2, size=adapter.W_up.shape)  # off its zero init
    src = Sentence(tuple(int(x) for x in rng.integers(4, VOCAB, size=src_len)))
    tgt = Sentence(tuple(int(x) for x in rng.integers(4, VOCAB, size=tgt_len)))
    full_loss, full_tokens, full = _pair_grads(model, src, tgt)
    loss, tokens, only = _pair_grads(model, src, tgt, adapter.arrays())
    assert np.float64(loss).tobytes() == np.float64(full_loss).tobytes()
    assert tokens == full_tokens == tgt_len + 1
    assert sorted(only) == ["A.W_down", "A.W_up"]
    for name in only:
        assert only[name].tobytes() == full[name].tobytes()


class TestTrain:
    def test_seeded_training_is_bit_reproducible(self):
        corpus = random_corpus(0, 12, VOCAB)
        a, b = fresh_model(seed=4), fresh_model(seed=4)
        la = train(a, corpus, TrainConfig(learning_rate=0.5, epochs=3, seed=9))
        lb = train(b, corpus, TrainConfig(learning_rate=0.5, epochs=3, seed=9))
        assert la == lb
        assert base_param_checksum(a) == base_param_checksum(b)

    def test_shuffle_seed_changes_result(self):
        corpus = random_corpus(0, 12, VOCAB)
        a, b = fresh_model(seed=4), fresh_model(seed=4)
        train(a, corpus, TrainConfig(learning_rate=0.5, epochs=3, seed=9))
        train(b, corpus, TrainConfig(learning_rate=0.5, epochs=3, seed=10))
        assert base_param_checksum(a) != base_param_checksum(b)

    def test_zero_learning_rate_leaves_params_untouched(self):
        corpus = random_corpus(1, 8, VOCAB)
        model = fresh_model(seed=4)
        before = base_param_checksum(model)
        train(model, corpus, TrainConfig(learning_rate=0.0, epochs=1))
        assert base_param_checksum(model) == before

    def test_loss_decreases_on_small_corpus(self):
        corpus = random_corpus(2, 10, VOCAB)
        losses = train(fresh_model(seed=4), corpus, TrainConfig(learning_rate=0.5, epochs=8))
        assert losses[-1] < losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts(self):
        corpus = random_corpus(3, 6, VOCAB)
        model = fresh_model(seed=4)
        with pytest.raises(RuntimeError, match="non-finite"):
            # absurd step size blows the weights up within a few epochs
            train(model, corpus, TrainConfig(learning_rate=1e9, clip_norm=1e12, epochs=50))

    def test_adapters_only_requires_active_adapter(self):
        corpus = random_corpus(4, 6, VOCAB)
        with pytest.raises(ValueError, match="active adapter"):
            train(fresh_model(), corpus, TrainConfig(epochs=1), adapters_only=True)

    def test_adapters_only_freezes_base(self):
        corpus = random_corpus(5, 10, VOCAB)
        model = fresh_model(seed=4)
        model.add_adapter("dom", seed=1)
        model.set_active_adapter("dom")
        before = base_param_checksum(model)
        w_down_before = model.adapters["dom"].W_down.copy()
        train(model, corpus, TrainConfig(learning_rate=0.3, epochs=3), adapters_only=True)
        assert base_param_checksum(model) == before
        assert not np.array_equal(model.adapters["dom"].W_down, w_down_before)

    def test_stats_change_no_checkpoint_byte(self, tmp_path):
        corpus = random_corpus(12, 10, VOCAB)
        cfg = TrainConfig(learning_rate=0.5, epochs=3, batch_size=4, clip_norm=0.05, seed=2)
        blobs = []
        for stats in (None, TrainStats()):
            model = fresh_model(seed=4)
            train(model, corpus, cfg, stats=stats)
            save_checkpoint(model, tmp_path / "m.rmdl")
            blobs.append((tmp_path / "m.rmdl").read_bytes())
        assert blobs[0] == blobs[1]
        assert stats.batches == 3 * 3  # 10 pairs in batches of 4
        assert stats.tokens == 3 * sum(len(p.target) + 1 for p in corpus.pairs)
        assert 0 < stats.clipped <= stats.batches
        summary = stats.summary()
        assert summary["grad_norm_max"] >= summary["grad_norm_mean"] > 0
        assert summary["grad_norm_max"] > cfg.clip_norm  # some batch was clipped
        assert summary["clipped_fraction"] == stats.clipped / 9
        assert summary["tokens_per_s"] > 0

    @pytest.mark.parametrize(
        "mode, want",
        [
            ("all", "1aaedcca81f28ec93a7736bbd38ad1e635d1d713748b6ec1567eba55957eb46d"),
            ("adapters_only", "32bd9dd3f904504d4377cca8001aa433db535795901cd051bf7146bc78956cdf"),
            ("all+adapter", "d1538b9ea1f4ea214d392d337f8ebd9c5be4c1c1aeb35936d8dd0420a29eedc9"),
        ],
    )
    def test_checkpoint_bytes_pinned(self, tmp_path, mode, want):
        # sha256 of small seeded runs, recorded before base gradients were
        # skipped for a frozen base; they pin float64 results of numpy's
        # BLAS, so another BLAS build may need them recorded anew
        model = fresh_model(seed=4, rank=4)
        if mode != "all":
            model.add_adapter("dom", seed=2)
            model.set_active_adapter("dom")
        cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=4, seed=5)
        train(model, random_corpus(11, 12, VOCAB), cfg, adapters_only=mode == "adapters_only")
        save_checkpoint(model, tmp_path / "m.rmdl")
        assert hashlib.sha256((tmp_path / "m.rmdl").read_bytes()).hexdigest() == want

    def test_empty_corpus_rejected(self):
        from knnmt.core import ParallelCorpus

        with pytest.raises(ValueError):
            train(fresh_model(), ParallelCorpus(()), TrainConfig(epochs=1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": -0.1},
            {"epochs": 0},
            {"batch_size": 0},
            {"clip_norm": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_learning_rate_must_be_finite(self, value):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_clip_norm_must_be_finite(self, value):
        with pytest.raises(ValueError, match="clip_norm must be finite"):
            TrainConfig(clip_norm=value)


class TestAdapters:
    def test_fresh_adapter_is_identity(self):
        # W_up starts at zero, so activating an untrained adapter must not
        # change the step distribution
        model = fresh_model(seed=7)
        ctx = model.encode(Sentence((4, 5, 6)))
        _, base_dist, _ = model.step(ctx, model.initial_state(), 4)
        model.add_adapter("dom")
        model.set_active_adapter("dom")
        _, adapted_dist, _ = model.step(ctx, model.initial_state(), 4)
        np.testing.assert_array_equal(base_dist, adapted_dist)

    def test_duplicate_tag_rejected(self):
        model = fresh_model()
        model.add_adapter("dom")
        with pytest.raises(ValueError):
            model.add_adapter("dom")

    def test_unknown_tag_rejected(self):
        with pytest.raises(KeyError):
            fresh_model().set_active_adapter("missing")

    def test_deactivation(self):
        model = fresh_model()
        model.add_adapter("dom")
        model.set_active_adapter("dom")
        model.set_active_adapter(None)
        assert model.active_adapter is None

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(ValueError, match=f"adapter_rank must be >= 1, got {rank}"):
            fresh_model(rank=rank)


class TestCheckpoint:
    def test_round_trip_base_and_adapters(self, tmp_path):
        model = fresh_model(seed=8)
        model.add_adapter("news", seed=1)
        model.add_adapter("talks", seed=2)
        train(
            model,
            random_corpus(7, 8, VOCAB),
            TrainConfig(learning_rate=0.3, epochs=2),
        )
        path = tmp_path / "model.rmdl"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert base_param_checksum(loaded) == base_param_checksum(model)
        assert sorted(loaded.adapters) == ["news", "talks"]
        for tag in model.adapters:
            np.testing.assert_array_equal(
                loaded.adapters[tag].W_down, model.adapters[tag].W_down
            )
            np.testing.assert_array_equal(
                loaded.adapters[tag].W_up, model.adapters[tag].W_up
            )
        assert loaded.adapter_rank == model.adapter_rank

    def test_save_is_deterministic(self, tmp_path):
        model = fresh_model(seed=8)
        save_checkpoint(model, tmp_path / "a.rmdl")
        save_checkpoint(model, tmp_path / "b.rmdl")
        assert (tmp_path / "a.rmdl").read_bytes() == (tmp_path / "b.rmdl").read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rmdl"
        path.write_bytes(b"JUNK" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_streamed_file_keeps_the_layout(self, tmp_path):
        model = fresh_model(seed=9, rank=3)
        model.add_adapter("talks", seed=1)
        model.add_adapter("news", seed=2)
        p = model.params
        want = b"RMDL" + struct.pack("<5I", 1, p.embed_dim, p.hidden_dim, p.vocab_size, 3)
        for name in BASE_PARAM_NAMES:
            want += getattr(p, name).astype("<f8").tobytes()
        want += struct.pack("<I", 2)
        for tag in ("news", "talks"):
            want += struct.pack("<I", len(tag)) + tag.encode()
            want += model.adapters[tag].W_down.astype("<f8").tobytes()
            want += model.adapters[tag].W_up.astype("<f8").tobytes()
        save_checkpoint(model, tmp_path / "m.rmdl")
        assert (tmp_path / "m.rmdl").read_bytes() == want

    def test_rank_zero_header_rejected(self, tmp_path):
        path = tmp_path / "m.rmdl"
        save_checkpoint(fresh_model(seed=9, rank=3), path)
        blob = bytearray(path.read_bytes())
        blob[20:24] = struct.pack("<I", 0)  # the rank, last of the five header fields
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="adapter_rank must be >= 1, got 0"):
            load_checkpoint(path)

    def test_rank_zero_refused_before_any_array(self, tmp_path):
        # the header alone: a rank check after the arrays would report the short file
        path = tmp_path / "m.rmdl"
        save_checkpoint(fresh_model(seed=9, rank=3), path)
        head = bytearray(path.read_bytes()[:24])
        head[20:24] = struct.pack("<I", 0)
        path.write_bytes(bytes(head))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: adapter_rank must be >= 1, got 0$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(0, 0), (0, 4), (4, 0)])
    def test_zero_dims_refused_before_any_array(self, tmp_path, dims):
        path = tmp_path / "m.rmdl"
        path.write_bytes(b"RMDL" + struct.pack("<5I", 1, *dims, VOCAB, 3))
        want = f"{path}: embed_dim and hidden_dim must be >= 1, got {dims[0]} and {dims[1]}"
        with pytest.raises(ValueError, match=rf"^{re.escape(want)}$"):
            load_checkpoint(path)

    def test_size_overflowing_int64_refused(self, tmp_path):
        # (2**32 - 1)**2 floats overflow an int64 product of the shape, which
        # once let the header past the size check into NumPy's own error
        path = tmp_path / "m.rmdl"
        path.write_bytes(b"RMDL" + struct.pack("<5I", 1, 2**32 - 1, 4, 2**32 - 1, 3))
        want = f"{path}: header implies at least {24 + 8 * (2**32 - 1) ** 2} bytes, file has 24"
        with pytest.raises(ValueError, match=rf"^{re.escape(want)}$"):
            load_checkpoint(path)

    def test_adapter_listed_twice_rejected(self, tmp_path):
        model = fresh_model(seed=9, rank=3)
        model.add_adapter("a", seed=1)
        model.add_adapter("b", seed=2)
        path = tmp_path / "m.rmdl"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        tag_b = struct.pack("<I", 1) + b"b"
        assert blob.count(tag_b) == 1
        path.write_bytes(blob.replace(tag_b, struct.pack("<I", 1) + b"a"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: adapter 'a' is listed twice$"):
            load_checkpoint(path)

    def test_load_holds_the_file_once(self, tmp_path):
        model = RefModel(init_params(2000, seed=1), adapter_rank=8)
        model.add_adapter("news", seed=1)
        save_checkpoint(model, tmp_path / "m.rmdl")
        tracemalloc.start()
        try:
            load_checkpoint(tmp_path / "m.rmdl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * (tmp_path / "m.rmdl").stat().st_size  # a whole-file read and a copy is 2x

    @pytest.mark.parametrize("adapters", [(), ("news",)])
    @pytest.mark.parametrize("cut", [-1, 1])
    def test_wrong_length_rejected(self, tmp_path, adapters, cut):
        model = fresh_model(seed=10)
        for tag in adapters:
            model.add_adapter(tag)
        path = tmp_path / "m.rmdl"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:cut] if cut < 0 else blob + b"\x00")
        bound = "at least " if cut < 0 else ""  # a short file fails at its last field
        with pytest.raises(
            ValueError, match=f"m.rmdl: header implies {bound}{len(blob)} bytes, file has {len(blob) + cut}"
        ):
            load_checkpoint(path)

    def test_every_prefix_rejected(self, tmp_path):
        model = RefModel(init_params(VOCAB, embed_dim=2, hidden_dim=3, seed=11), adapter_rank=2)
        model.add_adapter("news")
        path = tmp_path / "m.rmdl"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_checkpoint(path)
        path.write_bytes(blob)
        assert load_checkpoint(path).adapters.keys() == {"news"}
