import argparse
import hashlib
import json
import struct

import numpy as np
import pytest

from knnmt.cli import build_parser, main
from knnmt.core import RESERVED_TOKENS, Vocab, load_corpus
from knnmt.datastore import Datastore, load_datastore, save_datastore
from knnmt.refmodel import load_checkpoint, save_checkpoint


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_corpora(root):
    """A small bitext plus a matching two-talk talkset on disk."""
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(10)]
    lines = []
    for _ in range(16):
        n = int(rng.integers(2, 5))
        src = " ".join(words[i] for i in rng.integers(0, 10, size=n))
        tgt = " ".join(words[i] for i in rng.integers(0, 10, size=n))
        lines.append(f"{src}\t{tgt}")
    (root / "train.tsv").write_text("\n".join(lines) + "\n")
    talk_lines = []
    for talk in (0, 1):
        for _ in range(4):
            n = int(rng.integers(2, 4))
            src = " ".join(words[i] for i in rng.integers(0, 10, size=n))
            tgt = " ".join(words[i] for i in rng.integers(0, 10, size=n))
            talk_lines.append(f"{src}\t{tgt}\ttalks\t{talk}")
    (root / "talks.tsv").write_text("\n".join(talk_lines) + "\n")
    return root


@pytest.fixture
def work(tmp_path):
    return write_corpora(tmp_path)


def train_small(work, out="model.rmdl", extra=()):
    code = main(
        [
            "train",
            "--corpus", str(work / "train.tsv"),
            "--out", str(work / out),
            "--vocab-out", str(work / "vocab.txt"),
            "--epochs", "3",
            "--lr", "0.5",
            "--seed", "1",
            *extra,
        ]
    )
    assert code == 0
    return work / out, work / "vocab.txt"


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["train", "--nonsense"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["decode", "--help"]) == 0

    def test_missing_file_is_data_error(self, work, capsys):
        code = main(
            [
                "train",
                "--corpus", str(work / "absent.tsv"),
                "--out", str(work / "m.rmdl"),
            ]
        )
        assert code == 2

    def test_malformed_corpus_is_data_error(self, work, capsys):
        (work / "bad.tsv").write_text("no tabs here\n")
        code = main(
            [
                "train",
                "--corpus", str(work / "bad.tsv"),
                "--out", str(work / "m.rmdl"),
            ]
        )
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_adapters_only_without_init_is_usage_error(self, work, capsys):
        code = main(
            [
                "train",
                "--corpus", str(work / "train.tsv"),
                "--out", str(work / "m.rmdl"),
                "--adapters-only",
            ]
        )
        assert code == 1

    def test_lm_train_has_no_floor_flag(self, work, capsys):
        # the counts file records no floor, so the flag could change nothing
        _, vocab = train_small(work)
        argv = ["lm-train", "--corpus", str(work / "train.tsv"), "--vocab", str(vocab)]
        assert main([*argv, "--out", str(work / "lm.txt"), "--floor", "0.5"]) == 1
        assert not (work / "lm.txt").exists()

    def test_lm_domain_without_lm_is_usage_error(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "decode",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "train.tsv"),
                "--out", str(work / "h.jsonl"),
                "--lm-domain", str(work / "nope.txt"),
            ]
        )
        assert code == 1

    def test_fusion_alpha_without_lm_is_usage_error(self, work, capsys):
        # with no LM the weight would decode exactly as a plain run
        model, vocab = train_small(work)
        capsys.readouterr()
        code = main(
            [
                "decode",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "h.jsonl"),
                "--fusion-alpha", "0.7",
            ]
        )
        assert code == 1
        assert "--fusion-alpha requires --lm" in capsys.readouterr().err
        assert not (work / "h.jsonl").exists()

    @pytest.mark.parametrize("alpha", [(), ("--fusion-alpha", "0")])
    def test_lm_without_fusion_alpha_is_usage_error(self, pipeline, tmp_path, capsys, alpha):
        # with weight 0 the counts would be loaded and never read
        root = pipeline[0]
        argv = ["decode", "--model", str(root / "m.rmdl"), "--vocab", str(root / "v.txt")]
        argv += ["--corpus", str(root / "talks.tsv"), "--lm", str(root / "lm.txt"), "--out", str(tmp_path / "h.jsonl")]
        capsys.readouterr()
        assert main([*argv, *alpha]) == 1
        assert capsys.readouterr().err == "error: --lm requires --fusion-alpha\n"
        assert list(tmp_path.iterdir()) == []

    def test_zero_model_dims_are_data_errors(self, work, capsys):
        for flag in ("--embed-dim", "--hidden-dim"):
            code = main(
                [
                    "train",
                    "--corpus", str(work / "train.tsv"),
                    "--out", str(work / "m.rmdl"),
                    "--epochs", "1",
                    flag, "0",
                ]
            )
            assert code == 2
            assert "must be >= 1" in capsys.readouterr().err
            assert not (work / "m.rmdl").exists()

    def test_negative_top_k_is_data_error(self, work, capsys):
        (work / "seed.tsv").write_text("w1 w2\tw3\n")
        code = main(
            [
                "select-data",
                "--pool", str(work / "train.tsv"),
                "--seed-corpus", str(work / "seed.tsv"),
                "--top-k", "-1",
                "--out", str(work / "sel.tsv"),
            ]
        )
        assert code == 2
        assert "got -1" in capsys.readouterr().err
        assert not (work / "sel.tsv").exists()


class TestTrain:
    def test_writes_checkpoint_and_vocab(self, work, capsys):
        model, vocab = train_small(work)
        assert model.exists() and vocab.exists()
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["command"] == "train"
        assert "final_loss" in out

    def test_seeded_run_is_byte_reproducible(self, work, capsys):
        a, _ = train_small(work, out="a.rmdl")
        b, _ = train_small(work, out="b.rmdl")
        assert a.read_bytes() == b.read_bytes()

    def test_epoch_losses_go_to_stderr(self, work, capsys):
        train_small(work)
        err = capsys.readouterr().err
        assert "epoch" in err

    def test_manifest_always_on_stderr(self, work, capsys):
        train_small(work)
        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
        manifest = json.loads(lines[-1])
        assert manifest["command"] == "train"
        assert manifest["seed"] == 1
        assert "checksums" in manifest

    def test_manifest_file_written_on_request(self, work, capsys):
        code = main(
            [
                "train",
                "--corpus", str(work / "train.tsv"),
                "--out", str(work / "m.rmdl"),
                "--vocab-out", str(work / "v.txt"),
                "--epochs", "1",
                "--manifest", str(work / "run.json"),
            ]
        )
        assert code == 0
        manifest = json.loads((work / "run.json").read_text())
        assert manifest["outputs"]["out"] == str(work / "m.rmdl")

    def test_adapter_training_freezes_base(self, work, capsys):
        from knnmt.refmodel import base_param_checksum, load_checkpoint

        base, vocab = train_small(work)
        code = main(
            [
                "train",
                "--corpus", str(work / "train.tsv"),
                "--out", str(work / "adapted.rmdl"),
                "--vocab", str(vocab),
                "--init", str(base),
                "--adapters-only",
                "--adapter-tag", "talks",
                "--epochs", "2",
                "--seed", "3",
            ]
        )
        assert code == 0
        before = load_checkpoint(base)
        after = load_checkpoint(work / "adapted.rmdl")
        assert base_param_checksum(after) == base_param_checksum(before)
        assert "talks" in after.adapters

    def test_manifest_reports_training_stats(self, work, capsys):
        train_small(work, out="a.rmdl")
        err = capsys.readouterr().err.splitlines()
        train_small(work, out="b.rmdl", extra=("--clip", "1e-9"))
        clipped_err = capsys.readouterr().err.splitlines()
        for lines, clipped in ((err, 0.0), (clipped_err, 1.0)):
            assert [l for l in lines if l.startswith("epoch ")] == lines[:3]
            stats = json.loads(lines[-1])["stats"]
            assert sorted(stats) == ["clipped_fraction", "grad_norm_max", "grad_norm_mean", "tokens_per_s"]
            assert stats["clipped_fraction"] == clipped
            assert stats["grad_norm_max"] >= stats["grad_norm_mean"] > 0
            assert stats["tokens_per_s"] > 0

    def test_reverse_direction_swaps_sides(self, work, capsys):
        model, vocab = train_small(work, out="fwd.rmdl")
        code = main(
            [
                "train",
                "--corpus", str(work / "train.tsv"),
                "--out", str(work / "bwd.rmdl"),
                "--vocab", str(vocab),
                "--lang", "reverse",
                "--epochs", "3",
                "--lr", "0.5",
                "--seed", "1",
            ]
        )
        assert code == 0
        assert (work / "bwd.rmdl").read_bytes() != (work / "fwd.rmdl").read_bytes()


class TestDecode:
    def test_writes_jsonl_records(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "decode",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "hyps.jsonl"),
                "--w", "0",
            ]
        )
        assert code == 0
        records = [
            json.loads(l) for l in (work / "hyps.jsonl").read_text().splitlines()
        ]
        assert len(records) == 8
        for i, rec in enumerate(records):
            assert rec["id"] == i
            assert isinstance(rec["hypothesis"], str)
            assert rec["config"]["w"] == 0.0
            assert list(rec) == sorted(rec)

    def test_w_zero_output_identical_with_and_without_datastore(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "build-datastore",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "talks.knnd"),
            ]
        )
        assert code == 0
        for name, extra in (
            ("plain.jsonl", []),
            ("with_store.jsonl", ["--datastore", str(work / "talks.knnd")]),
        ):
            code = main(
                [
                    "decode",
                    "--model", str(model),
                    "--vocab", str(vocab),
                    "--corpus", str(work / "talks.tsv"),
                    "--out", str(work / name),
                    "--w", "0",
                    *extra,
                ]
            )
            assert code == 0
        assert (work / "plain.jsonl").read_bytes() == (work / "with_store.jsonl").read_bytes()

    def test_retrieval_decode_with_ivf_index(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "build-datastore",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "talks.knnd"),
                "--ivf-clusters", "4",
                "--ivf-nprobe", "4",
                "--ivf-out", str(work / "talks.knni"),
            ]
        )
        assert code == 0
        code = main(
            [
                "decode",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "hyps_ivf.jsonl"),
                "--datastore", str(work / "talks.knnd"),
                "--ivf-index", str(work / "talks.knni"),
                "--w", "0.3",
            ]
        )
        assert code == 0
        # full probe count keeps IVF retrieval identical to a flat scan
        code = main(
            [
                "decode",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "hyps_flat.jsonl"),
                "--datastore", str(work / "talks.knnd"),
                "--w", "0.3",
            ]
        )
        assert code == 0
        assert (work / "hyps_ivf.jsonl").read_bytes() == (work / "hyps_flat.jsonl").read_bytes()

    def test_ivf_index_of_another_store_is_data_error(self, work, capsys):
        model, vocab = train_small(work)
        talks_index = ["--ivf-clusters", "4", "--ivf-out", str(work / "talks.knni")]
        for corpus, extra in (("talks", talks_index), ("train", [])):
            code = main(
                [
                    "build-datastore",
                    "--model", str(model),
                    "--vocab", str(vocab),
                    "--corpus", str(work / f"{corpus}.tsv"),
                    "--out", str(work / f"{corpus}.knnd"),
                    *extra,
                ]
            )
            assert code == 0
        capsys.readouterr()
        files = sorted(work.iterdir())
        decode = [
            "decode",
            "--model", str(model),
            "--vocab", str(vocab),
            "--corpus", str(work / "talks.tsv"),
            "--out", str(work / "hyps.jsonl"),
            "--datastore", str(work / "train.knnd"),
            "--ivf-index", str(work / "talks.knni"),
        ]
        assert main(decode) == 2
        err = capsys.readouterr().err
        assert "error: IVF index over" in err and "Traceback" not in err
        assert sorted(work.iterdir()) == files  # no --out, no temporary file
        (work / "hyps.jsonl").write_text("an earlier run\n")
        assert main(decode) == 2
        assert (work / "hyps.jsonl").read_text() == "an earlier run\n"

    def test_ivf_index_of_a_same_size_store_is_data_error(self, work, capsys):
        # the row counts agree, so only the centroids tell the stores apart
        model, vocab = train_small(work)
        code = main(
            [
                "build-datastore",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "talks.knnd"),
                "--ivf-clusters", "4",
                "--ivf-out", str(work / "talks.knni"),
            ]
        )
        assert code == 0
        store = load_datastore(work / "talks.knnd")
        store.keys = store.keys[::-1].copy()
        save_datastore(store, work / "reversed.knnd")
        capsys.readouterr()
        files = sorted(work.iterdir())
        code = main(
            [
                "decode",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "hyps.jsonl"),
                "--datastore", str(work / "reversed.knnd"),
                "--ivf-index", str(work / "talks.knni"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not belong to this datastore: cluster" in err and "Traceback" not in err
        assert sorted(work.iterdir()) == files

    def test_datastore_value_outside_vocabulary_is_data_error(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "build-datastore",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "talks.knnd"),
            ]
        )
        assert code == 0
        store = load_datastore(work / "talks.knnd")
        store.values = store.values + len(Vocab.load(vocab))
        save_datastore(store, work / "bad.knnd")
        capsys.readouterr()
        code = main(
            [
                "decode",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "hyps.jsonl"),
                "--datastore", str(work / "bad.knnd"),
            ]
        )
        assert code == 2
        assert "outside the vocabulary" in capsys.readouterr().err
        # the store is refused before decoding starts; no output is left
        assert not any(p.name.startswith((".hyps.jsonl", "hyps.jsonl")) for p in work.iterdir())

    def test_ivf_clusters_requires_ivf_out(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "build-datastore",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "t.knnd"),
                "--ivf-clusters", "4",
            ]
        )
        assert code == 1

    def test_lm_fusion_path(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "lm-train",
                "--corpus", str(work / "train.tsv"),
                "--vocab", str(vocab),
                "--order", "2",
                "--out", str(work / "lm.txt"),
            ]
        )
        assert code == 0
        assert (work / "lm.txt").read_text().startswith("NGRAM-COUNTS v1 order=2")
        code = main(
            [
                "decode",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "fused.jsonl"),
                "--w", "0",
                "--lm", str(work / "lm.txt"),
                "--fusion-alpha", "0.3",
            ]
        )
        assert code == 0


class TestBuildDatastore:
    """A failed build-datastore writes neither the datastore nor the index."""

    def build(self, work, *extra):
        model, vocab = train_small(work)
        # two 2-token targets: 6 entries with their EOS steps
        (work / "six.tsv").write_text("w1 w2\tw3 w4\nw5\tw6 w7\n")
        return main(
            [
                "build-datastore",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "six.tsv"),
                "--out", str(work / "s.knnd"),
                *extra,
            ]
        )

    def test_more_clusters_than_entries_writes_nothing(self, work, capsys):
        code = self.build(work, "--ivf-clusters", "1000", "--ivf-out", str(work / "s.knni"))
        assert code == 2
        assert "error: n_clusters must be in [1, 6], got 1000" in capsys.readouterr().err
        assert not (work / "s.knnd").exists() and not (work / "s.knni").exists()
        assert not list(work.glob(".*.tmp"))

    def test_zero_clusters_is_data_error(self, work, capsys):
        assert self.build(work, "--ivf-clusters", "0", "--ivf-out", str(work / "s.knni")) == 2
        assert not (work / "s.knnd").exists() and not (work / "s.knni").exists()

    @pytest.mark.parametrize("extra", [("--ivf-clusters", "2"), ("--ivf-out", "s.knni")])
    def test_index_flags_come_together(self, work, capsys, extra):
        assert self.build(work, *extra) == 1
        assert not (work / "s.knnd").exists()

    def test_failure_leaves_earlier_files_unchanged(self, work, capsys):
        assert self.build(work, "--ivf-clusters", "2", "--ivf-out", str(work / "s.knni")) == 0
        before = {name: (work / name).read_bytes() for name in ("s.knnd", "s.knni")}
        # another side of the corpus: different entries, so a write would show
        assert self.build(work, "--lang", "reverse", "--ivf-clusters", "7", "--ivf-out", str(work / "s.knni")) == 2
        assert {name: (work / name).read_bytes() for name in before} == before


class TestOtherCommands:
    def test_grid_search_tsv_shape(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "build-datastore",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "talks.knnd"),
            ]
        )
        assert code == 0
        code = main(
            [
                "grid-search",
                "--model", str(model),
                "--vocab", str(vocab),
                "--datastore", str(work / "talks.knnd"),
                "--dev", str(work / "talks.tsv"),
                "--out", str(work / "grid.tsv"),
                "--T-grid", "10,50",
                "--w-grid", "0.1,0.5",
                "--beam", "2",
            ]
        )
        assert code == 0
        lines = (work / "grid.tsv").read_text().splitlines()
        assert lines[0] == "T\tw\tBLEU"
        assert len(lines) == 5
        cells = [tuple(l.split("\t")[:2]) for l in lines[1:]]
        assert cells == [("10", "0.1"), ("10", "0.5"), ("50", "0.1"), ("50", "0.5")]
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"best_T", "best_w", "best_bleu"} <= set(result)

    def test_diversify_output_contains_originals(self, work, capsys):
        model, vocab = train_small(work, out="fwd.rmdl")
        code = main(
            [
                "train",
                "--corpus", str(work / "train.tsv"),
                "--out", str(work / "bwd.rmdl"),
                "--vocab", str(vocab),
                "--lang", "reverse",
                "--epochs", "3",
                "--seed", "1",
            ]
        )
        assert code == 0
        code = main(
            [
                "diversify",
                "--corpus", str(work / "train.tsv"),
                "--forward-model", str(work / "fwd.rmdl"),
                "--backward-model", str(work / "bwd.rmdl"),
                "--vocab", str(vocab),
                "--out", str(work / "div.tsv"),
                "--beam", "2",
            ]
        )
        assert code == 0
        vocab_obj = Vocab.load(vocab)
        original = load_corpus(work / "train.tsv", vocab_obj)
        augmented = load_corpus(work / "div.tsv", vocab_obj)
        assert augmented.pairs[: len(original.pairs)] == original.pairs
        assert len(augmented.pairs) >= len(original.pairs)

    def test_select_data_keeps_top_k(self, work, capsys):
        (work / "seed.tsv").write_text("w1 w2\tw3\n")
        code = main(
            [
                "select-data",
                "--pool", str(work / "train.tsv"),
                "--seed-corpus", str(work / "seed.tsv"),
                "--top-k", "4",
                "--out", str(work / "sel.tsv"),
            ]
        )
        assert code == 0
        assert len((work / "sel.tsv").read_text().splitlines()) == 4

    def test_leave_one_out_reports_per_talk(self, work, capsys):
        model, vocab = train_small(work)
        code = main(
            [
                "leave-one-out",
                "--model", str(model),
                "--vocab", str(vocab),
                "--talkset", str(work / "talks.tsv"),
                "--beam", "2",
                "--out", str(work / "loo.json"),
            ]
        )
        assert code == 0
        payload = json.loads((work / "loo.json").read_text())
        assert [t["talk_id"] for t in payload["per_talk"]] == [0, 1]
        assert payload["delta"] == pytest.approx(
            payload["aggregate_retrieval"] - payload["aggregate_baseline"]
        )

    def test_score_bleu_identity(self, work, capsys):
        (work / "hyp.txt").write_text("the dog runs fast\na cat sat down\n")
        (work / "ref.txt").write_text("the dog runs fast\na cat sat down\n")
        code = main(
            [
                "score",
                "--metric", "bleu",
                "--hyp", str(work / "hyp.txt"),
                "--ref", str(work / "ref.txt"),
            ]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["metric"] == "bleu"
        assert result["value"] == 100.0
        assert result["details"]["precisions"] == [1.0, 1.0, 1.0, 1.0]

    def test_score_wer(self, work, capsys):
        (work / "hyp.txt").write_text("the dog walks\n")
        (work / "ref.txt").write_text("the dog runs\n")
        code = main(
            [
                "score",
                "--metric", "wer",
                "--hyp", str(work / "hyp.txt"),
                "--ref", str(work / "ref.txt"),
            ]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["value"] == pytest.approx(1 / 3)

    def test_score_length_mismatch_is_data_error(self, work, capsys):
        (work / "hyp.txt").write_text("a\nb\n")
        (work / "ref.txt").write_text("a\n")
        code = main(
            [
                "score",
                "--metric", "bleu",
                "--hyp", str(work / "hyp.txt"),
                "--ref", str(work / "ref.txt"),
            ]
        )
        assert code == 2


class TestFileLengths:
    """A checkpoint, datastore or IVF index one byte short or one byte long
    is a data error naming the file and both sizes, before any output."""

    @pytest.mark.parametrize("kind", ["model", "datastore", "ivf-index"])
    @pytest.mark.parametrize("cut", [-1, 1])
    def test_decode_refuses_wrong_length(self, work, capsys, kind, cut):
        model, vocab = train_small(work)
        code = main(
            [
                "build-datastore",
                "--model", str(model),
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "talks.knnd"),
                "--ivf-clusters", "2",
                "--ivf-out", str(work / "talks.knni"),
            ]
        )
        assert code == 0
        paths = {"model": model, "datastore": work / "talks.knnd", "ivf-index": work / "talks.knni"}
        blob = paths[kind].read_bytes()
        paths[kind].write_bytes(blob[:cut] if cut < 0 else blob + b"\x00")
        capsys.readouterr()
        code = main(
            [
                "decode",
                "--vocab", str(vocab),
                "--corpus", str(work / "talks.tsv"),
                "--out", str(work / "hyps.jsonl"),
                *[f"--{k}={p}" for k, p in paths.items()],
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {paths[kind]}: header implies" in err
        assert f"{len(blob)} bytes, file has {len(blob) + cut}" in err
        assert "Traceback" not in err
        assert not (work / "hyps.jsonl").exists()


# every subcommand, run once in this order, each writing its manifest to <name>.json
PIPELINE = {
    "train": ["--corpus", "train.tsv", "--out", "m.rmdl", "--vocab-out", "v.txt", "--epochs", "1", "--seed", "1"],
    "build-datastore": [
        "--model", "m.rmdl", "--vocab", "v.txt", "--corpus", "talks.tsv", "--out", "s.knnd",
        "--ivf-clusters", "2", "--ivf-out", "s.knni",
    ],
    "decode": [
        "--model", "m.rmdl", "--vocab", "v.txt", "--corpus", "talks.tsv", "--out", "h.jsonl",
        "--datastore", "s.knnd", "--ivf-index", "s.knni", "--beam", "2",
    ],
    "grid-search": [
        "--model", "m.rmdl", "--vocab", "v.txt", "--datastore", "s.knnd", "--dev", "talks.tsv",
        "--out", "g.tsv", "--T-grid", "10", "--w-grid", "0.5", "--beam", "2",
    ],
    "diversify": [
        "--corpus", "train.tsv", "--forward-model", "m.rmdl", "--backward-model", "m.rmdl",
        "--vocab", "v.txt", "--out", "d.tsv", "--beam", "2",
    ],
    "select-data": ["--pool", "train.tsv", "--seed-corpus", "talks.tsv", "--top-k", "2", "--out", "sel.tsv"],
    "leave-one-out": ["--model", "m.rmdl", "--vocab", "v.txt", "--talkset", "talks.tsv", "--beam", "2"],
    "score": ["--metric", "wer", "--hyp", "train.tsv", "--ref", "train.tsv"],
    "lm-train": ["--corpus", "train.tsv", "--vocab", "v.txt", "--out", "lm.txt"],
}
OUTPUT_FLAGS = {"out", "vocab_out", "ivf_out"}


def in_dir(root, args):
    """`args` with each file name made a path under `root`."""
    suffixes = (".rmdl", ".knnd", ".knni", ".tsv", ".txt", ".jsonl")
    return [str(root / a) if a.endswith(suffixes) else a for a in args]


def subcommand_flags():
    """Each subcommand's flag destinations, as build_parser() declares them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a.dest for a in sp._actions if a.dest not in ("help", "manifest")]
        for name, sp in sub.choices.items()
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A directory holding every artifact of PIPELINE, and each run's manifest."""
    root = write_corpora(tmp_path_factory.mktemp("pipeline"))
    manifests = {}
    for name, args in PIPELINE.items():
        assert main([name, *in_dir(root, args), "--manifest", str(root / f"{name}.json")]) == 0
        manifests[name] = json.loads((root / f"{name}.json").read_text())
    return root, manifests


class TestManifest:
    def test_pipeline_covers_every_subcommand(self):
        assert sorted(PIPELINE) == sorted(subcommand_flags())

    @pytest.mark.parametrize("command", sorted(PIPELINE))
    def test_every_flag_recorded_once(self, pipeline, command):
        """Each flag sits, with its parsed value, in exactly one of config,
        inputs, outputs and seed; an output flag not given sits nowhere."""
        root, manifests = pipeline
        manifest = manifests[command]
        parsed = vars(build_parser().parse_args([command, *in_dir(root, PIPELINE[command])]))
        flags = subcommand_flags()[command]
        for dest in flags:
            places = {key: manifest[key][dest] for key in ("config", "inputs", "outputs") if dest in manifest[key]}
            if dest == "seed":
                places["seed"] = manifest["seed"]
            value = json.loads(json.dumps(parsed[dest]))
            if dest in OUTPUT_FLAGS and value is None:
                assert places == {}, dest
            else:
                assert list(places.values()) == [value], (dest, places)
            if str(root) in str(value):  # a file the command reads or writes
                assert list(places) in (["inputs"], ["outputs"]), (dest, places)
        assert {*manifest["config"], *manifest["inputs"], *manifest["outputs"]} <= set(flags)
        assert set(manifest["outputs"]) <= OUTPUT_FLAGS
        if "seed" not in flags:
            assert manifest["seed"] is None

    def test_decode_names_its_ivf_index(self, pipeline):
        root, manifests = pipeline
        assert manifests["decode"]["inputs"]["ivf_index"] == [str(root / "s.knni")]
        assert manifests["decode"]["checksums"] == {str(root / "h.jsonl"): sha(root / "h.jsonl")}


class TestDataErrors:
    """Wrong-kind inputs are data errors: exit 2 with one `error:` line and
    no traceback, and no output file."""

    @pytest.mark.parametrize(
        "flag, wrong",
        [
            ("--model", "s.knnd"),
            ("--datastore", "m.rmdl"),
            ("--ivf-index", "random.bin"),
            ("--vocab", "random.bin"),
            ("--lm", "random.bin"),
            ("--corpus", "v.txt"),
        ],
    )
    def test_wrong_kind_of_file(self, pipeline, tmp_path, capsys, flag, wrong):
        (tmp_path / "random.bin").write_bytes(np.random.default_rng(0).bytes(512))
        given = {
            "--model": "m.rmdl", "--vocab": "v.txt", "--corpus": "talks.tsv", "--datastore": "s.knnd",
            "--ivf-index": "s.knni", "--lm": "lm.txt", flag: wrong,
        }
        argv = ["decode", "--out", str(tmp_path / "h.jsonl")]
        for name, value in given.items():
            argv += [name, str((tmp_path if value == "random.bin" else pipeline[0]) / value)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["random.bin"]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("7\tzebra\n2\tw1\n", "line 2: token 'zebra' is not in the vocabulary"),
            ("2\tw1\n3\tw1\n", "line 3: gram 'w1' is listed twice"),
            ("2 w1\n", "line 2: expected count<TAB>tokens, got 1 tab-separated fields"),
            ("3\tw1\textra\n", "line 2: expected count<TAB>tokens, got 3 tab-separated fields"),
            ("x\tw1\n", "line 2: count 'x' is not an integer"),
            ("2\tw2\n-5\tw1\n", "line 3: count must be >= 1, got -5"),
        ],
    )
    def test_counts_file_that_does_not_match_the_vocabulary(self, pipeline, tmp_path, capsys, body, message):
        root = pipeline[0]
        lm = tmp_path / "lm.txt"
        lm.write_text("NGRAM-COUNTS v1 order=1\n" + body)
        argv = ["decode", "--model", str(root / "m.rmdl"), "--vocab", str(root / "v.txt")]
        argv += ["--corpus", str(root / "talks.tsv"), "--lm", str(lm), "--out", str(tmp_path / "h.jsonl")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {lm}: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["lm.txt"]

    def test_other_exceptions_are_defects(self, pipeline, tmp_path, monkeypatch):
        root = pipeline[0]

        def broken(*args, **kwargs):
            raise TypeError("a defect")

        monkeypatch.setattr("knnmt.cli.beam_decode_batch", broken)
        argv = ["decode", "--model", str(root / "m.rmdl"), "--vocab", str(root / "v.txt")]
        argv += ["--corpus", str(root / "talks.tsv"), "--out", str(tmp_path / "h.jsonl")]
        with pytest.raises(TypeError, match="a defect"):
            main(argv)


class TestInvalidHeaders:
    """A header the model or the search cannot work with is a data error
    naming the file: exit 2 with one `error:` line, and no output file."""

    def run(self, argv, tmp_path, capsys, bad, message):
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build-datastore", "leave-one-out"])
    def test_zero_model_dims(self, pipeline, tmp_path, capsys, command):
        # the full layout of a model with embed_dim and hidden_dim 0
        root = pipeline[0]
        v = len(Vocab.load(root / "v.txt"))
        bad = tmp_path / "zero.rmdl"
        bad.write_bytes(b"RMDL" + struct.pack("<5I", 1, 0, 0, v, 4) + bytes(8 * v) + struct.pack("<I", 0))
        argv = [command, "--model", str(bad), "--vocab", str(root / "v.txt")]
        argv += ["--corpus" if command == "build-datastore" else "--talkset", str(root / "talks.tsv")]
        self.run(argv, tmp_path, capsys, bad, "embed_dim and hidden_dim must be >= 1, got 0 and 0")

    def test_zero_datastore_dim(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        bad = tmp_path / "zero.knnd"
        bad.write_bytes(b"KNND" + struct.pack("<IIQ", 1, 0, 2) + struct.pack("<4I", 4, 5, 0, 0))
        argv = ["decode", "--model", str(root / "m.rmdl"), "--vocab", str(root / "v.txt")]
        argv += ["--corpus", str(root / "talks.tsv"), "--datastore", str(bad)]
        self.run(argv, tmp_path, capsys, bad, "dim must be >= 1, got 0")

    def test_ivf_index_with_nprobe_zero(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        dim = load_datastore(root / "s.knnd").dim
        bad = tmp_path / "zero.knni"
        bad.write_bytes(b"KNNI" + struct.pack("<4I", 1, dim, 1, 0) + bytes(4 * dim) + struct.pack("<2Q", 1, 0))
        argv = ["decode", "--model", str(root / "m.rmdl"), "--vocab", str(root / "v.txt")]
        argv += ["--corpus", str(root / "talks.tsv"), "--datastore", str(root / "s.knnd"), "--ivf-index", str(bad)]
        self.run(argv, tmp_path, capsys, bad, "nprobe must be in [1, 1], got 0")


class TestNonFinite:
    """A NaN in a loaded key or weight is a data error naming the file: exit
    2 with one `error:` line, and no output file."""

    def decode(self, root, tmp_path, capsys, model, extra=()):
        argv = ["decode", "--model", str(model), "--vocab", str(root / "v.txt")]
        argv += ["--corpus", str(root / "talks.tsv"), *extra, "--out", str(tmp_path / "h.jsonl")]
        capsys.readouterr()
        assert main(argv) == 2
        assert not (tmp_path / "h.jsonl").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("with_index", [False, True], ids=["exact", "ivf"])
    def test_nan_key_is_data_error(self, pipeline, tmp_path, capsys, with_index):
        # before, every exact search of the store stopped with an IndexError
        root = pipeline[0]
        good = load_datastore(root / "s.knnd")
        keys = good.keys.copy()
        keys[3, 1] = np.nan
        bad = tmp_path / "nan.knnd"
        save_datastore(Datastore(good.dim, keys, good.values, good.talk_ids), bad)
        extra = ["--datastore", str(bad)]
        if with_index:
            extra += ["--ivf-index", str(root / "s.knni")]
        err = self.decode(root, tmp_path, capsys, root / "m.rmdl", extra)
        assert err == f"error: {bad}: datastore keys must be finite\n"

    def test_nan_checkpoint_weight_is_data_error(self, pipeline, tmp_path, capsys):
        # before, it decoded to empty hypotheses scored NaN, and exited 0
        root = pipeline[0]
        model = load_checkpoint(root / "m.rmdl")
        model.params.U[3, 2] = np.nan
        bad = tmp_path / "nan.rmdl"
        save_checkpoint(model, bad)
        err = self.decode(root, tmp_path, capsys, bad)
        assert err == f"error: {bad}: checkpoint weights must be finite\n"


class TestOutOfRange:
    """Values the formats or the model cannot hold are data errors: exit 2
    with one `error:` line and no traceback, and no output file."""

    @pytest.mark.parametrize("talk_id", ["4294967296", "-1"])
    @pytest.mark.parametrize("command, flag", [("build-datastore", "--corpus"), ("leave-one-out", "--talkset")])
    def test_talk_id_outside_uint32(self, pipeline, tmp_path, capsys, command, flag, talk_id):
        root = pipeline[0]
        corpus = tmp_path / "talks.tsv"
        corpus.write_text(f"w1 w2\tw3\ttalks\t0\nw2 w3\tw1\ttalks\t{talk_id}\n")
        argv = [command, "--model", str(root / "m.rmdl"), "--vocab", str(root / "v.txt")]
        argv += [flag, str(corpus), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {corpus}: line 2: talk_id must be in [0, 2**32), got {talk_id}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["talks.tsv"]

    @pytest.mark.parametrize("talk_id", ["1_0", " +7 ", "+7", "\u0663"])
    @pytest.mark.parametrize("command, flag", [("build-datastore", "--corpus"), ("leave-one-out", "--talkset")])
    def test_talk_id_not_ascii_digits(self, pipeline, tmp_path, capsys, command, flag, talk_id):
        root = pipeline[0]
        corpus = tmp_path / "talks.tsv"
        corpus.write_text(f"w1 w2\tw3\ttalks\t0\nw2 w3\tw1\ttalks\t{talk_id}\n", encoding="utf-8")
        argv = [command, "--model", str(root / "m.rmdl"), "--vocab", str(root / "v.txt")]
        argv += [flag, str(corpus), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {corpus}: line 2: talk_id must be ASCII digits 0-9, got {talk_id!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["talks.tsv"]

    def test_negative_exclude_talk(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        argv = ["decode", "--model", str(root / "m.rmdl"), "--vocab", str(root / "v.txt")]
        argv += ["--corpus", str(root / "talks.tsv"), "--datastore", str(root / "s.knnd")]
        argv += ["--exclude-talk", "-1", "--out", str(tmp_path / "h.jsonl")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: exclude_talk must be in [0, 2**32), got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_adapter_rank_below_one(self, pipeline, tmp_path, capsys, rank):
        root = pipeline[0]
        argv = ["train", "--corpus", str(root / "train.tsv"), "--epochs", "1"]
        argv += ["--adapter-rank", rank, "--out", str(tmp_path / "m.rmdl")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: adapter_rank must be >= 1, got {rank}\n"
        assert list(tmp_path.iterdir()) == []


class TestVocabSize:
    """A --vocab whose size differs from a checkpoint's is a data error that
    names both sizes, for every command that loads a checkpoint."""

    COMMANDS = {
        "train": ["--corpus", "train.tsv", "--init", "m.rmdl", "--epochs", "1"],
        "build-datastore": ["--model", "m.rmdl", "--corpus", "talks.tsv"],
        "decode": ["--model", "m.rmdl", "--corpus", "talks.tsv"],
        "grid-search": ["--model", "m.rmdl", "--datastore", "s.knnd", "--dev", "talks.tsv", "--T-grid", "10"],
        "diversify": ["--corpus", "train.tsv", "--forward-model", "m.rmdl", "--backward-model", "m.rmdl"],
        "leave-one-out": ["--model", "m.rmdl", "--talkset", "talks.tsv"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("delta", [1, -1])
    def test_mismatch_is_data_error(self, pipeline, tmp_path, capsys, command, delta):
        root = pipeline[0]
        tokens = (root / "v.txt").read_text().splitlines()
        # one more token shifts every word's id up by one; one fewer drops the last word
        n = len(RESERVED_TOKENS)
        vocab = tmp_path / "v.txt"
        vocab.write_text("\n".join(tokens[:n] + ["extra"] + tokens[n:] if delta > 0 else tokens[:-1]) + "\n")
        argv = [command, "--vocab", str(vocab), "--out", str(tmp_path / "out")]
        argv += in_dir(root, self.COMMANDS[command])
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {root / 'm.rmdl'}: checkpoint vocab size {len(tokens)} " in err
        assert f"!= vocabulary size {len(tokens) + delta}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.txt"]

    def test_vocab_out_not_written_on_data_error(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        short = tmp_path / "short.txt"
        short.write_text("\n".join((root / "v.txt").read_text().splitlines()[:-1]) + "\n")
        argv = ["train", "--vocab", str(short), "--vocab-out", str(tmp_path / "vout.txt")]
        argv += ["--out", str(tmp_path / "t.rmdl"), *in_dir(root, self.COMMANDS["train"])]
        capsys.readouterr()
        assert main(argv) == 2
        assert "checkpoint vocab size" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["short.txt"]


class TestNotUtf8:
    """A text input whose bytes are not UTF-8 is a data error that names
    the file."""

    @pytest.mark.parametrize("flag", ["--vocab", "--lm", "--corpus"])
    def test_error_names_the_file(self, pipeline, tmp_path, capsys, flag):
        root = pipeline[0]
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("w1 w2\tw3 café\n".encode("latin-1"))
        given = {"--vocab": root / "v.txt", "--lm": root / "lm.txt", "--corpus": root / "talks.tsv", flag: bad}
        argv = ["decode", "--model", str(root / "m.rmdl"), "--out", str(tmp_path / "h.jsonl")]
        argv += [str(part) for name, path in given.items() for part in (name, path)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: not UTF-8 text\n"
        assert [p.name for p in tmp_path.iterdir()] == ["latin1.txt"]
