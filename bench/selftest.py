"""Self-tests of the benchmark's oracles: each plants a fault and shows the
oracle catches it, and shows it accepts correct input.

    python3 bench/selftest.py

Run from the root of a source checkout; the checkpoint test writes real
checkpoints with `knnmt`, so the offsets it checks are the program's.
"""

from __future__ import annotations

import shutil
import struct
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402


@contextmanager
def scratch_dir():
    """A fresh directory inside the benchmark's work area, removed after."""
    path = HERE / "work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _store(rng, n=300, dim=16):
    keys = rng.normal(size=(n, dim)).astype(np.float32)
    keys[200:210] = keys[0:10]  # exact duplicates: distance ties
    keys[250:290] = keys[5] + rng.normal(scale=1e-3, size=(40, dim)).astype(np.float32)  # near ties
    talks = rng.integers(0, 4, size=n).astype(np.uint32)
    return keys, talks


def test_scan_accepts_program_and_catches_faults():
    from knnmt.datastore import Datastore

    rng = np.random.default_rng(0)
    keys, talks = _store(rng)
    ds = Datastore(dim=16, keys=keys, values=np.zeros(len(keys), np.uint32), talk_ids=talks)
    queries = np.concatenate([keys[:10], keys[5] + rng.normal(scale=1e-3, size=(10, 16)).astype(np.float32)])
    rows, d2 = ds.search_batch_rows(queries, 8)
    for q, r, d in zip(queries, rows, d2):
        assert oracles.compare_knn(r, d, *oracles.scan_knn(keys, q, 8)) is None

    def expansion_only(q):  # ranks and reports the norm-expansion estimate, no refinement
        est = (keys * keys).sum(1) - 2 * keys @ q + q @ q
        order = np.lexsort((np.arange(len(keys)), est))[:8]
        return order, est[order]

    caught = sum(oracles.compare_knn(*expansion_only(q), *oracles.scan_knn(keys, q, 8)) is not None for q in queries)
    assert caught > 0, "expansion-only ranking not caught"

    want_rows, want_d2 = oracles.scan_knn(keys, keys[0], 2)  # rows 0 and 200 tie at distance 0
    assert want_rows.tolist() == [0, 200]
    assert oracles.compare_knn(want_rows[::-1], want_d2, want_rows, want_d2) is not None, "tie order not caught"
    one_ulp = want_d2.copy()
    one_ulp[1] = np.nextafter(one_ulp[1], np.float32(1))
    assert oracles.compare_knn(want_rows, one_ulp, want_rows, want_d2) is not None, "1-ulp distance not caught"
    excl_rows, excl_d2 = oracles.scan_knn(keys, keys[0], 8, talks, int(talks[0]))
    assert 0 not in excl_rows.tolist()
    assert oracles.compare_knn(*oracles.scan_knn(keys, keys[0], 8), excl_rows, excl_d2) is not None, "exclusion not caught"


def _ivf_bytes(lists, dim=4, nprobe=1):
    c = len(lists)
    out = b"KNNI" + struct.pack("<4I", 1, dim, c, nprobe) + np.zeros((c, dim), "<f4").tobytes()
    for lst in lists:
        out += struct.pack("<Q", len(lst)) + np.asarray(lst, "<u8").tobytes()
    return out


def test_ivf_parser_catches_faults():
    from knnmt.datastore import Datastore, save_ivf, train_ivf

    rng = np.random.default_rng(1)
    keys = rng.normal(size=(200, 4)).astype(np.float32)
    ds = Datastore(dim=4, keys=keys, values=np.zeros(200, np.uint32), talk_ids=np.zeros(200, np.uint32))
    with scratch_dir() as tmp:
        path = tmp / "x.ivf"
        save_ivf(train_ivf(ds, 8, seed=0, nprobe=2), path)
        _, lists, nprobe = oracles.read_ivf(path, 200, 4)
        assert nprobe == 2 and sum(map(len, lists)) == 200
        good = [lst.tolist() for lst in lists]
        faults = {
            "row missing": [good[0][1:]] + good[1:],
            "row twice": [good[0] + [good[1][0]]] + good[1:],
            "row out of range": [good[0] + [200]] + good[1:],
            "list unsorted": [good[0][::-1]] + good[1:],
        }
        for name, bad in faults.items():
            path.write_bytes(_ivf_bytes(bad, nprobe=2))
            _expect_error(lambda: oracles.read_ivf(path, 200, 4), name)
        whole = _ivf_bytes(good, nprobe=2)
        path.write_bytes(whole)
        oracles.read_ivf(path, 200, 4)
        for name, blob in {"trailing byte": whole + b"\0", "truncated": whole[:-8],
                           "nprobe 0": _ivf_bytes(good, nprobe=0)}.items():
            path.write_bytes(blob)
            _expect_error(lambda: oracles.read_ivf(path, 200, 4), name)
        path.write_bytes(whole)
        _expect_error(lambda: oracles.read_ivf(path, 250, 4), "index of another store")
        _expect_error(lambda: oracles.read_ivf(path, 200, 8), "dim mismatch")


def test_checkpoint_base_block_catches_faults():
    from knnmt.refmodel import RefModel, init_params, save_checkpoint

    model = RefModel(init_params(20, 8, 12, seed=0), adapter_rank=4)
    with scratch_dir() as tmp:
        base, adapted = tmp / "base.ckpt", tmp / "adapted.ckpt"
        save_checkpoint(model, base)
        model.add_adapter("t", seed=1)
        model.adapters["t"].W_up += 0.5
        save_checkpoint(model, adapted)
        assert oracles.checkpoint_base_block(base) == oracles.checkpoint_base_block(adapted)
        assert oracles.checkpoint_adapter_count(adapted) == 1
        size = len(oracles.checkpoint_base_block(base))
        assert size == 8 * (20 * 8 + 2 * 12 * 8 + 12 * 12 + 12 + 20 * 12 + 20)

        blob = bytearray(adapted.read_bytes())
        blob[24 + size - 1] ^= 0x01  # last byte of b_o
        adapted.write_bytes(bytes(blob))
        assert oracles.checkpoint_base_block(base) != oracles.checkpoint_base_block(adapted), "base byte flip not caught"
        blob[24 + size - 1] ^= 0x01
        blob[-1] ^= 0x01  # inside the adapter block: not a base change
        adapted.write_bytes(bytes(blob))
        assert oracles.checkpoint_base_block(base) == oracles.checkpoint_base_block(adapted)
        adapted.write_bytes(bytes(blob[: 24 + size // 2]))
        _expect_error(lambda: oracles.checkpoint_base_block(adapted), "truncated checkpoint")


def test_scorer_values_and_faults():
    refs = [["le", "chien", "voit", "vite"], ["un", "encodeur", "suit", "encodeur"], ["le", "pente", "fait", "vite"]]
    terms = ["encodeur", "pente"]
    assert oracles.exact_match_rate(refs, refs) == 1.0
    assert oracles.term_recall(refs, refs, terms) == 1.0
    dropped = [refs[0], ["un", "encodeur", "suit", "chat"], ["le", "chat", "fait", "vite"]]
    assert oracles.exact_match_rate(dropped, refs) == 1 / 3
    assert oracles.term_recall(dropped, refs, terms) == 1 / 3  # 1 of 3 term occurrences left
    repeated = [refs[0], ["encodeur"] * 4, ["le", "chat", "fait", "vite"]]
    assert oracles.term_recall(repeated, refs, terms) == 2 / 3  # clipped at the reference count
    _expect_error(lambda: oracles.term_recall(refs[:2], refs, terms), "length mismatch")
    _expect_error(lambda: oracles.term_recall([["le"]], [["le"]], terms), "no reference terms")

    # agrees with the program's own scorer on random id sequences
    from knnmt.benchmark import terminology_recall

    rng = np.random.default_rng(2)
    hyps = [rng.integers(0, 8, size=int(rng.integers(1, 9))).tolist() for _ in range(50)]
    refs_ids = [rng.integers(0, 8, size=int(rng.integers(1, 9))).tolist() for _ in range(50)]
    ours = oracles.term_recall([list(map(str, h)) for h in hyps], [list(map(str, r)) for r in refs_ids], ["1", "5"])
    assert ours == terminology_recall(hyps, refs_ids, [1, 5])


def _expect_error(fn, name):
    try:
        fn()
    except oracles.OracleError:
        return
    raise AssertionError(f"{name}: not caught")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"selftest {test.__name__}: PASS")
        except Exception:
            failed += 1
            print(f"selftest {test.__name__}: FAIL\n{traceback.format_exc()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
