"""Benchmark of the knnmt CLI on three seeded workloads.

One run sets up one workload's inputs from the seed (at least five times,
to time set-up), then repeats whole rounds of the workload's CLI commands
for about `--seconds` seconds, then checks the outputs. The last line of stdout is
one JSON object: `correct`, `attempted` and `failed` (CLI commands of the
timed rounds that exited non-zero) and `metrics`. With `--trace 0` those are
the end-to-end metrics; with `--trace 1` the rounds alternate between
untraced and traced, and the metrics are the per-layer figures of the
traced rounds. Everything else goes to stderr.

    python3 bench/run.py --workload talks-loo --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload talks-loo --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke        # all workloads, reduced sizes, every check

Run it from the root of a source checkout: it imports `knnmt` from `src/`.
"""

import os

# Fixed before NumPy loads so that timings measure the program, not how the
# scheduler places BLAS threads on the two cores this was tuned on.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("adapt", "talks-loo", "large-store")
# set-up runs at least SETUP_MIN times and until it has taken SETUP_SECONDS,
# so that a set-up of a few milliseconds still gets a steady median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 100, 1.0
MIN_ROUNDS = 3

# median per-round rate of each kind of timed command, printed on stderr
KIND_RATES = {
    "train": "train_tok_per_s",
    "train_adapter": "adapter_tok_per_s",
    "diversify": "diversify_sent_per_s",
    "build": "build_entries_per_s",
    "build_ivf": "build_entries_per_s",
    "decode_plain": "decode_plain_sent_per_s",
    "decode_exact": "decode_exact_sent_per_s",
    "decode_ivf": "decode_ivf_sent_per_s",
    "loo": "loo_sent_per_s",
    "grid": "grid_sent_per_s",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "decode_plain_sent_per_cpu_s": "sent/cpu_s",
    "decode_sent_per_cpu_s": "sent/cpu_s",
}


@contextmanager
def chdir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def rate(ops, cpu: bool = False) -> float:
    return sum(op.work for op in ops) / sum(op.cpu_seconds if cpu else op.seconds for op in ops)


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, smoke)
    base = HERE / "work" / (name + ("-smoke" if smoke else ""))
    shutil.rmtree(base, ignore_errors=True)
    run = workloads.Runner()

    # set-up, repeated: inputs and any base model, each copy timed; the
    # median drops the first copy's cold start
    setup_s, digests = [], []
    while len(setup_s) < SETUP_MIN or (sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX):
        i = len(setup_s)
        where = base / ("run" if i == 0 else f"setup-{i}")
        where.mkdir(parents=True)
        run.phase = f"setup-{i}"
        with chdir(where):
            t0 = time.perf_counter()
            wl.setup(run)
            setup_s.append(time.perf_counter() - t0)
        digests.append(tree_digest(where))
        if i:
            shutil.rmtree(where)

    # timed rounds; in a traced run every second round is traced
    tracer = tracing.Tracer() if trace else None
    walls, traced_walls, layers = [], [], []
    started = time.perf_counter()
    rounds = 0
    with chdir(base / "run"):
        while True:
            traced = trace and rounds % 2 == 1
            run.phase = f"round-{rounds}"
            first = 0
            if traced:
                tracer.install()
                first = len(tracer)
            t0 = time.perf_counter()
            try:
                wl.round(run)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if traced:
                traced_walls.append(wall)
                layers.append(tracer.layer_totals(first))
            else:
                walls.append(wall)
            rounds += 1
            spent = time.perf_counter() - started
            if rounds >= MIN_ROUNDS and spent + statistics.mean(walls + traced_walls) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        run.phase = "check"
        checks = [workloads.Check("setup-deterministic", len(set(digests)) == 1,
                                  f"{len(digests)} set-ups, {len(set(digests))} distinct file trees")]
        try:
            checks += wl.check(run)
        except Exception:
            checks.append(workloads.Check("checks-completed", False, traceback.format_exc().strip().splitlines()[-1]))
        checks.append(workloads.check_rounds_identical(run, rounds))

    timed = [op for op in run.ops if op.phase.startswith("round-")]
    failed = [op for op in timed if op.rc != 0]
    for op in failed[:3]:
        log(f"[failed] {' '.join(op.argv)} -> {op.rc}: {op.stderr.strip()[-300:]}")
    for c in checks:
        log(f"[check] {c.name}: {'PASS' if c.ok else 'FAIL'} ({c.detail})")

    # rates come from untraced rounds only
    per_round = [run.phase_ops(f"round-{r}") for r in range(rounds) if not (trace and r % 2 == 1)]
    kinds = list(dict.fromkeys(op.kind for op in per_round[0]))
    by_kind = {
        k: statistics.median(rate([op for op in ops if op.kind == k]) for ops in per_round) for k in kinds
    }
    per_command = {KIND_RATES[k]: by_kind[k] for k in kinds}
    if "build_ivf" in kinds:
        per_command["index_build_s"] = statistics.median(
            sum(op.seconds for op in ops if op.kind == "build_ivf") for ops in per_round)
    log("[workload] " + json.dumps({"workload": name, "seed": seed, "smoke": smoke, "rounds": rounds,
                                    "traced_rounds": len(traced_walls), "setups": len(setup_s),
                                    "blas_threads": int(BLAS_THREADS), **wl.facts}))
    log("[per-command] " + json.dumps(per_command))
    log("[times] " + json.dumps({"setup_s": setup_s[:SETUP_MIN], "round_wall_s": walls,
                                 "traced_round_wall_s": traced_walls}))

    if trace:
        tracer.write(base / "trace.tsv")
        units = tracing.layer_metric_units()
        values = {m: sum(layer.get(m, 0) for layer in layers) / len(layers) for m in units}
        values["trace.wall_s"] = statistics.mean(traced_walls)
        # each traced round against the untraced round after it (before it
        # for a last traced round): neighbours share the machine's speed of
        # the moment, and round 0 also pays for first use of code and memory
        values["trace.overhead_s"] = statistics.median(
            t - walls[min(j + 1, len(walls) - 1)] for j, t in enumerate(traced_walls))
        accounted = sum(v for m, v in values.items() if units[m] == "s" and not m.startswith("trace."))
        log(f"[trace] layer self times add to {accounted:.4f} s of {values['trace.wall_s']:.4f} s traced round wall "
            f"({accounted / values['trace.wall_s']:.2%}); spans in {base / 'trace.tsv'}")
        metrics = {m: {"value": values[m], "unit": units[m]} for m in values}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            # decode rates per CPU second of this process, over all of a run's
            # rounds: on a shared host the process is descheduled for seconds
            # at a time, and a plain decode's wall time reached 1.7 times its
            # CPU time in one run and 1.0 in the next; wall_s keeps the wall
            "decode_plain_sent_per_cpu_s": rate(
                [op for ops in per_round for op in ops if op.kind == "decode_plain"], cpu=True),
            "decode_sent_per_cpu_s": rate(
                [op for ops in per_round for op in ops if op.kind in workloads.DECODING], cpu=True),
        }
        metrics = {m: {"value": values[m], "unit": END_TO_END_UNITS[m]} for m in END_TO_END_UNITS}
    return {
        "correct": all(c.ok for c in checks),
        "attempted": len(timed),
        "failed": len(failed),
        "metrics": metrics,
    }


def smoke_all() -> int:
    """Oracle self-tests, then every workload at reduced size in its own
    process with every check: three rounds each, the middle one traced."""
    ok = subprocess.run([sys.executable, str(HERE / "selftest.py")], check=False).returncode == 0
    for name in WORKLOAD_NAMES:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "0",
             "--seconds", "0", "--trace", "1", "--smoke"],
            stdout=subprocess.PIPE, text=True, check=False, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        good = bool(result.get("correct")) and result.get("failed") == 0
        ok = ok and good
        print(f"smoke {name}: {'PASS' if good else 'FAIL'} in {time.perf_counter() - t0:.1f} s "
              f"(exit {proc.returncode}, attempted {result.get('attempted')}, failed {result.get('failed')})")
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="time to spend in timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes; without --workload, run all")
    args = parser.parse_args(argv)
    if not (SRC / "knnmt" / "__init__.py").is_file():
        log(f"error: no knnmt package under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        if args.smoke:
            return smoke_all()
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
