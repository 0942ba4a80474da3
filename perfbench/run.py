"""ekcyclo benchmark: rows per second, set-up time and peak memory of `compute`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round is a fresh,
single-worker process (worker.py) making one `ekcyclo compute` run into a
scratch directory; rounds repeat until --seconds have passed.  With
--trace 0 the rounds follow SETUP_PROBES set-up probes, and the last line
of stdout is a JSON object with the end-to-end metrics (medians over the
rounds, and for setup_s over the probes too; times in reference seconds,
see hostspeed.py); with --trace 1 the first half of the
time runs untraced rounds and the second half traced ones, and the JSON
holds the per-layer metrics.  Every run checks its rows against the
independent references in checks.py, outside the timed phase.  See
README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_OUT = ROOT / ".perfbench_out"
ROUND_TIMEOUT_S = 150
# Untimed rounds that stop at the first record request, so that setup_s is a
# median over more samples than the two to five timed rounds of a run give.
SETUP_PROBES = 8

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import hostspeed  # noqa: E402

# The burst parts (hostspeed.PARTS) that rescale set-up time, which is
# mostly the interpreter importing modules.  Every workload's host_parts
# include them.  Over 64 probes, blocks of eight spread 0.28 raw, 0.17
# rescaled by python + native and 0.06 by python alone.
SETUP_PARTS = ("python",)


@dataclass(frozen=True)
class Workload:
    precision: str
    q_min: int
    q_max: int
    analyze: bool      # run `ekcyclo analyze` after the timed phase
    root_samples: int  # rows rerun under another primitive root
    host_parts: tuple[str, ...]  # burst parts that rescale the timed phase


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "range-double":
        return Workload("double", 3, 19_900 + rng.randrange(200), True, 4, ("python", "native"))
    if name == "large-q":
        return Workload("double", 10 ** 6, checks.primes_above(10 ** 6, 8)[-1], False, 2,
                        hostspeed.PARTS)
    if name == "golden-dd":
        return Workload("dd", 3, 999, False, 4, ("python", "native"))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("range-double", "large-q", "golden-dd")


@dataclass
class Round:
    ok: bool
    csv: Path
    result: dict


def run_round(wl: Workload, workdir: Path, index: int, trace_path: Path | None,
              setup_only: bool = False) -> Round:
    csv = workdir / f"round{index}.csv"
    result_path = workdir / f"round{index}.json"
    options = ["--out", str(csv)] + (["--setup-only"] if setup_only else [])
    if wl.analyze:
        options += ["--analyze", str(workdir / f"round{index}_")]
    if trace_path is not None:
        options += ["--trace", str(trace_path)]
    options += ["--host-parts", ",".join(wl.host_parts)]
    options += ["--compute", "--min", str(wl.q_min), "--max", str(wl.q_max),
                "--threads", "1", "--precision", wl.precision]
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), repr(time.monotonic()),
           str(result_path), *options]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round {index} timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return Round(False, csv, {})
    if proc.returncode != 0 or not result_path.exists():
        print(f"round {index} failed ({proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return Round(False, csv, {})
    result = json.loads(result_path.read_text())
    if setup_only:
        return Round(True, csv, result)
    reference_s = hostspeed.reference_seconds(result["timed_s"], result["timed_samples"],
                                              wl.host_parts)
    print(f"round {index}: setup {result['setup_s']:.3f} s, timed {result['timed_s']:.3f} s "
          f"({reference_s:.3f} reference s), peak {result['peak_rss_mb']:.1f} MB",
          file=sys.stderr)
    return Round(True, csv, result)


def run_rounds(wl: Workload, workdir: Path, seconds: float, trace_path: Path | None,
               start_index: int = 0) -> list[Round]:
    """Whole rounds until `seconds` have passed (at least one)."""
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run_round(wl, workdir, start_index + len(rounds), trace_path))
    return rounds


def rows_written(path: Path) -> int:
    try:
        return len(checks.parse_csv(path))
    except (OSError, ValueError):
        return 0


def check_outputs(name: str, wl: Workload, seed: int, rounds: list[Round]) -> list[str]:
    """All the checks of checks.py on the first good round; every round's bytes equal."""
    good = [r for r in rounds if r.ok]
    digests = {hashlib.sha256(r.csv.read_bytes()).hexdigest() for r in good}
    problems = [] if len(digests) == 1 else [f"{len(digests)} different CSVs over the rounds"]
    rows = checks.parse_csv(good[0].csv)
    mode = wl.precision
    tol = checks.TOLERANCE[mode]
    from ekcyclo.reference import KAPPA_REFERENCE

    oracle = checks.load_oracle()
    problems += checks.check_rows_are_primes(rows, checks.odd_primes(wl.q_min, wl.q_max))
    problems += checks.check_flags(rows)
    problems += checks.check_identities(rows)
    problems += checks.check_kappa_table(rows, dict(KAPPA_REFERENCE), tol["table"])
    problems += checks.check_oracle(rows, oracle, tol["oracle"])
    problems += checks.check_integrality(rows, oracle)
    if wl.analyze:
        hist = good[0].csv.with_name(good[0].csv.stem + "_histogram.csv")
        problems += checks.check_histogram(hist, len(rows))
    rng = random.Random(f"{name}:{seed}:checks")
    problems += checks.check_root_invariance(rows, mode, rng, wl.root_samples)
    problems += checks.check_kernel_points(rng.choice(rows).q, mode, rng)
    return problems


def end_to_end(wl: Workload, probes: list[Round], rounds: list[Round], n_rows: int,
               names: list[dict]) -> dict:
    """Medians over the rounds, times in reference seconds (hostspeed.py)."""
    done = [r.result for r in rounds if r.ok]
    setups = [r.result for r in probes + rounds if r.ok]
    values = {
        "records_per_s": statistics.median(
            n_rows / hostspeed.reference_seconds(r["timed_s"], r["timed_samples"], wl.host_parts)
            for r in done),
        "setup_s": statistics.median(
            hostspeed.reference_seconds(r["setup_s"], r["setup_samples"], SETUP_PARTS)
            for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def per_layer(untraced: list[Round], traced: list[Round], names: list[dict]) -> dict:
    done = [r.result for r in traced if r.ok]
    absent = sorted({a for r in done for a in r.get("absent", [])})
    if absent:
        print("absent from this version (zero calls): " + ", ".join(absent), file=sys.stderr)
    out = {}
    for metric in names:
        key = metric["name"]
        if key == "trace_overhead_s":
            value = (statistics.median(r["timed_s"] for r in done)
                     - statistics.median(r.result["timed_s"] for r in untraced if r.ok))
        elif key == "host.burst_s":
            value = statistics.median(
                hostspeed.busy_s(r.result["timed_samples"]) / r.result["timed_samples"]["bursts"]
                for r in untraced if r.ok)
        else:
            value = statistics.median(r["layers"].get(key, 0) for r in done)
        out[key] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the running round and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ekcyclo" / "__init__.py").is_file():
        print(f"error: no ekcyclo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = make_workload(args.workload, args.seed)
    n_rows = len(checks.odd_primes(wl.q_min, wl.q_max))
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        if args.trace:
            TRACE_OUT.mkdir(exist_ok=True)
            spans = TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.json"
            untraced = run_rounds(wl, workdir, args.seconds / 2, None)
            traced = run_rounds(wl, workdir, args.seconds / 2, spans, len(untraced))
            rounds = untraced + traced
        else:
            probes = [run_round(wl, workdir, -1 - i, None, setup_only=True)
                      for i in range(SETUP_PROBES)]
            rounds = run_rounds(wl, workdir, args.seconds, None)
        if not any(r.ok for r in (traced if args.trace else rounds)):
            print("error: no round completed", file=sys.stderr)
            return 1
        failed = sum(n_rows - rows_written(r.csv) for r in rounds if not r.ok)
        problems = check_outputs(args.workload, wl, args.seed, rounds)
        if args.trace:
            metrics = per_layer(untraced, traced, spec["per_layer"])
        else:
            metrics = end_to_end(wl, probes, rounds, n_rows, spec["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    summary = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {n_rows} records; "
          f"{len(problems)} check failures; {summary}")
    print(json.dumps({"correct": not problems, "attempted": n_rows * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
