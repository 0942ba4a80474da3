"""Command-line entry points: compute, verify-table2, analyze, constants.

Exit codes: 0 success, 1 verification failure, 2 usage, input, I/O,
allocation or record error (one ``error:`` line on stderr, printed by ``main``).
"""
from __future__ import annotations

import argparse
import sys

from . import analysis
from .admissible import constants_table, harmonic_threshold
from .ek_core import PRECISIONS, ComputationError
from .store import (VERIFY_TOL, RunConfig, StoreError, read_records, run_range,
                    verify_reference)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekcyclo",
        description="Euler-Kronecker / Kummer-ratio pipeline for odd primes q")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="write one CSV row per odd prime in a range")
    p.add_argument("--min", type=int, required=True, dest="q_min")
    p.add_argument("--max", type=int, required=True, dest="q_max")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=RunConfig.threads)
    p.add_argument("--precision", choices=PRECISIONS, default=RunConfig.precision)

    p = sub.add_parser("verify-table2", help="recompute the tabulated kappa values")
    p.add_argument("--precision", choices=PRECISIONS, default=PRECISIONS[0])

    p = sub.add_parser("analyze", help="histogram / spike / delta / envelope outputs")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--bins", type=float, default=analysis.DEFAULT_BIN_WIDTH,
                   help="bin width")
    p.add_argument("--range", dest="range_", default="{}:{}".format(*analysis.DEFAULT_RANGE),
                   metavar="LO:HI")
    p.add_argument("--spike", metavar="M:B", help="e.g. 2:+1 or 4:-1")
    p.add_argument("--exclusive", action="store_true")
    p.add_argument("--delta-cap", type=float, default=0.08)
    p.add_argument("--out-prefix", default="ek_")

    sub.add_parser("constants", help="print the named constants and thresholds")
    return parser


def _cmd_compute(args) -> int:
    cfg = RunConfig(q_min=args.q_min, q_max=args.q_max, out_path=args.out,
                    threads=args.threads, precision=args.precision)
    rows = run_range(cfg)
    print(f"wrote {rows} rows to {cfg.out_path}")
    return 0


def _cmd_verify(args) -> int:
    result = verify_reference(args.precision)
    print(f"max |kappa - reference| = {result.max_deviation:.3e} at q={result.worst_q} "
          f"(tolerance {VERIFY_TOL[args.precision]:g}, {args.precision})")
    if result.ok:
        print("verify-table2: PASS")
        return 0
    print("verify-table2: FAIL at q = " + ", ".join(map(str, result.offenders)))
    return 1


def _pair(text: str, flag: str, form: str, kind):
    """The two values of an option written A:B, each converted by kind."""
    try:
        a, b = text.split(":")
        return kind(a), kind(b)
    except ValueError:
        raise ValueError(f"bad {flag} {text!r}, expected {form}") from None


def _cmd_analyze(args) -> int:
    # every option and value is checked before the first output file is written
    records = read_records(args.in_path)
    lo, hi = _pair(args.range_, "--range", "LO:HI", float)
    hist = analysis.histogram([r.kappa for r in records], args.bins, lo, hi)
    report = None
    if args.spike:
        m, b = _pair(args.spike, "--spike", "M:B", int)
        report = analysis.spike_report(records, m, b, exclusive=args.exclusive)
    frac, mean_abs = analysis.delta_stats(records, args.delta_cap)

    def density(x: float) -> str:
        if hist.sigma in (None, 0.0):
            return "nan"
        return f"{float(hist.normal_density(x)):.17g}"

    half = 0.5 * args.bins
    cells = [(lo - half, hist.underflow),
             *zip(hist.bin_centers().tolist(), hist.counts.tolist()),
             (hi + half, hist.overflow)]
    outputs = {"histogram.csv": ["bin_center,count,normal_overlay",
                                 *(f"{x:.17g},{n},{density(x)}" for x, n in cells)]}
    if report is not None:
        mean = "nan" if report.sample_mean is None else f"{report.sample_mean:.17g}"
        outputs["spikes.csv"] = ["m,b,exclusive,count,sample_mean,target",
                                 f"{report.m},{report.b},{int(report.exclusive)},"
                                 f"{report.count},{mean},{report.target:.17g}"]
    outputs["delta.csv"] = ["cap,frac_within,mean_abs",
                            f"{args.delta_cap:.17g},{frac:.17g},{mean_abs:.17g}"]
    anomalies = analysis.envelope_check(records)
    outputs["anomalies.csv"] = ["q,kappa,kind",
                                *(f"{a.q},{a.kappa:.17g},{a.kind}" for a in anomalies)]

    for name, lines in outputs.items():
        with open(args.out_prefix + name, "w", encoding="ascii", newline="\n") as f:
            f.write("".join(line + "\n" for line in lines))
    print(f"delta: frac(|delta| <= {args.delta_cap:g}) = {frac:.4f}, "
          f"mean |delta| = {mean_abs:.6f}")
    print(f"envelope anomalies: {len(anomalies)}")
    return 0


def _cmd_constants(args) -> int:
    for const in constants_table().values():
        print(f"{const.name:12s} = {const.value:.10f}   [{const.expression}]")
    for c in (4, 6):
        n, total = harmonic_threshold(float(c))
        print(f"threshold({c}) : N = {n}, sum = {total:.9f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "verify-table2": _cmd_verify,
        "analyze": _cmd_analyze,
        "constants": _cmd_constants,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, MemoryError, StoreError, ComputationError) as exc:
        # input, I/O, allocation and record failures: a failed record names
        # its q, kernel and stage, and a compute run keeps its last checkpoint
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
