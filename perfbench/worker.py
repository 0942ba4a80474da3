"""One benchmark round: a fresh process making one `ekcyclo compute` run.

    python3 worker.py SRC LAUNCHED RESULT.json --out CSV [--setup-only]
        [--analyze PREFIX] [--trace SPANS.json] --host-parts PART,PART...
        --compute COMPUTE-ARGS...

LAUNCHED is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so setup_s covers the
interpreter start, the imports and building the prime list, up to the
moment the first record is requested.  The timed phase runs from there to
the return of the compute command.  Analysis, when asked for, runs after
the timed phase.  With --setup-only the round ends at the first record
request and reports the set-up figures alone.

Untraced rounds run a hostspeed.Sampler of the --host-parts from just after numpy is imported
to the end of the timed phase.  Its bursts are taken out of both phases,
and the result gives each phase's bursts (`setup_samples`,
`timed_samples`), from which the parent rescales the times to the
reference host.  Traced rounds run no sampler, so that no burst falls
inside a layer's span.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostspeed


class SetupDone(Exception):
    """Ends a --setup-only round at the first record request."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("launched", type=float)
    parser.add_argument("result")
    parser.add_argument("--out", required=True)
    parser.add_argument("--compute", nargs=argparse.REMAINDER, required=True)
    parser.add_argument("--analyze", metavar="PREFIX")
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--host-parts", required=True)
    args = parser.parse_args(argv)

    sampler = hostspeed.Sampler(tuple(args.host_parts.split(",")))
    if not args.trace:
        sampler.start()
    try:
        return _round(args, sampler)
    finally:
        if not args.trace:
            sampler.stop()


def _round(args, sampler: hostspeed.Sampler) -> int:
    sys.path.insert(0, args.src)
    from ekcyclo import cli, store

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    # outermost wrapper, so that the tracer's spans fall inside the timed phase
    first_request: list[float] = []
    request = store.compute_record

    setup_samples: list[dict] = []

    def first_record(*a, **kw):
        if not first_request:
            first_request.append(time.monotonic())
            setup_samples.append(sampler.snapshot())
            if args.setup_only:
                raise SetupDone
        return request(*a, **kw)
    store.compute_record = first_record

    try:
        code = cli.main(["compute", "--out", args.out, *args.compute])
    except SetupDone:
        code = 0
    end = time.monotonic()
    all_samples = sampler.snapshot()
    if code != 0 or not first_request:
        print(f"compute exited {code}, first record requested: {bool(first_request)}",
              file=sys.stderr)
        return 1
    setup = setup_samples[0]
    result = {"setup_s": first_request[0] - args.launched - hostspeed.busy_s(setup),
              "setup_samples": setup}
    if args.setup_only:
        with open(args.result, "w", encoding="ascii") as f:
            json.dump(result, f)
        return 0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.analyze and cli.main(["analyze", "--in", args.out, "--spike", "2:+1",
                                  "--out-prefix", args.analyze]) != 0:
        print("analyze failed", file=sys.stderr)
        return 1

    timed = hostspeed.between(setup, all_samples)
    result |= {"timed_s": end - first_request[0] - hostspeed.busy_s(timed),
               "timed_samples": timed,
               "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        layers = tracer.summary()
        layers["store.csv_bytes"] = os.path.getsize(args.out)
        result["layers"] = layers
        result["absent"] = tracer.absent
        tracer.write(args.trace)
    with open(args.result, "w", encoding="ascii") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
