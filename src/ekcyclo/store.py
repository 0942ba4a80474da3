"""CSV persistence, checkpointed parallel range runs, reference verification.

CSV schema (one row per odd prime, ordered by q, LF endings):

    q,kappa,r,delta,gamma_plus,gamma,sg2p,sg2m,sg4p,sg4m

Reals carry 17 significant digits (lossless binary64 round-trip), booleans
are 0/1, and q ascends.  A run holds an exclusive lock on its CSV and writes
a sidecar checkpoint (the run's range and precision, a digest of the code,
and the byte count and digest of the rows emitted, the last of which names
the last completed q) at most every _CHECKPOINT_S seconds, so an interrupted
range resumes to a byte-identical file, and a checkpoint of another run or
other code is refused; output bytes do not depend on the worker count.
"""
from __future__ import annotations

import fcntl
import functools
import hashlib
import itertools
import json
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, sleep

import numpy as np
import scipy

from .ek_core import PRECISIONS, EkRecord, check_precision, compute_record
from .primes import MAX_Q, NeighborFlags, is_prime, primes_in
from .reference import kappa_reference

CSV_HEADER = "q,kappa,r,delta,gamma_plus,gamma,sg2p,sg2m,sg4p,sg4m"

_REAL_FIELDS = ("kappa", "r", "delta", "gamma_plus", "gamma")

_CHECKPOINT_S = 10.0  # seconds between checkpoints: a crash loses that and one row at most
VERIFY_TOL = {"double": 1e-8, "dd": 1e-14}  # the largest |kappa - reference| per precision


class StoreError(RuntimeError):
    """Malformed persisted data or an inconsistent checkpoint."""


def format_record(rec: EkRecord) -> str:
    reals = ",".join(f"{getattr(rec, f):.17g}" for f in _REAL_FIELDS)
    flags = rec.flags
    bits = ",".join(str(int(v)) for v in (flags.sg2p, flags.sg2m, flags.sg4p, flags.sg4m))
    return f"{rec.q},{reals},{bits}"


def parse_record(line: str, lineno: int) -> EkRecord:
    parts = line.split(",")
    if len(parts) != 10:
        raise StoreError(f"line {lineno}: expected 10 fields, got {len(parts)}")
    try:  # int() and float() also take "_", spaces and "+": format_record writes none
        if not (parts[0].isascii() and parts[0].isdigit()):
            raise ValueError(f"q field {parts[0]!r} is not decimal digits")
        q = int(parts[0])
        if any("_" in v or v != v.strip() for v in parts[1:6]):
            raise ValueError("real fields must not hold '_' or whitespace")
        kappa, r, delta, gamma_plus, gamma = (float(v) for v in parts[1:6])
        if any(v not in ("0", "1") for v in parts[6:10]):
            raise ValueError("flag fields must be 0/1")
    except ValueError as exc:
        raise StoreError(f"line {lineno}: {exc}") from exc
    flags = NeighborFlags(*(v == "1" for v in parts[6:10]))
    return EkRecord(q=q, kappa=kappa, r=r, gamma_plus=gamma_plus, gamma=gamma,
                    delta=delta, flags=flags)


def _ascii_line(line: str, lineno: int) -> str:
    line = line.rstrip("\n")
    if not line.isascii():  # an undecodable byte is read as a lone surrogate
        byte = ord(next(c for c in line if not c.isascii())) - 0xDC00
        raise StoreError(f"line {lineno}: non-ASCII byte {byte:#04x}")
    return line


# read_records looks every q up in one sieve of the rows' span while the
# sieve costs at most this many integers per row: a CSV from compute holds
# every prime of its range, about one per log q integers.  A sparser file
# tests each row by itself, so far-apart rows never start a long sieve.
_SIEVE_PER_ROW = 256


def _first_not_odd_prime(qs: list[int]) -> int | None:
    """The index of the first of the ascending qs that is not an odd prime, or None."""
    lo, hi = qs[0], qs[-1]
    if lo < 3:
        return 0
    if hi - lo + math.isqrt(hi) > _SIEVE_PER_ROW * len(qs):
        return next((i for i, q in enumerate(qs) if not is_prime(q)), None)
    primes = np.append(primes_in(lo - 1, hi), hi + 1)  # hi + 1 ends every search
    at = np.array(qs, dtype=np.int64)
    bad = np.flatnonzero(primes[np.searchsorted(primes, at)] != at)
    return int(bad[0]) if bad.size else None


def read_records(path: str | os.PathLike) -> list[EkRecord]:
    """The rows of a CSV of this schema, in ascending odd prime q <= MAX_Q; every
    StoreError starts with the path."""
    out, linenos = [], []
    try:
        # newline="\n": a CR stays in its line, which the schema refuses
        with open(path, "r", encoding="ascii", errors="surrogateescape", newline="\n") as f:
            header = _ascii_line(f.readline(), 1)
            if header != CSV_HEADER:
                raise StoreError(f"line 1: unexpected header {header!r}")
            for lineno, line in enumerate(f, start=2):
                rec = parse_record(_ascii_line(line, lineno), lineno)
                if out and rec.q <= out[-1].q:
                    raise StoreError(f"line {lineno}: q {rec.q} is not above the "
                                     f"previous row's q {out[-1].q}")
                if rec.q > MAX_Q:
                    raise StoreError(f"line {lineno}: q {rec.q} is above {MAX_Q}, "
                                     "the largest q a run computes")
                out.append(rec)
                linenos.append(lineno)
        if not out:
            raise StoreError("no data rows")
        bad = _first_not_odd_prime([rec.q for rec in out])
        if bad is not None:
            raise StoreError(f"line {linenos[bad]}: q {out[bad].q} is not an odd prime")
    except StoreError as exc:
        raise StoreError(f"{path}: {exc}") from None
    return out


@dataclass(frozen=True)
class RunConfig:
    q_min: int
    q_max: int
    out_path: str
    threads: int = 1
    precision: str = PRECISIONS[0]

    def __post_init__(self):
        if not 3 <= self.q_min <= self.q_max:
            raise ValueError("need 3 <= q_min <= q_max")
        if self.q_max > MAX_Q:
            raise ValueError(f"q_max must be <= {MAX_Q}, the largest q whose power table "
                             "fits int64")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        check_precision(self.precision)


def _checkpoint_path(out_path: str) -> Path:
    return Path(str(out_path) + ".checkpoint")


@functools.cache
def _code_digest() -> str:
    """sha256 of this package's sources, the numpy and scipy versions and the
    loop numpy dispatches for each ufunc on this CPU (np.log's bits follow it):
    the code whose rows a checkpoint vouches for."""
    h = hashlib.sha256(f"numpy {np.__version__} scipy {scipy.__version__}".encode())
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 has no public view of its dispatch: versions alone
        pass
    else:
        h.update(json.dumps(opt_func_info(), sort_keys=True).encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run_identity(cfg: RunConfig) -> dict:
    """The checkpoint fields a resume must match."""
    return {"q_min": cfg.q_min, "q_max": cfg.q_max, "precision": cfg.precision,
            "code": _code_digest()}


def _load_checkpoint(cfg: RunConfig, out) -> tuple[int, int, "hashlib._Hash"] | None:
    """The last q, byte count and digest of the rows of the open CSV out
    that its checkpoint vouches for, or None without a checkpoint."""
    ck_path = _checkpoint_path(cfg.out_path)
    if not ck_path.exists():
        return None
    try:
        state = json.loads(ck_path.read_text())
        nbytes, sha = state["nbytes"], state["sha256"]
    except (ValueError, KeyError, TypeError) as exc:
        raise StoreError(f"checkpoint {ck_path} is unreadable: {exc!r}") from exc
    # everything is checked before the CSV is truncated, so a refused resume
    # leaves it as it is
    for field, want in _run_identity(cfg).items():
        got = state.get(field, "missing")
        if got != want:
            raise StoreError(f"checkpoint {ck_path} belongs to another run: "
                             f"{field} is {got!r}, this run has {want!r}")
    if not (isinstance(nbytes, int) and nbytes >= 0):
        raise StoreError(f"checkpoint {ck_path} is unreadable: nbytes {nbytes!r}")
    out.seek(0)
    head = out.read(nbytes)
    if len(head) < nbytes:
        raise StoreError(f"{cfg.out_path} has {len(head)} bytes, fewer than the "
                         f"{nbytes} its checkpoint {ck_path} names")
    digest = hashlib.sha256(head)
    if digest.hexdigest() != sha:
        raise StoreError(f"checkpoint digest mismatch for {cfg.out_path}")
    last_q = head[:-1].rsplit(b"\n", 1)[-1].partition(b",")[0]
    if not (head.endswith(b"\n") and last_q.isdigit()):
        raise StoreError(f"checkpoint {ck_path} is unreadable: its {nbytes} bytes "
                         f"do not end in a row")
    return int(last_q), nbytes, digest


def _write_checkpoint(cfg: RunConfig, nbytes: int, digest) -> None:
    ck_path = _checkpoint_path(cfg.out_path)
    tmp = ck_path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**_run_identity(cfg), "nbytes": nbytes,
                               "sha256": digest.hexdigest()}))
    tmp.replace(ck_path)


def _init_worker(out_fd: int) -> None:
    # a forked worker closes its copy of the locked output's descriptor, so the
    # lock dies with the run; and it exits once the run is gone, killed or not
    os.close(out_fd)
    parent = os.getppid()

    def exit_when_orphaned():
        while os.getppid() == parent:
            sleep(0.5)
        os._exit(1)

    threading.Thread(target=exit_when_orphaned, daemon=True).start()


def _records_for(pending: list[int], mode: str, threads: int, out_fd: int):
    # compute_record is read from this module at call time, so a wrapper put on
    # store.compute_record sees every serial call
    modes = itertools.repeat(mode)
    if threads == 1 or not pending:
        yield from map(compute_record, pending, modes)
        return
    # about four chunks per worker, so that a few heavy primes still spread out;
    # a forking pool starts all its workers at once, so no more than chunks
    chunksize = max(1, min(16, len(pending) // (4 * threads)))
    workers = min(threads, math.ceil(len(pending) / chunksize))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(out_fd,)) as pool:
        yield from pool.map(compute_record, pending, modes, chunksize=chunksize)


def run_range(cfg: RunConfig) -> int:
    """Write one CSV row per odd prime in [q_min, q_max]; resumable; returns rows.

    Another run on the same CSV is refused while this one holds it."""
    fresh = not os.path.exists(cfg.out_path)  # seen before the open creates it
    with open(cfg.out_path, "a+b") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)  # held until f closes
        except BlockingIOError:
            raise StoreError(f"{cfg.out_path} is held by another run") from None
        if fresh:  # a checkpoint without its CSV is stale
            _checkpoint_path(cfg.out_path).unlink(missing_ok=True)
        last_q, nbytes, digest = _load_checkpoint(cfg, f) or (0, 0, hashlib.sha256())
        f.truncate(nbytes)
        pending = primes_in(max(cfg.q_min - 1, 2, last_q), cfg.q_max).tolist()
        rows = 0

        def emit(line: str) -> None:
            nonlocal nbytes
            data = line.encode("ascii")
            f.write(data)
            digest.update(data)
            nbytes += len(data)

        if not nbytes:
            emit(CSV_HEADER + "\n")
        last_checkpoint = monotonic()
        try:
            for rec in _records_for(pending, cfg.precision, cfg.threads, f.fileno()):
                emit(format_record(rec) + "\n")
                rows += 1
                if monotonic() - last_checkpoint >= _CHECKPOINT_S:
                    f.flush()
                    os.fsync(f.fileno())  # the rows reach the disk before the checkpoint names them
                    _write_checkpoint(cfg, nbytes, digest.copy())
                    last_checkpoint = monotonic()
        except BrokenProcessPool:
            raise StoreError(f"{cfg.out_path}: a worker died before q = {pending[rows]} "
                             f"was written; rerun to resume") from None
        f.flush()  # every row is written before the checkpoint goes, under the lock
        _checkpoint_path(cfg.out_path).unlink(missing_ok=True)
    return rows


@dataclass(frozen=True)
class VerificationResult:
    max_deviation: float
    worst_q: int
    offenders: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.offenders


def verify_reference(mode: str = PRECISIONS[0]) -> VerificationResult:
    """Recompute kappa(q) for every tabulated q < 1000 against the reference."""
    check_precision(mode)  # before any record
    tol = VERIFY_TOL[mode]
    table = kappa_reference()
    worst = -1.0
    worst_q = 0
    offenders = []
    for q, ref in table.items():
        dev = abs(compute_record(q, mode=mode).kappa - ref)
        if not (dev <= worst or math.isnan(worst)):  # the first NaN is the maximum
            worst, worst_q = dev, q
        if not dev <= tol:  # a NaN deviation fails too
            offenders.append(q)
    return VerificationResult(max_deviation=worst, worst_q=worst_q,
                              offenders=tuple(offenders))
