import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ekcyclo.store as store
from ekcyclo.cli import main as cli_main
from ekcyclo.ek_core import compute_record
from ekcyclo.store import (CSV_HEADER, RunConfig, StoreError, format_record,
                           parse_record, read_records, run_range, verify_reference)


def _checkpointed_q(out: Path) -> int:
    """The q of the last row of the bytes that the checkpoint of out vouches for."""
    nbytes = json.loads(Path(str(out) + ".checkpoint").read_text())["nbytes"]
    return int(out.read_bytes()[:nbytes].decode().splitlines()[-1].split(",")[0])


def test_format_round_trip():
    for q in (3, 11, 127):
        rec = compute_record(q)
        back = parse_record(format_record(rec), lineno=2)
        assert back == rec  # 17 significant digits round-trip binary64 exactly


def test_csv_kappa_column_matches_reference(tmp_path):
    from ekcyclo.reference import kappa_reference
    out = tmp_path / "table_range.csv"
    run_range(RunConfig(3, 997, str(out)))
    ref = kappa_reference()
    recs = read_records(out)
    assert len(recs) == 167
    assert max(abs(r.kappa - ref[r.q]) for r in recs) <= 1e-8


def test_run_range_writes_expected_rows(tmp_path):
    out = tmp_path / "small.csv"
    rows = run_range(RunConfig(3, 13, str(out)))
    assert rows == 5  # q = 3, 5, 7, 11, 13
    recs = read_records(out)
    assert [r.q for r in recs] == [3, 5, 7, 11, 13]
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert "\r" not in text


def test_output_independent_of_thread_count(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "_CHECKPOINT_S", 0.0)  # a checkpoint after every row
    digests = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}.csv"
        run_range(RunConfig(3, 2000, str(out), threads=threads))
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.parametrize("q_max, precision, sha256", [
    (1000, "dd", "73c311732e178cf81cecfaf3cba59aa1c7f1aa459cae8577a13e588b342a6502"),
    (20000, "double", "f7f20c97af40dbb45dc2c81893ffa64ac70f7ca28d63b30e2308bb760bdc8d47"),
], ids=["dd-1000", "double-20000"])
def test_reference_csv_bytes(tmp_path, q_max, precision, sha256):
    # the reference CSVs of compute --min 3 --max q_max; a change that moves
    # their bits on purpose says why and updates the digest here
    out = tmp_path / "ref.csv"
    run_range(RunConfig(3, q_max, str(out), precision=precision))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_checkpoint_resume_identical(tmp_path, monkeypatch):
    """A run broken at --threads 1 resumes, at 1 or 2 workers, to the bytes of
    an uninterrupted run."""
    monkeypatch.setattr(store, "_CHECKPOINT_S", 0.0)
    ref = tmp_path / "ref.csv"
    run_range(RunConfig(3, 700, str(ref)))
    real = store.compute_record
    for resume_threads in (1, 2):
        out = tmp_path / f"resumed{resume_threads}.csv"
        calls = {"n": 0}

        def flaky(q, mode="double"):
            calls["n"] += 1
            if calls["n"] > 55:
                raise KeyboardInterrupt
            return real(q, mode=mode)

        monkeypatch.setattr(store, "compute_record", flaky)
        with pytest.raises(KeyboardInterrupt):
            run_range(RunConfig(3, 700, str(out)))
        monkeypatch.setattr(store, "compute_record", real)
        ck = Path(str(out) + ".checkpoint")
        assert _checkpointed_q(out) == 263  # row 55
        run_range(RunConfig(3, 700, str(out), threads=resume_threads))
        assert out.read_bytes() == ref.read_bytes()
        assert not ck.exists()


def _checkpointed_rows(tmp_path, monkeypatch, q_max, clock=None):
    """The row counts after which a run over [3, q_max] writes a checkpoint."""
    out = tmp_path / "cadence.csv"
    at = []

    def counting(cfg, nbytes, digest):
        at.append(out.read_bytes()[:nbytes].count(b"\n") - 1)

    monkeypatch.setattr(store, "_write_checkpoint", counting)
    if clock is not None:
        monkeypatch.setattr(store, "monotonic", clock)
    run_range(RunConfig(3, q_max, str(out)))
    out.unlink()
    return at


@pytest.mark.parametrize("period, rows", [(0.0, list(range(1, 26))), (math.inf, [])],
                         ids=["zero", "inf"])
def test_checkpoint_period_is_read_at_call_time(tmp_path, monkeypatch, period, rows):
    # 25 odd primes up to 101: a checkpoint after every row, or after none
    monkeypatch.setattr(store, "_CHECKPOINT_S", period)
    assert _checkpointed_rows(tmp_path, monkeypatch, 101) == rows


def test_checkpoints_follow_elapsed_time(tmp_path, monkeypatch):
    """On a clock where the k-th row costs k seconds, a 10 s period puts a
    checkpoint after each row that ends 10 s or more after the last checkpoint."""
    real = store.compute_record
    now = {"t": 0.0, "k": 0}

    def costly(q, mode="double"):
        now["k"] += 1
        now["t"] += now["k"]
        return real(q, mode=mode)

    monkeypatch.setattr(store, "compute_record", costly)
    monkeypatch.setattr(store, "_CHECKPOINT_S", 10.0)
    # rows end at t = 1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, ...
    expected = [4, 6, 8, 10, 11, 12, 13, 14, 15]
    assert _checkpointed_rows(tmp_path, monkeypatch, 53, clock=lambda: now["t"]) == expected


def test_pool_chunks_spread_few_primes(tmp_path, monkeypatch):
    """Eight primes on two workers go out in at least two chunks; the desk
    run's chunks stay at 16 primes.  The pool starts no more workers than
    it has chunks."""
    chunksizes, workers = [], []

    class SerialPool:  # maps in this process and keeps each chunksize
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            chunksizes.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(store, "ProcessPoolExecutor", SerialPool)
    ref = tmp_path / "ref.csv"
    run_range(RunConfig(3, 23, str(ref)))
    out = tmp_path / "two.csv"
    assert run_range(RunConfig(3, 23, str(out), threads=2)) == 8
    assert out.read_bytes() == ref.read_bytes()
    (chunk,) = chunksizes
    assert math.ceil(8 / chunk) >= 2
    assert workers == [2]
    assert run_range(RunConfig(3, 7, str(tmp_path / "three.csv"), threads=8)) == 3
    assert workers[-1] == 3  # three chunks of one prime
    desk = store.primes_in(2, 10 ** 5).tolist()
    next(store._records_for(desk, "double", 4, -1))  # the pool is mapped on the first record
    assert chunksizes[-1] == 16 and workers[-1] == 4


def test_nothing_pending_at_two_workers(tmp_path, monkeypatch):
    """A range without an odd prime, and a resume whose checkpoint already
    names the last prime, finish at --threads 2 without starting a pool."""
    empty = tmp_path / "empty.csv"
    assert run_range(RunConfig(24, 28, str(empty), threads=2)) == 0
    assert empty.read_text() == CSV_HEADER + "\n"

    ref = tmp_path / "ref.csv"
    run_range(RunConfig(3, 23, str(ref)))
    monkeypatch.setattr(store, "_CHECKPOINT_S", 0.0)
    real = store._write_checkpoint
    calls = {"n": 0}

    def killed_after_last(*args):  # the run dies between its last checkpoint and the unlink
        real(*args)
        calls["n"] += 1
        if calls["n"] == 8:
            raise KeyboardInterrupt

    monkeypatch.setattr(store, "_write_checkpoint", killed_after_last)
    out = tmp_path / "out.csv"
    with pytest.raises(KeyboardInterrupt):
        run_range(RunConfig(3, 23, str(out)))
    monkeypatch.setattr(store, "_write_checkpoint", real)
    assert _checkpointed_q(out) == 23
    assert run_range(RunConfig(3, 23, str(out), threads=2)) == 0
    assert out.read_bytes() == ref.read_bytes()
    assert not Path(str(out) + ".checkpoint").exists()


def _child_env() -> dict:
    """The environment of a child Python that imports this ekcyclo."""
    env = dict(os.environ)
    src = str(Path(store.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_child_cmd(argv, patch="") -> list[str]:
    """The command that runs ekcyclo.cli.main(argv) in a child Python after
    the source patch."""
    code = f"import sys\nfrom ekcyclo.cli import main\n{patch}\nsys.exit(main({argv!r}))"
    return [sys.executable, "-c", code]


def _cli_child(argv, patch=""):
    """Run ekcyclo.cli.main(argv) in a child process after the Python source patch."""
    return subprocess.run(_cli_child_cmd(argv, patch), env=_child_env(),
                          capture_output=True, text=True, timeout=300)


# a child whose runs write a checkpoint after every row
EVERY_ROW = "import ekcyclo.store as store\nstore._CHECKPOINT_S = 0.0\n"


def _one_error_line(stderr: str) -> str:
    assert "Traceback" not in stderr
    (line,) = stderr.splitlines()
    assert line.startswith("error: ")
    return line


def test_python_dash_m_package_runs_the_cli(tmp_path):
    # python -m ekcyclo is the ekcyclo command: same rows as run_range
    ref, out = tmp_path / "ref.csv", tmp_path / "run.csv"
    run_range(RunConfig(3, 200, str(ref)))
    done = subprocess.run([sys.executable, "-m", "ekcyclo", "compute", "--min", "3",
                           "--max", "200", "--out", str(out)],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == ref.read_bytes()


def _wait_for(path: Path, child: subprocess.Popen, what: str) -> None:
    deadline = time.monotonic() + 120
    while not path.exists():
        assert child.poll() is None, f"the run ended before {what}"
        assert time.monotonic() < deadline, f"no {what} within 120 s"
        time.sleep(0.005)


def _running_in_session(sid: int) -> list[int]:
    """The pids of the processes of session sid that have not exited; a
    zombie has."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process is gone
            continue
        state, session = fields[0], int(fields[3])
        if session == sid and state not in "ZX":
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.parametrize("sig, threads", [(signal.SIGINT, 1), (signal.SIGKILL, 1),
                                          (signal.SIGKILL, 2)],
                         ids=["sigint", "sigkill", "sigkill-2-workers"])
def test_interrupted_cli_run_resumes_to_same_bytes(tmp_path, sig, threads):
    """A compute process stopped by a signal after a checkpoint resumes to the
    bytes of an uninterrupted run.  The lock on the CSV dies with a killed
    run, also while the pool workers it forked live on, and the workers
    exit soon after."""
    ref = tmp_path / "ref.csv"
    run_range(RunConfig(3, 6000, str(ref)))
    out = tmp_path / "run.csv"
    ck = tmp_path / "run.csv.checkpoint"
    cmd = _cli_child_cmd(["compute", "--min", "3", "--max", "6000", "--out", str(out),
                          "--threads", str(threads)], EVERY_ROW)
    env = _child_env()
    # a session of its own, so that the workers it leaves behind can be stopped
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        _wait_for(ck, child, "its first checkpoint")
        child.send_signal(sig)
        assert child.wait(timeout=60) != 0
        assert ck.exists()  # the run was cut short, so the rerun resumes
        assert out.read_bytes() != ref.read_bytes()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        deadline = time.monotonic() + 5
        while _running_in_session(child.pid):
            assert time.monotonic() < deadline, "a worker outlived its run by 5 s"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    assert out.read_bytes() == ref.read_bytes()
    assert not ck.exists()


def test_second_run_on_held_output_exits_2(tmp_path, capsys):
    """While a compute run holds its CSV, a second run on it exits 2, names the
    path and changes no byte of the CSV or its checkpoint; the first run then
    ends with the bytes of an undisturbed run."""
    ref = tmp_path / "ref.csv"
    run_range(RunConfig(3, 1000, str(ref)))
    out, ck = tmp_path / "run.csv", tmp_path / "run.csv.checkpoint"
    waiting, go = tmp_path / "waiting", tmp_path / "go"
    patch = EVERY_ROW + f"""
import os, time
real = store.compute_record
def held(q, mode="double"):
    if q == 211:  # row 46, after the checkpoint at row 45
        open({str(waiting)!r}, "w").close()
        while not os.path.exists({str(go)!r}):
            time.sleep(0.005)
    return real(q, mode=mode)
store.compute_record = held
"""
    argv = ["compute", "--min", "3", "--max", "1000", "--out", str(out)]
    first = subprocess.Popen(_cli_child_cmd(argv, patch), env=_child_env(),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _wait_for(waiting, first, "q = 211")
        before, ck_before = out.read_bytes(), ck.read_bytes()
        assert cli_main(argv) == 2
        assert f"error: {out} is held by another run" in capsys.readouterr().err
        assert out.read_bytes() == before and ck.read_bytes() == ck_before
        go.touch()
        assert first.wait(timeout=120) == 0, first.stderr.read()
    finally:
        if first.poll() is None:
            first.kill()
            first.wait()
        first.stderr.close()
    assert out.read_bytes() == ref.read_bytes()
    assert not ck.exists()


def test_checkpoint_digest_mismatch_detected(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "_CHECKPOINT_S", 0.0)
    out = tmp_path / "corrupt.csv"
    calls = {"n": 0}
    real = store.compute_record

    def flaky(q, mode="double"):
        calls["n"] += 1
        if calls["n"] > 25:
            raise KeyboardInterrupt
        return real(q, mode=mode)

    monkeypatch.setattr(store, "compute_record", flaky)
    with pytest.raises(KeyboardInterrupt):
        run_range(RunConfig(3, 700, str(out)))
    monkeypatch.setattr(store, "compute_record", real)
    data = bytearray(out.read_bytes())
    data[len(CSV_HEADER) + 3] ^= 0x01
    out.write_bytes(bytes(data))
    with pytest.raises(StoreError, match="digest"):
        run_range(RunConfig(3, 700, str(out)))


def _interrupted_run(tmp_path, monkeypatch):
    """A --max 200 double run broken after 15 rows, each checkpointed."""
    monkeypatch.setattr(store, "_CHECKPOINT_S", 0.0)
    out = tmp_path / "run.csv"
    real = store.compute_record
    calls = {"n": 0}

    def flaky(q, mode="double"):
        calls["n"] += 1
        if calls["n"] > 15:
            raise KeyboardInterrupt
        return real(q, mode=mode)

    monkeypatch.setattr(store, "compute_record", flaky)
    with pytest.raises(KeyboardInterrupt):
        cli_main(["compute", "--min", "3", "--max", "200", "--out", str(out)])
    monkeypatch.setattr(store, "compute_record", real)
    return out


@pytest.mark.parametrize("q_min, q_max, precision", [("3", "400", "dd"), ("3", "400", "double"),
                                                     ("5", "200", "double")])
def test_resume_refuses_other_run(tmp_path, monkeypatch, capsys, q_min, q_max, precision):
    out = _interrupted_run(tmp_path, monkeypatch)
    before = out.read_bytes()
    assert cli_main(["compute", "--min", q_min, "--max", q_max, "--precision", precision,
                     "--out", str(out)]) == 2
    assert "another run" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_resume_refuses_checkpoint_without_binding(tmp_path, monkeypatch):
    out = _interrupted_run(tmp_path, monkeypatch)
    ck = Path(str(out) + ".checkpoint")
    state = json.loads(ck.read_text())
    del state["code"]
    ck.write_text(json.dumps(state))
    before = out.read_bytes()
    with pytest.raises(StoreError, match="code is 'missing'"):
        run_range(RunConfig(3, 200, str(out)))
    assert out.read_bytes() == before


def test_resume_refuses_checkpoint_of_other_code(tmp_path, monkeypatch, capsys):
    # rows written by one version of the code are not continued by another
    out = _interrupted_run(tmp_path, monkeypatch)
    ck = Path(str(out) + ".checkpoint")
    assert json.loads(ck.read_text())["code"] == store._code_digest()
    before, ck_before = out.read_bytes(), ck.read_bytes()
    monkeypatch.setattr(store, "_code_digest", lambda: hashlib.sha256(b"other").hexdigest())
    assert cli_main(["compute", "--min", "3", "--max", "200", "--out", str(out)]) == 2
    assert f"checkpoint {ck} belongs to another run: code is " in capsys.readouterr().err
    assert out.read_bytes() == before and ck.read_bytes() == ck_before


def test_code_digest_covers_sources_and_libraries(tmp_path, monkeypatch):
    # the digest of a copy of the package is the package's own until one
    # source file or the numpy version differs
    import numpy
    real = store._code_digest()
    pkg = tmp_path / "ekcyclo"
    shutil.copytree(Path(store.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(store, "__file__", str(pkg / "store.py"))
    digests = []
    try:
        for change in (None, "source", "numpy"):
            if change == "source":
                (pkg / "dd.py").write_text((pkg / "dd.py").read_text() + "\n")
            elif change == "numpy":
                monkeypatch.setattr(numpy, "__version__", numpy.__version__ + ".post1")
            store._code_digest.cache_clear()
            digests.append(store._code_digest())
    finally:
        store._code_digest.cache_clear()
    assert digests[0] == real
    assert len(set(digests)) == 3


@pytest.mark.parametrize("damage", ["short", "foreign", "partial", "header"])
def test_refused_resume_leaves_csv_intact(tmp_path, monkeypatch, capsys, damage):
    """A CSV shorter than the checkpoint's byte count, or one with other
    content, or a checkpoint whose bytes end inside a row or hold no row, is
    refused before the CSV is truncated or padded."""
    out = _interrupted_run(tmp_path, monkeypatch)
    ck = Path(str(out) + ".checkpoint")
    state = json.loads(ck.read_text())
    if damage == "short":
        out.write_bytes(out.read_bytes()[:100])
        message = "fewer than"
    elif damage == "foreign":
        out.write_bytes(b"x" * (state["nbytes"] + 200))
        message = "digest mismatch"
    else:  # byte count and digest match a head that is not whole rows
        nbytes = state["nbytes"] - 1 if damage == "partial" else len(CSV_HEADER) + 1
        sha = hashlib.sha256(out.read_bytes()[:nbytes]).hexdigest()
        ck.write_text(json.dumps({**state, "nbytes": nbytes, "sha256": sha}))
        message = f"checkpoint {ck} is unreadable: its {nbytes} bytes do not end in a row"
    before = out.read_bytes()
    assert cli_main(["compute", "--min", "3", "--max", "200", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert out.read_bytes() == before


def test_checkpoint_without_csv_starts_fresh(tmp_path, monkeypatch):
    # a checkpoint whose CSV is gone is stale, even an unreadable one: it is
    # deleted, and the run writes the whole range as a run that never had one
    fresh = tmp_path / "fresh.csv"
    run_range(RunConfig(3, 200, str(fresh)))
    out = _interrupted_run(tmp_path, monkeypatch)
    ck = Path(str(out) + ".checkpoint")
    cfg = RunConfig(3, 200, str(out))
    for stale in (ck.read_text(), json.dumps({"nbytes": 31})):
        ck.write_text(stale)
        out.unlink()
        assert run_range(cfg) == 45  # the odd primes up to 200
        assert not ck.exists()
        assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("field, value", [("nbytes", -1), ("nbytes", None)])
def test_ill_typed_checkpoint_fields_refused(tmp_path, monkeypatch, capsys, field, value):
    # the run identity matches, so only the type and sign checks of nbytes
    # stand between these values and the CSV
    out = _interrupted_run(tmp_path, monkeypatch)
    ck = Path(str(out) + ".checkpoint")
    ck.write_text(json.dumps({**json.loads(ck.read_text()), field: value}))
    before = out.read_bytes()
    assert cli_main(["compute", "--min", "3", "--max", "200", "--out", str(out)]) == 2
    assert f"checkpoint {ck} is unreadable: nbytes {value!r}" in capsys.readouterr().err
    assert out.read_bytes() == before


@pytest.mark.parametrize("text", ["{not json", '["a list"]',
                                  "drop nbytes", "drop sha256"])
def test_corrupt_checkpoint_refused(tmp_path, monkeypatch, capsys, text):
    out = _interrupted_run(tmp_path, monkeypatch)
    ck = Path(str(out) + ".checkpoint")
    if text.startswith("drop "):
        state = json.loads(ck.read_text())
        del state[text[len("drop "):]]
        text = json.dumps(state)
    ck.write_text(text)
    before = out.read_bytes()
    assert cli_main(["compute", "--min", "3", "--max", "200", "--out", str(out)]) == 2
    assert f"checkpoint {ck} is unreadable" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_failed_record_exits_2_and_keeps_checkpoint(tmp_path, monkeypatch, capsys):
    """A record whose spectrum check fails ends compute with exit 2 and a message
    naming q, kernel and stage; the run resumes from its last checkpoint."""
    import ekcyclo.ek_core as ek_core
    monkeypatch.setattr(store, "_CHECKPOINT_S", 0.0)
    ref = tmp_path / "ref.csv"
    run_range(RunConfig(3, 200, str(ref)))

    out = tmp_path / "run.csv"
    real = ek_core.transform_kernel

    def broken_at_101(packed):
        spec = real(packed)
        if packed.shape[-1] == 50:  # q = 101
            spec[1, 7] += 1.0
        return spec

    monkeypatch.setattr(ek_core, "transform_kernel", broken_at_101)
    args = ["compute", "--min", "3", "--max", "200", "--out", str(out)]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "q=101, kernel linear+lngamma (odd), stage double spectrum check" in err
    assert _checkpointed_q(out) == 97  # row 24; q = 101 is row 25
    monkeypatch.setattr(ek_core, "transform_kernel", real)
    assert cli_main(args) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_dead_worker_exits_2_and_keeps_checkpoint(tmp_path):
    """A pool worker that dies ends compute with exit 2 and one error line
    naming the CSV and the first q not written; the rows of the chunks that
    came back stay checkpointed, and a rerun resumes to the reference bytes."""
    ref = tmp_path / "ref.csv"
    run_range(RunConfig(3, 2000, str(ref)))
    out, ck = tmp_path / "run.csv", tmp_path / "run.csv.checkpoint"
    # q = 101 is in the second chunk of 16 primes; its worker dies once the
    # run has checkpointed a row of the first
    patch = EVERY_ROW + f"""
import os, time
real = store.compute_record
def dies_at_101(q, mode="double"):
    if q == 101:
        while not os.path.exists({str(ck)!r}):
            time.sleep(0.005)
        os._exit(9)
    return real(q, mode=mode)
store.compute_record = dies_at_101
"""
    argv = ["compute", "--min", "3", "--max", "2000", "--out", str(out), "--threads", "2"]
    done = _cli_child(argv, patch)
    assert done.returncode == 2
    line = _one_error_line(done.stderr)
    assert line == f"error: {out}: a worker died before q = 61 was written; rerun to resume"
    assert _checkpointed_q(out) == 59  # row 16, the last of the first chunk
    done = _cli_child(argv)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == ref.read_bytes()
    assert not ck.exists()


def test_dd_transform_rounding_failure_exits_2(tmp_path, monkeypatch, capsys):
    """Slices too wide for exact FFT convolutions at m = 1024 (q = 521, the
    first q of the range that pads to 1024) trip the dd transform's residual
    check; compute exits 2 naming q, the packed rows and the stage."""
    import ekcyclo.dd as dd
    real = dd.slice_plan
    monkeypatch.setattr(dd, "slice_plan", lambda m: (26, 5) if m == 1024 else real(m))
    monkeypatch.setattr(store, "_CHECKPOINT_S", 0.0)
    out = tmp_path / "run.csv"
    assert cli_main(["compute", "--min", "500", "--max", "530", "--precision", "dd",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FFT convolution off an integer by ") and "Traceback" not in err
    assert ("(q=521, kernel lngamma+zeta2 (even) and linear+lngamma (odd), "
            "stage dd transform)") in err
    assert _checkpointed_q(out) == 509


def test_read_records_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\n3,0.1,0.2\n")
    with pytest.raises(StoreError, match=re.escape(f"{bad}: line 2")):
        read_records(bad)
    bad.write_text("not,a,header\n")
    with pytest.raises(StoreError, match=re.escape(f"{bad}: line 1")):
        read_records(bad)
    bad.write_text(CSV_HEADER + "\n3,0.1,0.2,-0.1,0.3,0.4,0,1,2,0\n")
    with pytest.raises(StoreError, match=re.escape(f"{bad}: line 2: flag fields must be 0/1")):
        read_records(bad)
    bad.write_bytes(CSV_HEADER.encode() + b"\n3,0.1\xff\n")
    with pytest.raises(StoreError, match=re.escape(f"{bad}: line 2: non-ASCII byte 0xff")):
        read_records(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    with pytest.raises(StoreError, match=re.escape(f"{empty}: no data")):
        read_records(empty)


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(2, 10, str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        RunConfig(11, 5, str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        RunConfig(3, 5, str(tmp_path / "x.csv"), threads=0)
    with pytest.raises(ValueError, match="precision must be 'double' or 'dd'"):
        RunConfig(3, 5, str(tmp_path / "x.csv"), precision="quad")


def test_verify_reference_pass_and_fail(monkeypatch):
    res = verify_reference()
    assert res.ok and store.VERIFY_TOL["double"] == 1e-8 and res.max_deviation < 1e-8

    import ekcyclo.reference as ref_mod
    table = dict(ref_mod.kappa_reference())
    table[3] += 1.0
    monkeypatch.setattr(store, "kappa_reference", lambda: table)
    res = verify_reference()
    assert not res.ok and 3 in res.offenders and res.worst_q == 3


# -- CLI surface ---------------------------------------------------------


def test_cli_compute_and_analyze(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli_main(["compute", "--min", "3", "--max", "997", "--out", str(out)]) == 0
    prefix = str(tmp_path / "an_")
    assert cli_main(["analyze", "--in", str(out), "--bins", "0.1",
                     "--range=-0.6:0.6", "--spike", "2:+1",
                     "--out-prefix", prefix]) == 0
    hist = Path(prefix + "histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_center,count,normal_overlay"
    assert len(hist) - 1 == 12 + 2  # (hi-lo)/width bins plus under/overflow rows
    counts = sum(int(line.split(",")[1]) for line in hist[1:])
    assert counts == 167
    spikes = Path(prefix + "spikes.csv").read_text().splitlines()
    assert spikes[1].split(",")[3] == "36"
    assert Path(prefix + "delta.csv").exists()
    anomalies = Path(prefix + "anomalies.csv").read_text().splitlines()
    assert anomalies == ["q,kappa,kind"]


def test_cli_compute_rejects_bad_range(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli_main(["compute", "--min", "10", "--max", "5", "--out", str(out)]) == 2


def test_run_range_dd_mode(tmp_path):
    from ekcyclo.reference import kappa_reference
    out = tmp_path / "dd.csv"
    run_range(RunConfig(3, 100, str(out), precision="dd"))
    ref = kappa_reference()
    recs = read_records(out)
    assert max(abs(r.kappa - ref[r.q]) for r in recs) <= 1e-14


def test_cli_rejects_bad_spike(tmp_path):
    out = tmp_path / "r.csv"
    run_range(RunConfig(3, 20, str(out)))
    assert cli_main(["analyze", "--in", str(out), "--spike", "2:x",
                     "--out-prefix", str(tmp_path / "p_")]) == 2


def test_cli_compute_unwritable_path(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert cli_main(["compute", "--min", "3", "--max", "7", "--out", str(target)]) == 2


def test_cli_analyze_unwritable_prefix(tmp_path, capsys):
    out = tmp_path / "r.csv"
    run_range(RunConfig(3, 20, str(out)))
    prefix = str(tmp_path / "missing_dir" / "x_")
    assert cli_main(["analyze", "--in", str(out), "--out-prefix", prefix]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "missing_dir" in captured.err
    assert not (tmp_path / "missing_dir").exists()


def test_cli_analyze_missing_and_empty(tmp_path):
    assert cli_main(["analyze", "--in", str(tmp_path / "none.csv")]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    assert cli_main(["analyze", "--in", str(empty)]) == 2


@pytest.mark.parametrize("damage", ["non-ascii", "directory"])
def test_cli_analyze_unreadable_input_exits_2(tmp_path, damage):
    """An input that is a directory, or has a byte that is not ASCII, ends
    analyze with one error line naming the path and no output file."""
    target = tmp_path / "in.csv"
    if damage == "directory":
        target.mkdir()
    else:
        run_range(RunConfig(3, 20, str(target)))
        data = bytearray(target.read_bytes())
        data[len(CSV_HEADER) + 1 + 7] = 0xFF  # line 2, in kappa
        target.write_bytes(bytes(data))
    done = _cli_child(["analyze", "--in", str(target), "--out-prefix", str(tmp_path / "p_")])
    assert done.returncode == 2
    line = _one_error_line(done.stderr)
    assert str(target) in line
    if damage == "non-ascii":
        assert line == f"error: {target}: line 2: non-ASCII byte 0xff"
    assert list(tmp_path.glob("p_*")) == []


def test_cli_analyze_one_row_writes_nan_overlay(tmp_path):
    # one kappa has no spread: the normal overlay is nan in every cell
    one = tmp_path / "one.csv"
    run_range(RunConfig(3, 3, str(one)))
    prefix = str(tmp_path / "p_")
    assert cli_main(["analyze", "--in", str(one), "--bins", "0.1", "--out-prefix", prefix]) == 0
    rows = Path(prefix + "histogram.csv").read_text().splitlines()[1:]
    assert len(rows) == 12 + 2
    assert {row.split(",")[2] for row in rows} == {"nan"}
    assert sum(int(row.split(",")[1]) for row in rows) == 1


def test_cli_analyze_rejects_nan_kappa(tmp_path, capsys):
    out = tmp_path / "nan.csv"
    run_range(RunConfig(3, 20, str(out)))
    lines = out.read_text().splitlines()
    fields = lines[2].split(",")
    fields[1] = "nan"
    lines[2] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n")
    assert cli_main(["analyze", "--in", str(out), "--out-prefix", str(tmp_path / "p_")]) == 2
    assert "value 1 is NaN" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ((3, 5, 7, 7, 11), "line 5: q 7 is not above the previous row's q 7"),
    ((3, 5, 7, 5, 3), "line 5: q 5 is not above the previous row's q 7"),
], ids=["repeat", "descent"])
def test_cli_analyze_refuses_disordered_rows(tmp_path, capsys, rows, message):
    # rows out of order or repeated are a mixed CSV: analyze exits 2 before
    # it writes any output file
    src = tmp_path / "r.csv"
    run_range(RunConfig(3, 11, str(src)))
    by_q = {line.split(",")[0]: line for line in src.read_text().splitlines()[1:]}
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(line + "\n" for line in [CSV_HEADER, *(by_q[str(q)] for q in rows)]))
    assert cli_main(["analyze", "--in", str(bad), "--out-prefix", str(tmp_path / "p_")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert list(tmp_path.glob("p_*")) == []


def test_cli_analyze_names_bad_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\n3,0.1,oops\n")
    assert cli_main(["analyze", "--in", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_verify(monkeypatch, capsys):
    assert cli_main(["verify-table2"]) == 0
    out = capsys.readouterr().out
    assert "(tolerance 1e-08, double)" in out and "PASS" in out
    import ekcyclo.reference as ref_mod
    table = dict(ref_mod.kappa_reference())
    table[997] -= 1e-6
    monkeypatch.setattr(store, "kappa_reference", lambda: table)
    assert cli_main(["verify-table2"]) == 1
    assert "FAIL at q = 997" in capsys.readouterr().out


def test_cli_verify_tolerance_follows_precision(monkeypatch, capsys):
    # a golden value 1e-11 off passes the binary64 tolerance and fails dd's
    import ekcyclo.reference as ref_mod
    table = {q: v for q, v in ref_mod.kappa_reference().items() if q <= 13}
    table[11] += 1e-11
    monkeypatch.setattr(store, "kappa_reference", lambda: table)
    assert cli_main(["verify-table2"]) == 0
    assert "(tolerance 1e-08, double)" in capsys.readouterr().out
    assert cli_main(["verify-table2", "--precision", "dd"]) == 1
    out = capsys.readouterr().out
    assert "at q=11 (tolerance 1e-14, dd)" in out and "FAIL at q = 11\n" in out


def test_cli_verify_failed_record_exits_2():
    """A record that fails a check ends verify-table2 with exit 2 and one error
    line naming q, kernel and stage, before any result is printed."""
    patch = """
import ekcyclo.ek_core as ek_core
real = ek_core.transform_kernel
def broken_at_101(packed):
    spec = real(packed)
    if packed.shape[-1] == 50:  # q = 101
        spec[1, 7] += 1.0
    return spec
ek_core.transform_kernel = broken_at_101
"""
    done = _cli_child(["verify-table2"], patch)
    assert done.returncode == 2 and done.stdout == ""
    line = _one_error_line(done.stderr)
    assert "q=101, kernel linear+lngamma (odd), stage double spectrum check" in line


def test_verify_reference_nan_kappa_is_an_offender(monkeypatch, capsys):
    # a NaN deviation fails and is the maximum; a later NaN does not take its place
    real = store.compute_record

    def nan_at_7_and_13(q, mode="double"):
        rec = real(q, mode=mode)
        return dataclasses.replace(rec, kappa=math.nan) if q in (7, 13) else rec
    monkeypatch.setattr(store, "compute_record", nan_at_7_and_13)
    res = verify_reference()
    assert not res.ok and res.offenders == (7, 13)
    assert math.isnan(res.max_deviation) and res.worst_q == 7
    assert cli_main(["verify-table2"]) == 1
    out = capsys.readouterr().out
    assert "max |kappa - reference| = nan at q=7" in out and "FAIL at q = 7, 13" in out


def test_cli_constants(capsys):
    assert cli_main(["constants"]) == 0
    out = capsys.readouterr().out
    for token in ("227", "4.0021833", "12367", "6.0000215", "55", "1.6433058",
                  "C1           = 3.279577", "prod_p<= 1e+08"):
        assert token in out


@pytest.mark.parametrize("argv, message", [
    (["--delta-cap", "-1"], "cap must be positive, got -1"),
    (["--delta-cap", "nan"], "cap must be positive, got nan"),
    (["--bins", "1.2e-7"], "1e+07 cells, not 1 to 1000000"),
    (["--bins", "5"], "0.24 cells, not 1 to 1000000"),
    (["--spike", "3:+1"], "m must be a positive even integer"),
], ids=["delta-cap", "delta-cap-nan", "bins-fine", "bins-wide", "spike"])
def test_cli_analyze_usage_error_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "r.csv"
    run_range(RunConfig(3, 20, str(out)))
    args = ["analyze", "--in", str(out), "--out-prefix", str(tmp_path / "p_"), *argv]
    assert cli_main(args) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("p_*")) == []
