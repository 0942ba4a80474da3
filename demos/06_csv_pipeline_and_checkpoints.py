"""The batch pipeline: checkpointed CSV runs and re-analysis from disk.

A range run writes one row per odd prime, ordered by q, with a sidecar
checkpoint updated every ten seconds; interrupting and rerunning produces a
byte-identical file.  Analysis never recomputes anything, it just reads the
rows back.
"""
import hashlib
import tempfile
from pathlib import Path

from ekcyclo import RunConfig, delta_stats, histogram, read_records, run_range

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "ek_3_to_5000.csv"
    cfg = RunConfig(q_min=3, q_max=5000, out_path=str(out), threads=2, precision="double")
    rows = run_range(cfg)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"wrote {rows} rows, sha256 {digest[:16]}...")
    print("first row:", out.read_text().splitlines()[1])

    # a second run over the same range reproduces the exact bytes
    out2 = Path(tmp) / "again.csv"
    run_range(RunConfig(3, 5000, str(out2), threads=1))
    same = hashlib.sha256(out2.read_bytes()).hexdigest() == digest
    print(f"byte-identical across runs and thread counts: {same}")

    records = read_records(out)
    hist = histogram([r.kappa for r in records], bin_width=0.05, lo=-0.6, hi=0.6)
    frac, mean_abs = delta_stats(records, cap=0.08)
    print(f"kappa: mean {hist.mean:+.4f}, sigma {hist.sigma:.4f}; "
          f"|kappa - r| <= 0.08 for {100 * frac:.1f}% of rows")
