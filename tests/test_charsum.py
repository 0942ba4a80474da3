import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import ekcyclo
import ekcyclo.dd as ddm
from ekcyclo.charsum import (_FREE_PLANS_LENGTH, EVEN, ComputationError, KernelId, _twiddles,
                             character_sums_dd, kernel_values, pack_parities, spectrum_checks,
                             transform_kernel)
from ekcyclo.dd import DD, DDC, dd_gamma_zeta_kernels
from ekcyclo.ek_core import _s0_dd_tolerance, parity_transforms
from ekcyclo.primes import primitive_root

from _oracles import bits_equal, character_table, dft_direct, direct_parity_sums

LNGAMMA_THIRD_DIFF = 0.6822703717802435005113112


def _both_sums(ctx):
    """(ParitySums, conversion to complex128) in binary64 and in double-double."""
    return ((parity_transforms(ctx).sums(), np.asarray),
            (character_sums_dd(ctx).sums(), DDC.to_complex))


def test_dft_trivial_sizes():
    assert np.allclose(transform_kernel([5.0]), [5.0])
    assert np.allclose(transform_kernel([1.0, 1.0]), [2.0, 0.0])


def test_dft_sign_convention():
    # X[1] of [0, 1, 0, 0] must be e^{+2 pi i / 4} = +i
    x = transform_kernel([0.0, 1.0, 0.0, 0.0])
    assert abs(x[1] - 1j) < 1e-15


@pytest.mark.parametrize("h", [1, 2, 97, 262144, 262147])
def test_transform_overwrites_its_rows(monkeypatch, h):
    """A complex128 (2, h) batch comes back as itself, holding the bytes of
    scipy's out-of-place transform: batched below the cutoff, a row at a
    time from it on (262147 is a prime, a Bluestein length).  Every length-h
    ifft writes its spectra into the array it is given, so no spectrum is
    copied back."""
    rng = np.random.default_rng(h)
    x = rng.standard_normal((2, h)) + 1j * rng.standard_normal((2, h))
    want = scipy.fft.ifft(x, norm="forward")
    real_ifft, in_place = scipy.fft.ifft, []

    def ifft(a, *args, **kwargs):
        out = real_ifft(a, *args, **kwargs)
        if a.shape[-1] == h:  # not one of the short transforms that push plans out
            in_place.append(np.shares_memory(out, a))
        return out

    monkeypatch.setattr(scipy.fft, "ifft", ifft)
    got = x.copy()
    assert np.shares_memory(transform_kernel(got), got) and got.tobytes() == want.tobytes()
    assert in_place == [True] * (1 if h < _FREE_PLANS_LENGTH else 2)
    if h >= _FREE_PLANS_LENGTH:  # one row alone, above the cutoff
        row = x[0].copy()
        assert np.shares_memory(transform_kernel(row), row) and row.tobytes() == want[0].tobytes()
        assert in_place == [True] * 3


def test_dft_matches_quadratic_oracle():
    rng = np.random.default_rng(2)
    for n in list(range(1, 65)) + [97, 120, 163]:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        err = np.max(np.abs(transform_kernel(x.copy()) - dft_direct(x)))
        assert err < 1e-12 * max(1.0, np.max(np.abs(x)) * n)


def test_dft_random_inputs_against_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 64))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(transform_kernel(x.copy()) - dft_direct(x))) < 1e-11


# A fresh process transforms (2, h) batches at 20 distinct prime lengths h
# from the cutoff up, then the first one again.  It reports the growth of
# its peak RSS after the first two lengths, and the first transform's own
# footprint: the growth of the peak across it (its plan and work space; the
# spectra overwrite the rows).
_PLAN_CHILD = textwrap.dedent("""
    import json
    import numpy as np, scipy.fft
    from ekcyclo.charsum import _FREE_PLANS_LENGTH, transform_kernel
    from ekcyclo.primes import primes_in

    z = np.random.default_rng(3).standard_normal((2, 4 * _FREE_PLANS_LENGTH))

    def batch(h):
        return z[:, :h] + 1j * z[:, -h:]

    def peak():  # VmHWM: ru_maxrss keeps the pre-exec peak of the forking test process
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))

    hs = [int(h) for h in primes_in(_FREE_PLANS_LENGTH - 1, 2 * _FREE_PLANS_LENGTH)[:20]]
    x = batch(hs[0])
    before = peak()
    cold = transform_kernel(x)
    footprint = peak() - before
    transform_kernel(batch(hs[1]))
    after_two = peak()
    for h in hs[2:]:
        transform_kernel(batch(h))
    after_all = peak()
    evicted = transform_kernel(batch(hs[0]))  # its plan was pushed out and is rebuilt
    warm = scipy.fft.ifft(batch(hs[0]), norm="forward")  # the plan just built
    print(json.dumps({"growth": after_all - after_two, "footprint": footprint, "h": hs[0],
                      "same": bool(np.array_equal(cold, evicted) and np.array_equal(cold, warm))}))
""")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_transform_plans_do_not_accumulate_at_large_lengths():
    """18 more distinct lengths above the cutoff raise the peak by less than
    one transform takes: stale plans do not pile up.  That transform, at a
    prime (Bluestein) h, takes less than 160 h bytes: its rows go one at a
    time, in place (a batch of two took about 224 h).  A length gives the
    same bits cold, with its plan rebuilt, and warm."""
    env = dict(os.environ)
    src = str(Path(ekcyclo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PLAN_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["growth"] < got["footprint"] < 160 * got["h"], got
    assert got["same"]


def test_character_sums_q3_linear():
    # the one odd character mod 3: B1 = 1/3 - 2/3
    for sums, to_complex in _both_sums(primitive_root(3)):
        assert abs(to_complex(sums.b1)[0] - (-1 / 3)) < 1e-15


def test_character_sums_q3_lngamma():
    for sums, to_complex in _both_sums(primitive_root(3)):
        assert abs(to_complex(sums.lg_odd)[0] - LNGAMMA_THIRD_DIFF) < 1e-14


@pytest.mark.parametrize("q", [5, 7, 11, 23])
def test_character_identification(q):
    """Each parity sum equals the direct sum over chi_j(a) f(a/q) at its j."""
    ctx = primitive_root(q)
    chi = character_table(ctx)
    direct = {}
    for kernel in KernelId:
        vals_by_a = np.empty(q - 1)
        vals_by_a[ctx.powers() - 1] = kernel_values(ctx, kernel)
        direct[kernel] = chi @ vals_by_a
    odd, even = np.arange(1, (q + 1) // 2, 2), np.arange(2, (q + 1) // 2, 2)
    for sums, to_complex in _both_sums(ctx):
        for got, kernel, j in ((sums.b1, KernelId.LINEAR, odd),
                               (sums.lg_odd, KernelId.LNGAMMA, odd),
                               (sums.lg_even, KernelId.LNGAMMA, even),
                               (sums.z2, KernelId.ZETA2, even)):
            assert np.max(np.abs(to_complex(got) - direct[kernel][j])) < 1e-9


@pytest.mark.parametrize("q", [7, 61, 499, 997])
def test_spectrum_invariants(q):
    ctx = primitive_root(q)
    tol = {"s0": 1e-12, "parseval": 1e-9, "s0 dd": _s0_dd_tolerance((q - 1) // 2)}
    for pt, dd_keys in ((parity_transforms(ctx), set()),
                        (character_sums_dd(ctx), {("s0 dd", "lngamma"), ("s0 dd", "zeta2")})):
        res = spectrum_checks(pt)
        assert set(res) == {("parseval", "lngamma+zeta2 (even)"),
                            ("parseval", "linear+lngamma (odd)"),
                            ("s0", "lngamma"), ("s0", "zeta2")} | dd_keys
        for (name, _), residual in res.items():
            assert residual < tol[name]


@pytest.mark.parametrize("q", [3, 5, 7, 13, 61, 101, 499, 997])
def test_parity_sums_match_direct_dft(q):
    """Both precisions' parity spectra equal the quadratic-time DFT's odd and
    non-principal even entries up to j = (q-1)/2; q mod 4 decides which parity
    holds the middle index.  The fold weights count every non-principal
    character once."""
    ctx = primitive_root(q)
    direct = direct_parity_sums(ctx)
    h = (q - 1) // 2
    for sums, to_complex in _both_sums(ctx):
        assert sums.w_odd.sum() == h and sums.w_odd.shape == direct["b1"].shape
        assert sums.w_even.sum() == h - 1 and sums.w_even.shape == direct["z2"].shape
        for field, want in direct.items():
            got = to_complex(getattr(sums, field))
            assert got.shape == want.shape
            err = np.max(np.abs(got - want), initial=0.0)  # q = 3 has no even j
            assert err < 1e-9 * max(1.0, np.max(np.abs(want), initial=0.0))


def test_twiddles_reduce_exactly():
    # every even n below 400 covers each n mod 8 and the quarter-turn boundaries
    for n in range(2, 400, 2):
        tw = _twiddles(n)
        assert tw.shape == (n // 2,)
        assert np.max(np.abs(tw - np.exp(2j * np.pi * np.arange(n // 2) / n))) < 1e-15


def test_dd_spectra_match_double():
    for q in (7, 97):
        ctx = primitive_root(q)
        ref = parity_transforms(ctx).sums()
        sums = character_sums_dd(ctx).sums()
        for field in ("b1", "lg_odd", "lg_even", "z2"):
            got = getattr(sums, field).to_complex()
            assert np.max(np.abs(got - getattr(ref, field))) < 1e-9


def test_dd_packing_and_unpacking_scale_exactly(monkeypatch):
    # the packing and unpacking scalings by 4, 0.5 and 0.125 are powers of
    # two: a dd record takes no two-product for them
    import ekcyclo.charsum as mod
    ctx = primitive_root(97)
    q, h = ctx.q, ctx.n // 2
    real_dft, seen = mod.dd_dft, []
    monkeypatch.setattr(mod, "dd_dft", lambda x, u: seen.append(x.copy()) or real_dft(x, u))
    pt = character_sums_dd(ctx)
    want = pt.sums()
    a = ctx.powers()[:h]
    rows = (*dd_gamma_zeta_kernels(a, q), DD(2 * a - q) / DD(float(q)))
    real, calls = ddm._two_prod, []
    monkeypatch.setattr(ddm, "_two_prod", lambda x, y: calls.append(1) or real(x, y))
    packed = pack_parities(ctx, *rows, DDC.zeros((2, h)))
    got = pt.sums()
    assert not calls
    assert bits_equal(packed[EVEN], seen[0][EVEN])
    for field in ("b1", "lg_odd", "lg_even", "z2"):
        assert bits_equal(getattr(got, field), getattr(want, field))


def test_kernel_failure_diagnostic(monkeypatch):
    ctx = primitive_root(7)
    import ekcyclo.charsum as mod
    monkeypatch.setattr(mod, "ln_gamma", lambda x: np.full_like(np.asarray(x), np.inf))
    with pytest.raises(ComputationError, match=r"k=0.*q=7"):
        parity_transforms(ctx)


@pytest.mark.parametrize("kernel, name", [(KernelId.LNGAMMA, "ln_gamma"),
                                          (KernelId.ZETA2, "hurwitz_z2_at_rationals")])
def test_kernel_failure_names_first_interior_k(monkeypatch, kernel, name):
    ctx = primitive_root(101)
    import ekcyclo.charsum as mod
    evaluate = getattr(mod, name)

    def broken(*args):
        vals = evaluate(*args)
        vals[[37, 60]] = np.nan, np.inf
        return vals

    monkeypatch.setattr(mod, name, broken)
    a = int(ctx.powers()[37])
    with pytest.raises(ComputationError, match=rf"k=37, a={a} \(q=101, kernel {kernel.value},"):
        parity_transforms(ctx)


