import dataclasses
import math
import pickle
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import ekcyclo.dd as ddm
from ekcyclo.analysis import envelope_check
from ekcyclo.charsum import (KernelId, PackedTransforms, character_sums_dd, kernel_values,
                             spectrum_checks)
from ekcyclo.dd import DD, DDC, dd_log
from ekcyclo.ek_core import (ComputationError, assemble_dd, compute_record, gamma_pair, kappa,
                             kummer_check, kummer_r, log_deriv_ratios, parity_transforms)
from ekcyclo.primes import primes_in, primitive_root
from ekcyclo.reference import kappa_reference
from ekcyclo.special_functions import CONSTANTS

from _oracles import (bits_equal, dft_direct, dirichlet_series_ratios, exact_h1,
                      own_root_dd_spectra, separate_assemble_dd)

REF = kappa_reference()


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 97, 499, 991, 997])
def test_kappa_against_reference(q):
    assert abs(compute_record(q).kappa - REF[q]) < 1e-8


@pytest.mark.parametrize("q", [3, 11, 199, 997])
def test_dd_mode_matches_reference_tightly(q):
    assert abs(compute_record(q, mode="dd").kappa - REF[q]) < 1e-15


@pytest.mark.parametrize("q", [3, 5, 7, 13, 61, 97, 499, 997, 8209])
def test_dd_record_matches_own_root_reference(q):
    # one root per record and both packed rows in one transform keep every
    # hi and lo word of the spectra and of the assembly
    ctx = primitive_root(q)
    pt = character_sums_dd(ctx)
    packed, spec = own_root_dd_spectra(ctx)
    assert bits_equal(pt.packed, packed) and bits_equal(pt.spec, spec)
    got = assemble_dd(pt.sums())
    want = assemble_dd(PackedTransforms(q=q, packed=packed, spec=spec).sums())
    assert got.keys() == want.keys()
    for name in got:
        assert bits_equal(got[name], want[name]), name


@pytest.mark.parametrize("q", [3, 5, 7, 13, 61, 97, 499])
def test_assemble_dd_matches_separate_folds(q):
    # one joined division and one (3, L) tree keep every bit of the form with
    # one division per parity and one tree per quantity
    sums = character_sums_dd(primitive_root(q)).sums()
    got, want = assemble_dd(sums), separate_assemble_dd(sums)
    assert got.keys() == want.keys()
    for name in got:
        assert bits_equal(got[name], want[name]), name


def test_dd_record_operation_count(monkeypatch):
    # a warm dd record at q = 101 took 188 DD products and 204 DD sums before
    # the integer seed root, the Euler-Maclaurin rows and the one-pass assembly,
    # and 117 and 131 with the Taylor kernels; a table-driven dd_exp and the
    # roots of unity from a quarter turn by symmetry take 93 and 109.  Since the
    # operators also take a double, only operations of two DDs are counted:
    # 81 and 99
    compute_record(101, mode="dd")
    counts = Counter()
    for name in ("__mul__", "__add__"):  # the __rmul__ and __radd__ aliases are not counted
        def counted(self, other, real=getattr(DD, name), name=name):
            counts[name] += isinstance(other, DD)
            return real(self, other)
        monkeypatch.setattr(DD, name, counted)
    compute_record(101, mode="dd")
    assert 0 < counts["__mul__"] <= 84 and 0 < counts["__add__"] <= 102, counts


@pytest.mark.parametrize("mode", ["double", "dd"])
def test_compute_record_takes_numpy_integers(mode):
    # np.int64 and np.int32 are the element types primes_in returns; the
    # record keeps every bit and holds q as a Python int
    want = compute_record(101, mode)
    for q in (np.int64(101), np.int32(101)):
        got = compute_record(q, mode)
        assert type(got.q) is int and got.q == 101 and got.flags == want.flags
        for name in ("kappa", "r", "gamma_plus", "gamma", "delta"):
            assert float.hex(getattr(got, name)) == float.hex(getattr(want, name)), name
    with pytest.raises(TypeError):
        compute_record(101.0, mode)


def test_kummer_check_takes_numpy_integers():
    for q in (np.int64(7), np.int32(7)):
        got = kummer_check(q)
        assert type(got.q) is int and got == kummer_check(7)


def test_record_assembly_identities():
    for q in (5, 43, 499):
        rec = compute_record(q)
        assert abs((rec.gamma_plus - rec.gamma) - rec.kappa * math.log(q)) < 1e-12
        assert rec.delta == rec.kappa - rec.r


def test_gamma_plus_degenerate_q3():
    rec = compute_record(3)
    assert rec.gamma_plus == CONSTANTS.euler_gamma
    assert abs(rec.gamma - (CONSTANTS.euler_gamma + 0.335224373301549 * math.log(3.0))) < 1e-12


def test_kummer_r_value_q3():
    # single odd character, B1 = -1/3; consistent with h1(3) = 1
    r = kummer_r(parity_transforms(primitive_root(3)).sums())
    assert abs(r - math.log(math.pi * 3.0 ** -1.5)) < 1e-14


def test_kummer_integrality_examples():
    assert kummer_check(3).nearest_int == 1
    assert kummer_check(5).nearest_int == 1
    assert kummer_check(19).nearest_int == 1
    assert kummer_check(23).nearest_int == 3
    for q in (3, 19, 23):
        assert kummer_check(q).gap < 1e-6


def test_kummer_known_class_numbers():
    # classical relative class numbers
    assert kummer_check(29).nearest_int == 8
    assert kummer_check(31).nearest_int == 9
    assert kummer_check(37).nearest_int == 37


SMALL_Q = primes_in(2, 100).tolist()  # the 24 odd primes below 100


def test_exact_class_numbers():
    # the resultant oracle gives integers, the known h1 (Washington, Tables,
    # section 3) and the integers that kummer_check reads off R(q) G(q)
    h1 = {q: exact_h1(q) for q in SMALL_Q}
    assert all(v.denominator == 1 and v > 0 for v in h1.values())
    assert (h1[3], h1[23], h1[37], h1[97]) == (1, 3, 37, 411322824001)
    assert all(kummer_check(q).nearest_int == h1[q] for q in SMALL_Q)


@pytest.mark.parametrize("q", SMALL_Q)
def test_dd_r_is_the_exact_r_rounded(q):
    # r = log h1 - log 2q - ((q-1)/4) log(q / 4 pi^2) at 50 digits, rounded to
    # the nearest double through Fraction (mpmath's float() truncates)
    h1 = exact_h1(q)
    with mp.workdps(50):
        r = mp.log(h1.numerator) - mp.log(2 * q) - (q - 1) * mp.log(q / (4 * mp.pi ** 2)) / 4
        want = float(Fraction(mp.nstr(r, 45)))
    assert compute_record(q, "dd").r == want


def test_kummer_check_refuses_large_q():
    with pytest.raises(ValueError):
        kummer_check(101)


def test_kummer_check_runs_spectrum_checks(monkeypatch):
    import ekcyclo.ek_core as ek_core
    monkeypatch.setattr(ek_core, "spectrum_checks", lambda pt: {("s0", "linear (odd)"): 1.0})
    with pytest.raises(ComputationError, match=r"q=23, kernel linear \(odd\), stage dd spectrum check"):
        kummer_check(23)


@pytest.mark.parametrize("q", [5, 13, 61, 293])
def test_realness_of_parity_sums(q):
    """The weighted folds of real parts over the parity sums equal the sums of
    the full-spectrum ratios over every odd (non-principal even) j, whose
    imaginary parts cancel in conjugate pairs."""
    ctx = primitive_root(q)
    kernels = (KernelId.LINEAR, KernelId.LNGAMMA, KernelId.ZETA2)
    b1, lg, z2 = dft_direct(np.stack([kernel_values(ctx, k) for k in kernels], axis=-1)).T
    odd = np.sum(lg[1::2] / b1[1::2])
    even = np.sum(z2[2::2] / (2.0 * lg[2::2]))
    for full in (odd, even):
        assert abs(full.imag) <= 1e-9 * max(1.0, abs(full.real))
    for sums, to_complex in ((parity_transforms(ctx).sums(), np.asarray),
                             (character_sums_dd(ctx).sums(), DDC.to_complex)):
        fold_odd = np.sum(sums.w_odd * to_complex(sums.lg_odd / sums.b1).real)
        fold_even = 0.5 * np.sum(sums.w_even * to_complex(sums.z2 / sums.lg_even).real)
        for fold, full in ((fold_odd, odd), (fold_even, even)):
            assert abs(fold - full.real) <= 1e-9 * max(1.0, abs(full.real))


def test_log_deriv_ratios_against_series_oracle():
    ratios = dirichlet_series_ratios(5, n_terms=10 ** 6)
    ctx = primitive_root(5)
    for pt in (parity_transforms(ctx), character_sums_dd(ctx)):
        closed = log_deriv_ratios(pt.sums())
        assert closed.shape == (4,) and np.isnan(closed[0])
        for j, want in ratios.items():
            assert abs(closed[j] - want) < 1e-7


def test_operations_match_compute_record():
    q = 61
    sums = parity_transforms(primitive_root(q)).sums()
    rec = compute_record(q)
    assert kappa(sums) == rec.kappa
    assert kummer_r(sums) == rec.r
    gp, g = gamma_pair(sums, kappa(sums))
    assert (gp, g) == (rec.gamma_plus, rec.gamma)


def test_envelope_monitor():
    recs = [compute_record(q) for q in list(REF)[:40]]
    assert [a for a in envelope_check(recs) if a.kind == "hard"] == []
    bad = dataclasses.replace(recs[-1], q=100, kappa=5.0)
    assert [(a.q, a.kind) for a in envelope_check([bad])] == [(100, "hard")]


def test_mode_agreement():
    for q in (7, 101, 499):
        a = compute_record(q, mode="double")
        b = compute_record(q, mode="dd")
        assert abs(a.kappa - b.kappa) < 1e-12
        assert abs(a.r - b.r) < 1e-12
        assert abs(a.gamma_plus - b.gamma_plus) < 1e-11


def test_compute_record_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_record(9)
    with pytest.raises(ValueError):
        compute_record(11, mode="quad")


def test_vanishing_spectrum_raises():
    # the parity sums refuse a zero divisor as they are built, B1 before L'(0)
    sums = parity_transforms(primitive_root(5)).sums()
    zero_b1, zero_lg = np.zeros_like(sums.b1), np.zeros_like(sums.lg_even)
    with pytest.raises(ComputationError,
                       match=r"^vanishing B1 sum \(q=5, kernel linear, stage assembly\)$"):
        dataclasses.replace(sums, b1=zero_b1, lg_even=zero_lg)
    with pytest.raises(ComputationError,
                       match=r"^vanishing L'\(0\) sum \(q=5, kernel lngamma, stage assembly\)$"):
        dataclasses.replace(sums, lg_even=zero_lg)


def _nonfinite_kernel(monkeypatch):
    import ekcyclo.charsum as charsum
    monkeypatch.setattr(charsum, "ln_gamma", lambda x: np.full_like(x, np.inf))


def _nonfinite_dd_kernel(monkeypatch):
    import ekcyclo.charsum as charsum
    real = charsum.dd_gamma_zeta_kernels

    def broken(b, q):
        lg, z2 = real(b, q)
        lg.hi[0] = np.inf
        return lg, z2
    monkeypatch.setattr(charsum, "dd_gamma_zeta_kernels", broken)


def _inexact_dd_transform(monkeypatch):
    real = ddm.slice_plan  # 26-bit slices at m = 1024 (q = 521) are not exact
    monkeypatch.setattr(ddm, "slice_plan", lambda m: (26, 5) if m == 1024 else real(m))


def _failed_invariant(monkeypatch):
    import ekcyclo.ek_core as ek_core
    monkeypatch.setattr(ek_core, "spectrum_checks", lambda pt: {("s0", "linear (odd)"): 1.0})


def _vanishing_sums(monkeypatch):
    import ekcyclo.ek_core as ek_core
    monkeypatch.setattr(ek_core, "transform_kernel", np.zeros_like)
    monkeypatch.setattr(ek_core, "spectrum_checks", lambda pt: {})


@pytest.mark.parametrize("q, mode, patch, message", [
    (7, "double", _nonfinite_kernel,
     r"^non-finite value at k=0, a=1 \(q=7, kernel lngamma, stage kernel evaluation\)$"),
    (101, "dd", _nonfinite_dd_kernel,
     r"^non-finite value at k=0, a=1 \(q=101, kernel lngamma, stage kernel evaluation\)$"),
    (521, "dd", _inexact_dd_transform,
     r"^FFT convolution off an integer by .* \(q=521, kernel lngamma\+zeta2 \(even\) and "
     r"linear\+lngamma \(odd\), stage dd transform\)$"),
    (23, "double", _failed_invariant,
     r"^spectrum invariant 's0' failed: residual 1\.000e\+00 > 1e-12 "
     r"\(q=23, kernel linear \(odd\), stage double spectrum check\)$"),
    (13, "double", _vanishing_sums, r"^vanishing B1 sum \(q=13, kernel linear, stage assembly\)$"),
], ids=["kernel", "dd-kernel", "dd-transform", "spectrum-check", "assembly"])
def test_every_record_failure_is_one_computation_error(monkeypatch, q, mode, patch, message):
    """Each stage of compute_record fails with a ComputationError and nothing
    else, worded as (q, kernel, stage), that a pool worker can pickle back."""
    patch(monkeypatch)
    with pytest.raises(ComputationError, match=message) as info:
        compute_record(q, mode)
    assert type(info.value) is ComputationError
    if patch is _inexact_dd_transform:
        assert isinstance(info.value.__cause__, ddm.RoundingError)
    copy = pickle.loads(pickle.dumps(info.value))
    assert type(copy) is ComputationError and str(copy) == str(info.value)


@pytest.mark.parametrize("field, message", [
    ("b1", r"vanishing B1 sum \(q=13, kernel linear, stage assembly\)"),
    ("lg_even", r"vanishing L'\(0\) sum \(q=13, kernel lngamma, stage assembly\)"),
], ids=["b1", "lg_even"])
def test_dd_vanishing_sum_raises_as_binary64(field, message):
    # one zero sum raises the binary64 error in dd too, not a NaN record
    ctx = primitive_root(13)
    sums = parity_transforms(ctx).sums()
    broken = getattr(sums, field).copy()
    broken[0] = 0
    with pytest.raises(ComputationError, match=message):
        dataclasses.replace(sums, **{field: broken})
    sums = character_sums_dd(ctx).sums()
    broken = getattr(sums, field).copy()
    broken[0] = DDC(DD(0.0), DD(0.0))
    with pytest.raises(ComputationError, match=message):
        dataclasses.replace(sums, **{field: broken})


def test_dd_principal_sum_gate(monkeypatch):
    """A dd Y_0 whose lo word is off by 1e-20 of sum |y| passes the binary64
    checks and fails the dd one, naming q, the kernel and the stage."""
    import ekcyclo.ek_core as mod
    real_dd = mod.character_sums_dd

    def shifted(ctx):
        pt = real_dd(ctx)
        even = pt.packed[0]
        pt.spec.real.lo[0, 0] += 1e-20 * np.sum(np.hypot(even.real.hi, even.imag.hi))
        return pt

    residuals = spectrum_checks(shifted(primitive_root(61)))
    binary64 = {key: v for key, v in residuals.items() if key[0] != "s0 dd"}
    assert binary64 and all(v <= mod._SPECTRUM_TOL[name] for (name, _), v in binary64.items())
    monkeypatch.setattr(mod, "character_sums_dd", shifted)
    with pytest.raises(ComputationError,
                       match=r"'s0 dd' failed.*\(q=61, kernel lngamma, stage dd spectrum check\)"):
        compute_record(61, mode="dd")


@pytest.mark.parametrize("mode, row, index, label", [
    ("double", 1, 3, r"kernel linear\+lngamma \(odd\), stage double spectrum check"),
    ("double", 0, 0, r"kernel lngamma\+zeta2 \(even\), stage double spectrum check"),
    ("dd", 1, 5, r"kernel linear\+lngamma \(odd\), stage dd spectrum check"),
])
def test_corrupted_packed_spectrum_raises(monkeypatch, mode, row, index, label):
    """A spectrum entry off by 1e-6 of the largest fails the packed row's Parseval check."""
    import ekcyclo.ek_core as mod

    def corrupt(spec):
        if isinstance(spec, DDC):
            spec.real.hi[row, index] += 1e-6 * np.max(np.abs(spec.real.hi))
        else:
            spec[row, index] += 1e-6 * np.max(np.abs(spec))
        return spec

    real_transform, real_dd = mod.transform_kernel, mod.character_sums_dd

    def corrupt_dd(ctx):
        pt = real_dd(ctx)
        return dataclasses.replace(pt, spec=corrupt(pt.spec))

    monkeypatch.setattr(mod, "transform_kernel", lambda packed: corrupt(real_transform(packed)))
    monkeypatch.setattr(mod, "character_sums_dd", corrupt_dd)
    with pytest.raises(ComputationError, match=r"'parseval' failed.*\(q=61, " + label):
        compute_record(61, mode=mode)


def test_principal_sum_check_names_kernel(monkeypatch):
    """An even principal sum that disagrees with its kernel row fails 's0' for that kernel."""
    import ekcyclo.ek_core as mod
    real = mod.transform_kernel

    def shifted(packed):
        spec = real(packed)
        # a 1e-10 shift of Y_0 leaves Parseval within 1e-9 but not the principal sum
        spec[0, 0] += 1e-10 * abs(spec[0, 0].imag) * 1j
        return spec

    monkeypatch.setattr(mod, "transform_kernel", shifted)
    with pytest.raises(ComputationError, match=r"'s0' failed.*q=61, kernel zeta2, stage double"):
        compute_record(61)
