"""Euler-Kronecker constants, Kummer ratios and prime-sum statistics
for prime cyclotomic fields."""

__version__ = "0.1.0"

from .admissible import (AdmissibleSet, NamedConstant, c1_sum, c2_minimum, c2_sum,
                         constants_table, harmonic_threshold, is_admissible, omega,
                         singular_series_c1)
from .analysis import (EnvelopeAnomaly, HistogramSummary, SpikeReport, delta_stats,
                       envelope_check, histogram, pi_star, spike_report)
from .charsum import KernelId, character_sums_dd, kernel_values
from .ek_core import (ComputationError, EkRecord, KummerCheck, compute_record,
                      gamma_pair, kappa, kummer_check, kummer_r, log_deriv_ratios)
from .prime_sums import OrderSums, TruncatedSums, bias, s12, truncated_sums
from .primes import (NeighborFlags, PrimeContext, count_primes_in, is_prime,
                     mult_order, neighbor_flags, primes_in, primitive_root)
from .special_functions import CONSTANTS, Constants, compensated_sum, ln_gamma
from .store import (CSV_HEADER, RunConfig, StoreError, VerificationResult,
                    format_record, read_records, run_range, verify_reference)
