"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from fundcomp.cli import main
from fundcomp.experiments import SynthConfig, run_trials
from fundcomp.signal_model import SampledSignal, TrigPolynomial, sample
from fundcomp.spectral import dft
from fundcomp.theory import (
    FrequencySet,
    cauchy_tail_integral,
    gcd_reduction_check,
    numeric_fundamental_integral,
    scaling_verification,
    sumset_gcd_limit,
    sumset_support,
)
from theory_oracles import sumset_support_bruteforce

TWO_EXP = TrigPolynomial(((1, 1 + 0j), (2, 1 + 0j)))


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_asymptotic_scaling():
    """rel_error monotone nonincreasing, <= 0.05 at eps=1e-6, slope <= 0.3."""
    start = time.monotonic()
    res = scaling_verification(TWO_EXP, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    elapsed = time.monotonic() - start
    rel = [r.rel_error for r in res.reports]
    ok = (all(a >= b for a, b in zip(rel, rel[1:]))
          and rel[-1] <= 0.05
          and res.error_slope <= 0.3
          and elapsed < 60.0)
    report("asymptotic-scaling", ok)


def test_cancellation_and_gcd_reduction():
    """Antipodal peaks keep bin 1 sub-leading; gcd G moves the response to bin G."""
    cos_poly = TrigPolynomial(((1, 1.0),), real_cosine_form=True)
    scaled = [abs(numeric_fundamental_integral(cos_poly, e)) * math.sqrt(e)
              for e in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    cancellation_ok = max(scaled) < 1e-6

    gcd3 = TrigPolynomial(((6, 0.8 + 0j), (9, 1.4 + 0j), (33, 0.9 + 0j)))
    b1, b3 = gcd_reduction_check(gcd3, 1e-4)
    gcd_ok = abs(b3) / max(abs(b1), 1e-300) >= 10.0
    report("cancellation-and-gcd-reduction", cancellation_ok and gcd_ok)


def test_closed_form_tail_integral():
    """Closed form vs quadrature over 100 random triples; exact pi at (1,1,0)."""
    exact_ok = abs(cauchy_tail_integral(1.0, 1.0, 0.0) - math.pi) <= 1e-12
    rng = np.random.default_rng(20260823)
    quad_ok = True
    for _ in range(100):
        A, B = 10.0 ** rng.uniform(-3, 3, size=2)
        C = float(rng.uniform(0.0, 10.0))
        oracle = 2.0 * quad(lambda t: 1.0 / (A + B * t * t), C, np.inf)[0]
        closed = cauchy_tail_integral(A, B, C)
        if not math.isclose(closed, oracle, rel_tol=1e-8):
            quad_ok = False
            break
    report("closed-form-tail-integral", exact_ok and quad_ok)


def test_synthetic_benchmark_reproduction():
    """10^4 trials: activation ordering and medians within +-60% of reference."""
    reference = {"abs": 0.0028, "relu": 0.0007, "heps_0.2": 0.0029,
                 "heps_0.1": 0.0031, "heps_0.05": 0.0033}
    start = time.monotonic()
    stats = run_trials(SynthConfig(trials=10_000, master_seed=20260823),
                       workers=4)
    elapsed = time.monotonic() - start
    medians = {label: s.median for label, s in stats.items()}
    ordering_ok = all(medians["relu"] < medians[k]
                      for k in medians if k != "relu")
    cluster = [medians[k] for k in ("abs", "heps_0.2", "heps_0.1", "heps_0.05")]
    cluster_ok = max(cluster) / min(cluster) <= 2.0
    tolerance_ok = all(
        abs(medians[k] - reference[k]) <= 0.6 * reference[k] for k in reference)
    for k in reference:
        status = "ok" if abs(medians[k] - reference[k]) <= 0.6 * reference[k] \
            else "OUT OF TOLERANCE"
        print(f"  {k}: median {medians[k]:.5f} vs reference {reference[k]}"
              f" ({medians[k] / reference[k]:.2f}x) {status}")
    print(f"  ordering_ok={ordering_ok} cluster_ok={cluster_ok}"
          f" elapsed={elapsed:.0f}s")
    report("synthetic-benchmark",
           ordering_ok and cluster_ok and tolerance_ok and elapsed < 300.0)


def test_fourier_plumbing():
    """Unit-cosine bin, Parseval on 100 random signals, FFT vs direct DFT."""
    unit = dft(sample(TrigPolynomial(((1, 1.0),), period=1.0,
                                     real_cosine_form=True), 512, 1.0))
    unit_ok = abs(unit.magnitudes()[1] - 1.0) <= 1e-12

    rng = np.random.default_rng(99)
    parseval_ok = True
    for _ in range(100):
        n = int(rng.integers(8, 1200))
        x = rng.normal(size=n)
        c = np.abs(dft(SampledSignal(x, float(n))).bins)
        total = c[0] ** 2 + 0.5 * np.sum(c[1:] ** 2)
        if n % 2 == 0:
            total -= 0.25 * c[-1] ** 2
        if not math.isclose(total, float(np.sum(x ** 2) / n), rel_tol=1e-10):
            parseval_ok = False
            break

    oracle_ok = True
    for n in (64, 500, 1024, 2048):
        x = rng.normal(size=n)
        got = dft(SampledSignal(x, float(n))).bins
        ks = np.arange(n // 2 + 1)
        raw = np.exp(-2j * np.pi * np.outer(ks, np.arange(n)) / n) @ x
        want = raw * 2.0 / n
        want[0] = raw[0] / n
        if np.max(np.abs(got - want)) > 1e-9:
            oracle_ok = False
            break
    report("fourier-plumbing", unit_ok and parseval_ok and oracle_ok)


def test_sumset_limit():
    """50 random gcd-g sets: lattice containment, stabilization, oracle match."""
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        g = int(rng.choice([1, 2, 3, 5]))
        # include g*{1,2} so the pairwise-difference lattice is exactly g*Z
        # and stabilization is reachable within the k budget
        extras = rng.choice(np.arange(3, 13), int(rng.integers(0, 3)),
                            replace=False)
        base = sorted({1, 2, *(int(v) for v in extras)})
        M = FrequencySet(tuple(g * b for b in base))
        euclid = 0
        for e in M.elements:
            euclid = math.gcd(euclid, e)
        limit = 10 * M.max_element
        for k in (1, 2, 7, 25):
            support = sumset_support(M, k, limit)
            if not all(v % g == 0 for v in support):
                ok = False
        got_g, stab = sumset_gcd_limit(M, 50, limit)
        if got_g != g or got_g != euclid or stab is None:
            ok = False
        if sumset_support(M, stab, limit) != set(range(0, limit + 1, g)):
            ok = False

    for elements in ((2, 3), (3, 4, 7), (2, 5, 6, 9)):
        M = FrequencySet(elements)
        limit = 3 * M.max_element
        for k in range(1, 7):
            if sumset_support(M, k, limit) != \
                    sumset_support_bruteforce(M, k, limit):
                ok = False
    report("sumset-limit", ok)


def test_benchmark_determinism(tmp_path):
    """cmd_synth_bench byte-identical across 1-thread and 4-thread runs."""
    args = ["synth-bench", "--trials", "60", "--seed", "13"]
    d1, d2 = tmp_path / "one", tmp_path / "four"
    rc1 = main(args + ["--workers", "1", "--out", str(d1)])
    rc2 = main(args + ["--workers", "4", "--out", str(d2)])
    ok = rc1 == 0 and rc2 == 0
    for f in sorted(p.name for p in d1.iterdir()):
        ok = ok and (d1 / f).read_bytes() == (d2 / f).read_bytes()
    report("benchmark-determinism", ok)
