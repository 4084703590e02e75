"""End-to-end certification suite.

Each test covers one published claim and prints a single pass/fail line with
the measured numbers, so a transcript of this file doubles as the
certification report.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from timepovm import dilation as dila
from timepovm import uncertainty as unc
from timepovm.cli import main
from timepovm.model import (
    build_sharp_time_povm,
    centered_grid,
    gaussian_state,
    random_smooth_state,
    transported_minimal_state,
)
from timepovm.special import airy_ai, airy_zero, universal_constant
from timepovm.variational import (
    airy_operator_spectrum,
    minimal_state,
    minimize_combined,
    minimize_product,
    product_functional,
    verify_min_identity_chain,
)


def certify(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_airy_ground_eigenvalue(capsys):
    airy_operator_spectrum.cache_clear()
    t0 = time.perf_counter()
    rc = main(["airy-certify"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    # every record of the default grid, pinned to the last printed digit
    golden = (Path(__file__).parent / "golden" / "airy-certify-default.txt").read_text()
    assert out == golden
    level1 = next(ln for ln in out.split("\n") if ln.startswith("airy_level=1 "))
    lam1 = float(dict(f.split("=", 1) for f in level1.split())["eigenvalue"])
    err_printed = abs(lam1 - 2.338)
    err_zero = abs(lam1 - airy_zero(1))
    ok = rc == 0 and err_printed <= 1e-3 and err_zero <= 1e-6 and elapsed <= 10.0
    certify(
        1,
        "airy ground eigenvalue",
        ok,
        f"lam1={lam1:.9f} printed_err={err_printed:.2e} zero_err={err_zero:.2e} "
        f"exit={rc} runtime={elapsed:.1f}s",
    )


def test_criterion_02_universal_constant():
    d = universal_constant()
    err = abs(d - 1.376)
    certify(2, "universal constant", err <= 1e-3, f"d={d:.10f} err={err:.2e}")


def test_criterion_03_minimal_state(reference_minimal_state):
    st = reference_minimal_state
    kin, pos, prod = product_functional(st)
    virial = abs(2.0 * kin - pos)
    sampled = airy_ai(st.nodes - airy_zero(1))
    sampled /= np.sqrt(st.h) * np.linalg.norm(sampled)
    overlap = st.h * float(st.values @ sampled)
    ok = abs(prod - 1.8935) <= 5e-4 and virial <= 1e-5 and overlap >= 1.0 - 1e-6
    certify(
        3,
        "minimal state",
        ok,
        f"product={prod:.7f} virial={virial:.2e} overlap={overlap:.10f}",
    )


def test_criterion_04_descent_reproduces_infimum():
    spectral = minimize_product(1e-3, 20.0, method="spectral")
    descent = minimize_product(1e-3, 20.0, method="descent")
    gap = abs(descent.value - spectral.value)
    err = abs(descent.value - 1.8935)
    ok = descent.converged and gap <= 2e-4 and err <= 2e-4
    certify(
        4,
        "independent optimization",
        ok,
        f"descent={descent.value:.7f} spectral_gap={gap:.2e} printed_err={err:.2e} "
        f"iterations={descent.iterations}",
    )


def test_criterion_05_combined_bound():
    res = minimize_combined(1e-3, 20.0, method="descent")
    st = res.minimizer
    ref = st.nodes * np.exp(-0.5 * st.nodes**2)
    ref /= np.sqrt(st.h) * np.linalg.norm(ref)
    overlap = st.h * float(st.values @ ref)
    weaker = universal_constant() ** 2 + 0.25
    ok = (
        abs(res.value - 2.25) <= 1e-2
        and overlap >= 0.999
        and abs(weaker - 2.1434) <= 3e-3
        and weaker < res.value
    )
    certify(
        5,
        "combined bound",
        ok,
        f"value={res.value:.7f} overlap={overlap:.6f} weaker={weaker:.6f}",
    )


def test_criterion_06_fullline_fuzz(fullline_model):
    t0 = time.perf_counter()
    worst = np.inf
    compliant = True
    for seed in range(100):
        state = random_smooth_state(fullline_model.grid, seed)
        report = unc.check_time_energy_bound(unc.occurrence_distribution(fullline_model, state), state)
        worst = min(worst, report.lhs)
        compliant = compliant and report.reliable
    state = gaussian_state(fullline_model.grid, 0.0, 1.0)
    gauss = unc.check_time_energy_bound(unc.occurrence_distribution(fullline_model, state), state)
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.5 - 1e-3 and compliant and abs(gauss.lhs - 0.5) <= 1e-4 and elapsed <= 30.0
    certify(
        6,
        "time-energy fuzz",
        ok,
        f"worst_lhs={worst:.6f} gaussian_err={abs(gauss.lhs - 0.5):.2e} "
        f"all_tail_compliant={compliant} runtime={elapsed:.1f}s",
    )


def test_criterion_07_halfline_fuzz(halfline_model):
    worst = np.inf
    compliant = True
    for seed in range(100):
        state = random_smooth_state(halfline_model.grid, seed)
        report = unc.check_positive_energy_bound(unc.occurrence_distribution(halfline_model, state), state)
        worst = min(worst, report.lhs)
        compliant = compliant and report.reliable
    state = transported_minimal_state(halfline_model.grid)
    minimal = unc.check_positive_energy_bound(unc.occurrence_distribution(halfline_model, state), state)
    err = abs(minimal.lhs - 1.376)
    ok = worst >= 1.376 - 2e-3 and compliant and err <= 2e-3
    certify(
        7,
        "positive-energy fuzz",
        ok,
        f"worst_lhs={worst:.6f} minimal_lhs={minimal.lhs:.6f} minimal_err={err:.2e} "
        f"all_tail_compliant={compliant}",
    )


def test_criterion_08_dilation_correctness(
    sharp64_dilation, halfline64_dilation, vector64_dilation
):
    worst = {"compression": 0.0, "imprimitivity": 0.0, "restriction": 0.0, "occurrence": 0.0}
    for d in (sharp64_dilation, halfline64_dilation, vector64_dilation):
        worst["compression"] = max(worst["compression"], dila.check_compression(d))
        worst["imprimitivity"] = max(worst["imprimitivity"], dila.check_imprimitivity(d))
        worst["restriction"] = max(worst["restriction"], dila.check_restriction(d))
        states = [random_smooth_state(d.povm.grid, seed) for seed in range(5)]
        worst["occurrence"] = max(worst["occurrence"], dila.check_occurrence_consistency(d, states))
    ok = (
        worst["compression"] <= 1e-10
        and worst["imprimitivity"] <= 1e-10
        and worst["restriction"] <= 1e-10
        and worst["occurrence"] <= 1e-9
    )
    certify(
        8,
        "dilation correctness",
        ok,
        " ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_09_inf_identity():
    rng = np.random.default_rng(0)
    a = 10.0 ** rng.uniform(-2.0, 2.0, 10**4)
    b = 10.0 ** rng.uniform(-2.0, 2.0, 10**4)
    chain = verify_min_identity_chain(a, b)
    ok = (
        chain.passed
        and chain.pairs == 10**4
        and chain.worst_floor_violation <= 1e-12
        and chain.worst_argmin_offset <= chain.grid_resolution
    )
    certify(
        9,
        "inf identity",
        ok,
        f"pairs={chain.pairs} floor_violation={chain.worst_floor_violation:.2e} "
        f"argmin_offset={chain.worst_argmin_offset:.2e} resolution={chain.grid_resolution:.2e}",
    )


def test_criterion_10_ccr_residual_convergence():
    de = float(np.sqrt(2.0 * np.pi / 512))
    ratios = []
    for center, width in ((0.0, 1.0), (0.3, 0.8), (0.3, 1.3)):
        residuals = []
        for n in (512, 1024):
            povm = build_sharp_time_povm(centered_grid(n, de))
            state = gaussian_state(povm.grid, center, width)
            residuals.append(abs(unc.ccr_residual(povm, state)))
        ratios.append(residuals[0] / residuals[1])
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    certify(
        10,
        "ccr residual convergence",
        ok,
        "ratios=" + ",".join(f"{r:.4f}" for r in ratios),
    )


def test_criterion_11_eigenvalue_convergence_order():
    errors = {}
    for h in (2e-3, 1e-3):
        eigs = airy_operator_spectrum(h, 20.0, 3)
        errors[h] = [abs(ev - airy_zero(k)) for k, ev in enumerate(eigs, start=1)]
    ratios = [errors[2e-3][i] / errors[1e-3][i] for i in range(3)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    certify(
        11,
        "convergence order",
        ok,
        "ratios=" + ",".join(f"{r:.4f}" for r in ratios),
    )
