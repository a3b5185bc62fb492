"""Acceptance gates for the complete tomography pipeline.

Each criterion asserts its pinned tolerance and prints one
``[ACCEPTANCE] criterion N: PASS|FAIL`` line with the measured numbers
(written past pytest's capture so the lines always appear). The heavyweight
fixtures are module-scoped and sized for a single desktop core; the whole
module runs in a few minutes.
"""

import time

import numpy as np
import pytest
from scipy import stats

from oracles import (
    after_each_update,
    brute_loss,
    brute_prefix_gram,
    brute_right_grid,
    brute_suffix_gram,
    brute_update_denom,
    brute_update_numer,
    density_to_mpo,
    mpo_to_tt,
    random_tt_cores,
)
from ttomo.cli import ExperimentConfig
from ttomo.density import reconstruct
from ttomo.fitting import EnvCache, FitConfig, fit, init_tt, loss, sweep
from ttomo.metrics import score
from ttomo.networks import TTDistribution, matricized
from ttomo.povm import tetrahedral_povm
from ttomo.sampling import split_train_test
from ttomo.states import XxzParams, exact_outcome_distribution, synth_target

SITES = 4
NOISE = 0.6
BOND = 10
DRAWS = 10**6
TRIALS = 20
REPS = 3


@pytest.fixture()
def report(capsys):
    """One visible pass/fail line per criterion, then the actual gate."""

    def _line(num, passed, detail):
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"\n[ACCEPTANCE] criterion {num}: {status} ({detail})", flush=True)
        assert passed, f"criterion {num}: {detail}"

    return _line


@pytest.fixture(scope="module")
def povm():
    return tetrahedral_povm()


@pytest.fixture(scope="module")
def target(povm):
    rho = synth_target(XxzParams(L=SITES, p=NOISE))
    dist = exact_outcome_distribution(rho, povm)
    return rho, dist


@pytest.fixture(scope="module")
def datasets(target):
    _, dist = target
    return [split_train_test(dist, DRAWS, seed=1000 + r) for r in range(REPS)]


@pytest.fixture(scope="module")
def flagship(target, datasets):
    """Three repetitions of the headline experiment, all trials scored."""
    rho, dist = target
    start = time.perf_counter()
    reps = []
    for r, (train, test) in enumerate(datasets):
        config = FitConfig(bond_dim=BOND, max_sweeps=2000, trials=TRIALS, seed=7000 + 97 * r)
        result = fit(train, config)
        reports = [score(trial.tt, rho, dist, test) for trial in result.trials]
        rows = [
            (trial.final_loss, report["i_q"], report["i_c"])
            for trial, report in zip(result.trials, reports)
        ]
        best = min(range(len(rows)), key=lambda i: rows[i][0])
        reps.append({"rows": rows, "best": rows[best], "result": result})
    return {"reps": reps, "elapsed": time.perf_counter() - start}


def _best_of_short_fit(train, test, rho, dist, bond_dim, seed):
    config = FitConfig(bond_dim=bond_dim, max_sweeps=800, trials=5, seed=seed)
    report = score(fit(train, config).best.tt, rho, dist, test)
    return report["i_q"], report["i_c"]


@pytest.fixture(scope="module")
def bond_scan(target, datasets):
    """Best-of-5 metrics per bond dimension, repeated over the data seeds."""
    rho, dist = target
    table = {}
    for bond_dim in (2, 4, 6, 8, 10, 12):
        table[bond_dim] = [
            _best_of_short_fit(train, test, rho, dist, bond_dim, seed=8000 + 11 * bond_dim + r)
            for r, (train, test) in enumerate(datasets)
        ]
    return table


@pytest.fixture(scope="module")
def noise_scan(povm):
    """Best-of-5 metrics per depolarizing strength at the headline size."""
    table = {}
    for i, p in enumerate((0.2, 0.4, 0.6, 0.8)):
        rho = synth_target(XxzParams(L=SITES, p=p))
        dist = exact_outcome_distribution(rho, povm)
        rows = []
        for r in range(REPS):
            train, test = split_train_test(dist, DRAWS, seed=3000 + 10 * i + r)
            rows.append(
                _best_of_short_fit(train, test, rho, dist, BOND, seed=9000 + 13 * i + r)
            )
        table[p] = rows
    return table


def _trend_ok(means, stds, slack=2.0):
    """Largest tolerance violation of a non-increasing trend (<= 0 passes)."""
    worst = -np.inf
    for i in range(len(means) - 1):
        allowed = slack * max(stds[i], stds[i + 1], 1e-12)
        worst = max(worst, means[i + 1] - means[i] - allowed)
    return worst


def test_criterion_1_exact_pipeline_sentinel(target, povm, report):
    rho, dist = target
    start = time.perf_counter()
    mpo = density_to_mpo(rho)
    test = split_train_test(dist, DRAWS, seed=99)[1]
    scored = score(mpo_to_tt(mpo, povm), rho, dist, test)
    i_q, i_c = scored["i_q"], scored["i_c"]
    elapsed = time.perf_counter() - start
    passed = i_q <= 1e-8 and i_c <= 1e-8 and elapsed < 5.0
    report(1, passed, f"I_q={i_q:.2e}, I_c={i_c:.2e}, {elapsed:.2f}s")


def test_criterion_2_monotone_loss_per_update(report):
    cases = [
        (L, bond_dim, n)
        for L in (2, 3, 4)
        for bond_dim in (1, 2, 4)
        for n in (100, 10_000)
    ]
    rng = np.random.default_rng(202)
    worst = -np.inf
    for i in range(50):
        L, bond_dim, n = cases[i % len(cases)]
        dist = rng.uniform(0.05, 1.0, size=4**L)
        dist /= dist.sum()
        samples = split_train_test(dist, n, seed=500 + i)[0]
        tt = init_tt(L, bond_dim, seed=600 + i)
        cache = EnvCache(tt, samples)
        values = [loss(tt, samples)]
        with after_each_update(lambda k, _: values.append(loss(tt, samples))):
            for _ in range(3):
                sweep(tt, cache, samples, eps=1e-16)
        worst = max(worst, float(np.max(np.diff(values))))
    report(2, worst <= 1e-9, f"50 instances, worst per-update loss change {worst:.2e}")


def test_criterion_3_environments_match_brute_force(report):
    rng = np.random.default_rng(303)
    worst = 0.0

    def record(fast, slow):
        nonlocal worst
        scale = max(np.max(np.abs(slow)), 1e-30)
        worst = max(worst, float(np.max(np.abs(fast - slow)) / scale))

    for i in range(20):
        L = int(rng.integers(2, 5))
        bond_dim = int(rng.integers(1, 5))
        dist = rng.uniform(0.05, 1.0, size=4**L)
        dist /= dist.sum()
        samples = split_train_test(dist, 150, seed=700 + i)[0]
        tt = TTDistribution(random_tt_cores(L, bond_dim, rng))
        cache = EnvCache(tt, samples)
        record(loss(tt, samples), brute_loss(tt.cores, samples))
        k = int(rng.integers(0, L))
        for j in range(k):
            cache.refresh_left(j)
        gl = cache._left_gram[k][0]
        gr = cache._right_gram[k + 1][0]
        record(gl, brute_prefix_gram(tt.cores, k))
        record(gr, brute_suffix_gram(tt.cores, k + 1))
        denom = np.stack([gl @ tt.cores[k][s] @ gr.T for s in range(4)])
        record(denom, brute_update_denom(tt.cores, k))
        # the stores' own layouts: the right grid at k + 1 and core k's bond-major matrix
        grid = brute_right_grid(tt.cores, samples, k + 1)
        record(cache._right[k + 1][0].reshape(grid.shape), grid)
        record(cache._terms(k)[0][0], matricized(brute_update_numer(tt.cores, samples, k))[0])
    report(3, worst <= 1e-10, f"20 instances, worst relative deviation {worst:.2e}")


def test_criterion_4_reconstruction_hermitian_unit_trace(flagship, povm, report):
    rng = np.random.default_rng(404)
    chains = [
        TTDistribution(random_tt_cores(L, bond_dim, rng))
        for L in (2, 3, 4, 5)
        for bond_dim in (1, 3, 6)
    ]
    chains += [rep["result"].best.tt for rep in flagship["reps"]]
    worst_herm = 0.0
    worst_trace = 0.0
    for tt in chains:
        _, rho = reconstruct(tt, povm)
        worst_herm = max(
            worst_herm, np.linalg.norm(rho - rho.conj().T) / np.linalg.norm(rho)
        )
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
    passed = worst_herm <= 1e-10 and worst_trace <= 1e-10
    report(4, passed, f"{len(chains)} chains, herm {worst_herm:.2e}, trace dev {worst_trace:.2e}")


def test_criterion_5_headline_infidelity(flagship, report):
    best_ic = [rep["best"][2] for rep in flagship["reps"]]
    elapsed = flagship["elapsed"]
    passed = max(best_ic) <= 0.01 and elapsed <= 1800.0
    detail = (
        f"L={SITES}, p={NOISE}, D={BOND}, N={DRAWS:.0e}, {TRIALS} trials x {REPS} reps: "
        f"best I_c per rep {['%.2e' % v for v in best_ic]}, {elapsed:.0f}s"
    )
    report(5, passed, detail)


def test_criterion_6_classical_beats_quantum_infidelity(flagship, report):
    best = np.array([rep["best"] for rep in flagship["reps"]])
    mean_iq = best[:, 1].mean()
    mean_ic = best[:, 2].mean()
    passed = mean_ic <= mean_iq / 5.0
    report(6, passed, f"mean best-trial I_c {mean_ic:.2e} vs I_q/5 {mean_iq / 5.0:.2e}")


def test_criterion_7_bond_dimension_trend(bond_scan, report):
    dims = sorted(bond_scan)
    summaries = {}
    for axis, name in ((0, "I_q"), (1, "I_c")):
        values = np.array([[row[axis] for row in bond_scan[d]] for d in dims])
        means, stds = values.mean(axis=1), values.std(axis=1)
        violation = _trend_ok(means, stds)
        saturation = (means[-2] - means[-1]) / max(means[0] - means[-1], 1e-30)
        summaries[name] = (violation, saturation, means)
    passed = all(v <= 0.0 and s <= 0.35 for v, s, _ in summaries.values())
    detail = "; ".join(
        f"{name}: means {['%.1e' % m for m in means]}, trend slack {v:.1e}, last-step share {s:.2f}"
        for name, (v, s, means) in summaries.items()
    )
    report(7, passed, detail)


def test_criterion_8_loss_tracks_quantum_infidelity(flagship, report):
    rows = np.array(flagship["reps"][0]["rows"])
    rho_s, p_value = stats.spearmanr(rows[:, 0], rows[:, 1])
    passed = rho_s > 0.0 and p_value < 0.05
    report(8, passed, f"{len(rows)} trials, spearman {rho_s:.3f}, p {p_value:.1e}")


def test_criterion_9_noise_trend(noise_scan, report):
    levels = sorted(noise_scan)
    summaries = {}
    for axis, name in ((0, "I_q"), (1, "I_c")):
        values = np.array([[row[axis] for row in noise_scan[p]] for p in levels])
        means, stds = values.mean(axis=1), values.std(axis=1)
        violation = _trend_ok(means, stds)
        summaries[name] = (violation, means)
    passed = all(v <= 0.0 for v, _ in summaries.values())
    detail = "; ".join(
        f"{name}: means {['%.1e' % m for m in means]}, trend slack {v:.1e}"
        for name, (v, means) in summaries.items()
    )
    report(9, passed, detail)


def test_criterion_10_full_scale_supported_with_invariants(povm, report):
    # the full-size configuration must construct and validate
    config = ExperimentConfig(
        L=6, train=30_000_000, test=30_000_000, bond_dim=10, max_sweeps=4000, trials=100
    )
    assert config.max_sweeps == 4000 and config.trials == 100

    # a partial run at L=6 keeps the monotonicity, oracle, and Hermiticity gates
    rho = synth_target(XxzParams(L=6, p=NOISE))
    dist = exact_outcome_distribution(rho, povm)
    train, test = split_train_test(dist, 200_000, seed=42)
    tt = init_tt(6, 6, seed=0)
    cache = EnvCache(tt, train)
    values = [loss(tt, train)]
    with after_each_update(lambda k, _: values.append(loss(tt, train))):
        for _ in range(3):
            sweep(tt, cache, train, eps=1e-16)
    worst_step = float(np.max(np.diff(values)))
    brute = brute_loss(tt.cores, train)
    loss_dev = abs(values[-1] - brute) / max(abs(brute), 1e-30)
    for _ in range(60):
        sweep(tt, cache, train, eps=1e-16)
    _, rho_hat = reconstruct(tt, povm)
    herm = np.linalg.norm(rho_hat - rho_hat.conj().T) / np.linalg.norm(rho_hat)
    trace_dev = abs(np.trace(rho_hat).real - 1.0)
    passed = (
        worst_step <= 1e-9 and loss_dev <= 1e-10 and herm <= 1e-10 and trace_dev <= 1e-10
    )
    detail = (
        f"L=6 partial run: worst update step {worst_step:.2e}, loss vs dense {loss_dev:.2e}, "
        f"herm {herm:.2e}, trace dev {trace_dev:.2e}"
    )
    report(10, passed, detail)
