"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity and its tolerance."""

import math
import time

import numpy as np
import pytest

from snsm import partition as part
from snsm import subsetnorm as sn
from snsm.analysis import estimate_noise, rate_exponents
from snsm.harness import sweep_beta, sweep_verdict, verify_thm2
from snsm.linalg import FrameKind, lift, make_frame, project
from snsm.noise_models import NoiseModel, Quadratic, stoch_grad
from snsm.optim import Optimizer, make_preset
from snsm.subspace import (
    GaloreMomentum,
    SubspaceMomentum,
    galore_direction,
    galore_init,
    galore_maybe_refresh,
    sm_direction,
    sm_init,
    sm_maybe_refresh,
)


def _report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. reduction equivalences on 1000-step random gradient streams

def _iterate_stream(preset, d, T, lr, seed, **kw):
    opt = Optimizer(make_preset(preset, lr=lr, **kw), [(d,)])
    rng = np.random.default_rng(seed)
    x = np.zeros(d)
    out = []
    for t in range(1, T + 1):
        (x,) = opt.step([x], [rng.standard_normal(d)], t)
        out.append(x.copy())
    return out


def _adagrad_reference(d, T, lr, seed, norm, b0=1e-6):
    """AdaGrad-Norm (one accumulator) or AdaGrad (one per coordinate),
    written out as plain NumPy loops."""
    rng = np.random.default_rng(seed)
    x = np.zeros(d)
    b2, v = b0 ** 2, np.full(d, b0 ** 2)
    out = []
    for _ in range(T):
        g = rng.standard_normal(d)
        if norm:
            b2 += np.sum(g * g)
            x = x - lr * g / np.sqrt(b2)
        else:
            v = v + g * g
            x = x - lr * g / np.sqrt(v)
        out.append(x.copy())
    return out


def test_criterion_1_reduction_equivalences():
    d, T, lr = 32, 1000, 0.01
    t0 = time.time()
    pairs = [
        ("SN(c=1) vs AdaGrad-Norm",
         _iterate_stream("AdaGradSN", d, T, lr, 7, subset_rule="norm"),
         _adagrad_reference(d, T, lr, 7, norm=True)),
        ("SN(c=d) vs AdaGrad-Coordinate",
         _iterate_stream("AdaGradSN", d, T, lr, 8, subset_rule="coord"),
         _adagrad_reference(d, T, lr, 8, norm=False)),
        ("SM(rank=m, Identity) vs SGDm",
         _iterate_stream("SGD-SM", d, T, lr, 9, rank=d, refresh_gap=0,
                         frame_kind=FrameKind.IDENTITY),
         _iterate_stream("SGDm", d, T, lr, 9)),
        ("SM(rank=0) vs SGD",
         _iterate_stream("SGD-SM", d, T, lr, 10, rank=0, refresh_gap=0,
                         frame_kind=FrameKind.ZERO),
         _iterate_stream("SGD", d, T, lr, 10)),
    ]
    worst = 0.0
    for label, a, b in pairs:
        diff = max(float(np.max(np.abs(xa - xb))) for xa, xb in zip(a, b))
        worst = max(worst, diff)
        assert diff <= 1e-14, f"{label}: max iterate diff {diff}"
    elapsed = time.time() - t0
    _report(1, worst <= 1e-14 and elapsed < 10,
            f"max iterate diff {worst:.2e} (tol 1e-14), {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# 2. projector invariants: 200 random frames per kind on 64x32 inputs

def test_criterion_2_projector_invariants():
    kinds = [FrameKind.SVD, FrameKind.APPROX_SVD, FrameKind.GAUSSIAN_ORTHO,
             FrameKind.SRHT, FrameKind.ROW_SUBSET, FrameKind.TOP_K_ROWS]
    m, n = 64, 32
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for kind in kinds:
        for i in range(200):
            k = int(rng.integers(1, 17))
            ref = rng.standard_normal((m, n))
            f = make_frame(kind, m, k, seed=i, reference_grad=ref)
            G = rng.standard_normal((m, n))
            nG = np.linalg.norm(G, "fro")
            PG = lift(f, project(f, G))
            R = G - PG
            rel = max(
                np.linalg.norm(lift(f, project(f, PG)) - PG, "fro") / nG,  # idempotent
                abs(np.sum(PG * R)) / nG ** 2,  # self-adjoint orthogonal split
                abs(nG ** 2 - np.linalg.norm(PG, "fro") ** 2
                    - np.linalg.norm(R, "fro") ** 2) / nG ** 2,  # Pythagoras
            )
            worst = max(worst, rel)
    elapsed = time.time() - t0
    _report(2, worst <= 1e-8 and elapsed < 30,
            f"1200 frames, worst relative deviation {worst:.2e} (tol 1e-8), "
            f"{elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# 3. momentum expansion against the explicit geometric sum

def test_criterion_3_momentum_expansion():
    beta, m, n, T = 0.9, 16, 6, 20
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=5, beta1=beta),
                 m, n, seed=1)
    rng = np.random.default_rng(13)
    stream = [rng.standard_normal((m, n)) for _ in range(T)]
    worst = 0.0
    for t in range(1, T + 1):
        sm_direction(st, stream[t - 1])
        expected = np.zeros((m, n))
        for i in range(t):
            G = stream[t - 1 - i]
            expected += (1 - beta) * beta ** i * lift(st.frame, project(st.frame, G))
        worst = max(worst, float(np.max(np.abs(lift(st.frame, st.m_buf)
                                               - expected))))
    _report(3, worst <= 1e-10,
            f"max deviation from geometric-sum expansion {worst:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 4. rate-exponent table regression

def test_criterion_4_rate_exponent_table():
    t0 = time.time()
    expected = {
        0.0: dict(coord=(1.5, 2.5), norm=(0.0, 0.0), subset=(0.3, 1.0), k=0.0),
        0.5: dict(coord=(2.0, 2.5), norm=(1.25, 1.5), subset=(1.2, 1.5), k=0.1),
        0.9: dict(coord=(2.4, 2.5), norm=(2.25, 2.7), subset=(1.92, 2.04), k=0.66),
        1.0: dict(coord=(2.5, 2.5), norm=(2.5, 3.0), subset=(2.1, 2.2), k=0.8),
    }
    for beta, want in expected.items():
        r = rate_exponents(beta)
        got = dict(coord=r.coord, norm=r.norm,
                   subset=(r.subset_slow, r.subset_fast),
                   k=r.optimal_k_exponent)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12,
                                       err_msg=f"beta={beta} {key}")
    elapsed = time.time() - t0
    _report(4, elapsed < 1,
            f"all exponents for beta in {{0, 0.5, 0.9, 1}} exact, "
            f"{elapsed:.2f}s (<1s)")


# ---------------------------------------------------------------------------
# 5. empirical validity of the momentum convergence bound

def test_criterion_5_momentum_bound_monte_carlo():
    t0 = time.time()
    chk = verify_thm2(d=100, sigma=1.0, delta1=1.0, T=10 ** 4, fail_prob=0.1,
                      n_seeds=20, rank=10, frame_kind="svd",
                      param_shape=(10, 10))
    elapsed = time.time() - t0
    _report(5, chk.fraction <= 0.25 and elapsed < 120,
            f"violation fraction {chk.fraction:.2f} of bound "
            f"{chk.bound:.4f} over 20 seeds (tol 0.10+0.15), "
            f"{elapsed:.0f}s (<120s)")


# ---------------------------------------------------------------------------
# 6. memory accounting formulas

def test_criterion_6_memory_accounting():
    t0 = time.time()
    shapes = [(512, 128), (2048, 1024)]
    r = 4
    cases = {
        "Adam": sum(2 * m * n for m, n in shapes),
        "AdamSN": sum(m * n + max(m, n) for m, n in shapes),
        "RMSPropSN": sum(max(m, n) for m, n in shapes),
        "AdamSNSM": sum(r * min(m, n) + max(m, n) for m, n in shapes),
        "GaLore": sum(2 * r * min(m, n) for m, n in shapes),
    }
    results = {}
    for name, want in cases.items():
        opt = Optimizer(
            make_preset(name, rank=r, frame_kind=FrameKind.GAUSSIAN_ORTHO),
            shapes)
        ss = opt.state_size()
        results[name] = (ss.total, want)
        assert ss.total == want, f"{name}: {ss.total} != {want}"
        if name == "AdamSNSM":
            assert ss.frame_elements == sum(r * max(m, n) for m, n in shapes)
    elapsed = time.time() - t0
    _report(6, elapsed < 1,
            "exact element counts "
            + ", ".join(f"{k}={v[0]}" for k, v in results.items())
            + f", {elapsed:.2f}s (<1s)")


# ---------------------------------------------------------------------------
# 7. beta-sweep qualitative ordering (inconclusive allowed)

@pytest.mark.slow
def test_criterion_7_beta_sweep_ordering():
    d, T, n_seeds = 1024, 5000, 10
    # ceil(d^0.8) up to float roundoff: 1024^0.8 is exactly 2^8 = 256
    k = math.ceil(d ** 0.8 - 1e-9)
    t0 = time.time()
    rows = sweep_beta([0.0, 1.0], d=d, T=T, seeds=range(n_seeds),
                      subset_sizes=[k], lr=0.3)
    by = {(r.beta, r.optimizer): r for r in rows}
    verdict0 = sweep_verdict(by[(0.0, "AdaGradNorm")], by[(0.0, "AdaGrad")])
    verdict1 = sweep_verdict(by[(1.0, "AdaGradSN")], by[(1.0, "AdaGrad")])
    elapsed = time.time() - t0
    # norm must not lose at beta=0, SN(k~d^0.8) must not lose at beta=1;
    # a diverged seed ('invalid') leaves no comparison, so it fails too
    ok0 = verdict0 in ("a_better", "inconclusive")
    ok1 = verdict1 in ("a_better", "inconclusive")
    _report(7, ok0 and ok1 and elapsed < 600,
            f"beta=0 norm-vs-coord: {verdict0}; beta=1 SN({k})-vs-coord: "
            f"{verdict1} (inconclusive allowed, losing or invalid is failure), "
            f"{elapsed:.0f}s (<600s)")


# ---------------------------------------------------------------------------
# 8. noise estimator on the synthetic density pattern

def test_criterion_8_noise_estimator():
    d, n, beta, alpha = 10 ** 4, 200, 0.5, 1.0
    t0 = time.time()
    obj = Quadratic(np.ones(d))
    noise = NoiseModel(density_beta=beta, density_alpha=alpha)
    x = np.zeros(d)
    samples = np.stack([stoch_grad(obj, noise, x, seed=0, t=t)
                        for t in range(n)])
    est = estimate_noise(samples, threshold=alpha ** 2 / 2)
    count = est.noisy_count
    target = math.ceil(d ** beta)
    mean_s2 = est.mean_noisy_var
    elapsed = time.time() - t0
    count_ok = abs(count - target) <= 0.02 * target
    mean_ok = 0.8 <= mean_s2 <= 1.2
    _report(8, count_ok and mean_ok and elapsed < 30,
            f"noisy-count {count} vs ceil(d^0.5)={target} (tol 2%), "
            f"mean S^2 {mean_s2:.3f} (in [0.8, 1.2]), {elapsed:.0f}s (<30s)")


# ---------------------------------------------------------------------------
# 9. refresh semantics: exact schedule, exact zeroing, baseline keeps stats

def test_criterion_9_refresh_semantics():
    t0 = time.time()
    m, n, rank, gap, T = 32, 8, 4, 200, 1000
    st = sm_init(SubspaceMomentum(FrameKind.GAUSSIAN_ORTHO, rank=rank,
                                  refresh_gap=gap), m, n, seed=0)
    gl = galore_init(GaloreMomentum(FrameKind.GAUSSIAN_ORTHO, rank=rank,
                                    refresh_gap=gap), m, n, seed=0)
    rng = np.random.default_rng(99)
    sm_changes, gl_changes = [], []
    zeroed = True
    v_kept = True
    for t in range(1, T + 1):
        G = rng.standard_normal((m, n))
        sm_direction(st, G)
        galore_direction(gl, G)
        frame_before = st.frame
        if sm_maybe_refresh(st, G, t):
            sm_changes.append(t)
            zeroed &= bool(np.all(st.m_buf == 0.0))
            zeroed &= st.frame is not frame_before
        v_before = gl.v_buf.copy()
        if galore_maybe_refresh(gl, G, t):
            gl_changes.append(t)
            v_kept &= bool(np.array_equal(gl.v_buf, v_before))
            v_kept &= bool(np.any(gl.v_buf != 0.0))
    schedule = [200, 400, 600, 800, 1000]
    ok = sm_changes == schedule and gl_changes == schedule and zeroed and v_kept
    elapsed = time.time() - t0
    _report(9, ok and elapsed < 5,
            f"frame changes at {sm_changes} (expected {schedule}), momentum "
            f"buffer exactly zero after each, baseline second moment retained, "
            f"{elapsed:.1f}s (<5s)")


# ---------------------------------------------------------------------------
# 10. full-scale language-model results are explicitly out of reach

def test_criterion_10_full_scale_not_reproduced():
    # Full-scale pretraining perplexity tables require billions of tokens and
    # GPU-scale architectures; nothing in this package attempts them. The
    # desk-scale property suite above (criteria 1-9) is the substitute. This
    # test documents that stance and pins the substitute suite's existence.
    import snsm
    substitute = [
        test_criterion_1_reduction_equivalences,
        test_criterion_2_projector_invariants,
        test_criterion_3_momentum_expansion,
        test_criterion_4_rate_exponent_table,
        test_criterion_5_momentum_bound_monte_carlo,
        test_criterion_6_memory_accounting,
        test_criterion_7_beta_sweep_ordering,
        test_criterion_8_noise_estimator,
        test_criterion_9_refresh_semantics,
    ]
    assert not hasattr(snsm, "pretrain")  # no trainer for LM workloads exists
    _report(10, len(substitute) == 9,
            "no full-scale reproduction attempted; criteria 1-9 form the "
            "substitute property suite")
