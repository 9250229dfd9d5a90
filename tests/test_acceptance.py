"""Acceptance gate: one test per release criterion, one verdict line each.

Each criterion test prints `criterion N (<name>): PASS [...]` with its
measured numbers once every pinned tolerance holds; under `pytest -v` the
test's own PASSED/FAILED line doubles as the per-criterion verdict line.
Runtime budgets are asserted where a criterion pins one.
"""

import json
import time

import numpy as np
import yaml

import criterion10
import elcontrol.autodiff as ad
from elcontrol.cli import main as cli_main
from elcontrol.control import (BarrierSpec, design_lqr,
                               equilibrium_kkt_residual, solve_care)
from elcontrol.liecheck import (check_linearizable, integrator_chain,
                                noninvolutive_chain)
from elcontrol.model import ELModel, ModelArch, ModelDims, TrainConfig
from elcontrol.model import train as train_model
from elcontrol.networks import Bnn, DiagonalBnn, Picnn
from elcontrol.qpsolver import QpProblem, solve
from elcontrol.simulate import (TeacherPlant, gen_excitation, metrics_r2,
                                simulate_closed_loop, simulate_open_loop,
                                step_schedule)
from test_qpsolver import enumerate_oracle

SMALL_ARCH = ModelArch(phi_depth=1, phi_hidden=8, psi_depth=1, psi_hidden=8,
                       xi_depth=2, xi_hidden=8, core_hidden=8)


def verdict(number, name, budget, elapsed, detail):
    line = f"criterion {number} ({name}): PASS [{detail}; {elapsed:.1f}s]"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.1f}s"


def random_net_params(nets, rng, scale):
    params = {}
    for net in nets:
        net.init(params, rng, scale=scale)
    return params


def scalar_core_model(a, b, c=0.0):
    m = ELModel(ModelDims(1, 1, 1, 1))
    m.a_net.init_zero(m.params, last_bias=np.array([float(a)]))
    m.b_net.init_zero(m.params, last_bias=np.array([float(b)]))
    m.c_net.init_zero(m.params, last_bias=np.array([float(c)]))
    return m


# ---------------------------------------------------------------------------
# 1. structural invariants of the map networks

def test_criterion_01_structural_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)

    bnn = Bnn("phi", 3, 2, depth=3, hidden=8)
    params = random_net_params(bnn.nets, rng, scale=0.4)
    worst_rt = 0.0
    for _ in range(1000):
        y = rng.uniform(-2, 2, size=3)
        d = rng.uniform(-1, 1, size=2)
        x = bnn.forward(params, y, d)
        worst_rt = max(worst_rt, np.max(np.abs(bnn.inverse(params, x, d) - y)))
    assert worst_rt < 1e-9

    dbnn = DiagonalBnn("psi", 3, 5, depth=3, hidden=8)
    dparams = random_net_params(dbnn.nets, rng, scale=0.4)
    worst_drt = 0.0
    for _ in range(1000):
        cond = rng.uniform(-1, 1, size=5)
        u1 = rng.uniform(-2, 2, size=3)
        bump = rng.uniform(0, 1, size=3) * (rng.random(3) < 0.7)
        v1 = dbnn.forward(dparams, u1, cond)
        v2 = dbnn.forward(dparams, u1 + bump, cond)
        assert np.all(v2 >= v1 - 1e-12)
        assert np.all(v2[bump > 0] > v1[bump > 0])
        worst_drt = max(worst_drt, np.max(np.abs(
            dbnn.inverse(dparams, v1, cond) - u1)))
    assert worst_drt < 1e-9

    picnn = Picnn("xi", 4, 2, 2, depth=3, hidden=8, ctx_hidden=8)
    pparams = {}
    picnn.init(pparams, rng, scale=0.8)
    worst_slack = np.inf
    for _ in range(1000):
        ctx = rng.uniform(-1, 1, size=2)
        a = rng.uniform(-2, 2, size=4)
        b = rng.uniform(-2, 2, size=4)
        theta = rng.uniform()
        mix = picnn.forward(pparams, theta * a + (1 - theta) * b, ctx)
        chord = (theta * picnn.forward(pparams, a, ctx)
                 + (1 - theta) * picnn.forward(pparams, b, ctx))
        worst_slack = min(worst_slack, np.min(chord - mix))
    assert worst_slack >= -1e-12

    verdict(1, "structural invariants", 60.0, time.monotonic() - t0,
            f"round trips <= {max(worst_rt, worst_drt):.2e}, "
            f"Jensen slack >= {worst_slack:.2e}")


# ---------------------------------------------------------------------------
# 2. analytic loss gradients against central finite differences

def test_criterion_02_loss_gradients_match_fd():
    t0 = time.monotonic()
    m = ELModel.random(ModelDims(2, 2, 1, 1), seed=102)
    rng = np.random.default_rng(102)
    n = 8
    inputs = {"v": rng.normal(size=(n, 2)), "y": 0.5 * rng.normal(size=(n, 2)),
              "d": 0.3 * rng.normal(size=(n, 1)), "d_dot": 0.1 * rng.normal(size=(n, 1)),
              "ydot": rng.normal(size=(n, 2)), "z": rng.normal(size=(n, 1))}
    q = np.diag([1.0, 2.0, 0.5])
    graph = m.loss_graph(q, n)
    ad.evaluate(graph, inputs)
    grads = ad.gradient(graph)

    def loss_at(params):
        return float(ad.evaluate(m.clone(params).loss_graph(q, n), inputs).data)

    worst = 0.0
    for key in sorted(m.params):
        p0 = m.params[key]
        idx = tuple(rng.integers(0, s) for s in p0.shape)
        h = 1e-6 * max(1.0, abs(p0[idx]))
        pp = {k: val.copy() for k, val in m.params.items()}
        pm = {k: val.copy() for k, val in m.params.items()}
        pp[key][idx] += h
        pm[key][idx] -= h
        fd = (loss_at(pp) - loss_at(pm)) / (2 * h)
        an = grads[key][idx]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        worst = max(worst, rel)
        assert rel < 1e-5, f"{key}[{idx}]: analytic {an} vs fd {fd}"

    verdict(2, "loss gradients", 120.0, time.monotonic() - t0,
            f"{len(m.params)} parameter groups, worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Riccati solver on random stabilizable systems plus scalar closed forms

def test_criterion_03_riccati_random_and_closed_forms():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    worst_res, worst_eig = 0.0, -np.inf
    solved = 0
    while solved < 50:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        ctrb = np.concatenate([np.linalg.matrix_power(A, k) @ B for k in range(n)],
                              axis=1)
        if np.linalg.matrix_rank(ctrb) < n:
            continue
        M = rng.normal(size=(n, n))
        Q = M @ M.T + 0.1 * np.eye(n)
        Mr = rng.normal(size=(m, m))
        R = Mr @ Mr.T + 0.1 * np.eye(m)
        P = solve_care(A, B, Q, R)
        # evaluate the residual in extended precision: for stiff draws
        # |P S P| reaches 1e8 and float64 cancellation noise alone would
        # swamp the 1e-8 gate even for an exact solution
        Al, Pl = A.astype(np.longdouble), P.astype(np.longdouble)
        Sl = (B @ np.linalg.solve(R, B.T)).astype(np.longdouble)
        res = Al.T @ Pl + Pl @ Al - Pl @ Sl @ Pl + Q.astype(np.longdouble)
        worst_res = max(worst_res, float(np.sqrt((res * res).sum())))
        K = np.linalg.solve(R, B.T @ P)
        worst_eig = max(worst_eig, float(np.max(np.linalg.eigvals(A - B @ K).real)))
        solved += 1
    assert worst_res < 1e-8
    assert worst_eig < 0.0

    # scalar closed forms: x' = a x + u, q = r = 1
    p_integrator = solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]])[0, 0]
    assert abs(p_integrator - 1.0) < 1e-10
    p_stable = solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])[0, 0]
    assert abs(p_stable - (np.sqrt(2.0) - 1.0)) < 1e-10

    verdict(3, "Riccati solver", 30.0, time.monotonic() - t0,
            f"50 systems, max residual {worst_res:.2e}, "
            f"max closed-loop real part {worst_eig:.2e}")


# ---------------------------------------------------------------------------
# 4. QP solver against exhaustive active-set enumeration

def test_criterion_04_qp_matches_enumeration():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    worst_x, worst_mu, worst_kkt = 0.0, 0.0, 0.0
    solved = infeasible = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        r = int(rng.integers(0, 17))
        M = rng.normal(size=(n, n))
        problem = QpProblem(M @ M.T + (0.1 + rng.uniform()) * np.eye(n),
                            rng.normal(size=n), rng.normal(size=(r, n)),
                            rng.normal(size=r) + 0.5)
        x_ref, mu_ref, status_ref = enumerate_oracle(problem)
        sol = solve(problem)
        assert sol.status == status_ref
        if status_ref == "infeasible":
            infeasible += 1
            continue
        worst_x = max(worst_x, float(np.max(np.abs(sol.x - x_ref))))
        worst_mu = max(worst_mu, float(np.max(np.abs(sol.mu - mu_ref), initial=0.0)))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        solved += 1
    assert worst_x < 1e-8
    assert worst_mu < 1e-8
    assert worst_kkt < 1e-8

    verdict(4, "QP vs enumeration", 60.0, time.monotonic() - t0,
            f"{solved} optimal + {infeasible} infeasible agree, "
            f"max multiplier gap {worst_mu:.2e}, max KKT residual {worst_kkt:.2e}")


# ---------------------------------------------------------------------------
# 5. synthetic identification: teacher-plant data, held-out R^2

def test_criterion_05_identification_r2():
    t0 = time.monotonic()
    dims = ModelDims(3, 3, 2, 2)
    teacher = ELModel.random(dims, SMALL_ARCH, seed=0, map_scale=0.2, core_scale=0.3)
    plant = TeacherPlant(teacher)

    def excite(seed_v, seed_d, duration):
        v = gen_excitation("sum-of-sines", duration, 4e-2,
                           (-1.5 * np.ones(3), 1.5 * np.ones(3)), seed=seed_v)
        d = gen_excitation("sum-of-sines", duration, 8e-2,
                           (-0.5 * np.ones(2), 0.5 * np.ones(2)), seed=seed_d)
        # fd_tol 0.05: zero-order-hold inputs put ~1% kink error in the
        # differenced-y sanity gate at this step size
        return simulate_open_loop(plant, v, d, np.zeros(3), 5e-3, fd_tol=0.05)

    data = excite(11, 12, 20.0)
    held_out = excite(21, 22, 4.0)      # fresh trajectory, fresh excitation
    student = ELModel.for_training(dims, data, SMALL_ARCH, seed=4, map_scale=0.02)
    student, _ = train_model(student, data, TrainConfig(
        epochs=320, batch_size=512, step_size=0.02, decay=0.996, seed=1))

    pred_ydot = student.predict_ydot(held_out.v, held_out.y, held_out.d, held_out.d_dot)
    pred_z = student.predict_z(held_out.v, held_out.y, held_out.d)
    scores = [metrics_r2(pred_ydot[:, j], held_out.y_dot[:, j]) for j in range(3)]
    scores += [metrics_r2(pred_z[:, j], held_out.z[:, j]) for j in range(2)]
    assert min(scores) >= 0.95, f"per-channel R^2 {scores}"
    assert float(np.mean(scores)) >= 0.95

    verdict(5, "synthetic identification", 900.0, time.monotonic() - t0,
            f"{len(data)} training rows, held-out R^2 min {min(scores):.4f}, "
            f"mean {np.mean(scores):.4f}")


# ---------------------------------------------------------------------------
# 6. constraint-aware control: filtered vs unfiltered on one scenario

def control_scenario():
    model = scalar_core_model(-4.0, 1.0)
    plant = TeacherPlant(model=model,
                         operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    spec = BarrierSpec(z_max=[1e6], v_min=[-3.0], v_max=[4.0],
                       k1=10.0, k2=1.0, rate_weight=0.05)
    return model, plant, spec


def test_criterion_06_safety_filter_vs_unfiltered():
    t0 = time.monotonic()
    model, plant, spec = control_scenario()
    # reachable target (0.5) with an excursion to an unreachable one (2.0):
    # holding 2.0 needs v = 8 > v_max, so the unfiltered regulator violates
    y_d = step_schedule([0.0, 1.0, 2.0], [[0.5], [2.0], [0.5]])
    common = dict(y_d=y_d, d=np.zeros(1), horizon=3.5, control_period=1e-3,
                  Q=np.array([[25.0]]), spec=spec, substeps=2)
    filtered = simulate_closed_loop(plant, model, "icbf", **common)
    unfiltered = simulate_closed_loop(plant, model, "lqr", **common)

    assert filtered.h.max() <= 1e-6
    violations = int((unfiltered.h.max(axis=1) > 0.0).sum())
    assert violations > 0

    target = np.array([y_d(t) for t in unfiltered.t])
    mask = unfiltered.h.max(axis=1) <= 0.0
    assert mask.sum() > 1000          # the comparison segment is non-trivial
    rmse_lqr = float(np.sqrt(np.mean((unfiltered.y[mask] - target[mask]) ** 2)))
    rmse_icbf = float(np.sqrt(np.mean((filtered.y[mask] - target[mask]) ** 2)))
    assert rmse_icbf <= 2.0 * rmse_lqr

    verdict(6, "constraint-aware control", 300.0, time.monotonic() - t0,
            f"filtered max h {filtered.h.max():.2e}, unfiltered violates "
            f"{violations} ticks, RMSE ratio {rmse_icbf / rmse_lqr:.2f}")


# ---------------------------------------------------------------------------
# 7. equilibrium optimality of the settled filter state

def test_criterion_07_equilibrium_kkt_residual():
    t0 = time.monotonic()
    model, plant, spec = control_scenario()
    Q, R = np.array([[25.0]]), np.eye(1)
    checked = 0
    worst = 0.0
    # target 0.5 settles in the interior; 2.0 parks on the input bound, where
    # x decays as exp(-4t) toward the ride point and needs ~7s to still out
    for y_target, horizon in ((0.5, 5.0), (2.0, 8.0)):
        trace = simulate_closed_loop(plant, model, "icbf", np.array([y_target]),
                                     np.zeros(1), horizon=horizon,
                                     control_period=5e-3, Q=Q, spec=spec,
                                     substeps=4)
        A, B, c = model.linear_core(np.zeros(1))
        xdot = trace.x @ A.T + trace.u @ B.T + c
        still = ((np.linalg.norm(xdot, axis=1) < 1e-8)
                 & (np.abs(trace.lam).max(axis=1) < 1e-8))
        design = design_lqr(model, [y_target], [0.0], Q, R)
        for i in np.flatnonzero(still):
            res = equilibrium_kkt_residual(model, design, spec,
                                           trace.x[i], trace.u[i], trace.d[i])
            worst = max(worst, res)
            assert res < 1e-6, f"tick {i} at target {y_target}: residual {res}"
            checked += 1
    assert checked > 0                # the condition must not be vacuous

    verdict(7, "equilibrium optimality", None, time.monotonic() - t0,
            f"{checked} settled points, max residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Sontag law drains the Lyapunov energy

def test_criterion_08_sontag_energy_decay():
    t0 = time.monotonic()
    model = scalar_core_model(1.0, 1.0)      # open-loop unstable
    plant = TeacherPlant(model=model,
                         operating_box=(-10 * np.ones(1), 10 * np.ones(1)))
    trace = simulate_closed_loop(plant, model, "sontag", np.zeros(1), np.zeros(1),
                                 horizon=2.5, control_period=5e-3,
                                 y0=np.array([1.0]), substeps=2)
    p = 1.0 + np.sqrt(2.0)                   # scalar Riccati solution, a=b=q=r=1
    energy = p * trace.x[:, 0] ** 2
    assert energy[-1] < 1e-6 * energy[0]
    nonzero = trace.y[:-1, 0] != 0.0
    assert np.all(np.diff(energy)[nonzero] < 0.0)

    verdict(8, "Sontag energy decay", None, time.monotonic() - t0,
            f"V_end/V_0 = {energy[-1] / energy[0]:.2e}, "
            f"V strictly decreasing on {int(nonzero.sum())} steps")


# ---------------------------------------------------------------------------
# 9. linearizability verdicts on the shipped fixtures

def test_criterion_09_linearizability_fixtures():
    t0 = time.monotonic()
    domain = (-np.ones(3), np.ones(3))
    chain = check_linearizable(integrator_chain(3), domain, samples=100,
                               tol=1e-6, seed=0)
    assert chain.verdict == "pass"
    assert np.all(chain.ranks == 3)
    assert chain.involutivity_residuals.max() < 1e-6

    twisted = check_linearizable(noninvolutive_chain(), domain, samples=100,
                                 tol=1e-6, seed=0)
    assert twisted.verdict == "fail-involutive"
    assert np.all(twisted.ranks == 3)         # spanning condition still holds
    assert twisted.involutivity_residuals.max() > 10.0 * 1e-6

    verdict(9, "linearizability fixtures", None, time.monotonic() - t0,
            f"chain passes at 100 points, twisted chain residual "
            f"{twisted.involutivity_residuals.max():.2e} > 10x tol")


# ---------------------------------------------------------------------------
# 10. byte-identical reruns of every command

def test_criterion_10_reproducibility(tmp_path):
    t0 = time.monotonic()
    gen_out = tmp_path / "gen"
    configs = criterion10.configs(gen_out)

    total_files = 0
    for run, cfg in configs.items():
        config = tmp_path / f"{run}.yaml"
        with open(config, "w") as f:
            yaml.safe_dump(cfg, f)
        first = gen_out if run == "gen-data" else tmp_path / f"{run}-a"
        again = tmp_path / f"{run}-b"
        command = criterion10.command(run)
        assert cli_main([command, "--config", str(config),
                         "--out", str(first)]) == 0, run
        assert cli_main([command, "--config", str(config),
                         "--out", str(again)]) == 0, run
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), \
                f"{run}: {name} differs across reruns"
        total_files += len(names)

    verdict(10, "reproducibility", None, time.monotonic() - t0,
            f"all {len(configs)} runs byte-identical over {total_files} files")
