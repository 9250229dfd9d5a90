"""Bracket computations and the sampled linearizability check."""

import ast

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elcontrol import autodiff as ad
from elcontrol import liecheck
from elcontrol.errors import NonFiniteError, ValidationError
from elcontrol.liecheck import (CheckReport, VectorFieldPair, ad_power,
                                ad_power_field, bracket_field,
                                check_linearizable, compile_field,
                                integrator_chain, lie_bracket, linear_fields,
                                noninvolutive_chain, ZERO_FLOOR)


def constant_field(values):
    values = np.asarray(values, dtype=np.float64)
    return lambda x: ad.constant(values)


def zero_field(n):
    return constant_field(np.zeros(n))


def numeric_jacobian(fn, y, step=1e-6):
    y = np.asarray(y, dtype=np.float64)
    cols = []
    for i in range(y.size):
        delta = np.zeros_like(y)
        delta[i] = step
        cols.append((fn(y + delta) - fn(y - delta)) / (2.0 * step))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# brackets


def test_bracket_of_constant_fields_is_zero():
    f = constant_field([1.0, -2.0, 0.5])
    g = constant_field([0.0, 3.0, 1.0])
    value = lie_bracket(f, g, np.array([0.3, -1.1, 2.0]))
    assert np.array_equal(value, np.zeros(3))


def test_bracket_of_linear_fields_matches_commutator():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(3, 3))
        G = rng.normal(size=(3, 3))
        y = rng.normal(size=3)
        f = lambda x: ad.matvec(ad.constant(F), x)
        g = lambda x: ad.matvec(ad.constant(G), x)
        expected = (G @ F - F @ G) @ y
        assert np.abs(lie_bracket(f, g, y) - expected).max() < 1e-12


def test_bracket_hand_case():
    # f = (y2, 0), g = (0, 1): (dg/dy) f = 0, (df/dy) g = (1, 0)
    f = compile_field(["y2", "0"], 2)
    g = compile_field(["0", "1"], 2)
    value = lie_bracket(f, g, np.array([4.0, -7.0]))
    assert np.array_equal(value, np.array([-1.0, 0.0]))


def test_bracket_matches_finite_difference_jacobians():
    f = compile_field(["sinh(y2)", "y1*y2"], 2)
    g = compile_field(["square(y1)", "cosh(y2)"], 2)

    def f_np(y):
        return np.array([np.sinh(y[1]), y[0] * y[1]])

    def g_np(y):
        return np.array([y[0] ** 2, np.cosh(y[1])])

    for seed in range(10):
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, size=2)
        expected = numeric_jacobian(g_np, y) @ f_np(y) - numeric_jacobian(f_np, y) @ g_np(y)
        assert np.abs(lie_bracket(f, g, y) - expected).max() < 1e-8


def test_bracket_antisymmetry_and_jacobi_identity():
    f = compile_field(["sinh(y2)", "y1*y2"], 2)
    g = compile_field(["y2**2", "cosh(y1)"], 2)
    h = compile_field(["exp(y1)", "y1 - y2"], 2)
    for seed in range(5):
        y = np.random.default_rng(seed).uniform(-0.8, 0.8, size=2)
        assert np.abs(lie_bracket(f, g, y) + lie_bracket(g, f, y)).max() < 1e-12
        cyclic = (lie_bracket(f, bracket_field(g, h), y)
                  + lie_bracket(g, bracket_field(h, f), y)
                  + lie_bracket(h, bracket_field(f, g), y))
        assert np.abs(cyclic).max() < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bracket_nonfinite_field_raises():
    f = compile_field(["exp(exp(y1))", "0"], 2)
    g = compile_field(["0", "1"], 2)
    with pytest.raises(NonFiniteError):
        lie_bracket(f, g, np.array([100.0, 0.0]))


def test_ad_power_basics():
    sys = integrator_chain(3)
    y = np.array([0.7, -1.2, 0.4])
    assert np.array_equal(ad_power(sys.f, sys.g, 0, y), np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(ad_power(sys.f, sys.g, 1, y),
                          lie_bracket(sys.f, sys.g, y))
    with pytest.raises(ValidationError):
        ad_power_field(sys.f, sys.g, -1)


def test_ad_power_chain_hand_values():
    sys = integrator_chain(3)
    for seed in range(5):
        y = np.random.default_rng(seed).uniform(-2.0, 2.0, size=3)
        assert np.abs(ad_power(sys.f, sys.g, 1, y) - np.array([0.0, -1.0, 0.0])).max() < 1e-12
        assert np.abs(ad_power(sys.f, sys.g, 2, y) - np.array([1.0, 0.0, 0.0])).max() < 1e-12


def test_noninvolutive_chain_hand_values():
    sys = noninvolutive_chain()
    for seed in range(5):
        y = np.random.default_rng(seed).uniform(-2.0, 2.0, size=3)
        ad1 = ad_power(sys.f, sys.g, 1, y)
        assert np.abs(ad1 - np.array([-2.0 * y[2], -1.0, 0.0])).max() < 1e-12
        ad2 = ad_power(sys.f, sys.g, 2, y)
        assert np.abs(ad2 - np.array([1.0, 0.0, 0.0])).max() < 1e-12
        # the pair (ad0, ad1) generates a direction outside its own span
        cross = lie_bracket(ad_power_field(sys.f, sys.g, 0),
                            ad_power_field(sys.f, sys.g, 1), y)
        assert np.abs(cross - np.array([-2.0, 0.0, 0.0])).max() < 1e-12


def nested_bracket_field(f, g):
    """[f, g] as one closure that evaluates f, g and both Jacobians afresh:
    the definition the tower's shared f and Df must reproduce."""

    def field(x):
        fx, gx = f(x), g(x)
        (jf,) = ad.jacobian_rows(fx, [x])
        (jg,) = ad.jacobian_rows(gx, [x])
        return ad.sub(ad.matvec(jg, fx), ad.matvec(jf, gx))

    return field


def random_component(draw, n):
    """One expression over y1..yn: a sum of one to three smooth terms."""
    state = st.integers(1, n)
    coef = st.sampled_from(["0.5", "-1.5", "2"])
    kinds = ["y{i}", "{c}*y{i}*y{j}", "sinh(y{i})", "square(y{i})", "cosh(y{i}) - 1", "{c}"]
    terms = [draw(st.sampled_from(kinds)).format(i=draw(state), j=draw(state), c=draw(coef))
             for _ in range(draw(st.integers(1, 3)))]
    return " + ".join(terms)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_ad_power_field_equals_the_nested_bracket_definition(data):
    n = data.draw(st.integers(2, 4), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    f = compile_field([random_component(data.draw, n) for _ in range(n)], n)
    g = compile_field([random_component(data.draw, n) for _ in range(n)], n)
    y = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(-1.0, 1.0, n)
    nested = g
    for _ in range(k):
        nested = nested_bracket_field(f, nested)
    expected = nested(ad.as_tensor(y)).data
    value = ad_power_field(f, g, k)(ad.as_tensor(y)).data
    assert np.abs(value - expected).max() <= 1e-12 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# sampled check


def test_chain_report_passes():
    report = check_linearizable(integrator_chain(3), (-2.0, 2.0),
                                samples=60, tol=1e-6, seed=7)
    assert report.verdict == "pass"
    assert report.points.shape == (60, 3)
    assert np.all(report.points >= -2.0) and np.all(report.points <= 2.0)
    assert np.all(report.ranks == 3)
    assert np.all(report.rank_ratios > 0.5)
    assert np.all(report.involutivity_residuals < 1e-12)
    assert "sampled" in report.note


def test_controllable_linear_pair_passes():
    F = np.array([[0.3, 1.1], [0.2, -0.5]])
    G = np.array([1.0, 0.4])
    assert np.linalg.matrix_rank(np.column_stack([G, F @ G])) == 2
    report = check_linearizable(linear_fields(F, G), (-1.0, 1.0),
                                samples=40, tol=1e-6, seed=0)
    assert report.verdict == "pass"
    assert np.all(report.ranks == 2)


def test_noninvolutive_chain_fails_involutivity():
    report = check_linearizable(noninvolutive_chain(), (-2.0, 2.0),
                                samples=100, tol=1e-6, seed=3)
    assert report.verdict == "fail-involutive"
    # the spanning condition itself holds everywhere on the box
    assert np.all(report.ranks == 3)
    assert np.all(report.rank_ratios > 100.0 * report.tol)
    assert report.involutivity_residuals.min() > 0.1


def test_rank_deficient_pair_fails_rank():
    sys = VectorFieldPair(f=zero_field(2), g=constant_field([1.0, 0.0]), n=2)
    report = check_linearizable(sys, (-1.0, 1.0), samples=30, tol=1e-6, seed=1)
    assert report.verdict == "fail-rank"
    assert np.all(report.ranks == 1)
    assert np.all(report.rank_ratios == 0.0)


def test_verdict_monotone_as_tolerance_shrinks():
    severity = {"pass": 0, "fail-involutive": 1, "fail-rank": 2}
    reports = [
        check_linearizable(integrator_chain(3), (-2.0, 2.0), samples=40, seed=2),
        check_linearizable(noninvolutive_chain(), (-2.0, 2.0), samples=40, seed=2),
        check_linearizable(VectorFieldPair(f=zero_field(2),
                                           g=constant_field([1.0, 0.0]), n=2),
                           (-1.0, 1.0), samples=40, seed=2),
    ]
    grid = [1e-3, 1e-4, 1e-6, 1e-8, 1e-10]
    for report in reports:
        assert report.verdict_at(report.tol) == report.verdict
        levels = [severity[report.verdict_at(tol)] for tol in grid]
        assert levels == sorted(levels)


def test_pass_verdict_implies_thresholds():
    report = check_linearizable(integrator_chain(4), (-1.0, 1.0),
                                samples=30, tol=1e-6, seed=5)
    assert report.verdict == "pass"
    assert np.all(report.ranks == 4)
    assert np.all(report.rank_ratios > report.tol)
    assert np.all(report.involutivity_residuals < report.tol)


BENCH_SYSTEM = (["y2 + sinh(y1)", "y3 + square(y1)", "y4 + y2*y3", "-y1*y2"],
                ["0", "0", "0", "1 + square(y1)"])
REPLAY_SYSTEMS = {
    "bench-n4": lambda: VectorFieldPair(compile_field(BENCH_SYSTEM[0], 4),
                                        compile_field(BENCH_SYSTEM[1], 4), 4),
    "noninvolutive": noninvolutive_chain,
    "chain5": lambda: integrator_chain(5),
    "linear": lambda: linear_fields(np.random.default_rng(3).normal(size=(4, 4)),
                                    np.random.default_rng(4).normal(size=4)),
}


def _replayed_point(powers, pairs, n, y):
    """One sample from the public fields, as the benchmark's replay runs it."""
    D = np.column_stack([p(ad.as_tensor(y)).data for p in powers])
    sigma = np.linalg.svd(D, compute_uv=False)
    ratio = sigma[-1] / (sigma[0] if sigma[0] > 0 else 1.0)
    span = D[:, :n - 1]
    worst = 0.0
    for field in pairs:
        b = field(ad.as_tensor(y)).data
        norm_b = float(np.linalg.norm(b))
        if norm_b <= ZERO_FLOOR * (1.0 + sigma[0]):
            continue
        coef = np.linalg.lstsq(span, b, rcond=None)[0]
        worst = max(worst, float(np.linalg.norm(b - span @ coef)) / norm_b)
    return ratio, worst


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(REPLAY_SYSTEMS))
def test_report_equals_the_public_fields_bit_for_bit(name, seed):
    # the report and the public fields read one tower, so they agree to the
    # last bit even on the n = 4 and 5 systems, where summing adjoints in
    # another order would show
    system = REPLAY_SYSTEMS[name]()
    n = system.n
    report = check_linearizable(system, (-1.0, 1.0), samples=3, seed=seed)
    powers = [ad_power_field(system.f, system.g, k) for k in range(n)]
    pairs = [bracket_field(powers[i], powers[j])
             for i in range(n - 1) for j in range(i + 1, n - 1)]
    replayed = np.array([_replayed_point(powers, pairs, n, y) for y in report.points])
    assert np.array_equal(report.rank_ratios, replayed[:, 0])
    assert np.array_equal(report.involutivity_residuals, replayed[:, 1])


def test_sampling_is_deterministic():
    kwargs = dict(domain=(-2.0, 2.0), samples=25, tol=1e-6, seed=11)
    a = check_linearizable(noninvolutive_chain(), **kwargs)
    b = check_linearizable(noninvolutive_chain(), **kwargs)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.rank_ratios, b.rank_ratios)
    assert np.array_equal(a.involutivity_residuals, b.involutivity_residuals)
    assert a.verdict == b.verdict
    other = check_linearizable(noninvolutive_chain(), (-2.0, 2.0),
                               samples=25, tol=1e-6, seed=12)
    assert not np.array_equal(a.points, other.points)


def _graph_report(system, points, tol=1e-6):
    """Each point's (rank ratio, rank, residual) from its own graph, as
    check_linearizable computes a sample it does not replay."""
    return [liecheck._statistics(liecheck._point_outputs(system, y), system.n, tol)
            for y in points]


def _assert_report_is(report, rows):
    ratios, ranks, residuals = (np.array(column) for column in zip(*rows))
    assert np.array_equal(report.rank_ratios, ratios)
    assert np.array_equal(report.ranks, ranks)
    assert np.array_equal(report.involutivity_residuals, residuals)


@settings(derandomize=True)
@given(data=st.data())
def test_replayed_samples_equal_their_own_graphs_bit_for_bit(data):
    n = data.draw(st.integers(2, 4), label="n")
    system = VectorFieldPair(
        compile_field([random_component(data.draw, n) for _ in range(n)], n),
        compile_field([random_component(data.draw, n) for _ in range(n)], n), n)
    report = check_linearizable(system, (-1.0, 1.0), samples=data.draw(st.integers(4, 6)),
                                seed=data.draw(st.integers(0, 2 ** 32 - 1)))
    _assert_report_is(report, _graph_report(system, report.points))


def _statistics_calls(monkeypatch):
    """A list that grows by one at each sample's statistics."""
    calls = []
    statistics = liecheck._statistics

    def counted(*args):
        calls.append(None)
        return statistics(*args)

    monkeypatch.setattr(liecheck, "_statistics", counted)
    return calls


def _raised(call):
    try:
        call()
    except NonFiniteError as exc:
        return str(exc)
    return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_later_non_finite_sample_raises_what_the_graph_raises(monkeypatch):
    # y1 > 0 at the first of seed 0's points and y1 < 0 at the second
    f, g = compile_field(["log(y1)", "y1"], 2), compile_field(["0", "1"], 2)
    calls = _statistics_calls(monkeypatch)
    kwargs = dict(domain=(-1.0, 1.0), samples=4, seed=0)
    got = _raised(lambda: check_linearizable(VectorFieldPair(f, g, 2), **kwargs))
    replayed_calls = len(calls)
    calls.clear()
    # wrapped fields are not straight-line, so every sample is its own graph
    want = _raised(lambda: check_linearizable(
        VectorFieldPair(lambda x: f(x), lambda x: g(x), 2), **kwargs))
    assert got == want == "vector field evaluation produced non-finite entries"
    assert replayed_calls == len(calls) == 2


def test_a_field_that_branches_on_values_is_never_replayed():
    chain, cross = (compile_field(f, 3) for f in (["y2", "y3", "0"], ["y2 + y3**2", "y3", "0"]))

    def f(x):
        return chain(x) if x.data[0] > 0 else cross(x)

    system = VectorFieldPair(f, compile_field(["0", "0", "1"], 3), 3)
    report = check_linearizable(system, (-1.0, 1.0), samples=8, seed=0)
    # both branches are sampled, the first sample's included
    assert report.points[0, 0] > 0 and np.any(report.points[:, 0] <= 0)
    assert np.any(report.involutivity_residuals == 0.0)
    assert np.any(report.involutivity_residuals > 0.1)
    _assert_report_is(report, _graph_report(system, report.points))


def test_only_a_check_of_more_than_one_sample_records(monkeypatch):
    def refused():
        raise AssertionError("recorded")

    monkeypatch.setattr(ad, "recording", refused)
    assert check_linearizable(integrator_chain(3), (-1.0, 1.0), samples=1).verdict == "pass"
    with pytest.raises(AssertionError, match="recorded"):
        check_linearizable(integrator_chain(3), (-1.0, 1.0), samples=2)


def test_check_input_validation():
    sys = integrator_chain(2)
    with pytest.raises(ValidationError):
        check_linearizable(sys, (1.0, -1.0))
    with pytest.raises(ValidationError):
        check_linearizable(sys, (-1.0, 1.0), samples=0)
    with pytest.raises(ValidationError):
        check_linearizable(sys, (-1.0, 1.0), tol=0.0)
    report = check_linearizable(sys, (np.array([-1.0, 0.0]), np.array([1.0, 3.0])),
                                samples=20, seed=0)
    assert np.all(report.points[:, 1] >= 0.0)
    with pytest.raises(ValidationError):
        report.verdict_at(-1e-6)


def test_check_refuses_a_state_dimension_over_the_cap_before_any_evaluation():
    def unevaluated(x):
        raise AssertionError("a refused system must not be evaluated")

    with pytest.raises(ValidationError, match="state dimension"):
        check_linearizable(VectorFieldPair(f=unevaluated, g=unevaluated, n=7),
                           (-1.0, 1.0), samples=1)


def test_integrator_chain_refuses_a_state_dimension_over_the_cap():
    with pytest.raises(ValidationError, match="state dimension"):
        integrator_chain(7)


def strict_feedback(n):
    """f_i = y_{i+1} + sinh(y1) y_i, f_n = -y1 y2, g_n = 1 + y1^2."""
    return ([f"y{i + 1} + sinh(y1)*y{i}" for i in range(1, n)] + ["-y1*y2"],
            ["0"] * (n - 1) + ["1 + square(y1)"])


def recorded_tower_calls(f, g):
    """(calls recorded, calls kept by `Program.finish`) for one sample's tower."""
    n = len(f)
    system = VectorFieldPair(compile_field(f, n), compile_field(g, n), n)
    y = np.linspace(-0.5, 0.5, n)
    with ad.recording() as program:
        outputs = liecheck._point_outputs(system, y)
    recorded = len(program.ops)
    program.finish({"x": y}, dict(enumerate(outputs)))
    return recorded, sum(len(ops) for _, _, ops in program.outputs)


def test_the_bench_system_tower_keeps_at_most_600_calls():
    # the liecheck-n4 bench system keeps 335 calls; a backward pass per
    # Jacobian row would keep 4105
    f = ["y2 + sinh(y1)", "y3 + square(y1)", "y4 + y2*y3", "-y1*y2"]
    g = ["0", "0", "0", "1 + square(y1)"]
    assert recorded_tower_calls(f, g)[1] <= 600


def test_a_tower_at_the_state_cap_records_at_most_20000_calls():
    # 7737 at n = 6; the tower grows about 3.4x per state
    assert recorded_tower_calls(*strict_feedback(liecheck.MAX_STATES))[0] <= 20000


def test_vector_field_pair_validation():
    with pytest.raises(ValidationError):
        VectorFieldPair(f=1.0, g=zero_field(2), n=2)
    with pytest.raises(ValidationError):
        VectorFieldPair(f=zero_field(1), g=zero_field(1), n=0)
    with pytest.raises(ValidationError):
        integrator_chain(1)
    with pytest.raises(ValidationError):
        linear_fields(np.eye(2), np.ones(3))


# ---------------------------------------------------------------------------
# expression compiler


def test_compiled_field_matches_numpy():
    field = compile_field(["sinh(y1) + 2*softplus(y2) - square(y3)",
                           "-y1*y3 + 0.5",
                           "y2**3"], 3)
    for seed in range(10):
        y = np.random.default_rng(seed).uniform(-1.5, 1.5, size=3)
        expected = np.array([
            np.sinh(y[0]) + 2.0 * np.log1p(np.exp(y[1])) - y[2] ** 2,
            -y[0] * y[2] + 0.5,
            y[1] ** 3,
        ])
        x = ad.as_tensor(y)
        assert np.abs(field(x).data - expected).max() < 1e-12


def test_compiled_field_power_and_sign_edge_cases():
    field = compile_field(["y1**0", "-y2", "+y1"], 3)
    value = field(ad.as_tensor(np.array([3.0, -4.0, 0.0]))).data
    assert np.array_equal(value, np.array([1.0, 4.0, 3.0]))


def test_compiled_field_is_differentiable():
    field = compile_field(["y1*y2", "exp(y2)"], 2)
    y = np.array([0.8, -0.3])
    jac = numeric_jacobian(lambda p: field(ad.as_tensor(p)).data, y)
    expected = np.array([[y[1], y[0]], [0.0, np.exp(y[1])]])
    assert np.abs(jac - expected).max() < 1e-8


@pytest.mark.parametrize("bad", [
    "y1 / y2",
    "y4",
    "z1",
    "min(y1, y2)",
    "y1 ** 0.5",
    "y1 ** y2",
    "np.sin(y1)",
    "lambda v: v",
    "y1 < y2",
    "True",
    "sinh(y1, y2)",
    "y1 ** 17",
    "y1 ** 99999999",
])
def test_compiler_rejects_disallowed_expressions(bad):
    with pytest.raises(ValidationError):
        compile_field([bad, "0", "0"], 3)


def test_compiler_rejects_wrong_component_count():
    with pytest.raises(ValidationError):
        compile_field(["y1", "y2"], 3)
    with pytest.raises(ValidationError):
        compile_field(["y1 +"], 1)


@pytest.mark.parametrize("components", [5, "y1", [1], [None]])
def test_compiler_rejects_non_string_components(components):
    with pytest.raises(ValidationError):
        compile_field(components, 1)
