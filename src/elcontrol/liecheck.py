"""Numerical test of exact linearizability for single-input systems.

For dy/dt = f(y) + g(y) v, a linearizing coordinate change and feedback
exist if and only if the iterated brackets ad_f^0 g, ..., ad_f^{n-1} g are
linearly independent at every point and the distribution spanned by
ad_f^0 g, ..., ad_f^{n-2} g is involutive.  Both conditions are verified
here numerically at sampled points: independence through the singular
values of the bracket matrix, involutivity through the least-squares
residual of each pairwise bracket against the spanning set.  The result is
a report over the sampled box, not a proof for all y.

Brackets have one implementation, `_tower`: on one input tensor it
evaluates f and Df once, then the values ad^0 g ... ad^{n-1} g and the
Jacobians of ad^0 g ... ad^{n-2} g.  `ad_power_field` and `bracket_field`
are levels of that tower.  `check_linearizable` builds one at a sample point
and forms every pairwise bracket J(ad^j) ad^i - J(ad^i) ad^j from its
tensors with no further backward passes.  For fields from `compile_field`
or `linear_fields` it records the first point's as an `autodiff.Program`
and replays that at every later point, bit for bit and about 7x cheaper.  A
tower grows 20-30x per state, so the check refuses n above MAX_STATES.

Vector fields are callables mapping an autodiff tensor to an autodiff
tensor, so Jacobians (and Jacobians of bracket fields, which contain
backward passes themselves) come from the graph engine.  A restricted
expression compiler turns plain text like "y2 + y3**2" into such fields
for the command line.
"""

from __future__ import annotations

import ast
import contextlib
import reprlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import MAX_COUNT, NonFiniteError, ValidationError

# the largest literal exponent the compiler expands into repeated products
MAX_POWER = 16

# the largest state dimension checked: a sample's tower grows 20-30x per
# state, to over a minute and 1.5 GB at n = 6
MAX_STATES = 6

# the deepest expression tree the compiler accepts; evaluating a compiled
# field recurses once per level
MAX_DEPTH = 64

# brackets whose norm sits at roundoff scale relative to the spanning set
# count as exactly zero, so cancellation noise cannot fail the check
ZERO_FLOOR = 1e-12


@dataclass(frozen=True)
class VectorFieldPair:
    """Drift and input fields of a single-input input-affine system."""

    f: object
    g: object
    n: int

    def __post_init__(self):
        if not callable(self.f) or not callable(self.g):
            raise ValidationError("vector fields must be callables over autodiff tensors")
        if self.n < 1:
            raise ValidationError("state dimension must be at least 1")


def _bracket(fx, jf, gx, jg):
    """[f, g] from the values and Jacobians of f and g at one point."""
    return ad.sub(ad.matvec(jg, fx), ad.matvec(jf, gx))


def _checked_states(n):
    if n > MAX_STATES:
        raise ValidationError(f"the state dimension is {n}; liecheck checks at most {MAX_STATES}")
    return n


def _finite(value):
    if not np.all(np.isfinite(value)):
        raise NonFiniteError("vector field evaluation produced non-finite entries")
    return value


def _eval_field(field, y):
    x = ad.as_tensor(np.asarray(y, dtype=np.float64).reshape(-1))
    with np.errstate(all="ignore"):
        return _finite(field(x).data)


def lie_bracket(f, g, y):
    """[f, g](y) = (dg/dy) f(y) - (df/dy) g(y)."""
    return _eval_field(bracket_field(f, g), y)


def ad_power_field(f, g, k):
    """The iterated bracket field ad_f^k g as a callable, differentiable again."""
    if k < 0:
        raise ValidationError("bracket power must be nonnegative")
    return lambda x: _tower(f, g, k + 1, x)[0][k]


def bracket_field(f, g):
    """The field y -> (dg/dy) f(y) - (df/dy) g(y), differentiable again."""
    return ad_power_field(f, g, 1)


def ad_power(f, g, k, y):
    """ad_f^k g evaluated at y (k = 0 gives g(y))."""
    return _eval_field(ad_power_field(f, g, k), y)


@dataclass(frozen=True)
class CheckReport:
    """Sampled linearizability evidence over a box.

    rank_ratios holds sigma_min/sigma_max of the bracket matrix per sample,
    ranks the numerical rank at the construction tolerance, and
    involutivity_residuals the worst relative projection residual per
    sample.  The verdict aggregates the worst sample; verdict_at re-applies
    the thresholds for a different tolerance on the same raw numbers.
    """

    points: np.ndarray
    rank_ratios: np.ndarray
    ranks: np.ndarray
    involutivity_residuals: np.ndarray
    tol: float
    verdict: str
    note: str = ("sampled numerical check on the given box; "
                 "not a proof for all states")

    def verdict_at(self, tol):
        if not tol > 0:
            raise ValidationError("tolerance must be positive")
        if np.any(self.rank_ratios <= tol):
            return "fail-rank"
        if np.any(self.involutivity_residuals >= tol):
            return "fail-involutive"
        return "pass"


def check_linearizable(system, domain, samples=100, tol=1e-6, seed=0):
    """Sample the box and test spanning rank plus involutivity.

    domain is a (low, high) pair, each a scalar or length-n vector.  At each
    sampled point the brackets ad^0 g ... ad^{n-1} g must have numerical
    rank n (sigma_min > tol * sigma_max) and every pairwise bracket of
    ad^0 g ... ad^{n-2} g must project onto their span with relative
    residual below tol.  The verdict reports the first condition that fails
    anywhere ("fail-rank" before "fail-involutive"), else "pass".
    """
    if not 1 <= samples <= MAX_COUNT:
        raise ValidationError(f"the sample count must be from 1 to {MAX_COUNT:g}, got {samples}")
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    n = _checked_states(system.n)
    low, high = domain
    low = np.broadcast_to(np.asarray(low, dtype=np.float64), (n,))
    high = np.broadcast_to(np.asarray(high, dtype=np.float64), (n,))
    if not np.all(low < high):
        raise ValidationError("domain must satisfy low < high per coordinate")

    rng = np.random.default_rng(seed)
    points = rng.uniform(low, high, size=(samples, n))

    # a field marked straight_line builds the same graph at every point, as
    # no branch reads a value; when f and g both are, the first sample's
    # tower is recorded and every later sample replays it
    record = samples > 1 and all(getattr(h, "straight_line", False) for h in (system.f, system.g))
    program = None
    rank_ratios = np.empty(samples)
    ranks = np.empty(samples, dtype=int)
    invol = np.zeros(samples)
    for s, y in enumerate(points):
        with ad.recording() if record and s == 0 else contextlib.nullcontext() as recorded:
            outputs = _point_outputs(system, y, program)
        rank_ratios[s], ranks[s], invol[s] = _statistics(outputs, n, tol)
        if recorded is not None:
            program = recorded.finish({"x": y}, dict(enumerate(outputs)))

    report = CheckReport(points=points, rank_ratios=rank_ratios, ranks=ranks,
                         involutivity_residuals=invol, tol=float(tol), verdict="")
    object.__setattr__(report, "verdict", report.verdict_at(tol))
    return report


def _tower(f, g, n, x):
    """ad_f^0 g ... ad_f^{n-1} g at x, and the Jacobians of all but the last;
    f and Df are evaluated once and every level reuses them."""
    values, jacs = [g(x)], []
    if n > 1:
        fx = f(x)
        (jf,) = ad.jacobian_rows(fx, [x])
    for _ in range(1, n):
        (jv,) = ad.jacobian_rows(values[-1], [x])
        jacs.append(jv)
        values.append(_bracket(fx, jf, values[-1], jv))
    return values, jacs


def _point_outputs(system, y, program=None):
    """The arrays ad^0 g ... ad^{n-1} g at y, then every pairwise bracket of
    all but the last: `program`'s replay if given, else a tower's values,
    freed with it when no recording holds it (no graph refers to itself)."""
    # [a, b] = -[b, a] and [a, a] = 0, so only i < j pairs carry information
    span_count = system.n - 1
    with np.errstate(all="ignore"):
        if program is not None:
            return [value for _, value in program.replay({"x": y})]
        values, jacs = _tower(system.f, system.g, system.n, ad.as_tensor(y))
        pairs = [_bracket(values[i], jacs[i], values[j], jacs[j])
                 for i in range(span_count) for j in range(i + 1, span_count)]
        return [t.data for t in values + pairs]


def _statistics(outputs, n, tol):
    """(rank ratio, rank, worst involutivity residual) from `_point_outputs`,
    raising at its first non-finite array."""
    outputs = [_finite(v) for v in outputs]
    D = np.column_stack(outputs[:n])
    sigma = np.linalg.svd(D, compute_uv=False)
    top = sigma[0] if sigma[0] > 0 else 1.0
    span = D[:, :n - 1]
    worst = 0.0
    for b in outputs[n:]:
        norm_b = float(np.linalg.norm(b))
        if norm_b <= ZERO_FLOOR * (1.0 + sigma[0]):
            continue
        coef = np.linalg.lstsq(span, b, rcond=None)[0]
        worst = max(worst, float(np.linalg.norm(b - span @ coef)) / norm_b)
    return sigma[-1] / top, int(np.count_nonzero(sigma > tol * sigma[0])), worst


# ---------------------------------------------------------------------------
# built-in systems

def integrator_chain(n):
    """y1' = y2, ..., y_{n-1}' = y_n, y_n' = v: linearizable by inspection."""
    if n < 2:
        raise ValidationError("the chain needs at least two states")
    _checked_states(n)
    return VectorFieldPair(f=compile_field([f"y{i}" for i in range(2, n + 1)] + ["0"], n),
                           g=compile_field(["0"] * (n - 1) + ["1"], n), n=n)


def linear_fields(F, G):
    """f(y) = F y, g(y) = G (constant input field)."""
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    G = np.asarray(G, dtype=np.float64).reshape(-1)
    n = F.shape[0]
    if F.shape != (n, n) or G.shape != (n,):
        raise ValidationError("linear fields need F (n x n) and G (n,)")

    def f(x):
        return ad.matvec(ad.constant(F), x)

    def g(x):
        return ad.constant(G)

    f.straight_line = g.straight_line = True

    return VectorFieldPair(f=f, g=g, n=n)


def noninvolutive_chain():
    """A 3-state chain with quadratic cross-feed: full bracket rank at every
    point, but the two-field distribution is not involutive, so no
    linearizing coordinates exist."""
    return VectorFieldPair(f=compile_field(["y2 + y3**2", "y3", "0"], 3),
                           g=compile_field(["0", "0", "1"], 3), n=3)


# ---------------------------------------------------------------------------
# restricted expression compiler

_BINOPS = {ast.Add: ad.add, ast.Sub: ad.sub, ast.Mult: ad.mul}


def _compile_node(node, n, depth=0):
    if depth > MAX_DEPTH:
        raise ValidationError(f"expressions may nest at most {MAX_DEPTH} levels deep")
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        value = float(node.value)
        return lambda x: ad.constant(np.array([value]))
    if isinstance(node, ast.Name):
        states = [f"y{i}" for i in range(1, n + 1)]
        if node.id in states:
            idx = states.index(node.id)
            return lambda x: ad.narrow(x, 0, idx, 1)
        raise ValidationError(f"unknown name {reprlib.repr(node.id)}; states are y1..y{n}")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _compile_node(node.operand, n, depth + 1)
        if isinstance(node.op, ast.UAdd):
            return inner
        return lambda x: ad.mul(ad.constant(np.array([-1.0])), inner(x))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left = _compile_node(node.left, n, depth + 1)
        right = _compile_node(node.right, n, depth + 1)
        return lambda x: op(left(x), right(x))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        if not (isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)
                and 0 <= node.right.value <= MAX_POWER):
            raise ValidationError(
                f"** needs a literal integer exponent between 0 and {MAX_POWER}")
        power = node.right.value
        base = _compile_node(node.left, n, depth + 1)
        if power == 0:
            return lambda x: ad.constant(np.ones(1))

        def repeated(x):
            value = base(x)
            result = value
            for _ in range(power - 1):
                result = ad.mul(result, value)
            return result

        return repeated
    if isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name) or node.func.id not in ad.ELEMENTWISE
                or len(node.args) != 1 or node.keywords):
            raise ValidationError(
                f"only single-argument calls to {sorted(ad.ELEMENTWISE)} are allowed")
        fn = ad.ELEMENTWISE[node.func.id]
        inner = _compile_node(node.args[0], n, depth + 1)
        return lambda x: fn(inner(x))
    raise ValidationError(f"expression element {type(node).__name__} is not allowed")


def compile_field(components, n):
    """Compile n expression strings over y1..yn into a vector field.

    The grammar is numbers, state names, + - * and integer **, and the
    elementwise functions of the graph engine, nested at most MAX_DEPTH
    levels; no division, no attribute access, no general calls.  Raises
    ValidationError on anything else.
    """
    if not (isinstance(components, (list, tuple))
            and all(isinstance(text, str) for text in components)):
        raise ValidationError(
            f"expected a list of expression strings, got {reprlib.repr(components)}")
    if len(components) != n:
        raise ValidationError(f"expected {n} component expressions, got {len(components)}")
    compiled = []
    for text in components:
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ValidationError(f"cannot parse {reprlib.repr(text)}: {exc.msg}") from exc
        except RecursionError:
            raise ValidationError(f"cannot parse {reprlib.repr(text)}: nested too deeply") from None
        compiled.append(_compile_node(tree.body, n))

    def field(x):
        return ad.concat([comp(x) for comp in compiled], axis=0)

    field.straight_line = True
    return field
