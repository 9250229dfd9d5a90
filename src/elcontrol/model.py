"""Exactly linearizable dynamics model and its identification from trajectories.

The model expresses measured outputs through latent linear dynamics wrapped
in conditioned bijections:

    x = Phi(y, d)                       state map (Bnn)
    u = Psi^{-1}(v, y, d)               input map (DiagonalBnn, per channel)
    xdot = A(d) x + B(d) u + c(d)       scheduled linear core
    zhat = Xi(x, u, d)                  constrained outputs, convex in (x, u)

Differentiating the state map turns the latent dynamics into a prediction of
the measured output derivative,

    ydot_hat = (dPhi/dy)^{-1} (A x + B u + c - (dPhi/dd) ddot),

which is what training fits and simulation integrates.  The Jacobian inverse
is always applied by solving a dense linear system.

All published operations take and return physical-unit arrays; feature
standardization is internal and frozen when the model is constructed, so a
zero-epoch training run cannot change a model.  Operations accept a single
record (dim,) or a batch (N, dim).
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npformat

from . import autodiff as ad
from .arrays import GRAPH, TANGENT, seed
from .errors import (ConditioningError, NonFiniteError, ShapeError,
                     TrainingDivergedError, ValidationError)
from .networks import COND_LIMIT, Bnn, DiagonalBnn, ParamMlp, Picnn, Scaler

MODEL_FORMAT_VERSION = 1
GRAD_CLIP_NORM = 10.0


@dataclass(frozen=True)
class ModelDims:
    """Channel counts: outputs y, inputs v/u, disturbances d, constrained z."""

    ny: int
    nu: int
    nd: int
    nz: int

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if int(getattr(self, field.name)) < 1:
                raise ValidationError(f"dimension {field.name} must be >= 1")


@dataclass(frozen=True)
class ModelArch:
    phi_depth: int = 2
    phi_hidden: int = 16
    psi_depth: int = 2
    psi_hidden: int = 16
    xi_depth: int = 2
    xi_hidden: int = 16
    core_hidden: int = 16


def _unbatch(single, *arrays):
    """The arrays, or their first rows for a single-record call; one array
    comes back bare, several as a tuple."""
    if single:
        arrays = tuple(a[0] for a in arrays)
    return arrays[0] if len(arrays) == 1 else arrays


class ELModel:
    """Latent-linear model over conditioned bijections; owns its parameters."""

    def __init__(self, dims: ModelDims, arch: ModelArch | None = None,
                 scalers: dict | None = None, params: dict | None = None):
        self.dims = dims
        self.arch = arch or ModelArch()
        a = self.arch
        ny, nu, nd, nz = dims.ny, dims.nu, dims.nd, dims.nz
        self.state_map = Bnn("phi", ny, cond_dim=nd, depth=a.phi_depth, hidden=a.phi_hidden)
        self.input_map = DiagonalBnn("psi", nu, cond_dim=ny + nd,
                                     depth=a.psi_depth, hidden=a.psi_hidden)
        self.a_net = ParamMlp("core.a", nd, ny * ny, a.core_hidden)
        self.b_net = ParamMlp("core.b", nd, ny * nu, a.core_hidden)
        self.c_net = ParamMlp("core.c", nd, ny, a.core_hidden)
        self.z_map = Picnn("xi", xi_dim=ny + nu, ctx_dim=nd, out_dim=nz,
                           depth=a.xi_depth, hidden=a.xi_hidden, ctx_hidden=a.xi_hidden)
        if scalers is None:
            scalers = {"y": Scaler.identity(ny), "v": Scaler.identity(nu),
                       "d": Scaler.identity(nd), "z": Scaler.identity(nz)}
        self.scalers = scalers
        if params is None:
            params = {}
            for net in self._mlps():
                net.init_zero(params)
            self.z_map.init_zero(params)
        self.params = params
        self.validate()

    # -- construction -----------------------------------------------------

    def _mlps(self):
        return (self.state_map.nets + self.input_map.nets
                + [self.a_net, self.b_net, self.c_net])

    def param_shapes(self):
        shapes = {}
        for net in self._mlps():
            shapes.update(net.param_shapes())
        shapes.update(self.z_map.param_shapes())
        return shapes

    def validate(self):
        """Check parameter completeness/shapes, scaler dims and Xi weight signs."""
        expected = self.param_shapes()
        got = {k: v.shape for k, v in self.params.items()}
        if got.keys() != expected.keys():
            missing = sorted(expected.keys() - got.keys())
            extra = sorted(got.keys() - expected.keys())
            raise ValidationError(f"parameter keys mismatch: missing {missing}, extra {extra}")
        for k, shape in expected.items():
            if got[k] != shape:
                raise ValidationError(f"parameter {k}: shape {got[k]} != expected {shape}")
        for name, dim in (("y", self.dims.ny), ("v", self.dims.nu),
                          ("d", self.dims.nd), ("z", self.dims.nz)):
            if self.scalers[name].dim != dim:
                raise ValidationError(f"scaler {name!r} dim {self.scalers[name].dim} != {dim}")
        self.z_map.validate(self.params)

    def clone(self, params=None):
        new = {k: v.copy() for k, v in (params or self.params).items()}
        return ELModel(self.dims, self.arch, self.scalers, new)

    @classmethod
    def random(cls, dims, arch=None, seed=0, map_scale=0.25, core_scale=0.3):
        """Structured random model, usable as a synthetic data generator.

        Maps are random perturbations of the identity and A(d) is biased
        toward -I, so random instances are well conditioned and stable near
        the origin.
        """
        model = cls(dims, arch)
        rng = np.random.default_rng(seed)
        p = model.params
        for net in model.state_map.nets + model.input_map.nets:
            net.init(p, rng, scale=1.0, out_scale=map_scale)
        model.a_net.init(p, rng, scale=1.0, out_scale=core_scale,
                         last_bias=(-np.eye(dims.ny)).reshape(-1))
        model.b_net.init(p, rng, scale=1.0, out_scale=core_scale,
                         last_bias=np.eye(dims.ny, dims.nu).reshape(-1))
        model.c_net.init(p, rng, scale=1.0, out_scale=core_scale)
        model.z_map.init(p, rng, scale=0.5)
        model.validate()
        return model

    @classmethod
    def for_training(cls, dims, dataset, arch=None, seed=0, map_scale=0.05):
        """Fresh trainable model: scalers frozen from `dataset`, near-identity
        maps, and the linear core warm-started by least squares on the scaled
        records (treating the maps as identity)."""
        scalers = {"y": Scaler.fit(dataset.y), "v": Scaler.fit(dataset.v),
                   "d": Scaler.fit(dataset.d), "z": Scaler.fit(dataset.z)}
        model = cls(dims, arch, scalers=scalers)
        rng = np.random.default_rng(seed)
        p = model.params
        for net in model.state_map.nets + model.input_map.nets:
            net.init(p, rng, scale=1.0, out_scale=map_scale)
        ys = scalers["y"].transform(dataset.y)
        vs = scalers["v"].transform(dataset.v)
        target = dataset.y_dot / scalers["y"].std
        design = np.concatenate([ys, vs, np.ones((len(ys), 1))], axis=1)
        coef = np.linalg.lstsq(design, target, rcond=None)[0]
        ny, nu = dims.ny, dims.nu
        model.a_net.init(p, rng, scale=1.0, out_scale=map_scale,
                         last_bias=coef[:ny].T.reshape(-1))
        model.b_net.init(p, rng, scale=1.0, out_scale=map_scale,
                         last_bias=coef[ny:ny + nu].T.reshape(-1))
        model.c_net.init(p, rng, scale=1.0, out_scale=map_scale,
                         last_bias=coef[ny + nu])
        model.z_map.init(p, rng, scale=0.5)
        model.validate()
        return model

    # -- coordinate maps ---------------------------------------------------

    def _batch(self, **named):
        """Coerce named physical channels to a common (N, dim) batch.

        Returns (arrays dict, single) where `single` is True when every
        argument came in one-dimensional; y, v and d also come back
        standardized, as ys, vs and ds.
        """
        ny, nu, nd = self.dims.ny, self.dims.nu, self.dims.nd
        widths = {"y": ny, "x": ny, "v": nu, "u": nu, "d": nd, "d_dot": nd}
        out = {}
        single = True
        rows = 1
        for name, arr in named.items():
            a = np.asarray(arr, dtype=np.float64)
            dim = widths[name]
            if a.ndim == 0 and dim == 1:
                a = a.reshape(1)
            if a.ndim == 1:
                a = a[None, :]
            elif a.ndim == 2:
                single = False
            else:
                raise ShapeError(f"{name}: expected (dim,) or (N, dim), got {a.shape}")
            if a.shape[1] != dim:
                raise ShapeError(f"{name}: expected {dim} channels, got {a.shape[1]}")
            rows = max(rows, a.shape[0])
            out[name] = a
        for name, a in out.items():
            if a.shape[0] == 1 and rows > 1:
                out[name] = np.broadcast_to(a, (rows, a.shape[1]))
            elif a.shape[0] != rows:
                raise ShapeError(f"{name}: batch size {a.shape[0]} != {rows}")
        for name in ("y", "v", "d"):
            if name in out:
                out[name + "s"] = self.scalers[name].transform(out[name])
        return out, single

    def _cond(self, b):
        return np.concatenate([b["ys"], b["ds"]], axis=-1)

    def _core(self, ds):
        ny, nu = self.dims.ny, self.dims.nu
        A = self.a_net.forward_np(self.params, ds).reshape(-1, ny, ny)
        B = self.b_net.forward_np(self.params, ds).reshape(-1, ny, nu)
        return A, B, self.c_net.forward_np(self.params, ds)

    def x_from_y(self, y, d):
        b, single = self._batch(y=y, d=d)
        return _unbatch(single, self.state_map.forward_np(self.params, b["ys"], b["ds"]))

    def y_from_x(self, x, d):
        b, single = self._batch(x=x, d=d)
        ys = self.state_map.inverse_np(self.params, b["x"], b["ds"])
        return _unbatch(single, self.scalers["y"].inverse(ys))

    def u_from_v(self, v, y, d):
        b, single = self._batch(v=v, y=y, d=d)
        return _unbatch(single, self.input_map.inverse_np(self.params, b["vs"], self._cond(b)))

    def v_from_u(self, u, y, d):
        b, single = self._batch(u=u, y=y, d=d)
        vs = self.input_map.forward_np(self.params, b["u"], self._cond(b))
        return _unbatch(single, self.scalers["v"].inverse(vs))

    def u_from_v_with_jac(self, v, y, d):
        """u = Psi^{-1}(v,y,d) and its physical Jacobians du/dy, du/dd."""
        b, single = self._batch(v=v, y=y, d=d)
        u = self.input_map.inverse(TANGENT, self.params, b["vs"], seed(self._cond(b)))
        ny = self.dims.ny
        return _unbatch(single, u.val, u.tan[..., :ny] / self.scalers["y"].std,
                        u.tan[..., ny:] / self.scalers["d"].std)

    def state_jacobians(self, y, d):
        """x = Phi(y,d) with physical Jacobians dx/dy and dx/dd."""
        b, single = self._batch(y=y, d=d)
        x, J_y, J_d = self.state_map.forward_with_jacobians(self.params, b["ys"], b["ds"])
        return _unbatch(single, x, J_y / self.scalers["y"].std, J_d / self.scalers["d"].std)

    def linear_core(self, d):
        """A(d), B(d), c(d) of the latent dynamics."""
        b, single = self._batch(d=d)
        return _unbatch(single, *self._core(b["ds"]))

    def z_from_latent(self, x, u, d, with_gradients=False):
        """zhat = Xi(x,u,d); optionally also dz/dx and dz/du."""
        b, single = self._batch(x=x, u=u, d=d)
        xi = np.concatenate([b["x"], b["u"]], axis=-1)
        sz = self.scalers["z"]
        if not with_gradients:
            return _unbatch(single, sz.inverse(self.z_map.forward_np(self.params, xi, b["ds"])))
        zs = self.z_map.forward(TANGENT, self.params, seed(xi), b["ds"])
        G = zs.tan * sz.std[:, None]
        ny = self.dims.ny
        return _unbatch(single, sz.inverse(zs.val), G[..., :ny], G[..., ny:])

    # -- predictions --------------------------------------------------------

    def predict_ydot(self, v, y, d, d_dot):
        """Output-derivative prediction; Jacobian inverse applied by dense solve."""
        b, single = self._batch(v=v, y=y, d=d, d_dot=d_dot)
        ds = b["ds"]
        x, J_y, J_d = self.state_map.forward_with_jacobians(self.params, b["ys"], ds)
        cond = np.linalg.cond(J_y)
        if not np.all(np.isfinite(cond)) or np.any(cond > COND_LIMIT):
            raise ConditioningError(
                f"state-map output Jacobian condition number {np.max(cond):.3e} "
                f"exceeds limit {COND_LIMIT:.1e}")
        u = self.input_map.inverse_np(self.params, b["vs"], self._cond(b))
        A, B, c = self._core(ds)
        dds = b["d_dot"] / self.scalers["d"].std
        rhs = (np.einsum("bij,bj->bi", A, x) + np.einsum("bij,bj->bi", B, u) + c
               - np.einsum("bij,bj->bi", J_d, dds))
        ydot = np.linalg.solve(J_y, rhs[..., None])[..., 0] * self.scalers["y"].std
        return _unbatch(single, ydot)

    def predict_z(self, v, y, d):
        """Constrained-output prediction zhat = Xi(Phi(y,d), Psi^{-1}(v,y,d), d)."""
        b, single = self._batch(v=v, y=y, d=d)
        x = self.state_map.forward_np(self.params, b["ys"], b["ds"])
        u = self.input_map.inverse_np(self.params, b["vs"], self._cond(b))
        return _unbatch(single, self.z_from_latent(x, u, b["d"]))

    # -- training loss -------------------------------------------------------

    def _loss_fn(self, q_e, n_records):
        """Graph-building closure for the mean weighted squared error."""
        ny = self.dims.ny

        def fn(**kw):
            pt = {k: kw[k] for k in self.params}
            Y, V, D, DDOT = kw["y"], kw["v"], kw["d"], kw["d_dot"]
            ys = self.scalers["y"].transform(Y)
            ds = self.scalers["d"].transform(D)
            vs = self.scalers["v"].transform(V)
            x = self.state_map.forward(GRAPH, pt, ys, ds)
            J_y, J_d = ad.jacobian_rows(x, [Y, D])
            u = self.input_map.inverse(GRAPH, pt, vs, ad.concat([ys, ds], axis=-1))
            A = ad.reshape(self.a_net.forward(GRAPH, pt, ds), (n_records, ny, ny))
            B = ad.reshape(self.b_net.forward(GRAPH, pt, ds), (n_records, ny, self.dims.nu))
            c = self.c_net.forward(GRAPH, pt, ds)
            rhs = ad.sub(ad.add(ad.add(ad.matvec(A, x), ad.matvec(B, u)), c),
                         ad.matvec(J_d, DDOT))
            ydot_hat = ad.squeeze(ad.solve(J_y, ad.expand_dims(rhs, -1)), -1)
            zs = self.z_map.forward(GRAPH, pt, ad.concat([x, u], axis=-1), ds)
            z_hat = self.scalers["z"].inverse(zs)
            e = ad.concat([ad.sub(ydot_hat, kw["ydot"]), ad.sub(z_hat, kw["z"])], axis=-1)
            weighted = ad.mul(ad.matmul(e, ad.constant(q_e)), e)
            return ad.mul(ad.sum(weighted), 1.0 / n_records)

        return fn

    def loss_graph(self, q_e, n_records):
        fn = self._loss_fn(np.asarray(q_e, dtype=np.float64), n_records)
        return ad.Graph(fn, self.params, ("v", "y", "d", "d_dot", "ydot", "z"))


def loss(model: ELModel, batch, q_e) -> float:
    """Mean weighted squared prediction error over the batch records."""
    if len(batch) == 0:
        raise ValidationError("loss requires a nonempty batch")
    g = model.loss_graph(q_e, len(batch))
    out = ad.evaluate(g, {"v": batch.v, "y": batch.y, "d": batch.d,
                          "d_dot": batch.d_dot, "ydot": batch.y_dot, "z": batch.z})
    return float(out.data)


# ---------------------------------------------------------------------------
# trajectory data

def _grid_derivative(x, dt):
    """Second-order finite differences on a uniform grid (one-sided at ends)."""
    if x.shape[0] < 3:
        raise ValidationError("need at least 3 samples to difference a signal")
    dx = np.empty_like(x)
    dx[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    dx[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * dt)
    dx[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * dt)
    return dx


class TrajectoryDataset:
    """Uniformly sampled records (t, v, d, d_dot, y, y_dot, z).

    Derivative channels not supplied are computed by central differences on
    the uniform grid (second-order one-sided at the ends).  Construction
    validates the grid, finiteness, and that stored derivatives agree with
    differenced signals to within `fd_tol` relative to the channel scale.
    """

    def __init__(self, t, v, d, y, z, d_dot=None, y_dot=None, fd_tol=1e-2):
        self.t = np.asarray(t, dtype=np.float64).reshape(-1)
        n = self.t.shape[0]

        def col(name, a, width=None):
            a = np.asarray(a, dtype=np.float64)
            if a.ndim == 1:
                a = a[:, None]
            if a.shape[0] != n:
                raise ValidationError(f"{name}: {a.shape[0]} rows != {n} time samples")
            if width is not None and a.shape[1] != width:
                raise ValidationError(f"{name}: {a.shape[1]} columns != {width}")
            return a

        self.v = col("v", v)
        self.d = col("d", d)
        self.y = col("y", y)
        self.z = col("z", z)
        self.fd_tol = float(fd_tol)
        period = float(self.t[1] - self.t[0]) if n > 1 else 0.0
        self.y_dot = (col("y_dot", y_dot, self.y.shape[1]) if y_dot is not None
                      else _grid_derivative(self.y, period))
        self.d_dot = (col("d_dot", d_dot, self.d.shape[1]) if d_dot is not None
                      else _grid_derivative(self.d, period))
        self.validate()

    def __len__(self):
        return self.t.shape[0]

    @property
    def period(self):
        if len(self) < 2:
            raise ValidationError("period undefined for fewer than 2 samples")
        return float(self.t[1] - self.t[0])

    def validate(self):
        for name in ("t", "v", "d", "d_dot", "y", "y_dot", "z"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"non-finite values in {name}")
        if len(self) >= 2:
            steps = np.diff(self.t)
            if np.any(steps <= 0):
                raise ValidationError("time stamps must be strictly increasing")
            if np.max(np.abs(steps - self.period)) > 1e-6 * max(self.period, 1e-12):
                raise ValidationError("time grid is not uniform")
        if len(self) >= 3:
            self._check_fd("y", self.y, self.y_dot)
            self._check_fd("d", self.d, self.d_dot)

    def _check_fd(self, name, signal, stored):
        fd = (signal[2:] - signal[:-2]) / (2.0 * self.period)
        scale = 1.0 + np.max(np.abs(stored))
        err = np.max(np.abs(fd - stored[1:-1]))
        if err > self.fd_tol * scale:
            raise ValidationError(
                f"{name}_dot disagrees with differenced {name}: "
                f"max error {err:.3e} > {self.fd_tol:.1e} * {scale:.3e}")

    def segment(self, start, stop):
        """Contiguous sub-dataset keeping the stored derivatives."""
        sl = slice(start, stop)
        return TrajectoryDataset(self.t[sl], self.v[sl], self.d[sl], self.y[sl],
                                 self.z[sl], d_dot=self.d_dot[sl],
                                 y_dot=self.y_dot[sl], fd_tol=self.fd_tol)


def write_table(path, header, rows):
    """CSV with one header line; numbers as %.17g so float64 round trips exactly."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(x if isinstance(x, str) else f"{x:.17g}" for x in row) + "\n")


def write_blocks(path, blocks):
    """`write_table` for named blocks of channels: a 1-D block is one column
    under its name, a 2-D block one column per channel numbered from 1."""
    header = []
    for name, arr in blocks:
        header.extend([name] if arr.ndim == 1 else
                      [f"{name}{i + 1}" for i in range(arr.shape[1])])
    write_table(path, header, np.column_stack([arr for _, arr in blocks]).tolist())


def write_csv(dataset: TrajectoryDataset, path):
    """Write the dataset as CSV plus a `<path>.meta.json` sidecar.

    Values are formatted with %.17g so float64 round trips exactly.
    """
    write_blocks(path, [("t", dataset.t), ("v", dataset.v), ("d", dataset.d),
                        ("y", dataset.y), ("z", dataset.z),
                        ("ydot", dataset.y_dot), ("ddot", dataset.d_dot)])
    meta = {"format_version": 1,
            "period": dataset.period if len(dataset) > 1 else None,
            "fd_tol": dataset.fd_tol,
            "units": {"t": "s"}}
    with open(f"{path}.meta.json", "w") as f:
        json.dump(meta, f, sort_keys=True, indent=1)
        f.write("\n")


def read_csv(path, fd_tol=None):
    """Read a dataset CSV; derivative columns are used if present else differenced."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        try:
            table = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: not a numeric table ({exc})") from None
    if table.shape[1] != len(header):
        raise ValidationError(f"{path}: {table.shape[1]} columns != header {len(header)}")
    groups: dict[str, list[int]] = {}
    for idx, name in enumerate(header):
        base = name.rstrip("0123456789")
        groups.setdefault(base, []).append(idx)
    required = ["t", "v", "d", "y", "z"]
    missing = [g for g in required if g not in groups]
    if missing:
        raise ValidationError(f"{path}: missing column groups {missing}")
    known = set(required) | {"ydot", "ddot"}
    unknown = sorted(set(groups) - known)
    if unknown:
        raise ValidationError(f"{path}: unknown column groups {unknown}")
    if fd_tol is None:
        fd_tol = 1e-2
        try:
            with open(f"{path}.meta.json") as f:
                fd_tol = float(json.load(f).get("fd_tol", fd_tol))
        except (OSError, ValueError):
            pass
    pick = lambda g: table[:, groups[g]]
    return TrajectoryDataset(
        pick("t")[:, 0], pick("v"), pick("d"), pick("y"), pick("z"),
        d_dot=pick("ddot") if "ddot" in groups else None,
        y_dot=pick("ydot") if "ydot" in groups else None,
        fd_tol=fd_tol)


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 256
    step_size: float = 1e-2
    decay: float = 1.0          # per-epoch multiplicative step-size factor
    seed: int = 0
    val_fraction: float = 0.2
    q_e: np.ndarray | None = None   # default: per-channel inverse target variance

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValidationError("epochs must be >= 0 and batch_size >= 1")
        if not (0.0 < self.step_size and 0.0 < self.decay <= 1.0):
            raise ValidationError("step_size must be > 0 and decay in (0, 1]")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValidationError("val_fraction must be in [0, 1)")
        if self.q_e is not None:
            q = np.asarray(self.q_e, dtype=np.float64)
            if q.ndim != 2 or q.shape[0] != q.shape[1] or not np.allclose(q, q.T):
                raise ValidationError("q_e must be a symmetric square matrix")
            try:
                np.linalg.cholesky(q)
            except np.linalg.LinAlgError as exc:
                raise ValidationError("q_e must be positive definite") from exc
            self.q_e = q


def default_q_e(dataset: TrajectoryDataset):
    """Diagonal weight: inverse variance per target channel (ydot then z)."""
    targets = np.concatenate([dataset.y_dot, dataset.z], axis=1)
    var = targets.var(axis=0)
    return np.diag(1.0 / np.maximum(var, 1e-12))


def train(model: ELModel, data: TrajectoryDataset, cfg: TrainConfig):
    """Fit the model parameters by minibatch gradient descent on `loss`.

    The last `val_fraction` of the records (contiguous in time, so no
    leakage across adjacent samples) is held out; per-epoch train and
    validation losses are returned as the history.  Deterministic for a
    fixed (seed, data, config).  On divergence the error carries the last
    finite parameter checkpoint.
    """
    data.validate()
    q_e = cfg.q_e if cfg.q_e is not None else default_q_e(data)
    if q_e.shape[0] != model.dims.ny + model.dims.nz:
        raise ValidationError(f"q_e must be {model.dims.ny + model.dims.nz} wide")
    n = len(data)
    n_val = int(round(cfg.val_fraction * n))
    n_train = n - n_val
    if n_train < 1:
        raise ValidationError("validation split leaves no training data")
    arrays = {"v": data.v, "y": data.y, "d": data.d, "d_dot": data.d_dot,
              "ydot": data.y_dot, "z": data.z}
    tr = {k: a[:n_train] for k, a in arrays.items()}
    va = {k: a[n_train:] for k, a in arrays.items()}

    rng = np.random.default_rng(cfg.seed)
    params = {k: p.copy() for k, p in model.params.items()}
    trained = model.clone(params)
    m1 = {k: np.zeros_like(p) for k, p in params.items()}
    m2 = {k: np.zeros_like(p) for k, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step_count = 0
    history = {"train": [], "val": []}
    checkpoint = {k: p.copy() for k, p in params.items()}

    def batch_loss(model_now, sel_arrays, count):
        g = model_now.loss_graph(q_e, count)
        out = ad.evaluate(g, sel_arrays)
        return g, float(out.data)

    for epoch in range(cfg.epochs):
        step = cfg.step_size * cfg.decay ** epoch
        perm = rng.permutation(n_train)
        epoch_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            sel = perm[start:start + cfg.batch_size]
            batch = {k: a[sel] for k, a in tr.items()}
            try:
                g, value = batch_loss(trained, batch, len(sel))
                grads = ad.gradient(g)
            except (NonFiniteError, np.linalg.LinAlgError) as exc:
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}",
                    checkpoint=checkpoint, epoch=epoch) from exc
            epoch_sum += value * len(sel)
            norm = np.sqrt(
                np.sum([float(np.sum(np.square(gv))) for gv in grads.values()]))
            clip = min(1.0, GRAD_CLIP_NORM / norm) if norm > 0 else 1.0
            step_count += 1
            bias1 = 1.0 - beta1 ** step_count
            bias2 = 1.0 - beta2 ** step_count
            for k in params:
                gk = grads[k] * clip
                m1[k] = beta1 * m1[k] + (1.0 - beta1) * gk
                m2[k] = beta2 * m2[k] + (1.0 - beta2) * np.square(gk)
                params[k] = params[k] - step * (m1[k] / bias1) / (
                    np.sqrt(m2[k] / bias2) + eps)
            trained.params = params
        history["train"].append(epoch_sum / n_train)
        if n_val:
            try:
                _, val_value = batch_loss(trained, va, n_val)
            except (NonFiniteError, np.linalg.LinAlgError) as exc:
                raise TrainingDivergedError(
                    f"validation loss diverged in epoch {epoch}",
                    checkpoint=checkpoint, epoch=epoch) from exc
            history["val"].append(val_value)
        checkpoint = {k: p.copy() for k, p in params.items()}

    trained.params = params
    trained.validate()
    return trained, history


# ---------------------------------------------------------------------------
# model file io

def _write_npz(path, arrays):
    """Deterministic npz: fixed entry order and timestamps, no compression."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            npformat.write_array(buf, np.ascontiguousarray(arr), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def save_model(model: ELModel, path):
    """Write a self-describing container; parameters round trip bit-exactly."""
    meta = {"format_version": MODEL_FORMAT_VERSION,
            "dims": [model.dims.ny, model.dims.nu, model.dims.nd, model.dims.nz],
            "arch": dataclasses.asdict(model.arch)}
    arrays = {"__meta__": np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)}
    for name in ("y", "v", "d", "z"):
        arrays[f"scaler.{name}.mean"] = model.scalers[name].mean
        arrays[f"scaler.{name}.std"] = model.scalers[name].std
    for key in sorted(model.params):
        arrays[f"param.{key}"] = model.params[key]
    _write_npz(path, arrays)


def load_model(path) -> ELModel:
    """Read a model container.

    Anything but a well-formed container with finite values raises
    ValidationError; a missing file raises OSError.
    """
    data = {}
    try:
        with zipfile.ZipFile(path) as zf:
            for name in zf.namelist():
                with zf.open(name) as fh:
                    data[name.removesuffix(".npy")] = npformat.read_array(fh, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise ValidationError(f"{path}: not a model container ({exc})") from exc
    if "__meta__" not in data:
        raise ValidationError(f"{path}: not a model container")
    try:
        meta = json.loads(bytes(data["__meta__"]).decode())
    except ValueError as exc:
        raise ValidationError(f"{path}: unreadable model metadata") from exc
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: unreadable model metadata")
    if meta.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported format_version {meta.get('format_version')}")
    arch, dims = meta.get("arch"), meta.get("dims")
    if not (isinstance(arch, dict) and isinstance(dims, list) and len(dims) == 4
            and all(type(v) is int for v in [*dims, *arch.values()])):
        raise ValidationError(f"{path}: model metadata lacks integer dims or arch")
    unknown = sorted(set(arch) - {f.name for f in dataclasses.fields(ModelArch)})
    if unknown:
        raise ValidationError(f"{path}: unknown arch keys {unknown}")
    scaler_keys = [f"scaler.{name}.{part}" for name in ("y", "v", "d", "z")
                   for part in ("mean", "std")]
    missing = [key for key in scaler_keys if key not in data]
    if missing:
        raise ValidationError(f"{path}: missing entries {missing}")
    nonfinite = sorted(key for key, arr in data.items()
                       if key != "__meta__" and not np.all(np.isfinite(arr)))
    if nonfinite:
        raise ValidationError(f"{path}: non-finite values in {nonfinite}")
    scalers = {name: Scaler(data[f"scaler.{name}.mean"], data[f"scaler.{name}.std"])
               for name in ("y", "v", "d", "z")}
    params = {key[len("param."):]: arr for key, arr in data.items() if key.startswith("param.")}
    return ELModel(ModelDims(*dims), ModelArch(**arch), scalers, params)
