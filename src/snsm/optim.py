"""Composable first-order optimizer: momentum choice x adaptive-step choice.

The update per parameter is

    x' = x - lr_t * direction / denominator - lr_t * wd * x

where the momentum component supplies ``direction`` (plain gradient, EMA
momentum, or subspace momentum with SGD residual), the adaptive component
supplies ``denominator`` (ones, or subset-norm denominators from EMA or
cumulative second moments shared within each subset), and an optional
global-norm clip runs over the whole gradient list first. Coordinate-wise
adaptivity (Adam, RMSProp, AdaGrad) is the ``coord`` partition, one subset
per coordinate, and AdaGrad-Norm the ``norm`` partition, one subset in all.
The specs of the subset-norm rules (``EMASubsetNorm``, ``AdaGradSubsetNorm``)
and of subspace momentum (``SubspaceMomentum``, ``GaloreMomentum``) live
with the state machines that run them, in :mod:`snsm.subsetnorm` and
:mod:`snsm.subspace`, and are re-exported here.

Per-parameter state is lazy: constructing an :class:`Optimizer` validates
the spec against the shapes (frame ranks, partitions) and allocates no
buffer. Every buffer and frame is built on the first ``step``, and the
gradient-based frame kinds (svd, approx_svd, top_k_rows) start from that
step's gradient. :meth:`Optimizer.state_size` is a closed form of (spec,
shape, tag), so it allocates and factorizes nothing, before or after steps.

One optimizer steps S replicas of its parameters in lockstep: ``step``
takes each parameter as ``shape`` (S = 1) or ``(S,) + shape``, and every
state array carries the leading replica axis. S is fixed by the first step;
:meth:`Optimizer.keep_replicas` drops replicas (a diverged seed) from every
state array. Replicas share the spec and the seed, so the frame kinds drawn
from the seed give each replica the same frame. ``state_size`` stays per
replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import partition as part
from . import subsetnorm as sn
from .linalg import Frame, FrameKind, frame_storage_elements, take_replicas
from .subsetnorm import AdaGradSubsetNorm, EMASubsetNorm
from .subspace import (
    GaloreMomentum,
    GaloreState,
    SubspaceMomentum,
    SubspaceMomentumState,
    check_beta,
    galore_direction,
    galore_init,
    galore_maybe_refresh,
    sm_direction,
    sm_init,
    sm_maybe_refresh,
)


class NonFiniteGradientError(ValueError):
    """Raised when a step receives NaN/Inf gradients; the step is rejected.

    ``replicas`` holds the positions in the batch of the replicas whose
    gradient is not finite; no state has changed.
    """

    def __init__(self, message: str, replicas: tuple = ()):
        super().__init__(message)
        self.replicas = replicas


# ---------------------------------------------------------------------------
# spec components

@dataclass(frozen=True)
class NoMomentum:
    pass


@dataclass(frozen=True)
class EMAMomentum:
    beta1: float = 0.9
    dampening: bool = True

    def __post_init__(self):
        check_beta("beta1", self.beta1)


@dataclass(frozen=True)
class NoAdaptive:
    pass


@dataclass(frozen=True)
class ConstantSchedule:
    pass


@dataclass(frozen=True)
class CosineWarmup:
    warmup_frac: float = 0.1
    floor_frac: float = 0.1


@dataclass(frozen=True)
class OptimizerSpec:
    momentum: object = field(default_factory=NoMomentum)
    adaptive: object = field(default_factory=NoAdaptive)
    base_lr: float = 1e-3
    schedule: object = field(default_factory=ConstantSchedule)
    weight_decay: float = 0.0
    clip_norm: float | None = None

    def __post_init__(self):
        # a negative lr or clip_norm steps up the gradient, a zero one never
        # moves, and a negative weight decay would grow the parameters
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.base_lr}")
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm)
                                               and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be finite and > 0, got {self.clip_norm}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, "
                             f"got {self.weight_decay}")


def lr_at(schedule, base_lr: float, t: int, T_total: int) -> float:
    """Learning rate at step t in [1, T_total]."""
    if not 1 <= t <= T_total:
        raise ValueError(f"t={t} out of range [1, {T_total}]")
    if isinstance(schedule, ConstantSchedule):
        return base_lr
    warmup_steps = int(round(schedule.warmup_frac * T_total))
    if t <= warmup_steps and warmup_steps > 0:
        return base_lr * t / warmup_steps
    floor = schedule.floor_frac * base_lr
    if T_total == warmup_steps:
        return base_lr
    progress = (t - warmup_steps) / (T_total - warmup_steps)
    return floor + 0.5 * (base_lr - floor) * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# presets (Table "update rules" grid)

def make_preset(name: str, lr: float = 1e-3, rank: int = 4, refresh_gap: int = 200,
                frame_kind: FrameKind | str = FrameKind.SVD,
                subset_rule: str = "heuristic2d", subset_size: int | None = None,
                **kwargs) -> OptimizerSpec:
    """Spec of a named preset.

    Adam/RMSProp and AdaGrad/AdaGrad-Norm are the ``coord`` (c = d) and
    ``norm`` (c = 1) rules of the subset-norm families; ``subset_rule`` and
    ``subset_size`` only select the partition of the SN presets.
    """
    frame_kind = FrameKind(frame_kind)
    key = name.replace("-", "").replace("_", "").lower()
    sub = dict(partition_rule=subset_rule, subset_size=subset_size)
    specs = {
        "sgd": OptimizerSpec(NoMomentum(), NoAdaptive()),
        "sgdm": OptimizerSpec(EMAMomentum(), NoAdaptive()),
        "sgdsm": OptimizerSpec(
            SubspaceMomentum(frame_kind, rank, refresh_gap), NoAdaptive()),
        "rmsprop": OptimizerSpec(NoMomentum(), EMASubsetNorm("coord")),
        "rmspropsn": OptimizerSpec(NoMomentum(), EMASubsetNorm(**sub)),
        "adam": OptimizerSpec(EMAMomentum(), EMASubsetNorm("coord")),
        "adamsn": OptimizerSpec(EMAMomentum(), EMASubsetNorm(**sub)),
        "adamsnsm": OptimizerSpec(
            SubspaceMomentum(frame_kind, rank, refresh_gap), EMASubsetNorm(**sub)),
        "adagrad": OptimizerSpec(NoMomentum(), AdaGradSubsetNorm("coord")),
        "adagradnorm": OptimizerSpec(NoMomentum(), AdaGradSubsetNorm("norm")),
        "adagradsn": OptimizerSpec(NoMomentum(), AdaGradSubsetNorm(**sub)),
        "adagradsnsm": OptimizerSpec(
            SubspaceMomentum(frame_kind, rank, refresh_gap), AdaGradSubsetNorm(**sub)),
        "adagradm": OptimizerSpec(EMAMomentum(), AdaGradSubsetNorm("coord")),
        "galore": OptimizerSpec(GaloreMomentum(frame_kind, rank, refresh_gap),
                                NoAdaptive()),
    }
    if key not in specs:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(specs)}")
    return replace(specs[key], base_lr=lr, **kwargs)


PRESET_NAMES = (
    "SGD", "SGDm", "SGD-SM", "RMSProp", "RMSPropSN", "Adam", "AdamSN",
    "AdamSNSM", "AdaGrad", "AdaGradNorm", "AdaGradSN", "AdaGradSNSM",
    "AdaGradm", "GaLore",
)


# ---------------------------------------------------------------------------
# per-parameter state

def _build_partition(rule: str, subset_size, shape) -> part.Partition:
    d = int(np.prod(shape))
    if rule == "heuristic2d":
        if len(shape) == 2:
            return part.heuristic_2d(shape[0], shape[1])
        return part.sqrt_heuristic(d)
    if rule == "equip":
        if subset_size is None:
            raise ValueError("equip rule requires subset_size")
        return part.equipartition(d, subset_size)
    if rule == "norm":
        return part.singleton(d)
    if rule == "coord":
        return part.coordinatewise(d)
    raise ValueError(f"unknown partition rule {rule!r}")


def _check_rank(momentum, m: int, n: int) -> None:
    """Reject a frame rank the oriented (m, n) parameter cannot hold."""
    kind, k = momentum.frame_kind, momentum.rank
    if not 0 <= k <= m:
        raise ValueError(f"rank k={k} out of range for ambient dimension m={m}")
    if k == 0:
        return
    if kind is FrameKind.IDENTITY and k != m:
        raise ValueError("identity frame requires k == m")
    if kind in (FrameKind.SVD, FrameKind.APPROX_SVD) and k > n:
        raise ValueError(f"rank k={k} out of range for {m}x{n} matrix")


class _ParamSlot:
    """All optimizer state attached to one parameter tensor.

    Construction keeps only Python scalars: the resolved configs, the
    orientation and the partition. Buffers and frames are built on the first
    ``update``, gradient-based frames from that step's gradient. ``update``
    takes the parameter and gradient of S replicas as ``(S,) + shape``.
    """

    def __init__(self, spec: OptimizerSpec, shape: tuple, tag: str, seed: int):
        self.shape = tuple(shape)
        self.tag = tag
        self.d = int(np.prod(shape))
        self.seed = seed
        momentum, adaptive = spec.momentum, spec.adaptive
        # Subspace momentum and the shape-based partition rules (heuristic2d,
        # equip) only apply to linear-tagged parameters; elsewhere momentum
        # falls back to EMA and those rules to coordinate-wise subsets. The
        # norm and coord rules mean the same on every tag.
        compressible = tag == "linear"
        if not compressible:
            if isinstance(momentum, (SubspaceMomentum, GaloreMomentum)):
                momentum = EMAMomentum(beta1=momentum.beta1)
            if isinstance(spec.momentum, GaloreMomentum):
                adaptive = EMASubsetNorm("coord", beta2=spec.momentum.beta2,
                                         eps=spec.momentum.eps)
            elif (isinstance(adaptive, (EMASubsetNorm, AdaGradSubsetNorm))
                  and adaptive.partition_rule in ("heuristic2d", "equip")):
                adaptive = replace(adaptive, partition_rule="coord")
        elif isinstance(momentum, GaloreMomentum):
            adaptive = NoAdaptive()  # GaLore's own statistics replace it
        self.momentum_cfg = momentum
        self.adaptive_cfg = adaptive
        # orientation: frames act on the larger dimension of a 2D parameter
        self.transposed = len(self.shape) == 2 and self.shape[0] < self.shape[1]
        if isinstance(momentum, (SubspaceMomentum, GaloreMomentum)):
            _check_rank(momentum, *self._oriented_shape())
        self.partition: part.Partition | None = None
        if isinstance(adaptive, (EMASubsetNorm, AdaGradSubsetNorm)):
            self.partition = _build_partition(adaptive.partition_rule,
                                              adaptive.subset_size, self.shape)

        self.built = False
        self.m_buf = None
        self.sm_state: SubspaceMomentumState | None = None
        self.galore_state: GaloreState | None = None
        self.sn_state: sn.SubsetNormState | None = None

    def _oriented_shape(self):
        if len(self.shape) == 2:
            m, n = self.shape
            return (n, m) if self.transposed else (m, n)
        return (self.d, 1)

    def _orient(self, G: np.ndarray) -> np.ndarray:
        """``(S,) + shape`` -> ``(S, m, n)``, the frames' orientation."""
        G = G.reshape(G.shape[:1] + (self.shape if len(self.shape) == 2
                                     else self._oriented_shape()))
        return G.mT if self.transposed else G

    def _deorient(self, G: np.ndarray) -> np.ndarray:
        out = G.mT if self.transposed else G
        return out.reshape(G.shape[:1] + self.shape)

    def _build_state(self, g: np.ndarray) -> None:
        """Allocate every buffer; gradient-based frames come from ``g``."""
        m, n = self._oriented_shape()
        momentum = self.momentum_cfg
        if isinstance(momentum, EMAMomentum):
            self.m_buf = np.zeros(g.shape)
        elif isinstance(momentum, SubspaceMomentum):
            self.sm_state = sm_init(momentum, m, n, self.seed, self._orient(g))
        elif isinstance(momentum, GaloreMomentum):
            self.galore_state = galore_init(momentum, m, n, self.seed,
                                            self._orient(g))
        if self.partition is not None:
            self.sn_state = sn.sn_init(self.adaptive_cfg, self.partition,
                                       g.shape[:1])
        self.built = True

    def keep_replicas(self, keep: np.ndarray) -> None:
        """Keep the replicas ``keep`` (positions in the batch) in every array."""
        if self.m_buf is not None:
            self.m_buf = self.m_buf[keep]
        for state in (self.sm_state, self.galore_state, self.sn_state):
            if state is None:
                continue
            for name, value in vars(state).items():
                if isinstance(value, np.ndarray):
                    setattr(state, name, value[keep])
                elif isinstance(value, Frame):
                    setattr(state, name, take_replicas(value, keep))

    # -- direction (momentum) ------------------------------------------------

    def direction(self, g: np.ndarray) -> np.ndarray:
        cfg = self.momentum_cfg
        if isinstance(cfg, NoMomentum):
            return g
        if isinstance(cfg, EMAMomentum):
            scale = (1.0 - cfg.beta1) if cfg.dampening else 1.0
            self.m_buf = cfg.beta1 * self.m_buf + scale * g
            return self.m_buf
        if isinstance(cfg, SubspaceMomentum):
            return self._deorient(sm_direction(self.sm_state, self._orient(g)))
        raise AssertionError("galore handled in update()")

    # -- adaptive step size --------------------------------------------------

    def adapt(self, step: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``step`` divided coordinate by coordinate by its subset's
        denominator, after folding ``g`` into the accumulators; unchanged
        without an adaptive rule."""
        if self.partition is None:
            return step
        replicas = g.shape[0]
        sq = part.subset_sqnorms(self.partition, g.reshape(replicas, -1))
        sn.sn_accumulate(self.sn_state, sq)
        denoms = sn.sn_denominators(self.sn_state)
        return part.subset_divide(self.partition, step.reshape(replicas, -1),
                                  denoms).reshape(step.shape)

    def update(self, x: np.ndarray, g: np.ndarray, t: int, lr: float,
               weight_decay: float) -> np.ndarray:
        if not self.built:
            # frames are built from this g, so this step does not refresh them
            self._build_state(g)
        elif self.sm_state is not None:
            sm_maybe_refresh(self.sm_state, self._orient(g), t)
        elif self.galore_state is not None:
            galore_maybe_refresh(self.galore_state, self._orient(g), t)
        if self.galore_state is not None:
            step_dir = galore_direction(self.galore_state, self._orient(g))
            x_new = x - lr * self._deorient(step_dir)
        else:
            # x - lr * direction / denominator, in that association
            x_new = x - self.adapt(lr * self.direction(g), g)
        if weight_decay > 0.0:
            x_new = x_new - lr * weight_decay * x
        return x_new

    # -- accounting ----------------------------------------------------------

    def state_elements(self) -> dict[str, int]:
        """Elements of the buffers ``update`` keeps per replica, from the
        configs alone.

        Singleton scalars (the one accumulator of the ``norm`` rule) are not
        counted; the frame is reported under its own key.
        """
        m, n = self._oriented_shape()
        momentum = self.momentum_cfg
        out: dict[str, int] = {}
        if isinstance(momentum, EMAMomentum):
            out["momentum"] = self.d
        elif isinstance(momentum, (SubspaceMomentum, GaloreMomentum)):
            k = 0 if momentum.frame_kind is FrameKind.ZERO else momentum.rank
            out["momentum"] = k * n
            out["frame"] = frame_storage_elements(momentum.frame_kind, m, k)
            if isinstance(momentum, GaloreMomentum):
                out["second_moment"] = k * n
        if self.partition is not None:
            out["second_moment"] = self.partition.c
        return {k: v for k, v in out.items() if v > 1 or (k == "frame" and v > 0)}


@dataclass(frozen=True)
class StateSize:
    total: int  # persistent state elements per replica, singletons excluded
    breakdown: dict
    frame_elements: int  # reported separately, not part of total


class Optimizer:
    """Optimizer built from a spec against a fixed list of parameter shapes."""

    def __init__(self, spec: OptimizerSpec, shapes: list[tuple],
                 tags: list[str] | None = None, total_steps: int = 1):
        if tags is None:
            tags = ["linear"] * len(shapes)
        if len(tags) != len(shapes):
            raise ValueError("tags and shapes must align")
        self.spec = spec
        self.total_steps = total_steps
        self.replicas: int | None = None  # S, fixed by the first step
        self.slots = [
            _ParamSlot(spec, shape, tag, 7919 * i)
            for i, (shape, tag) in enumerate(zip(shapes, tags))
        ]

    def _batch_size(self, params: list, grads: list) -> int | None:
        """S of a ``(S,) + shape`` batch, or None when every array is ``shape``."""
        sizes = set()
        for p, g, slot in zip(params, grads, self.slots):
            if p.shape != g.shape:
                raise ValueError("parameter/gradient shape mismatch")
            if p.shape == slot.shape:
                sizes.add(None)
            elif p.shape[1:] == slot.shape and p.ndim == len(slot.shape) + 1:
                sizes.add(p.shape[0])
            else:
                raise ValueError("parameter/gradient shape mismatch")
        if len(sizes) > 1:
            raise ValueError("parameters disagree on the replica count")
        batch = sizes.pop() if sizes else None
        replicas = 1 if batch is None else batch
        if self.replicas is None:
            self.replicas = replicas
        elif replicas != self.replicas:
            raise ValueError(f"{replicas} replicas, the optimizer steps "
                             f"{self.replicas}")
        return batch

    def step(self, params: list[np.ndarray], grads: list[np.ndarray],
             t: int) -> list[np.ndarray]:
        """One step of every replica; arrays are ``shape`` or ``(S,) + shape``."""
        if len(params) != len(self.slots) or len(grads) != len(self.slots):
            raise ValueError("params/grads count does not match the optimizer")
        params = [np.asarray(p, dtype=np.float64) for p in params]
        grads = [np.asarray(g, dtype=np.float64) for g in grads]
        batch = self._batch_size(params, grads)
        if batch is None:
            params = [p[None] for p in params]
            grads = [g[None] for g in grads]
        flat = [g.reshape(self.replicas, -1) for g in grads]
        finite = np.all([np.isfinite(g).all(axis=1) for g in flat], axis=0)
        if not finite.all():
            raise NonFiniteGradientError(
                f"non-finite gradient at step t={t}; step rejected",
                replicas=tuple(int(i) for i in np.flatnonzero(~finite)))
        if self.spec.clip_norm is not None:
            total = np.sqrt(sum(np.sum(g * g, axis=1) for g in flat))
            # clip_norm / clip_norm is exactly 1: unclipped replicas keep g
            scale = self.spec.clip_norm / np.maximum(total, self.spec.clip_norm)
            grads = [g * scale.reshape((-1,) + (1,) * (g.ndim - 1)) for g in grads]
        lr = lr_at(self.spec.schedule, self.spec.base_lr, t, self.total_steps)
        out = [slot.update(p, g, t, lr, self.spec.weight_decay)
               for p, g, slot in zip(params, grads, self.slots)]
        return out if batch is not None else [x[0] for x in out]

    def keep_replicas(self, keep) -> None:
        """Keep only the replicas ``keep`` (positions in the current batch)."""
        keep = np.asarray(keep, dtype=np.int64)
        for slot in self.slots:
            slot.keep_replicas(keep)
        if self.replicas is not None:
            self.replicas = keep.size

    def state_size(self) -> StateSize:
        """Closed-form state elements of one replica."""
        breakdown: dict[str, int] = {}
        for slot in self.slots:
            for key, val in slot.state_elements().items():
                breakdown[key] = breakdown.get(key, 0) + val
        frame = breakdown.pop("frame", 0)
        return StateSize(total=sum(breakdown.values()), breakdown=breakdown,
                         frame_elements=frame)
