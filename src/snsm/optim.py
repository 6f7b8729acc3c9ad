"""Composable first-order optimizer: momentum choice x adaptive-step choice.

The update per parameter is

    x' = x - lr * direction / denominator - lr * wd * x

with one step size ``lr``, the spec's ``base_lr``, at every step. The
momentum component supplies ``direction``: the plain gradient, or an EMA
of it, m <- beta1 m + (1 - beta1) g, kept in full or in a subspace with an
SGD residual. The adaptive component supplies ``denominator``: ones, or
subset-norm denominators from EMA (bias-corrected) or cumulative second
moments shared within each subset. An optional global-norm clip runs over
the whole gradient list first. Coordinate-wise adaptivity (Adam, RMSProp,
AdaGrad) is the ``coord`` partition, one subset per coordinate, and
AdaGrad-Norm the ``norm`` partition, one subset in all.
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
from .linalg import (Frame, FrameKind, check_rank, frame_storage_elements,
                     take_replicas)
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

    def __post_init__(self):
        check_beta("beta1", self.beta1)


@dataclass(frozen=True)
class NoAdaptive:
    pass


@dataclass(frozen=True)
class OptimizerSpec:
    momentum: object = field(default_factory=NoMomentum)
    adaptive: object = field(default_factory=NoAdaptive)
    base_lr: float = 1e-3
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


# ---------------------------------------------------------------------------
# presets (Table "update rules" grid)

def make_preset(name: str, lr: float = 1e-3, rank: int = 4, refresh_gap: int = 200,
                frame_kind: FrameKind | str = FrameKind.SVD,
                subset_rule: str = "heuristic2d", subset_size: int | None = None,
                **kwargs) -> OptimizerSpec:
    """Spec of a named preset.

    Adam/RMSProp and AdaGrad/AdaGrad-Norm are the ``coord`` (c = d) and
    ``norm`` (c = 1) rules of the subset-norm families; ``subset_rule`` and
    ``subset_size`` only select the partition of the SN presets. Every
    preset's spec is built, so a bad value fails whichever preset is named.
    """
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
    """The partition of ``shape`` under a rule its spec has checked."""
    d = math.prod(shape)
    if rule == "heuristic2d":
        if len(shape) == 2:
            return part.heuristic_2d(shape[0], shape[1])
        return part.sqrt_heuristic(d)
    if rule == "equip":
        return part.equipartition(d, subset_size)
    if rule == "norm":
        return part.singleton(d)
    return part.coordinatewise(d)


class _ParamSlot:
    """All optimizer state attached to one parameter tensor.

    Construction keeps only Python scalars: the resolved configs, the
    orientation and the partition. Buffers and frames are built on the first
    ``update``, gradient-based frames from that step's gradient. ``update``
    takes the parameter and gradient of S replicas as ``(S,) + shape``.
    """

    def __init__(self, spec: OptimizerSpec, shape: tuple, tag: str, seed: int):
        self.shape = tuple(shape)
        self.d = math.prod(shape)
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
                adaptive = replace(adaptive, partition_rule="coord",
                                   subset_size=None)
        elif isinstance(momentum, GaloreMomentum):
            adaptive = NoAdaptive()  # GaLore's own statistics replace it
        self.momentum_cfg = momentum
        self.adaptive_cfg = adaptive
        # orientation: frames act on the larger dimension of a 2D parameter;
        # any other shape is one d x 1 matrix
        self.transposed = len(self.shape) == 2 and self.shape[0] < self.shape[1]
        self.matrix = self.shape if len(self.shape) == 2 else (self.d, 1)
        self.mn = self.matrix[::-1] if self.transposed else self.matrix
        if isinstance(momentum, (SubspaceMomentum, GaloreMomentum)):
            check_rank(momentum.frame_kind, self.mn[0], momentum.rank, self.mn[1])
        # the (S, d) shape adapt folds and divides in; None for a one-axis
        # parameter, whose (S,) + shape is that already
        self.flat = None if len(self.shape) == 1 else (-1, self.d)
        self.partition: part.Partition | None = None
        if isinstance(adaptive, (EMASubsetNorm, AdaGradSubsetNorm)):
            self.partition = _build_partition(adaptive.partition_rule,
                                              adaptive.subset_size, self.shape)

        self.built = False
        # the EMA buffer, or the SubspaceMomentumState or GaloreState
        self.m_state: np.ndarray | SubspaceMomentumState | GaloreState | None = None
        self.sn_state: sn.SubsetNormState | None = None

    def _orient(self, G: np.ndarray) -> np.ndarray:
        """``(S,) + shape`` -> ``(S, m, n)``, the frames' orientation."""
        G = G.reshape(G.shape[:1] + self.matrix)
        return G.mT if self.transposed else G

    def _deorient(self, G: np.ndarray) -> np.ndarray:
        out = G.mT if self.transposed else G
        return out.reshape(G.shape[:1] + self.shape)

    def _build_state(self, g: np.ndarray) -> None:
        """Allocate every buffer; gradient-based frames come from ``g``."""
        m, n = self.mn
        momentum = self.momentum_cfg
        if isinstance(momentum, EMAMomentum):
            self.m_state = np.zeros(g.shape)
        elif isinstance(momentum, SubspaceMomentum):
            self.m_state = sm_init(momentum, m, n, self.seed, self._orient(g))
        elif isinstance(momentum, GaloreMomentum):
            self.m_state = galore_init(momentum, m, n, self.seed, self._orient(g))
        if self.partition is not None:
            self.sn_state = sn.sn_init(self.adaptive_cfg, self.partition,
                                       g.shape[:1])
        self.built = True

    def keep_replicas(self, keep: np.ndarray) -> None:
        """Keep the replicas ``keep`` (positions in the batch) in every array."""
        for state in (self.m_state, self.sn_state):
            if isinstance(state, np.ndarray):  # the EMA buffer
                self.m_state = state[keep]
            elif state is not None:
                for name, value in vars(state).items():
                    if isinstance(value, np.ndarray):
                        setattr(state, name, value[keep])
                    elif isinstance(value, Frame):
                        setattr(state, name, take_replicas(value, keep))

    # -- direction (momentum) ------------------------------------------------

    def direction(self, g: np.ndarray) -> np.ndarray:
        """The step's direction of every replica, ``(S,) + shape``: ``g``,
        the EMA of it, subspace momentum, or GaLore's lifted Adam step."""
        cfg = self.momentum_cfg
        if isinstance(cfg, NoMomentum):
            return g
        if isinstance(cfg, EMAMomentum):
            self.m_state *= cfg.beta1
            self.m_state += (1.0 - cfg.beta1) * g
            return self.m_state
        if isinstance(cfg, SubspaceMomentum):
            return self._deorient(sm_direction(self.m_state, self._orient(g)))
        return self._deorient(galore_direction(self.m_state, self._orient(g)))

    # -- adaptive step size --------------------------------------------------

    def adapt(self, step: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``step``, an array of the step's own, divided coordinate by
        coordinate by its subset's denominator after folding ``g`` into the
        accumulators; unchanged without an adaptive rule. The division runs
        in place on ``step`` or, when ``step`` is not C-contiguous (a
        transposed orientation), on its flat copy, so use the result."""
        if self.partition is None:
            return step
        flat = self.flat
        sq = part.subset_sqnorms(self.partition, g if flat is None else g.reshape(flat))
        sn.sn_accumulate(self.sn_state, sq)
        denoms = sn.sn_denominators(self.sn_state)
        if flat is None:
            return part.subset_divide(self.partition, step, denoms)
        # on a flat copy when step is not C-contiguous (a transposed orientation)
        return part.subset_divide(self.partition, step.reshape(flat),
                                  denoms).reshape(step.shape)

    def update(self, x: np.ndarray, g: np.ndarray, t: int, lr: float,
               weight_decay: float) -> np.ndarray:
        """x_{t+1} of every replica from ``x`` and ``g``, both ``(S,) +
        shape``, which are read and never written. The new iterate is
        written into the ``lr * direction`` array this call creates, after
        the subset division has run in it."""
        if not self.built:
            # frames are built from this g, so this step does not refresh them
            self._build_state(g)
        elif isinstance(self.m_state, SubspaceMomentumState):
            sm_maybe_refresh(self.m_state, self._orient(g), t)
        elif isinstance(self.m_state, GaloreState):
            galore_maybe_refresh(self.m_state, self._orient(g), t)
        # x - lr * direction / denominator, in that association; GaLore's
        # linear slots have no adaptive rule, so adapt returns its step
        step = self.adapt(lr * self.direction(g), g)
        x_new = np.subtract(x, step, out=step)
        if weight_decay > 0.0:
            x_new -= lr * weight_decay * x
        return x_new

    # -- accounting ----------------------------------------------------------

    def state_elements(self) -> tuple[int, int]:
        """``(state, frame)``: elements of the arrays ``update`` keeps per
        replica, the frame's apart, from the configs alone."""
        m, n = self.mn
        momentum = self.momentum_cfg
        state = frame = 0
        if isinstance(momentum, EMAMomentum):
            state = self.d
        elif isinstance(momentum, (SubspaceMomentum, GaloreMomentum)):
            k = 0 if momentum.frame_kind is FrameKind.ZERO else momentum.rank
            buffers = 2 if isinstance(momentum, GaloreMomentum) else 1  # GaLore: m, v
            state = buffers * k * n
            frame = frame_storage_elements(momentum.frame_kind, m, k)
        if self.partition is not None:
            state += self.partition.c
        return state, frame


@dataclass(frozen=True)
class StateSize:
    total: int  # elements of every array the optimizer keeps per replica, frames apart
    frame_elements: int  # reported separately, not part of total


class Optimizer:
    """Optimizer built from a spec against a fixed list of parameter shapes."""

    def __init__(self, spec: OptimizerSpec, shapes: list[tuple],
                 tags: list[str] | None = None):
        if tags is None:
            tags = ["linear"] * len(shapes)
        if len(tags) != len(shapes):
            raise ValueError("tags and shapes must align")
        self.spec = spec
        self.replicas: int | None = None  # S, fixed by the first step
        # the parameter shapes of the last step that passed the layout
        # check, and whether they carried the replica axis; None until a
        # step passes and after keep_replicas
        self._layout: list[tuple] | None = None
        self._batched = False
        self.slots = [
            _ParamSlot(spec, shape, tag, 7919 * i)
            for i, (shape, tag) in enumerate(zip(shapes, tags))
        ]

    def _check_layout(self, params: list[np.ndarray],
                      grads: list[np.ndarray]) -> None:
        """Check every parameter and gradient against ``lead + slot.shape``,
        where ``lead`` is ``()`` or ``(S,)`` with S the replica count the
        first step fixed; on success remember the layout."""
        if len(params) != len(self.slots) or len(grads) != len(self.slots):
            raise ValueError("params/grads count does not match the optimizer")
        lead = None  # () for arrays of the slots' shapes, (S,) for S replicas
        for p, g, slot in zip(params, grads, self.slots):
            own = p.shape[:p.ndim - len(slot.shape)]
            if g.shape != p.shape or len(own) > 1 or own + slot.shape != p.shape:
                raise ValueError("parameter/gradient shape mismatch")
            if lead is None:
                lead = own
            elif own != lead:
                raise ValueError("parameters disagree on the replica count")
        replicas = lead[0] if lead else 1
        if self.replicas is None:
            self.replicas = replicas
        elif replicas != self.replicas:
            raise ValueError(f"{replicas} replicas, the optimizer steps "
                             f"{self.replicas}")
        self._layout = [p.shape for p in params]
        self._batched = bool(lead)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray],
             t: int) -> list[np.ndarray]:
        """Step t >= 1 of every replica; arrays are ``shape`` or ``(S,) + shape``.

        t is the clock of the frame refreshes; the step size is the spec's
        ``base_lr`` at every t. A step whose shapes are those of the last
        step that passed the layout check is checked by that one comparison.
        """
        if t < 1:
            raise ValueError(f"step index t must be >= 1, got {t}")
        params = [np.asarray(p, dtype=np.float64) for p in params]
        grads = [np.asarray(g, dtype=np.float64) for g in grads]
        layout = [p.shape for p in params]
        if layout != self._layout or [g.shape for g in grads] != layout:
            self._check_layout(params, grads)
        lead = self._batched
        if not lead:
            params = [p[None] for p in params]
            grads = [g[None] for g in grads]
        for g in grads:
            if not np.isfinite(g).all():
                # one test per gradient; which replicas failed is worked
                # out only for a step that is rejected
                finite = np.all([np.isfinite(grad.reshape(self.replicas, -1)).all(axis=1)
                                 for grad in grads], axis=0)
                raise NonFiniteGradientError(
                    f"non-finite gradient at step t={t}; step rejected",
                    replicas=tuple(int(i) for i in np.flatnonzero(~finite)))
        if self.spec.clip_norm is not None:
            flat = [g.reshape(self.replicas, -1) for g in grads]
            total = np.sqrt(sum(np.sum(g * g, axis=1) for g in flat))
            # clip_norm / clip_norm is exactly 1: unclipped replicas keep g
            scale = self.spec.clip_norm / np.maximum(total, self.spec.clip_norm)
            grads = [g * scale.reshape((-1,) + (1,) * (g.ndim - 1)) for g in grads]
        out = [slot.update(p, g, t, self.spec.base_lr, self.spec.weight_decay)
               for p, g, slot in zip(params, grads, self.slots)]
        return out if lead else [x[0] for x in out]

    def keep_replicas(self, keep) -> None:
        """Keep only the replicas ``keep`` (positions in the current batch)."""
        keep = np.asarray(keep, dtype=np.int64)
        for slot in self.slots:
            slot.keep_replicas(keep)
        if self.replicas is not None:
            self.replicas = keep.size
        self._layout = None  # the next step is checked against the new count

    def state_size(self) -> StateSize:
        """Closed-form state elements of one replica."""
        pairs = [slot.state_elements() for slot in self.slots]
        return StateSize(total=sum(state for state, _ in pairs),
                         frame_elements=sum(frame for _, frame in pairs))
