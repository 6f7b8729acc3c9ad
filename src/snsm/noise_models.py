"""Test objectives, their parameter layouts and synthetic gradient-noise models.

Objectives evaluate one point ``x`` of shape ``(d,)`` or S points at once,
``(S, d)``, one per row; the oracle draws each row's noise from its own
seed, so S points stepping in lockstep see the noise each would alone. Rows
that share a seed share one draw of it. An objective's ``value_and_grad``
gives f and its gradient from one pass, the call the harness makes once per
step; a :class:`Quadratic`'s ``value`` and ``grad`` are read from the same
code.

Each objective exposes ``manifest``, a :class:`ShapeManifest` of its
parameter tensors: ``x`` holds them in manifest order, each row-major, and
:meth:`ShapeManifest.split` and :meth:`ShapeManifest.join` convert between
the two. The optimizer steps that list of tensors, as ``snsm mem`` sizes
it. A :class:`Quadratic` has one ``linear`` entry, ``(d,)`` or a given
shape; an :class:`MLP2` has W1 ``(hidden, d_in)`` tagged ``linear`` and W2
``(1, hidden)`` tagged ``head``.

The noise is Gaussian, and a :class:`NoiseModel` has three fields: the
level ``sigma`` of dense noise on every coordinate or, when
``density_beta`` is set, the level ``density_alpha`` of noise on the first
ceil(d**density_beta) coordinates alone (d^beta-dense noise).

Seed s at step t draws from ``default_rng(SeedSequence([s, t]))``, and
:func:`streams` is the one place that builds those generators. Building a
``SeedSequence`` costs about 17 us, most of it Python-level. Its hash
applies only constants that no input changes, so for seeds and steps in
[0, 2**32) :func:`seed_words` computes the same ``generate_state(4,
np.uint64)`` words for a block of steps times a set of seeds in one uint32
array pass, and each generator is a ``PCG64`` keyed with its precomputed
words, about 3 us per build. Any other seed or step keeps the
``SeedSequence`` path.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# parameter layouts

@dataclass(frozen=True)
class ManifestEntry:
    name: str
    tag: str  # linear | embedding | norm | ...
    shape: tuple


@dataclass(frozen=True)
class ShapeManifest:
    """Named, tagged parameter tensors, in the order a flat vector holds them."""

    entries: tuple

    @property
    def shapes(self):
        return [e.shape for e in self.entries]

    @property
    def tags(self):
        return [e.tag for e in self.entries]

    @functools.cached_property
    def _spans(self) -> tuple:
        """(start, stop, shape) of each entry in the flat vector."""
        stops = list(itertools.accumulate(math.prod(s) for s in self.shapes))
        return tuple(zip([0] + stops[:-1], stops, self.shapes))

    def split(self, x: np.ndarray) -> list:
        """Views of ``x``, ``lead + (d,)``: one ``lead + shape`` per entry."""
        lead, out = x.shape[:-1], []
        for lo, hi, shape in self._spans:  # cheaper than a listcomp; twice per row-step
            out.append(x[..., lo:hi].reshape(lead + shape))
        return out

    def join(self, parts: list) -> np.ndarray:
        """The inverse of :meth:`split`; a single contiguous part is not copied."""
        first = parts[0]
        lead = first.shape[:first.ndim - len(self.entries[0].shape)] + (-1,)
        if len(parts) == 1:
            return first.reshape(lead)
        return np.concatenate([p.reshape(lead) for p in parts], axis=-1)


def parse_manifest(text: str) -> ShapeManifest:
    """One parameter per line: ``name<TAB>class<TAB>dim1xdim2`` (or a single
    dim for 1D parameters). Blank lines and ``#`` comments are skipped; a
    text with no parameter line is an error."""
    entries = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"manifest line {lineno}: expected 3 tab-separated "
                             f"fields, got {len(parts)}")
        name, tag, dims = (p.strip() for p in parts)
        if name in names:
            raise ValueError(f"manifest line {lineno}: duplicate name {name!r}")
        names.add(name)
        try:
            shape = parse_shape(dims)
        except ValueError as exc:
            raise ValueError(f"manifest line {lineno}: {exc}") from None
        entries.append(ManifestEntry(name=name, tag=tag, shape=shape))
    if not entries:
        raise ValueError("manifest lists no parameters")
    return ShapeManifest(entries=tuple(entries))


def parse_shape(dims: str) -> tuple:
    """``dim1xdim2x...`` (or a single dim) as a tuple of positive ints."""
    try:
        shape = tuple(int(s) for s in dims.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad shape {dims!r}") from None
    if any(s < 1 for s in shape):
        raise ValueError(f"non-positive dim in {dims!r}")
    return shape


# ---------------------------------------------------------------------------
# deterministic objectives with exact gradients

def check_size(objective: str, name: str, size: int) -> None:
    """Reject a size of an objective below 1, naming the size and its value."""
    if size < 1:
        raise ValueError(f"{objective} needs {name} >= 1, got {name}={size}")


class Quadratic:
    """f(x) = 0.5 * sum_i lam_i x_i^2, minimum 0 at the origin; its manifest
    is one ``linear`` parameter of shape ``shape``, by default ``(d,)``."""

    def __init__(self, lam: np.ndarray, shape: tuple | None = None):
        self.lam = np.asarray(lam, dtype=np.float64)
        if self.lam.ndim != 1 or np.any(self.lam < 0):
            raise ValueError("lam must be a 1D nonnegative array")
        self.d = self.lam.size
        check_size("quadratic", "d", self.d)
        shape = (self.d,) if shape is None else tuple(shape)
        if math.prod(shape) != self.d:
            raise ValueError("param_shape must have objective.d elements")
        self.manifest = ShapeManifest((ManifestEntry("x", "linear", shape),))

    @classmethod
    def isotropic(cls, d: int, shape: tuple | None = None) -> Quadratic:
        """f(x) = 0.5 ||x||^2 on d coordinates: every curvature 1, so L = 1.
        ``lam`` is one 1.0 seen d times (a read-only view of stride 0), not a
        d-long buffer; 1.0 * x is x bit for bit."""
        # broadcast_to would reject d < 0 with numpy's message, which names no flag
        check_size("quadratic", "d", d)
        return cls(np.broadcast_to(1.0, (d,)), shape=shape)

    def value_and_grad(self, x: np.ndarray) -> tuple:
        """(f(x), grad f(x)) from one pass: f(x) is a float for one point,
        ``(S,)`` values for ``(S, d)``; the gradient is a new array."""
        g = self.grad(x)
        # (lam * x) * x, the association of 0.5 * sum(lam * x * x)
        return 0.5 * (g * x).sum(axis=-1), g

    def value(self, x: np.ndarray):
        return self.value_and_grad(x)[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.lam * x


class MLP2:
    """Two-layer tanh network, squared loss, parameters packed into one vector.

    Layout (the manifest): W1 ``(hidden, d_in)`` tagged ``linear``, then W2
    ``(1, hidden)`` tagged ``head``, which no matrix rule acts on: a single
    row admits no rank-k frame. Gradients via manual backprop; checkable
    against finite differences.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, hidden: int):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be (n, d_in) with y of length n")
        self.hidden = int(hidden)
        self.d_in = self.X.shape[1]
        for name, size in (("hidden", self.hidden), ("d", self.d_in)):
            check_size("mlp2", name, size)
        self.manifest = ShapeManifest((
            ManifestEntry("W1", "linear", (self.hidden, self.d_in)),
            ManifestEntry("W2", "head", (1, self.hidden))))
        self.d = sum(map(math.prod, self.manifest.shapes))

    def value_and_grad(self, x: np.ndarray) -> tuple:
        """(f(x), grad f(x)) from one forward pass; the gradient is a new array."""
        W1, W2 = self.manifest.split(x)
        n = self.X.shape[0]
        Z = W1 @ self.X.T  # ([S,] h, n)
        A = np.tanh(Z)
        err = (W2 @ A)[..., 0, :] - self.y  # ([S,] n)
        loss = 0.5 * np.mean(err ** 2, axis=-1)
        gW2 = (err[..., None, :] @ A.mT) / n  # ([S,] 1, h)
        dA = (W2.mT @ err[..., None, :]) * (1.0 - A * A)  # ([S,] h, n)
        gW1 = dA @ self.X / n  # ([S,] h, d_in)
        return loss, self.manifest.join([gW1, gW2])


# ---------------------------------------------------------------------------
# additive gradient-noise models

@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian noise xi with E[xi] = 0, on a prefix of the coordinates.

    With density_beta=None every coordinate draws N(0, sigma^2). Otherwise
    the first ceil(d**density_beta) coordinates draw N(0, density_alpha^2)
    and the rest are noiseless.
    """

    sigma: float = 0.0
    density_beta: float | None = None
    density_alpha: float = 1.0

    def __post_init__(self):
        for name in ("sigma", "density_alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        beta = self.density_beta
        if beta is not None and not 0.0 <= beta <= 1.0:  # False for nan
            raise ValueError(f"density_beta must lie in [0, 1], got {beta}")

    def prefix(self, d: int) -> tuple:
        """(k, level): the first k of d coordinates draw noise at ``level``."""
        if self.density_beta is None:
            return d, self.sigma
        return min(d, math.ceil(d ** self.density_beta)), self.density_alpha

    def per_coord_sigma(self, d: int) -> np.ndarray:
        """The noise level of each of d coordinates."""
        k, level = self.prefix(d)
        out = np.zeros(d)
        out[:k] = level
        return out

    def sample(self, d: int, rng: np.random.Generator,
               out: np.ndarray | None = None) -> np.ndarray:
        """One noise vector of length d, written into ``out`` when given
        (a contiguous float64 vector) and returned.

        Only the k noisy coordinates are drawn, straight into ``out`` and
        scaled there; that draw is a prefix of the full-length one, so the
        vector is the same.
        """
        k, level = self.prefix(d)
        if out is None:
            out = np.empty(d)
        head = out[:k]
        rng.standard_normal(out=head)
        if level != 1.0:  # x * 1.0 is x, bit for bit
            head *= level
        if k < d:
            out[k:] = 0.0
        return out


# SeedSequence's hash (O'Neill's seed_seq mixing, in numpy.random.bit_generator),
# frozen by NumPy's stream-compatibility policy (NEP 19). Its multipliers
# advance from fixed starts whatever the entropy, so every constant it
# applies is known here; only the four pool words carry data.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _powers(init: int, mult: int, n: int) -> tuple:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 16)  # 4 pool fills + 12 mixes
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 8)  # 8 output words


def _hashmix(value: np.ndarray, k: int) -> np.ndarray:
    value = (value ^ _HASH_A[k]) * _HASH_A[k + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> _XSHIFT)


def seed_words(seeds, steps) -> np.ndarray:
    """``SeedSequence([s, t]).generate_state(4, np.uint64)`` for every seed
    s and step t, shape ``(len(seeds), len(steps), 4)``, in one pass of
    uint32 array arithmetic.

    Seeds and steps must lie in [0, 2**32), where each is one entropy word;
    anything else raises ``ValueError``.
    """
    s, t = np.asarray(seeds), np.asarray(steps)
    for name, a in (("seeds", s), ("steps", t)):
        if a.ndim != 1 or a.dtype.kind not in "iu" or (
                a.size and (a.min() < 0 or a.max() > _MASK32)):
            raise ValueError(f"{name} must be a 1D sequence of integers "
                             f"in [0, 2**32)")
    zero = np.zeros((s.size, t.size), dtype=np.uint32)
    # the entropy [s, t] fills two pool words, the hash of 0 the other two
    pool = [_hashmix(zero + s.astype(np.uint32)[:, None], 0),
            _hashmix(zero + t.astype(np.uint32), 1),
            _hashmix(zero, 2), _hashmix(zero, 3)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    out = np.empty((s.size, t.size, 8), dtype=np.uint32)
    for i in range(8):
        word = (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1]
        out[..., i] = word ^ (word >> _XSHIFT)
    # uint32 pairs (low, high) to uint64, as generate_state reads them
    return out[..., 0::2].astype(np.uint64) | out[..., 1::2].astype(np.uint64) << 32


_KEY_BLOCK = 256  # steps per block of keys; divides 2**32


def _is_word(v) -> bool:
    return isinstance(v, (int, np.integer)) and 0 <= v <= _MASK32


@functools.lru_cache(maxsize=8)
def _key_block(seeds: tuple, block: int):
    """Words of every seed at the steps of one block, or None when a seed
    is not one entropy word. A run reads a block for 256 steps, and the
    rows of a run and the betas one process of a sweep runs share it; the
    bound keeps memory flat in T."""
    if not all(_is_word(s) for s in seeds):
        return None
    start = block * _KEY_BLOCK
    words = seed_words(np.array(seeds, dtype=np.int64),
                       np.arange(start, start + _KEY_BLOCK, dtype=np.int64))
    words.flags.writeable = False
    return words


class _Key:
    """Precomputed ``SeedSequence.generate_state(4, np.uint64)``: the key
    source of one ``PCG64``, registered as an ``ISeedSequence``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("a precomputed key holds 4 uint64 words")
        return self.words


@functools.cache
def _key_class():
    # registered on first use: importing snsm does not import numpy.random
    np.random.bit_generator.ISeedSequence.register(_Key)
    return _Key


def streams(seeds, t: int) -> list:
    """The generator of each seed at step t,
    ``default_rng(SeedSequence([seed, t]))``: the per-(seed, t) stream
    contract of the oracle and of ``harness``'s random starting points.

    When t and every seed lie in [0, 2**32), the generators are keyed with
    words from :func:`seed_words`, computed a block of steps at a time;
    otherwise (multi-word entropy, or a value ``SeedSequence`` rejects)
    each goes through ``SeedSequence``.
    """
    seeds = tuple(seeds)
    keys = _key_block(seeds, t // _KEY_BLOCK) if _is_word(t) else None
    if keys is None:
        return [np.random.default_rng(np.random.SeedSequence([s, t])) for s in seeds]
    key = _key_class()
    return [np.random.Generator(np.random.PCG64(key(words)))
            for words in keys[:, t % _KEY_BLOCK]]


def draw(noise: NoiseModel, d: int, seeds: list, t: int,
         out: np.ndarray | None = None) -> np.ndarray:
    """The noise vector of each of ``seeds`` at step t, one row of
    ``(len(seeds), d)`` each, written into ``out`` when given and returned."""
    if out is None:
        out = np.empty((len(seeds), d))
    for row, rng in zip(out, streams(seeds, t)):
        noise.sample(d, rng, out=row)
    return out


def stoch_grad(obj, noise: NoiseModel, x: np.ndarray, seed, t: int,
               true_grad: np.ndarray | None = None,
               drawn: np.ndarray | None = None) -> np.ndarray:
    """Stochastic gradient grad f(x) + xi, deterministic in (seed, t).

    ``x`` is one point with one ``seed``, or ``(S, d)`` with a sequence of S
    seeds; row s adds noise from ``default_rng(SeedSequence([seed[s], t]))``
    (built by :func:`streams`). A list of seeds is read as given and never
    written; any other sequence is first converted to one. Seeds may
    repeat: each distinct seed is drawn once and its vector added to every
    row that carries it, all rows in one add. ``true_grad`` is grad f(x) as
    a float64 array when the caller already has it, and the call writes
    it: the draws are added into it and it is returned. ``drawn`` is
    :func:`draw` of the distinct seeds at t, in order of first appearance,
    when the caller drew it ahead; it is read, not written.
    """
    g = obj.value_and_grad(x)[1] if true_grad is None else true_grad
    seeds = seed if isinstance(seed, list) else np.atleast_1d(seed).tolist()
    distinct = list(dict.fromkeys(seeds))  # first appearance: the key-block order
    xi = draw(noise, obj.d, distinct, t) if drawn is None else drawn
    # the draws go into the gradient, which is split along its first axis
    # only, so every reshape below is a view of it; a new array for the sum
    # would raise peak memory at large d
    reps, rest = divmod(len(seeds), len(distinct))
    if not rest and seeds == distinct * reps:
        # the rows of a lockstep run: the distinct seeds, once per row
        tiled = g.reshape(reps, len(distinct), obj.d)
        tiled += xi
    else:
        slot = {s: j for j, s in enumerate(distinct)}
        rows = g.reshape(-1, obj.d)
        rows += xi[[slot[s] for s in seeds]]
    return g
