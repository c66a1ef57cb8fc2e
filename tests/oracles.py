"""Reference implementations that tests compare the production code against.

Each item is the plain, one-sequence, one-row or op-by-op taped form of a
computation that `tkgdiff` runs batched or fused; only tests call them.

The gradient tape and its ops (the reference chains below are built of
them; `helpers.grad_check` differentiates with the tape):
- `GradTape`, `_tape_record`, `constant` and the ops `matmul`, `add`,
  `sub`, `mul`, `div`, `tanh`, `exp`, `log`, `sqrt`, `sum_all`,
  `sum_cols`, `transpose`, `reshape`, `concat_cols` and `take_rows`: the
  reverse-mode tape the package trained with before every loss had a
  closed-form backward, moved here unchanged. Backward replays the records
  in reverse order; a source the output does not reach gets zeros.
- `acosh`, `asinh`, `softmax_rows`, `gather_cols`: taped ops only the
  chains here use.
- `item`: the float value of a 1x1 tensor, such as a taped loss.

Diffusion, one sequence at a time (checks `gndiff.batch_loss` and
`gndiff.p_diff_batch`):
- `NodeSequence`: a validated (subject, relation, object) token triple.
- `DiffusionSchedule`, `build_schedule`, `inference_schedule`: per-sequence
  survival and step-mask probabilities, from the same
  `gndiff._schedule_arrays` that `batch_loss` uses.
- `raw_schedule`: the survival probabilities before the clamp;
  `gndiff._schedule_arrays` must be their clamp, bit for bit.
- `transition_matrix`, `forward_marginal`, `sample_forward`, `posterior`:
  the forward chain and its Bayes posterior, as explicit distributions.
- `diffusion_loss`: the single-sample bound of one sequence; the mean of
  these over a batch is `gndiff.batch_loss`.
- `sample_conditional`, `p_diff`, `p_diff_batch`: reverse chains that run
  every chain through the full denoiser at every step.
  `gndiff.p_diff_batch` must reproduce `p_diff_batch` here while computing
  only the rows it reads.

The denoiser as a taped chain (checks `gndiff.denoise_x0_batch` and
`gndiff.batch_loss`, and their closed-form backward, to 1e-10):
- `hidden`, `denoise_x0_batch`: the two dense layers, op by op.
- `batch_loss`: the per-role cross-entropy of the same draws, each role's
  block taken by a 0/1 product, then `softmax_rows`, `gather_cols`, `log`.

The role-masked output layer (checks `gndiff.denoise_x0_batch`,
`gndiff.batch_loss` and `gndiff._tail_probs`):
- `init_role_masked`, `role_mask`, `role_masked_logits`: a denoiser whose
  output layer has one K-wide block of rows per position, and whose logits
  are masked to NEG_INF where a clean sequence cannot hold the token.
- `role_masked_loss`, `role_masked_tail_probs`: the loss and the tail
  distribution of that layout, a softmax over all K columns of a position.
- `live_rows`, `role_sized`: the rows the mask leaves live, which make the
  role-sized denoiser that gives the same loss, gradients and tail
  distribution.

Distances (check `geometry.pairwise_sqdist` and, through the scoring chain
below, `geometry.distance`):
- `PoincarePoint`: a point projected into the ball on construction.
- `poincare_distance`, `euclidean_distance`: row-wise distances, taped.
- `pairwise_sqdist`: the all-pairs squared distances from explicit
  differences, one row per row of `a`, repeated rows included;
  `geometry.pairwise_sqdist` must reproduce it to rounding with one matrix
  product over the distinct rows, and bit for bit on close pairs. Its
  backward forms every pair's gradient from its difference, so it keeps
  its digits where the Gram form cancels.
- `gram_sqdist`, `poincare_from_sqdist`, `euclidean_from_sqdist`,
  `poincare_pairwise`, `euclidean_pairwise`: the taped all-pairs distances
  the package had before its fused scoring record, over
  `geometry.pairwise_sqdist` with `pairwise_sqdist`'s backward; the
  row-wise distances check them. The Poincare distance is
  2 asinh(sqrt(q)), as `geometry.distance` takes it, where the row-wise
  `poincare_distance` keeps arcosh(1 + 2q).

Optimizer (checks `numkit.adam_step`):
- `adam_step`: the textbook Adam update, which rebinds fresh moment arrays;
  `numkit.adam_step` must reproduce it bit for bit while updating in place.

Scoring, the contrastive loss and the blend as taped chains of ops
(check `dpcl.head_softmaxes`, `dpcl.ce_loss`, `evaluate.p_dpcl`,
`dpcl.supcon_loss` and `engine.train`'s blended gradient, to 1e-10):
- `z_rows`: a batch's dense signed history rows, -lam with +lam at its
  history pairs, where the fused record adds only +-2 lam.
- `head_scores`: both heads' (B, |E|) scores from one squared-distance
  block; `softmax_sum`, `mixture`: their softmaxes, summed and halved.
- `ce_loss`: the cross-entropy from each head's own ground-truth
  probability, -log(softmax(S_per)[gt] + softmax(S_nonper)[gt]).
- `head_score`: one head's scores with its own subject rows and a row-wise
  distance per (query, candidate) pair, which checks `head_scores` apart
  from the shared block.
- `supcon_loss`: the contrastive loss over normalized query codes, op by
  op, with the refusals of `div` (a zero code) and `log`.
- `joint_loss`: the taped blend alpha * diff + (1 - alpha) * (ce + sup).

Ranking, one query at a time (checks `evaluate.ranks` and
`evaluate.evaluate_split`):
- `filtered_rank`, `raw_rank`: one query's rank with pessimistic ties, with
  and without the same-time objects removed.
- `split_ranks`: the per-query loop over a split, with same-time groups from
  a dict and new-event flags from a scan of the scoped facts.

The diffusion oracles call `gndiff.denoise_x0_batch` through the module, so
tests can monkeypatch the denoiser.

Some items check no production function; their tests check only the oracle:
`transition_matrix`, `forward_marginal` and `posterior` (the forward chain
and its posterior, which `batch_loss` never forms), `NodeSequence`'s role
validation, the clamp-saturation warning of `build_schedule`, and
`PoincarePoint`. They stay because together they derive what the batched
code takes as given: the posterior's weight on reverting to the clean token
is the revert weight `batch_loss` computes in closed form, over validated
sequences, from a schedule whose clamp is visible, and `PoincarePoint` is
the ball projection the row-pair distances start from.
"""

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from tkgdiff import dpcl, gndiff
from tkgdiff import geometry as geo
from tkgdiff import numkit as nk
from tkgdiff.errors import DimensionError, NumericError
from tkgdiff.geometry import project_array_to_ball
from tkgdiff.gndiff import N_POSITIONS, DenoiserParams
from tkgdiff.numkit import Tensor


# ---------------------------------------------------------------------------
# The gradient tape and its ops
# ---------------------------------------------------------------------------

def constant(value: float) -> Tensor:
    return Tensor(np.array([[float(value)]]))


def item(scalar: Tensor) -> float:
    """The value of a 1x1 tensor; numpy refuses any other size."""
    return scalar.data.item()


_TAPE_STACK: list["GradTape"] = []


@dataclass
class _Record:
    out: Tensor
    inputs: tuple[Tensor, ...]
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class GradTape:
    """Linear record of primitive operations for one forward pass.

    Backward visits records in exact reverse order of the forward pass;
    per-tensor gradients accumulate in that fixed order.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def __len__(self) -> int:
        return len(self._records)

    def gradient(self, output: Tensor, sources: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradients of a scalar output w.r.t. each source tensor; zeros for
        a source the output does not reach."""
        if output.size != 1:
            raise DimensionError("gradient() expects a scalar (1x1) output")
        grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        for rec in reversed(self._records):
            g_out = grads.get(id(rec.out))
            if g_out is None:
                continue
            for tin, g_in in zip(rec.inputs, rec.backward(g_out)):
                if g_in is None:
                    continue
                acc = grads.get(id(tin))
                grads[id(tin)] = g_in if acc is None else acc + g_in
        return [grads[id(s)] if id(s) in grads else np.zeros_like(s.data) for s in sources]


def _tape_record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    if _TAPE_STACK:
        _TAPE_STACK[-1]._records.append(_Record(out, inputs, backward))
    return out


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul needs inner dims to agree: {a.shape} x {b.shape}")
    out = nk._wrap(a.data @ b.data)

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _tape_record(out, (a, b), backward)


def _check_broadcast(sa, sb) -> None:
    for da, db in zip(sa, sb):
        if da != db and da != 1 and db != 1:
            raise DimensionError(f"shapes {sa} and {sb} do not broadcast")


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    for axis in (0, 1):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; length-1 axes broadcast, as in every binary op below."""
    _check_broadcast(a.shape, b.shape)
    out = nk._wrap(a.data + b.data)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _tape_record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = nk._wrap(a.data - b.data)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _tape_record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    ad, bd = a.data, b.data
    out = nk._wrap(ad * bd)

    def backward(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _tape_record(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """a / b; a zero divisor raises NumericError."""
    _check_broadcast(a.shape, b.shape)
    ad, bd = a.data, b.data
    if np.any(bd == 0.0):
        raise NumericError("division by zero")
    out = nk._wrap(ad / bd)

    def backward(g):
        return (_unbroadcast(g / bd, a.shape),
                _unbroadcast(-g * ad / (bd * bd), b.shape))

    return _tape_record(out, (a, b), backward)


def tanh(a: Tensor) -> Tensor:
    out = nk._wrap(np.tanh(a.data))
    y = out.data

    def backward(g):
        return (g * (1.0 - y * y),)

    return _tape_record(out, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out = nk._wrap(np.exp(a.data))
    y = out.data

    def backward(g):
        return (g * y,)

    return _tape_record(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    """Natural log; a non-positive input raises NumericError."""
    ad = a.data
    if np.any(ad <= 0.0):
        raise NumericError("log of non-positive value")
    out = nk._wrap(np.log(ad))

    def backward(g):
        return (g / ad,)

    return _tape_record(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; gradient at 0 is defined as 0."""
    if np.any(a.data < 0.0):
        raise NumericError("sqrt of negative value")
    out = nk._wrap(np.sqrt(a.data))
    y = out.data

    def backward(g):
        return (np.where(y > 0.0, 0.5 * g / np.where(y > 0.0, y, 1.0), 0.0),)

    return _tape_record(out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    out = nk._wrap(np.array([[a.data.sum()]]))

    def backward(g):
        return (np.full_like(a.data, g[0, 0]),)

    return _tape_record(out, (a,), backward)


def sum_cols(a: Tensor) -> Tensor:
    """Sum along axis 1, keeping a column: (m, n) -> (m, 1). The backward
    passes on a read-only broadcast view of the upstream gradient."""
    out = nk._wrap(a.data.sum(axis=1, keepdims=True))

    def backward(g):
        return (np.broadcast_to(g, a.shape),)

    return _tape_record(out, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    out = nk._wrap(np.ascontiguousarray(a.data.T))

    def backward(g):
        return (g.T,)

    return _tape_record(out, (a,), backward)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.size:
        raise DimensionError(f"cannot reshape {a.shape} to ({rows}, {cols})")
    out = nk._wrap(a.data.reshape(rows, cols))

    def backward(g):
        return (g.reshape(a.shape),)

    return _tape_record(out, (a,), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols needs equal row counts: {a.shape} vs {b.shape}")
    out = nk._wrap(np.concatenate([a.data, b.data], axis=1))
    split = a.shape[1]

    def backward(g):
        return g[:, :split], g[:, split:]

    return _tape_record(out, (a, b), backward)


def take_rows(table: Tensor, ids) -> Tensor:
    """Rows of `table` at integer `ids`; gradient scatter-adds back."""
    idx = np.asarray(ids, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DimensionError(f"row ids out of range for table with {table.shape[0]} rows")
    out = nk._wrap(table.data[idx])

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _tape_record(out, (table,), backward)


def acosh(a: Tensor) -> Tensor:
    """Inverse hyperbolic cosine; inputs below 1 are clamped to 1 and receive
    zero gradient there; taped."""
    clamped = np.maximum(a.data, 1.0)
    out = nk._wrap(np.arccosh(clamped))
    active = a.data > 1.0

    def backward(g):
        denom = np.sqrt(np.where(active, clamped * clamped - 1.0, 1.0))
        return (np.where(active, g / denom, 0.0),)

    return _tape_record(out, (a,), backward)


def asinh(a: Tensor) -> Tensor:
    """Inverse hyperbolic sine; taped."""
    out = nk._wrap(np.arcsinh(a.data))

    def backward(g):
        return (g / np.sqrt(1.0 + a.data * a.data),)

    return _tape_record(out, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, computed with row-max subtraction for stability;
    taped."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = nk._wrap(e / e.sum(axis=1, keepdims=True))
    p = out.data

    def backward(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _tape_record(out, (a,), backward)


def gather_cols(a: Tensor, cols) -> Tensor:
    """Per-row column picks: out[i, 0] = a[i, cols[i]]; taped."""
    idx = np.asarray(cols, dtype=np.int64).reshape(-1)
    if idx.size != a.shape[0]:
        raise DimensionError(f"need one column id per row: {idx.size} ids, {a.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise DimensionError(f"column ids out of range for {a.shape}")
    rows = np.arange(a.shape[0])
    out = nk._wrap(a.data[rows, idx].reshape(-1, 1))

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g[:, 0])
        return (ga,)

    return _tape_record(out, (a,), backward)


# ---------------------------------------------------------------------------
# Diffusion: one sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeSequence:
    """Three combined-vocabulary token ids with fixed roles
    (subject-entity, relation, object-entity)."""

    tokens: np.ndarray
    n_entities: int
    n_relations: int

    def __post_init__(self):
        toks = np.asarray(self.tokens, dtype=np.int64).reshape(-1)
        if toks.size != N_POSITIONS:
            raise ValueError(f"a node sequence has {N_POSITIONS} tokens, got {toks.size}")
        object.__setattr__(self, "tokens", toks)
        for pos in range(N_POSITIONS):
            if not self._valid(pos, int(toks[pos])):
                raise ValueError(f"token {toks[pos]} is not valid at position {pos}")

    @property
    def vocab_size(self) -> int:
        return self.n_entities + self.n_relations + 1

    @property
    def mask_token(self) -> int:
        return self.vocab_size - 1

    def _valid(self, pos: int, token: int) -> bool:
        if token == self.mask_token:
            return True
        if pos == 1:
            return self.n_entities <= token < self.n_entities + self.n_relations
        return 0 <= token < self.n_entities

    def with_tokens(self, tokens) -> "NodeSequence":
        return NodeSequence(tokens, self.n_entities, self.n_relations)

    @classmethod
    def from_quad(cls, entropy: np.ndarray, n_entities: int, s: int, r: int,
                  o: int) -> "NodeSequence":
        """The sequence of fact (s, r, o) over the vocabulary of an entropy
        vector with `n_entities` entities."""
        return cls([s, n_entities + r, o], n_entities, len(entropy) - n_entities - 1)


@dataclass
class DiffusionSchedule:
    """Per-position survival and step-mask probabilities for one sequence."""

    steps: int
    mu: float
    alpha_bar: np.ndarray       # (T+1, 3), clamped; [0] = 1, [T] = 0
    alpha_bar_raw: np.ndarray   # (T+1, 3), pre-clamp (schedule-identity checks)
    beta: np.ndarray            # (T+1, 3); beta[t] = 1 - a[t]/a[t-1], beta[0] = 0
    entropies: np.ndarray       # (3,) token entropies the schedule was built from

    def revert_prob(self, t: int) -> np.ndarray:
        """Posterior probability that a masked position reverts at step t."""
        a_prev, a_t = self.alpha_bar[t - 1], self.alpha_bar[t]
        denom = 1.0 - a_t
        return np.where(denom > 0.0, (a_prev - a_t) / np.where(denom > 0, denom, 1.0), 0.0)


def raw_schedule(h: np.ndarray, steps: int, mu: float) -> np.ndarray:
    """1 - t/T - G(t) * h_tilde, (T+1, ..., n), before `_schedule_arrays`
    confines it to [0, 1] and pins its endpoints."""
    n = h.shape[-1]
    h = np.maximum(h, 1e-12)
    h_tilde = 1.0 - h.sum(axis=-1, keepdims=True) / (n * h)
    t = np.arange(steps + 1, dtype=np.float64)
    g = mu * np.sin(np.pi * t / steps)
    g[0] = 0.0
    g[steps] = 0.0
    shape = (steps + 1,) + (1,) * h.ndim
    return 1.0 - (t / steps).reshape(shape) - g.reshape(shape) * h_tilde[None, ...]


def build_schedule(entropy: np.ndarray, sequence: NodeSequence,
                   steps: int, mu: float) -> DiffusionSchedule:
    """Entropy-informed schedule for one sequence.

    Pre-clamp values satisfy sum_i alpha_bar[t, i] * H_i = (1 - t/T) sum_i H_i
    for every t; tokens with lower entropy keep higher survival at interior t.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    h = entropy[sequence.tokens]
    raw, clamped = raw_schedule(h, steps, mu), gndiff._schedule_arrays(h, steps, mu)
    interior = np.arange(1, steps)
    if interior.size:
        touched = np.any(np.abs(clamped[interior] - raw[interior]) > 0, axis=1)
        if touched.mean() > 0.5:
            warnings.warn(f"mu={mu} saturates the schedule clamp on "
                          f"{touched.mean():.0%} of interior steps", stacklevel=2)
    beta = np.zeros_like(clamped)
    prev = clamped[:-1]
    beta[1:] = np.where(prev > 0.0, 1.0 - clamped[1:] / np.where(prev > 0, prev, 1.0), 1.0)
    beta = np.clip(beta, 0.0, 1.0)
    return DiffusionSchedule(steps, mu, clamped, raw, beta, h)


def inference_schedule(entropy: np.ndarray, n_entities: int, s: int, r: int,
                       steps: int, mu: float) -> DiffusionSchedule:
    """Schedule for answering (s, r, ?): the unknown tail gets the mean of the
    known positions' entropies, which makes its normalized-entropy term vanish
    and its survival exactly linear."""
    hs = entropy[int(s)]
    hr = entropy[n_entities + int(r)]
    h = np.array([hs, hr, 0.5 * (hs + hr)])
    raw, clamped = raw_schedule(h, steps, mu), gndiff._schedule_arrays(h, steps, mu)
    beta = np.zeros_like(clamped)
    prev = clamped[:-1]
    beta[1:] = np.where(prev > 0.0, 1.0 - clamped[1:] / np.where(prev > 0, prev, 1.0), 1.0)
    return DiffusionSchedule(steps, mu, clamped, raw, np.clip(beta, 0.0, 1.0), h)


def transition_matrix(schedule: DiffusionSchedule, sequence: NodeSequence,
                      position: int, t: int) -> np.ndarray:
    """One-step forward matrix Q_t at a position: stay with 1 - beta, jump to
    the mask with beta, and the mask row is absorbing."""
    k = sequence.vocab_size
    m = sequence.mask_token
    beta = schedule.beta[t, position]
    q = np.eye(k) * (1.0 - beta)
    q[:, m] += beta
    q[m] = 0.0
    q[m, m] = 1.0
    return q


def forward_marginal(schedule: DiffusionSchedule, x0: NodeSequence, t: int) -> np.ndarray:
    """Per-position distribution of x_t given x_0: original token with
    probability alpha_bar[t], mask otherwise; shape (3, K)."""
    if not 0 <= t <= schedule.steps:
        raise ValueError(f"t must be in [0, {schedule.steps}], got {t}")
    k = x0.vocab_size
    out = np.zeros((N_POSITIONS, k))
    a = schedule.alpha_bar[t]
    for i in range(N_POSITIONS):
        out[i, x0.tokens[i]] += a[i]
        out[i, x0.mask_token] += 1.0 - a[i]
    return out


def sample_forward(schedule: DiffusionSchedule, x0: NodeSequence, t: int,
                   rng: np.random.Generator) -> NodeSequence:
    keep = rng.random(N_POSITIONS) < schedule.alpha_bar[t]
    toks = np.where(keep, x0.tokens, x0.mask_token)
    return x0.with_tokens(toks)


def posterior(schedule: DiffusionSchedule, x_t: NodeSequence, x0: NodeSequence,
              t: int) -> np.ndarray:
    """q(x_{t-1} | x_t, x_0) per position, shape (3, K): a point mass on any
    unmasked token; a masked token reverts to x_0 with the revert probability
    and otherwise stays masked."""
    if not 1 <= t <= schedule.steps:
        raise ValueError(f"t must be in [1, {schedule.steps}], got {t}")
    mask = x0.mask_token
    out = np.zeros((N_POSITIONS, x0.vocab_size))
    revert = schedule.revert_prob(t)
    for i in range(N_POSITIONS):
        tok = int(x_t.tokens[i])
        if tok == mask:
            out[i, x0.tokens[i]] += revert[i]
            out[i, mask] += 1.0 - revert[i]
        elif tok == int(x0.tokens[i]):
            out[i, tok] = 1.0
        else:
            raise ValueError(f"inconsistent x_t at position {i}: token {tok} is "
                             f"neither x_0 ({x0.tokens[i]}) nor the mask")
    return out


def diffusion_loss(schedule: DiffusionSchedule, params: DenoiserParams,
                   x0: NodeSequence, rng: np.random.Generator) -> Tensor:
    """Single-sample variational bound term: draws t uniform in [1, T] and x_t
    from the forward marginal, then scores the reverse step.

    For the absorbing chain the step KL collapses per masked position to
    -revert_prob * log p_hat(x_0 token), with p_hat the softmax over the
    position's role block; at t = 1 the revert probability is 1,
    which is exactly the reconstruction term. The terminal prior term is
    identically zero (both sides are the all-mask point mass) and is asserted,
    not computed.
    """
    assert np.all(schedule.alpha_bar[schedule.steps] == 0.0), \
        "terminal state must be all-mask"
    t = int(rng.integers(1, schedule.steps + 1))
    x_t = sample_forward(schedule, x0, t, rng)
    masked = x_t.tokens == x0.mask_token
    weights = np.where(masked, schedule.revert_prob(t), 0.0)
    logits = gndiff.denoise_x0_batch(params, x_t.tokens[None, :], np.array([t]))[0][0]
    total = 0.0
    for pos, block in enumerate(params.role_blocks()):
        if masked[pos]:
            # a relation token's id counts the entities before it
            index = x0.tokens[pos] - (params.n_entities if pos == 1 else 0)
            e = np.exp(logits[block] - logits[block].max())
            total -= weights[pos] * np.log(e[index] / e.sum())
    return constant(total)


# ---------------------------------------------------------------------------
# Diffusion: full reverse chains
# ---------------------------------------------------------------------------

def _entity_dist(params: DenoiserParams, logits_row: np.ndarray) -> np.ndarray:
    """Softmax of a sequence's logit row over its tail block."""
    row = logits_row[params.role_blocks()[2]]
    row = row - row.max()
    e = np.exp(row)
    return e / e.sum()


def sample_conditional(schedule: DiffusionSchedule, params: DenoiserParams,
                       s_id: int, r_id: int, rng: np.random.Generator,
                       greedy: bool = False) -> tuple[int, np.ndarray]:
    """Reverse chain from the all-mask state with the subject and relation
    clamped throughout; returns the final tail entity id and the final step's
    predicted clean-tail distribution over entities."""
    n_e, n_r = params.n_entities, params.n_relations
    mask = params.vocab_size - 1
    x = np.array([s_id, n_e + r_id, mask], dtype=np.int64)
    tail_dist = None
    for t in range(schedule.steps, 0, -1):
        logits = gndiff.denoise_x0_batch(params, x[None, :], np.array([t]))[0]
        tail_dist = _entity_dist(params, logits[0])
        if x[2] == mask:
            revert = schedule.revert_prob(t)[2]
            if rng.random() < revert:
                if greedy:
                    x[2] = int(np.argmax(tail_dist))
                else:
                    x[2] = int(rng.choice(n_e, p=tail_dist))
        # unmasked positions are point masses under the posterior; the clamped
        # subject/relation never re-mask
    assert x[2] != mask, "revert probability at t=1 is 1, the tail must be set"
    return int(x[2]), tail_dist


def p_diff(schedule: DiffusionSchedule, params: DenoiserParams,
           s_id: int, r_id: int, rng: np.random.Generator,
           chains: int = 8, greedy: bool = False) -> np.ndarray:
    """Candidate-entity distribution: mean of the final-step predicted tail
    distribution over independent reverse chains; deterministic given the
    generator (per-chain streams are spawned from it)."""
    dists = []
    for child in rng.spawn(chains):
        _, dist = sample_conditional(schedule, params, s_id, r_id, child, greedy)
        dists.append(dist)
    return np.mean(dists, axis=0)


def p_diff_batch(params: DenoiserParams, entropy: np.ndarray,
                 queries: np.ndarray, steps: int, mu: float,
                 chains: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized p_diff for (B, 2) [s, r] query rows -> (B, |E|).

    Runs B * chains reverse chains in lockstep with one batched denoiser call
    per step; random draws come from `rng` in a fixed order, so results are
    deterministic given the generator.
    """
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    b = queries.shape[0]
    n_e = params.n_entities
    mask = params.vocab_size - 1
    rows = b * chains
    # the unknown tail's schedule is linear (see inference_schedule), shared
    # across queries: revert prob at t is (a[t-1]-a[t])/(1-a[t])
    t_grid = np.arange(steps + 1, dtype=np.float64)
    a_tail = 1.0 - t_grid / steps
    x = np.empty((rows, N_POSITIONS), dtype=np.int64)
    x[:, 0] = np.repeat(queries[:, 0], chains)
    x[:, 1] = n_e + np.repeat(queries[:, 1], chains)
    x[:, 2] = mask
    tail_dist = np.zeros((rows, n_e))
    for t in range(steps, 0, -1):
        logits = gndiff.denoise_x0_batch(params, x, np.full(rows, t))[0]
        tail_logits = logits[:, params.role_blocks()[2]]
        shifted = tail_logits - tail_logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        tail_dist = e / e.sum(axis=1, keepdims=True)
        masked = x[:, 2] == mask
        if masked.any():
            denom = 1.0 - a_tail[t]
            revert = (a_tail[t - 1] - a_tail[t]) / denom if denom > 0 else 0.0
            do_revert = masked & (rng.random(rows) < revert)
            if do_revert.any():
                u = rng.random(rows)
                cum = np.cumsum(tail_dist, axis=1)
                picks = (cum < u[:, None]).sum(axis=1).clip(0, n_e - 1)
                x[do_revert, 2] = picks[do_revert]
    return tail_dist.reshape(b, chains, n_e).mean(axis=1)


# ---------------------------------------------------------------------------
# Denoiser: the taped chain and the role-masked output layer
# ---------------------------------------------------------------------------

def hidden(params: DenoiserParams, xt: np.ndarray, ts: np.ndarray) -> Tensor:
    """gndiff._hidden as a taped chain: tanh of the first dense layer over
    the three token embeddings and the step embedding, (B, h)."""
    xt = np.asarray(xt, dtype=np.int64).reshape(-1, N_POSITIONS)
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    b = xt.shape[0]
    emb = take_rows(params.token_emb, xt.reshape(-1))        # (3B, w)
    emb = reshape(emb, b, 3 * params.width)
    x = concat_cols(emb, Tensor(gndiff._time_embedding(ts, params.width)))
    return tanh(add(matmul(x, transpose(params.w1)), params.b1))


def denoise_x0_batch(params: DenoiserParams, xt: np.ndarray, ts: np.ndarray) -> Tensor:
    """gndiff.denoise_x0_batch's logits as a taped chain, (B, 2|E|+|R|)."""
    return add(matmul(hidden(params, xt, ts), transpose(params.w2)), params.b2)


def batch_loss(params: DenoiserParams, entropy: np.ndarray, quads: np.ndarray,
               steps: int, mu: float, rng: np.random.Generator) -> Tensor:
    """gndiff.batch_loss as a taped chain, with the same draws: each
    position's block of the logits is taken by a product with a 0/1 matrix
    (exact: one term per entry is not 0), then softmax_rows, gather_cols at
    the clean token, log and the position's weights. A clean token whose
    probability underflows to 0 raises NumericError here (log of 0)."""
    in_block = quads[:, :N_POSITIONS]
    # a relation token's id counts the entities before it
    toks = in_block + np.array([0, params.n_entities, 0])
    xt, ts, weights = gndiff._corrupt(entropy, toks, params.vocab_size - 1, steps, mu, rng)
    logits = denoise_x0_batch(params, xt, ts)
    total = constant(0.0)
    for pos, block in enumerate(params.role_blocks()):
        pick = np.zeros((logits.shape[1], block.stop - block.start))
        pick[block] = np.eye(block.stop - block.start)
        probs = softmax_rows(matmul(logits, Tensor(pick)))
        log_p = log(gather_cols(probs, in_block[:, pos]))
        total = add(total, sum_all(mul(Tensor(weights[:, pos:pos + 1]), log_p)))
    return mul(constant(-1.0 / len(toks)), total)


NEG_INF = -1e30  # finite stand-in for -inf so tensors stay finite


def init_role_masked(n_entities: int, n_relations: int, width: int,
                     rng: np.random.Generator) -> DenoiserParams:
    """A denoiser whose `w2` is (3K, h) and `b2` (1, 3K): one K-wide block of
    output rows per position, drawn like gndiff.init_denoiser's rows."""
    k = n_entities + n_relations + 1

    def uniform(rows, cols, fan):
        return Tensor(rng.uniform(-1.0, 1.0, size=(rows, cols)) * np.sqrt(3.0 / fan))

    return DenoiserParams(
        token_emb=uniform(k, width, width),
        w1=uniform(width, 4 * width, 4 * width), b1=nk.zeros(1, width),
        w2=uniform(3 * k, width, width), b2=nk.zeros(1, 3 * k),
        n_entities=n_entities, n_relations=n_relations, width=width)


def role_mask(params: DenoiserParams) -> np.ndarray:
    """(3, K) additive mask: 0 for tokens a clean sequence may hold at the
    position, NEG_INF elsewhere (the mask token is never a clean token)."""
    n_e, n_r = params.n_entities, params.n_relations
    m = np.full((N_POSITIONS, params.vocab_size), NEG_INF)
    m[0, :n_e] = 0.0
    m[2, :n_e] = 0.0
    m[1, n_e:n_e + n_r] = 0.0
    return m


def role_masked_logits(params: DenoiserParams, xt: np.ndarray, ts: np.ndarray) -> Tensor:
    """(3B, K) logits of a role-masked denoiser for (B, 3) corrupted token ids
    and (B,) step indices, rows grouped per sequence; taped."""
    h = hidden(params, xt, ts)
    b = h.shape[0]
    logits = add(matmul(h, transpose(params.w2)), params.b2)  # (B, 3K)
    logits = reshape(logits, N_POSITIONS * b, params.vocab_size)
    return add(logits, Tensor(np.tile(role_mask(params), (b, 1))))


def role_masked_loss(params: DenoiserParams, entropy: np.ndarray, quads: np.ndarray,
                     steps: int, mu: float, rng: np.random.Generator) -> Tensor:
    """gndiff.batch_loss of a role-masked denoiser, with the same draws: the
    log of each position's softmax over all K columns, picked at the clean
    token; taped."""
    toks = quads[:, :N_POSITIONS] + np.array([0, params.n_entities, 0])
    xt, ts, weights = gndiff._corrupt(entropy, toks, params.vocab_size - 1, steps, mu, rng)
    probs = softmax_rows(role_masked_logits(params, xt, ts))
    picked = gather_cols(probs, toks.reshape(-1))
    weighted = mul(Tensor(weights.reshape(-1, 1)), log(picked))
    return mul(constant(-1.0 / len(toks)), sum_all(weighted))


def role_masked_tail_probs(params: DenoiserParams, xt: np.ndarray,
                           ts: np.ndarray) -> np.ndarray:
    """gndiff._tail_probs of a role-masked denoiser: rows 2K : 2K+|E| of its
    output layer, where the mask is exactly 0."""
    h = gndiff._hidden(params, xt, ts)[0]
    k = params.vocab_size
    cols = slice(2 * k, 2 * k + params.n_entities)
    probs = h @ params.w2.data[cols].T
    probs += params.b2.data[:, cols]
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def live_rows(n_entities: int, n_relations: int) -> np.ndarray:
    """The rows of a role-masked (3K, h) output layer that the mask leaves
    live, in the role-sized order: subject entities, relations, tail
    entities."""
    k = n_entities + n_relations + 1
    return np.concatenate([np.arange(n_entities),
                           k + np.arange(n_entities, n_entities + n_relations),
                           2 * k + np.arange(n_entities)])


def role_sized(params: DenoiserParams) -> DenoiserParams:
    """The role-sized denoiser made of a role-masked one's live output rows."""
    rows = live_rows(params.n_entities, params.n_relations)
    return dataclasses.replace(params, w2=Tensor(params.w2.data[rows]),
                               b2=Tensor(params.b2.data[:, rows]))


# ---------------------------------------------------------------------------
# Distances: one row pair at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoincarePoint:
    """A point strictly inside the unit ball; construction projects if needed."""

    coords: np.ndarray = field()

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64).reshape(1, -1)
        object.__setattr__(self, "coords", project_array_to_ball(arr)[0])

    @property
    def dim(self) -> int:
        return self.coords.size


def _as_rows(p) -> Tensor:
    if isinstance(p, Tensor):
        return p
    if isinstance(p, PoincarePoint):
        return Tensor(p.coords.reshape(1, -1))
    return Tensor(np.asarray(p, dtype=np.float64).reshape(1, -1))


def _row_sqnorm(x: Tensor) -> Tensor:
    return sum_cols(mul(x, x))


def _check_inside(rows: Tensor, name: str) -> None:
    """ValueError for a row past the ball margin, by geometry's own rule."""
    geo.ball_gap(geo.row_sqnorms(rows.data), name)


def _rowwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    d = sub(a, b)
    return sum_cols(mul(d, d))


def euclidean_distance(a, b) -> Tensor:
    """Row-wise L2 distance |a_i - b_i|, shape (m, 1); taped."""
    a, b = _as_rows(a), _as_rows(b)
    if a.shape != b.shape:
        raise DimensionError(f"euclidean_distance needs equal shapes: {a.shape} vs {b.shape}")
    return sqrt(_rowwise_sqdist(a, b))


def poincare_distance(a, b) -> Tensor:
    """Row-wise ball distance arcosh(1 + 2 |a-b|^2 / ((1-|a|^2)(1-|b|^2))); taped.

    Rows must already lie within 1 - BALL_MARGIN of the origin.
    """
    a, b = _as_rows(a), _as_rows(b)
    if a.shape != b.shape:
        raise DimensionError(f"poincare_distance needs equal shapes: {a.shape} vs {b.shape}")
    _check_inside(a, "first argument")
    _check_inside(b, "second argument")
    one = constant(1.0)
    denom = mul(sub(one, _row_sqnorm(a)), sub(one, _row_sqnorm(b)))
    arg = add(one, mul(constant(2.0), div(_rowwise_sqdist(a, b), denom)))
    return acosh(arg)


def _differences(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Every a_i - b_j, in one (m, n, d) block."""
    return ad[:, None, :] - bd[None, :, :]


def _sqdist_backward(ad: np.ndarray, bd: np.ndarray):
    """The backward of all-pairs |a_i - b_j|^2 from the explicit differences:
    2 sum_j g_ij (a_i - b_j) for `a` and -2 sum_i g_ij (a_i - b_j) for `b`,
    which keeps its digits at pairs a few ulps apart."""

    def backward(g):
        diff = _differences(ad, bd)
        return (2.0 * np.einsum("ij,ijk->ik", g, diff),
                -2.0 * np.einsum("ij,ijk->jk", g, diff))

    return backward


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs |a_i - b_j|^2, shape (m, n); taped. Forms every difference
    explicitly, in the forward and in the backward."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensions differ: {a.shape} vs {b.shape}")
    diff = _differences(a.data, b.data)
    result = Tensor(np.einsum("ijk,ijk->ij", diff, diff))
    return _tape_record(result, (a, b), _sqdist_backward(a.data, b.data))


def gram_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """geometry.pairwise_sqdist of two tensors' rows, taped, with the
    explicit-difference backward of `pairwise_sqdist`."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensions differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    result = nk._wrap(geo.pairwise_sqdist(ad, bd, geo.row_sqnorms(bd))[0])
    return _tape_record(result, (a, b), _sqdist_backward(ad, bd))


def euclidean_from_sqdist(sqdist: Tensor) -> Tensor:
    """L2 distances from `sqdist = gram_sqdist(a, b)`; taped. Its entries are
    never negative and identical rows give +0, where sqrt's gradient is 0
    (numkit.sqrt), so no clamp is needed."""
    return sqrt(sqdist)


def poincare_from_sqdist(sqdist: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """Ball distances 2 asinh(sqrt(q)), q = sqdist / ((1 - |a|^2)(1 - |b|^2)),
    from `sqdist = gram_sqdist(a, b)`; taped. sqrt passes no gradient at 0.
    Rows of `a` and `b` must have norm <= 1 - BALL_MARGIN (ValueError
    otherwise)."""
    if sqdist.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(f"squared distances {sqdist.shape} do not pair "
                             f"{a.shape} with {b.shape}")
    _check_inside(a, "first argument")
    _check_inside(b, "second argument")
    one = constant(1.0)
    na = sub(one, _row_sqnorm(a))                 # (m, 1)
    nb = transpose(sub(one, _row_sqnorm(b)))   # (1, n)
    return mul(constant(2.0), asinh(sqrt(div(sqdist, mul(na, nb)))))


def euclidean_pairwise(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs L2 distances, shape (m, n); taped."""
    return euclidean_from_sqdist(gram_sqdist(a, b))


def poincare_pairwise(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs ball distances, shape (m, n); taped. Rows must be inside the ball."""
    return poincare_from_sqdist(gram_sqdist(a, b), a, b)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def adam_step(state: nk.AdamState, params: Tensor, g: np.ndarray, t: int,
              lr: float) -> Tensor:
    """Adam update number `t` with numkit's decay rates and offset; returns
    the updated parameter tensor."""
    if g.shape != params.data.shape:
        raise DimensionError(f"gradient shape {g.shape} != parameter shape {params.shape}")
    if state.m.shape != params.data.shape:
        raise DimensionError(f"optimizer state shape {state.m.shape} != parameter shape {params.shape}")
    beta1, beta2 = nk.ADAM_BETA1, nk.ADAM_BETA2
    state.m = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * (g * g)
    m_hat = state.m / (1.0 - beta1 ** t)
    v_hat = state.v / (1.0 - beta2 ** t)
    return Tensor(params.data - lr * m_hat / (np.sqrt(v_hat) + nk.ADAM_EPS))


# ---------------------------------------------------------------------------
# Scoring and the contrastive loss: the taped chains
# ---------------------------------------------------------------------------

def z_rows(batch: dpcl.QueryBatch, n_entities: int) -> np.ndarray:
    """The batch's signed history rows, (B, |E|): +lam at its history pairs
    and -lam everywhere else."""
    z = np.full((len(batch), n_entities), -batch.lam)
    z[batch.history] = batch.lam
    return z


def head_scores(params: dpcl.DpclParams, batch: dpcl.QueryBatch,
                strategy: str) -> tuple[Tensor, Tensor]:
    """(periodic, non-periodic) dependency scores per candidate, each
    (B, |E|); taped.

    A head's score is its affine-code match against the entity table, plus
    (periodic) or minus (non-periodic) the signed history row (`z_rows`),
    plus the subject-candidate distance of the kind `strategy` gives the
    head. Both distances come from one subject x entity squared-distance
    block (`gram_sqdist`), and a kind both heads use is computed once.
    """
    kinds = dpcl.strategy_distances(strategy)
    entities = params.entity_emb
    s_emb = take_rows(entities, batch.s_ids)
    x = concat_cols(s_emb, take_rows(params.relation_emb, batch.r_ids))
    sqdist = gram_sqdist(s_emb, entities)
    dist = {kind: poincare_from_sqdist(sqdist, s_emb, entities) if kind == "poincare"
            else euclidean_from_sqdist(sqdist)
            for kind in dict.fromkeys(kinds)}
    entities_t = transpose(entities)
    z = Tensor(z_rows(batch, entities.shape[0]))

    def head(w, b, history, kind):
        code = tanh(add(matmul(x, transpose(w)), b))
        return add(history(matmul(code, entities_t), z), dist[kind])

    return (head(params.w_per, params.b_per, add, kinds[0]),
            head(params.w_nonper, params.b_nonper, sub, kinds[1]))


def softmax_sum(s_per: Tensor, s_nonper: Tensor) -> Tensor:
    """softmax(S_per) + softmax(S_nonper), (B, |E|); taped."""
    if s_per.shape != s_nonper.shape:
        raise DimensionError(f"score shapes differ: {s_per.shape} vs {s_nonper.shape}")
    return add(softmax_rows(s_per), softmax_rows(s_nonper))


def mixture(s_per: Tensor, s_nonper: Tensor) -> Tensor:
    """The scored distribution 0.5 * (softmax(S_per) + softmax(S_nonper)),
    (B, |E|) rows that sum to 1; taped."""
    return mul(constant(0.5), softmax_sum(s_per, s_nonper))


def ce_loss(s_per: Tensor, s_nonper: Tensor, gt_ids) -> Tensor:
    """-log(softmax(S_per)[gt] + softmax(S_nonper)[gt]), averaged over the
    batch, from one gather per head; taped."""
    if s_per.shape != s_nonper.shape:
        raise DimensionError(f"score shapes differ: {s_per.shape} vs {s_nonper.shape}")
    p1 = gather_cols(softmax_rows(s_per), gt_ids)
    p2 = gather_cols(softmax_rows(s_nonper), gt_ids)
    per_query = log(add(p1, p2))
    return mul(constant(-1.0 / s_per.shape[0]), sum_all(per_query))


def head_score(params: dpcl.DpclParams, batch: dpcl.QueryBatch, head: str,
               distance: str) -> Tensor:
    """One head's dependency scores, (B, |E|), computed apart from the other
    head: affine-code match, plus (periodic) or minus (non-periodic) the
    history row, plus the row-wise distance of every (subject, candidate)
    pair; taped."""
    history, weight, bias = {
        "periodic": (add, params.w_per, params.b_per),
        "nonperiodic": (sub, params.w_nonper, params.b_nonper),
    }[head]
    entities = params.entity_emb
    n, b = entities.shape[0], len(batch)
    x = concat_cols(take_rows(entities, batch.s_ids),
                       take_rows(params.relation_emb, batch.r_ids))
    code = tanh(add(matmul(x, transpose(weight)), bias))
    scores = history(matmul(code, transpose(entities)), Tensor(z_rows(batch, n)))
    subjects = take_rows(entities, np.repeat(batch.s_ids, n))
    candidates = take_rows(entities, np.tile(np.arange(n), b))
    rowwise = {"poincare": poincare_distance, "euclidean": euclidean_distance}[distance]
    dist = reshape(rowwise(subjects, candidates), b, n)
    return add(scores, dist)


def supcon_loss(params: dpcl.DpclParams, batch: dpcl.QueryBatch, tau: float) -> Tensor:
    """dpcl.supcon_loss as the taped chain it replaced: a zero code raises
    NumericError in div, a denominator that is not positive in log."""
    n = len(batch)
    x = concat_cols(take_rows(params.entity_emb, batch.s_ids),
                    take_rows(params.relation_emb, batch.r_ids))
    code = tanh(add(matmul(x, transpose(params.w_ctr)), params.b_ctr))
    norms = sqrt(sum_cols(mul(code, code)))
    z = div(code, norms)
    sim = mul(constant(1.0 / tau), matmul(z, transpose(z)))

    off_diag = 1.0 - np.eye(n)
    exp_sim = mul(exp(sim), Tensor(off_diag))
    log_denom = log(sum_cols(exp_sim))            # (B, 1)

    same = (batch.periodic[:, None] == batch.periodic[None, :]) & (off_diag > 0)
    pos_count = same.sum(axis=1)
    weights = np.where(same, 1.0, 0.0)
    nonzero = pos_count > 0
    weights[nonzero] = weights[nonzero] / pos_count[nonzero, None]

    log_prob = sub(sim, log_denom)                # broadcast over columns
    total = sum_all(mul(log_prob, Tensor(weights)))
    return mul(constant(-1.0 / n), total)


def joint_loss(alpha: float, ce: Tensor | None, sup: Tensor | None,
               diff: Tensor | None) -> Tensor:
    """engine.joint_loss as the taped blend it replaced:
    alpha * diff + (1 - alpha) * (ce + sup), a term passed as None left out,
    and one component's losses unweighted."""
    if ce is None:
        return diff
    dp = ce if sup is None else add(ce, sup)
    if diff is None:
        return dp
    return add(mul(constant(alpha), diff), mul(constant(1.0 - alpha), dp))


# ---------------------------------------------------------------------------
# Ranking: one query at a time
# ---------------------------------------------------------------------------

def filtered_rank(p: np.ndarray, gt: int, same_time_objects) -> int:
    """1-based rank of the ground truth after removing the other objects that
    are also true at the same (s, r, t); pessimistic tie-breaking."""
    p = np.asarray(p).reshape(-1)
    gt = int(gt)
    drop = {int(o) for o in same_time_objects} - {gt}
    score = p[gt]
    ahead = p >= score
    ahead[gt] = False
    if drop:
        ahead[list(drop)] = False
    return int(ahead.sum()) + 1


def raw_rank(p: np.ndarray, gt: int) -> int:
    return filtered_rank(p, gt, ())


def split_ranks(probs: np.ndarray, quads: np.ndarray,
                scoped: np.ndarray) -> tuple[list[int], list[int], list[bool]]:
    """Per query of `quads` (one row of `probs` each): the filtered rank, the
    raw rank, and whether its object is a new event, i.e. never seen with
    its (s, r) before its t among the `scoped` facts."""
    same_time: dict[tuple[int, int, int], set[int]] = {}
    for s, r, o, t in quads:
        same_time.setdefault((int(s), int(r), int(t)), set()).add(int(o))
    ranks, raw, new = [], [], []
    for i, (s, r, o, t) in enumerate(quads):
        ranks.append(filtered_rank(probs[i], o, same_time[(int(s), int(r), int(t))]))
        raw.append(raw_rank(probs[i], o))
        new.append(not any(ss == s and rr == r and oo == o and tt < t
                           for ss, rr, oo, tt in scoped))
    return ranks, raw, new
