"""Synthesis networks and critics.

Text2Mel = text encoder (K, V) + audio/speaker encoder (Q) + attention +
causal audio decoder predicting time-downsampled mel frames.  SSRN restores
full time resolution and linear-frequency bins; it upsamples in two 2x
stages, each a 1x1 convolution to 2C channels and a time interleave (the
adjoint of a stride-2, 2-tap convolution).  Critics are unbounded scalar
scorers over (mel-)spectrograms; variants v1/v2 drop an average-pooling
stage / insert an extra convolution.  Every critic starts with a linear
front (a 2x mean pool, then ``conv_in``'s kernel); ``critic`` bundles the
front, the body after it, the body's forward-mode tangent and
``discriminator_grad_sq``, which gives the gradient penalty its
input-gradient norms from the gradient at the front's output and the small
Gram matrix of ``conv_in``'s kernel.

Channel widths follow the usual dilated-conv TTS layout scaled by
``width_scale``.  Every layer-normed convolution ends in a ReLU (``_conv``),
and the output layers in a sigmoid, whose biases start negative because
normalized spectrogram targets are mostly at the floor.  The critic body's
tangent runs through the same ``_conv`` and ``_highway`` as every network.

Parameters live in flat name->Tensor dicts so checkpoints and the optimizer
can treat every model uniformly.

Layout: activations are (B, C, T), text indices (B, N); ``attend``,
``t2m_teacher_forced`` and ``discriminator_forward`` refuse anything else
with a ``ValueError``.  Only ``tenc_forward``, ``asenc_forward``,
``adec_forward`` and ``ssrn_forward`` also take one unbatched utterance
((N,) text, (C, T) frames, (S,) speaker), run as a batch of one.  Callers
in this package pass batches (``t2m_generate`` and ``cli`` a batch of one);
the unbatched form's one remaining caller is the ``perfbench`` synth
workload (``wl_synth.py``).

Decoding (``t2m_generate``) runs the causal audio encoder and decoder in
step mode: a tape-free numpy path over the same parameter arrays in which
every causal layer keeps a zero-padded history of its inputs and emits one
column per frame, so each frame costs the same whatever the prefix length.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special

from . import autodiff as ad
from .autodiff import Tensor, nn, ops

OUT_BIAS_INIT = -2.0
GATE_BIAS_INIT = -1.0
STOP_RUN = 10  # low-energy frames in a row that end a decode at the last character


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 43
    n_mels: int = 80
    n_bins: int = 513
    attention_dim: int = 128
    embed_dim: int = 128
    speaker_dim: int = 512
    width_scale: float = 0.25
    downsample: int = 4
    t2m_width: int | None = None  # explicit overrides of the scaled widths
    ssrn_width: int | None = None

    @property
    def t2m_channels(self) -> int:
        if self.t2m_width is not None:
            return self.t2m_width
        return max(8, round(256 * self.width_scale))

    @property
    def ssrn_channels(self) -> int:
        if self.ssrn_width is not None:
            return self.ssrn_width
        return max(8, round(512 * self.width_scale))


DISC_VARIANTS = ("base", "v1", "v2")


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Critic stack layout. ``variant`` alters the base stack: v1 removes an
    average-pooling layer, v2 inserts an extra convolutional layer."""

    in_channels: int
    channels: int
    variant: str = "base"

    def __post_init__(self):
        if self.variant not in DISC_VARIANTS:
            raise ValueError(f"unknown discriminator variant {self.variant!r}")

    def layers(self) -> list[str]:
        """Ordered stage names; tests count pools/convs per variant here."""
        stack = ["pool1", "conv_in", "hw1", "conv1", "hw2"]
        if self.variant != "v1":
            stack.append("pool2")
        if self.variant == "v2":
            stack.append("conv2")
        stack += ["gpool", "head"]
        return stack


@dataclass(frozen=True)
class SpeakerEmbedding:
    """Unit-norm identity vector from an external extractor."""

    vector: np.ndarray
    speaker_id: str = ""

    def __post_init__(self):
        norm = float(np.linalg.norm(self.vector))
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-4:
            raise ValueError(
                f"speaker embedding must be unit-norm (got ||v||={norm:.6f}); "
                "normalize on load"
            )


def unit_normalized(vec: np.ndarray, speaker_id: str = "") -> SpeakerEmbedding:
    v = np.asarray(vec, dtype=np.float32)
    n = np.linalg.norm(v)
    if n == 0 or not np.isfinite(n):
        raise ValueError("cannot normalize a zero or non-finite embedding")
    return SpeakerEmbedding(v / n, speaker_id)


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------


def _add_conv(params, name, rng, cin, cout, k, ln=False, bias_init=0.0):
    params[f"{name}.w"] = nn.kaiming_uniform(rng, (cout, cin, k), fan_in=cin * k)
    b = nn.zeros_param((cout,))
    if bias_init:
        b.data += bias_init
    params[f"{name}.b"] = b
    if ln:
        params[f"{name}.ln_g"] = nn.ones_param((cout,))
        params[f"{name}.ln_b"] = nn.zeros_param((cout,))


def _add_highway(params, name, rng, c, k):
    params[f"{name}.w"] = nn.kaiming_uniform(rng, (2 * c, c, k), fan_in=c * k)
    b = nn.zeros_param((2 * c,))
    b.data[:c] += GATE_BIAS_INIT  # bias gates toward pass-through at init
    params[f"{name}.b"] = b


def _conv(params, name, x, dx=None, kernel=True):
    """Convolution ``name``, then its layer norm and a ReLU if it has one;
    given a tangent ``dx`` at ``x``, (y, dy).  The generators' convolutions
    are 1x1 (output frame t reads input frame t alone, so they are causal
    as they stand); the critics' ``conv1`` and ``conv2`` are k = 3, padded a
    frame on each side.  ``kernel=False`` starts at the bias, for the
    critic's ``conv_in``, whose kernel the critic's front applies."""
    w, b = params[f"{name}.w"], params[f"{name}.b"]
    if kernel:
        y, dy = nn.conv1d(x, w, b), None if dx is None else nn.conv1d(dx, w)
    else:
        y, dy = ops.add(x, ops.reshape(b, (1, -1, 1))), dx
    if f"{name}.ln_g" in params:
        norm = (params[f"{name}.ln_g"], params[f"{name}.ln_b"])
        if dx is None:
            y = ops.relu(nn.layer_norm(y, *norm))
        else:
            y, dy = nn.layer_norm(y, *norm, dx=dy)
            y = ops.relu(y)
            dy = ops.mul(dy, Tensor((y.data > 0).astype(y.dtype)))
    return y if dx is None else (y, dy)


def _highway(params, name, x, dx=None, dilation=1, causal=False):
    """Highway block ``name``; given a tangent ``dx``, returns (y, dy)."""
    return nn.highway_block(
        x, params[f"{name}.w"], params[f"{name}.b"], dilation=dilation, causal=causal, dx=dx
    )


TENC_DILATIONS = (1, 3, 9, 27, 1, 3, 9, 27)
ASENC_DILATIONS = (1, 3, 9, 27, 1, 3)
ADEC_DILATIONS = (1, 3, 9, 27, 1, 1)
SSRN_BLOCK_DILATIONS = (1, 3)
SSRN_UPSAMPLE = 4  # two 2x stages in ssrn_forward: 1x1 conv to 2C, time interleave


def init_t2m_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    p: dict[str, Tensor] = {}
    c = cfg.t2m_channels
    d = cfg.attention_dim
    # text encoder
    p["tenc.emb.w"] = nn.kaiming_uniform(
        rng, (cfg.vocab_size, cfg.embed_dim), fan_in=cfg.embed_dim
    )
    _add_conv(p, "tenc.c0", rng, cfg.embed_dim, 2 * c, 1, ln=True)
    _add_conv(p, "tenc.c1", rng, 2 * c, 2 * c, 1)
    for i, _ in enumerate(TENC_DILATIONS):
        _add_highway(p, f"tenc.hw{i}", rng, 2 * c, 3)
    _add_highway(p, "tenc.hwk1a", rng, 2 * c, 1)
    _add_highway(p, "tenc.hwk1b", rng, 2 * c, 1)
    _add_conv(p, "tenc.out", rng, 2 * c, 2 * d, 1)
    # audio/speaker encoder
    _add_conv(p, "asenc.c0", rng, cfg.n_mels, c, 1, ln=True)
    _add_conv(p, "asenc.c1", rng, c, c, 1)
    p["asenc.spk.w"] = nn.kaiming_uniform(rng, (c, cfg.speaker_dim), fan_in=cfg.speaker_dim)
    p["asenc.spk.b"] = nn.zeros_param((c,))
    for i, _ in enumerate(ASENC_DILATIONS):
        _add_highway(p, f"asenc.hw{i}", rng, c, 3)
    _add_conv(p, "asenc.out", rng, c, d, 1)
    # audio decoder
    _add_conv(p, "adec.c0", rng, 2 * d, c, 1, ln=True)
    for i, _ in enumerate(ADEC_DILATIONS):
        _add_highway(p, f"adec.hw{i}", rng, c, 3)
    _add_conv(p, "adec.c1", rng, c, c, 1, ln=True)
    _add_conv(p, "adec.out", rng, c, cfg.n_mels, 1, bias_init=OUT_BIAS_INIT)
    return p


def init_ssrn_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    p: dict[str, Tensor] = {}
    s = cfg.ssrn_channels
    _add_conv(p, "ssrn.c0", rng, cfg.n_mels, s, 1)
    for i, _ in enumerate(SSRN_BLOCK_DILATIONS):
        _add_highway(p, f"ssrn.pre{i}", rng, s, 3)
    for stage in (0, 1):
        p[f"ssrn.up{stage}.w"] = nn.kaiming_uniform(rng, (s, s, 2), fan_in=2 * s)
        p[f"ssrn.up{stage}.b"] = nn.zeros_param((s,))
        for i, _ in enumerate(SSRN_BLOCK_DILATIONS):
            _add_highway(p, f"ssrn.post{stage}{i}", rng, s, 3)
    _add_conv(p, "ssrn.c1", rng, s, 2 * s, 1, ln=True)
    _add_conv(p, "ssrn.out", rng, 2 * s, cfg.n_bins, 1, bias_init=OUT_BIAS_INIT)
    return p


def init_discriminator_params(
    dcfg: DiscriminatorConfig, rng: np.random.Generator
) -> dict[str, Tensor]:
    p: dict[str, Tensor] = {}
    c = dcfg.channels
    _add_conv(p, "disc.conv_in", rng, dcfg.in_channels, c, 1, ln=True)
    _add_highway(p, "disc.hw1", rng, c, 3)
    _add_conv(p, "disc.conv1", rng, c, c, 3, ln=True)
    _add_highway(p, "disc.hw2", rng, c, 3)
    if dcfg.variant == "v2":
        _add_conv(p, "disc.conv2", rng, c, c, 3, ln=True)
    p["disc.head.w"] = nn.kaiming_uniform(rng, (c, 1), fan_in=c)
    p["disc.head.b"] = nn.zeros_param((1,))
    return p


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _promote_idx(text_idx) -> tuple[np.ndarray, bool]:
    idx = np.asarray(text_idx)
    if idx.ndim == 1:
        return idx[None, :], True
    if idx.ndim == 2:
        return idx, False
    raise ValueError(f"text indices must be (N,) or (B, N), got {idx.shape}")


def _batched(x, channels: int) -> Tensor:
    x = ad.as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"expected (B, {channels}, T) input, got shape {x.shape}")
    if x.shape[1] != channels:
        raise ValueError(f"expected {channels} channels, got {x.shape[1]}")
    return x


def _promote(x, channels: int) -> tuple[Tensor, bool]:
    """The single-utterance form: a (C, T) input runs as (1, C, T)."""
    x = ad.as_tensor(x)
    squeeze = x.ndim == 2
    if squeeze:
        x = ops.reshape(x, (1,) + x.shape)
    return _batched(x, channels), squeeze


def tenc_forward(text_idx, params, cfg: ModelConfig):
    """Text -> (K, V), each (B, d, N)."""
    idx, squeeze = _promote_idx(text_idx)
    if idx.shape[1] == 0:
        raise ValueError("empty text sequence")
    emb = ops.embedding(params["tenc.emb.w"], idx)  # (B, N, E)
    x = ops.swapaxes(emb, 1, 2)  # (B, E, N)
    x = _conv(params, "tenc.c0", x)
    x = _conv(params, "tenc.c1", x)
    for i, dil in enumerate(TENC_DILATIONS):
        x = _highway(params, f"tenc.hw{i}", x, dilation=dil)
    x = _highway(params, "tenc.hwk1a", x)
    x = _highway(params, "tenc.hwk1b", x)
    kv = _conv(params, "tenc.out", x)
    d = cfg.attention_dim
    k = ops.narrow(kv, 1, 0, d)
    v = ops.narrow(kv, 1, d, d)
    if squeeze:
        k = ops.reshape(k, k.shape[1:])
        v = ops.reshape(v, v.shape[1:])
    return k, v


def asenc_forward(prev_mel, spk, params, cfg: ModelConfig):
    """Shifted mel prefix (B, M, T) + speaker embedding (B, S) -> Q (B, d, T).

    The mel branch is causal; the speaker branch is projected to the trunk
    width, broadcast over time, and summed in before the shared layers.
    """
    x, squeeze = _promote(prev_mel, cfg.n_mels)
    spk_t = ad.as_tensor(spk)
    if spk_t.ndim == 1:
        spk_t = ops.reshape(spk_t, (1, -1))
    if spk_t.shape[-1] != cfg.speaker_dim:
        raise ValueError(
            f"speaker embedding dim {spk_t.shape[-1]}, expected {cfg.speaker_dim}"
        )
    x = _conv(params, "asenc.c0", x)
    x = _conv(params, "asenc.c1", x)
    proj = ops.add(
        ops.matmul(spk_t, ops.swapaxes(params["asenc.spk.w"], 0, 1)),
        ops.reshape(params["asenc.spk.b"], (1, -1)),
    )  # (B, c)
    x = ops.add(x, ops.reshape(proj, proj.shape + (1,)))
    for i, dil in enumerate(ASENC_DILATIONS):
        x = _highway(params, f"asenc.hw{i}", x, dilation=dil, causal=True)
    q = _conv(params, "asenc.out", x)
    if squeeze:
        q = ops.reshape(q, q.shape[1:])
    return q


def attend(k, v, q, text_mask: np.ndarray | None = None):
    """Scaled dot-product attention.

    A = column-softmax(K^T Q / sqrt(d)) over text positions; context = V A.
    ``text_mask`` (B, N) in {0,1} excludes padded positions.  Returns
    (A, context) shaped (B, N, T) and (B, d, T).
    """
    k, v, q = ad.as_tensor(k), ad.as_tensor(v), ad.as_tensor(q)
    if not k.ndim == v.ndim == q.ndim == 3:
        raise ValueError(
            f"attend takes (B, d, N) keys and values and (B, d, T) queries,"
            f" got shapes {k.shape}, {v.shape}, {q.shape}"
        )
    d = k.shape[1]
    scores = ops.mul(ops.matmul(ops.swapaxes(k, 1, 2), q), 1.0 / np.sqrt(d))
    if text_mask is not None:
        bias = np.where(np.asarray(text_mask)[:, :, None] > 0, 0.0, -1e9)
        scores = ops.add(scores, Tensor(bias.astype(scores.dtype)))
    a = ops.softmax(scores, axis=1)
    return a, ops.matmul(v, a)


def adec_forward(context_and_q, params, cfg: ModelConfig):
    """Causal decoder over [context; Q] (B, 2d, T) -> mel frames in (0, 1)."""
    x, squeeze = _promote(context_and_q, 2 * cfg.attention_dim)
    x = _conv(params, "adec.c0", x)
    for i, dil in enumerate(ADEC_DILATIONS):
        x = _highway(params, f"adec.hw{i}", x, dilation=dil, causal=True)
    x = _conv(params, "adec.c1", x)
    y = ops.sigmoid(_conv(params, "adec.out", x))
    if squeeze:
        y = ops.reshape(y, y.shape[1:])
    return y


def shift_right(frames):
    """Teacher-forcing input: drop the last frame, prepend an all-zero one."""
    frames = ad.as_tensor(frames)
    t = frames.shape[-1]
    return ops.pad_time(ops.narrow(frames, -1, 0, t - 1), 1, 0)


def t2m_teacher_forced(
    text_idx,
    target_mel,
    spk,
    params,
    cfg: ModelConfig,
    text_mask: np.ndarray | None = None,
):
    """All frames predicted in one parallel pass from the shifted target.

    Returns (Y, A): predictions shaped like ``target_mel`` and the attention
    matrix for the losses.
    """
    k, v = tenc_forward(text_idx, params, cfg)
    q = asenc_forward(shift_right(target_mel), spk, params, cfg)
    a, context = attend(k, v, q, text_mask)
    y = adec_forward(ops.concat([context, q], axis=1), params, cfg)
    return y, a


def _step_conv(a, name, x):
    """One output column of the 1x1 conv ``name`` (then, as in ``_conv``,
    its layer norm and a ReLU) on the input column ``x``."""
    w = a[f"{name}.w"]
    y = w.reshape(w.shape[0], -1) @ x + a[f"{name}.b"]
    if f"{name}.ln_g" in a:  # nn.layer_norm on one column
        inv_c = 1.0 / y.size
        yc = y - y.sum() * inv_c
        sigma = np.sqrt((yc * yc).sum() * inv_c + nn.LN_EPS)
        y = np.maximum(yc / sigma * a[f"{name}.ln_g"] + a[f"{name}.ln_b"], 0)
    return y


class _StepHighway:
    """Step mode of one causal highway layer: its inputs so far, behind
    (K-1)*dilation zero columns, so step t reads the taps t-(K-1)d .. t-d, t
    as one strided slice and does one mat-vec with the (2C, C*K) kernel."""

    def __init__(self, a, name, dilation, max_frames):
        w = a[f"{name}.w"]
        two_c, c, k = w.shape
        self.w2 = w.reshape(two_c, c * k)
        self.b = a[f"{name}.b"]
        self.c = c
        self.dilation = dilation
        self.span = (k - 1) * dilation
        self.history = np.zeros((c, self.span + max_frames), dtype=w.dtype)

    def __call__(self, x, t):
        self.history[:, t + self.span] = x
        taps = self.history[:, t : t + self.span + 1 : self.dilation]  # (C, K)
        h = self.w2 @ taps.reshape(-1) + self.b
        gate = scipy.special.expit(h[: self.c])
        return gate * h[self.c :] + (1.0 - gate) * x


class _StepDecoder:
    """Tape-free step mode of ``asenc_forward`` and ``adec_forward`` for one
    utterance: ``query`` maps the previous mel frame to Q at step t, and
    ``frame`` maps [context; Q] at step t to the next mel frame.  Layer norm
    works per time step, so a step sees what the full causal pass sees."""

    def __init__(self, params, spk_vec, max_frames: int):
        self.a = a = {k: t.data for k, t in params.items()}
        self.spk_proj = a["asenc.spk.w"] @ spk_vec + a["asenc.spk.b"]
        self.asenc = [
            _StepHighway(a, f"asenc.hw{i}", dil, max_frames)
            for i, dil in enumerate(ASENC_DILATIONS)
        ]
        self.adec = [
            _StepHighway(a, f"adec.hw{i}", dil, max_frames)
            for i, dil in enumerate(ADEC_DILATIONS)
        ]

    def query(self, prev_frame, t):
        a = self.a
        x = _step_conv(a, "asenc.c0", prev_frame)
        x = _step_conv(a, "asenc.c1", x) + self.spk_proj
        for layer in self.asenc:
            x = layer(x, t)
        return _step_conv(a, "asenc.out", x)

    def frame(self, context_and_q, t):
        a = self.a
        x = _step_conv(a, "adec.c0", context_and_q)
        for layer in self.adec:
            x = layer(x, t)
        x = _step_conv(a, "adec.c1", x)
        return scipy.special.expit(_step_conv(a, "adec.out", x))


def t2m_generate(
    text_idx,
    spk,
    params,
    cfg: ModelConfig,
    max_frames: int = 200,
    stop_energy: float = 0.02,
):
    """Frame-by-frame constrained decoding in step mode.

    The causal audio encoder and decoder run one column per frame
    (`_StepDecoder`), so every frame costs the same, O(1) in the prefix
    length; the text encoder runs once.  Output equals re-running
    ``asenc_forward`` / ``adec_forward`` over the whole prefix at every
    frame up to float rounding.

    At each step the attention column is masked to the window
    [p_prev, p_prev + 2] (p starts at 0), renormalized, and the new position
    is its argmax (ties -> lowest index).  The emitted path is therefore
    monotone with steps in {0, 1, 2}.  Generation stops once the path has
    reached the last character and ``STOP_RUN`` consecutive frames have mean
    magnitude below ``stop_energy``, or at ``max_frames``.

    float32 parameters give a float32 mel, float64 parameters a float64 one.
    Returns (mel (M, T), attention (N, T), path list of length T).
    """
    if max_frames < 1:
        raise ValueError("max_frames must be >= 1")
    idx = np.asarray(text_idx)
    if idx.ndim != 1:
        raise ValueError("generation takes a single unbatched text sequence")
    n = idx.size
    spk_vec = spk.vector if isinstance(spk, SpeakerEmbedding) else np.asarray(spk)
    if spk_vec.size != cfg.speaker_dim:
        raise ValueError(
            f"speaker embedding of shape {spk_vec.shape}, expected ({cfg.speaker_dim},)"
        )
    dt = params["adec.out.w"].data.dtype
    with ad.no_grad():
        k, v = tenc_forward(idx[None], params, cfg)
    k_np, v_np = k.data[0], v.data[0]  # (d, N)
    d = k_np.shape[0]
    dec = _StepDecoder(params, spk_vec.reshape(-1).astype(dt), max_frames)
    mel = np.zeros((cfg.n_mels, max_frames), dtype=dt)
    att = np.zeros((n, max_frames))
    frame = np.zeros(cfg.n_mels, dtype=dt)  # the all-zero start frame
    path: list[int] = []
    p_prev = 0
    low_run = 0
    for t in range(max_frames):
        q = dec.query(frame, t)
        scores = (k_np.T @ q) / np.sqrt(d)  # (N,)
        window = np.full(n, -np.inf)
        lo, hi = p_prev, min(p_prev + 2, n - 1)
        window[lo : hi + 1] = scores[lo : hi + 1]
        col = np.exp(window - window[lo : hi + 1].max())
        col /= col.sum()
        p_t = int(np.argmax(col))
        path.append(p_t)
        att[:, t] = col
        frame = dec.frame(np.concatenate([v_np @ col, q]).astype(dt), t)
        mel[:, t] = frame
        p_prev = p_t
        low_run = low_run + 1 if frame.mean() < stop_energy else 0
        if p_t >= n - 1 and low_run >= STOP_RUN:
            break
    t = len(path)
    return mel[:, :t].copy(), att[:, :t].copy(), path


def ssrn_forward(dmel, params, cfg: ModelConfig):
    """Downsampled mel (B, M, T4) -> linear spectrogram (B, F, 4*T4) in (0,1)."""
    x, squeeze = _promote(dmel, cfg.n_mels)
    x = _conv(params, "ssrn.c0", x)
    for i, dil in enumerate(SSRN_BLOCK_DILATIONS):
        x = _highway(params, f"ssrn.pre{i}", x, dilation=dil)
    for stage in (0, 1):
        x = nn.conv1d_transposed(
            x, params[f"ssrn.up{stage}.w"], params[f"ssrn.up{stage}.b"]
        )
        for i, dil in enumerate(SSRN_BLOCK_DILATIONS):
            x = _highway(params, f"ssrn.post{stage}{i}", x, dilation=dil)
    x = _conv(params, "ssrn.c1", x)
    y = ops.sigmoid(_conv(params, "ssrn.out", x))
    if squeeze:
        y = ops.reshape(y, y.shape[1:])
    return y


class Critic(NamedTuple):
    """A critic split where the gradient penalty needs it.  ``front`` is
    linear in its input and keeps its number of axes; ``body`` maps the
    front's output to (B,) scores; ``tangent(z, dz)`` gives the (B,)
    directional derivatives of the body's scores at ``z`` along ``dz``;
    ``grad_sq(delta, t)`` gives each sample's squared input-gradient norm
    from ``delta``, the gradient of the summed scores at the front's
    output, for inputs of length ``t``."""

    front: Callable
    body: Callable
    tangent: Callable
    grad_sq: Callable


def critic(dcfg: DiscriminatorConfig, params) -> Critic:
    """The critic of ``dcfg`` as front, body, the body's tangent and
    gradient norm."""
    return Critic(
        front=lambda spec: discriminator_front(spec, dcfg, params),
        body=lambda z: discriminator_body(z, dcfg, params),
        tangent=lambda z, dz: discriminator_body(z, dcfg, params, dz)[1],
        grad_sq=lambda delta, t: discriminator_grad_sq(delta, t, params),
    )


def discriminator_forward(spec, dcfg: DiscriminatorConfig, params):
    """Wasserstein critic: (B, C, T) -> (B,) unbounded scores."""
    return discriminator_body(discriminator_front(spec, dcfg, params), dcfg, params)


_FRONT = ("pool1", "conv_in")  # the stages discriminator_front starts


def discriminator_front(spec, dcfg: DiscriminatorConfig, params):
    """The critic's linear front: ``pool1``, then ``conv_in``'s kernel with
    no bias.  (B, C, T) -> (B, c, ceil(T/2))."""
    x = _batched(spec, dcfg.in_channels)
    w = params["disc.conv_in.w"]
    return ops.matmul(ops.reshape(w, w.shape[:2]), _mean_pool2(x))


def discriminator_body(z, dcfg: DiscriminatorConfig, params, dz=None):
    """The rest of the critic on the front's output: ``conv_in``'s bias,
    layer norm and ReLU, then the later stages of ``dcfg.layers()``.

    Given ``dz``, a tangent at ``z``, every stage carries the tangent too,
    and the return is (scores, the scores' directional derivative along
    ``dz``); the scores take the same operations either way.  Convolutions,
    pools, the global mean and the head are linear in the tangent, ReLU
    masks it, and layer norms and highway blocks apply their Jacobians
    (``nn.layer_norm``, ``nn.highway_block``).  Taped, the tangent's
    gradient is the gradient of <dz, d sum(scores) / dz> at fixed ``dz``."""

    def linear(f, t):  # a stage that is linear in the tangent
        return None if t is None else f(t)

    def both(out):  # a layer's output and tangent, None without dz
        return (out, None) if dz is None else out

    x, dx = both(_conv(params, "disc.conv_in", z, dz, kernel=False))
    for layer in dcfg.layers()[len(_FRONT):]:
        name = f"disc.{layer}"
        if layer.startswith("hw"):
            x, dx = both(_highway(params, name, x, dx, dilation=3 if layer == "hw2" else 1))
        elif layer.startswith("conv"):
            x, dx = both(_conv(params, name, x, dx))
        elif layer.startswith("pool"):
            x, dx = _mean_pool2(x), linear(_mean_pool2, dx)
        elif layer == "gpool":  # adaptive average pool over time
            x, dx = ops.mean(x, axis=2), linear(lambda t: ops.mean(t, axis=2), dx)
        elif layer == "head":
            head = params["disc.head.w"]
            x = ops.add(ops.matmul(x, head), ops.reshape(params["disc.head.b"], (1, 1)))
            dx = linear(lambda t: ops.matmul(t, head), dx)
    scores = ops.reshape(x, (x.shape[0],))
    return scores if dz is None else (scores, ops.reshape(dx, (dx.shape[0],)))


def discriminator_grad_sq(delta, t: int, params):
    """Each sample's squared norm of the critic's gradient with respect to
    its (B, C, t) input, from ``delta``, the (B, c, ceil(t/2)) gradient of
    the summed scores at the front's output.

    The front is linear, so the input gradient is pool1^T W^T delta: each
    pooled column s hands half of W^T delta_s to both of its input samples,
    and an odd t drops the padded one.  With the c x c Gram matrix
    G = W W^T, ||grad||^2 = 1/2 sum_s delta_s^T G delta_s, less
    1/4 delta_last^T G delta_last when t is odd.  Taped, so the gradient
    penalty's loss differentiates through it to ``delta`` and the kernel.
    """
    if delta.ndim != 3 or delta.shape[2] != (t + 1) // 2:
        raise ValueError(f"front gradient of shape {delta.shape} does not fit length {t}")
    w = params["disc.conv_in.w"]
    w2 = ops.reshape(w, w.shape[:2])
    gram = ops.matmul(w2, ops.swapaxes(w2, 0, 1))
    quad = ops.tsum(ops.mul(delta, ops.matmul(gram, delta)), axis=1)  # (B, ceil(t/2))
    weights = np.full(quad.shape[1], 0.5)
    if t % 2:
        weights[-1] = 0.25
    return ops.tsum(ops.mul(quad, weights), axis=1)


def _mean_pool2(x):
    if x.shape[2] % 2:
        x = ops.pad_time(x, 0, 1)
    return ops.mul(ops.pair_sum(x), 0.5)
