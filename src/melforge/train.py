"""Adversarial training loops and checkpointing.

Each outer step runs the generator once, teacher-forced on one batch, then
``n_critic`` critic updates (Wasserstein loss with gradient penalty on
interpolates between fresh real batches and that output, detached), then
one generator update on that output's reconstruction + adversarial loss.
The penalty never forms the interpolate or its input-sized gradient: the
critic's front is linear, so `critic_update` interpolates the front's
outputs, differentiates the body there and takes the norms from
``model.discriminator_grad_sq``.  The tape is first order: the penalty's
gradient through that differentiation comes from a forward-mode tangent of
the body, taped and differentiated once.  Everything is deterministic given
(seed, config, data): batches, interpolation draws and parameter
initialization all come from one seeded generator consumed in a fixed
order.

The run log has one JSON line per logged step: the update counts, the
critic's last-update statistics (``critic_critic_loss``,
``critic_wasserstein``, ``critic_grad_norm``, ``critic_gp``; absent
before ``gan_start_step``), the generator's losses, and the wall times
``wall_ms`` (the whole step), ``critic_ms`` (the real batches and the
``n_critic`` updates) and ``generator_ms`` (the generator forward and its
losses, plus the adversarial score, backward pass and Adam step).

Checkpoints are binary: magic "MFCK", version, a JSON metadata block, then
a tensor table of little-endian float32 buffers (parameters and optimizer
moments), giving bit-exact round trips.  The metadata also carries the loop
state, the training generator's bit-generator state and the batch queue, so
a resumed run continues bit for bit as the uninterrupted run would.  Resume,
`synth` and `eval-antispoof` all build a network at the checkpoint's model
config, then fill it by `restore`, which checks each name and shape.
"""

from __future__ import annotations

import json
import struct
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses, model
from .autodiff import AdamState, Tensor, adam_step
from .config import RunConfig, feature_hash
from .corpus import EmbeddingStore, Manifest
from .dsp import read_feature_cache
from .errors import CompatibilityError, CorpusError, FormatError, TrainingAborted
from .fileio import atomic_write
from .model import DiscriminatorConfig
from .textproc import CharVocab, encode

VOCAB = CharVocab()  # the training vocabulary; checkpoints record its characters
CKPT_MAGIC = b"MFCK"
CKPT_VERSION = 2
# metadata a loaded checkpoint must carry
_REQUIRED_META = (
    "model_id", "iteration", "vocab", "feature_hash", "rng_state", "batch_queue"
)
# train settings a resumed run may change: they do not touch the numbers
_RESUME_FREE = ("max_iters", "checkpoint_every", "log_every")


@dataclass
class Checkpoint:
    model_id: str  # "t2m" | "ssrn"
    iteration: int
    params: dict[str, np.ndarray]
    disc_params: dict[str, np.ndarray]
    opt: dict[str, dict[str, np.ndarray]]  # "m"/"v" tables
    opt_t: int
    disc_opt: dict[str, dict[str, np.ndarray]]
    disc_opt_t: int
    vocab: str
    feature_hash: str
    config: dict = field(default_factory=dict)
    rng_state: dict = field(default_factory=dict)  # bit_generator.state
    batch_queue: list[int] = field(default_factory=list)  # BatchIterator.queue


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def _write_tensor_table(f, table: dict[str, np.ndarray]) -> None:
    f.write(struct.pack("<I", len(table)))
    for name in sorted(table):
        arr = np.ascontiguousarray(table[name], dtype="<f4")
        nb = name.encode("utf-8")
        f.write(struct.pack("<H", len(nb)))
        f.write(nb)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def _read_tensor_table(f, path) -> dict[str, np.ndarray]:
    raw = f.read(4)
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated at offset {f.tell()}")
    (count,) = struct.unpack("<I", raw)
    table = {}
    for _ in range(count):
        try:
            (nlen,) = struct.unpack("<H", f.read(2))
            name = f.read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<I", f.read(4))
            shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
            size = int(np.prod(shape)) if ndim else 1
            buf = f.read(size * 4)
            if len(buf) != size * 4:
                raise FormatError(f"{path}: truncated tensor {name!r} at offset {f.tell()}")
            table[name] = np.frombuffer(buf, dtype="<f4").reshape(shape).copy()
        except struct.error as e:
            raise FormatError(f"{path}: truncated at offset {f.tell()} ({e})") from e
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: tensor name at offset {f.tell()} is not UTF-8") from e
    return table


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Crash-safe: written through ``fileio.atomic_write``."""
    meta = {
        "model_id": ckpt.model_id,
        "iteration": ckpt.iteration,
        "vocab": ckpt.vocab,
        "feature_hash": ckpt.feature_hash,
        "config": ckpt.config,
        "opt_t": ckpt.opt_t,
        "disc_opt_t": ckpt.disc_opt_t,
        "rng_state": ckpt.rng_state,
        "batch_queue": ckpt.batch_queue,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for table in (
            ckpt.params,
            ckpt.disc_params,
            ckpt.opt.get("m", {}),
            ckpt.opt.get("v", {}),
            ckpt.disc_opt.get("m", {}),
            ckpt.disc_opt.get("v", {}),
        ):
            _write_tensor_table(f, table)


def load_checkpoint(path, expect_hash: str | None = None, force: bool = False) -> Checkpoint:
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) < 12 or head[:4] != CKPT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint header")
        version, mlen = struct.unpack("<II", head[4:])
        if version != CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        blob = f.read(mlen)
        if len(blob) != mlen:
            raise FormatError(f"{path}: truncated metadata at offset {f.tell()}")
        try:
            meta = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: bad metadata block ({e})") from e
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: metadata is not a JSON object")
        missing = [k for k in _REQUIRED_META if k not in meta]
        if missing:
            raise FormatError(f"{path}: metadata lacks {', '.join(missing)}")
        if not isinstance(meta["model_id"], str) or meta["model_id"] not in STAGES:
            raise FormatError(f"{path}: unknown model_id {meta['model_id']!r}")
        for key in ("iteration", "opt_t", "disc_opt_t"):
            val = meta.get(key, 0)
            if type(val) is not int or val < 0:  # bool is an int subclass
                raise FormatError(f"{path}: {key} must be a non-negative integer, got {val!r}")
        for key in ("vocab", "feature_hash"):
            if not isinstance(meta[key], str):
                raise FormatError(f"{path}: {key} must be a string, got {meta[key]!r}")
        try:
            CharVocab(meta["vocab"])
        except ValueError as e:
            raise FormatError(f"{path}: invalid vocab ({e})") from e
        try:
            RunConfig.from_dict(meta.get("config", {}))
        except (FormatError, CompatibilityError) as e:
            raise type(e)(f"{path}: {e}") from e
        params = _read_tensor_table(f, path)
        disc_params = _read_tensor_table(f, path)
        m = _read_tensor_table(f, path)
        v = _read_tensor_table(f, path)
        dm = _read_tensor_table(f, path)
        dv = _read_tensor_table(f, path)
    if expect_hash is not None and meta["feature_hash"] != expect_hash and not force:
        raise CompatibilityError(
            f"{path}: feature hash {meta['feature_hash']} != expected {expect_hash}"
            " (use force to override)"
        )
    return Checkpoint(
        model_id=meta["model_id"],
        iteration=meta["iteration"],
        params=params,
        disc_params=disc_params,
        opt={"m": m, "v": v},
        opt_t=meta.get("opt_t", 0),
        disc_opt={"m": dm, "v": dv},
        disc_opt_t=meta.get("disc_opt_t", 0),
        vocab=meta["vocab"],
        feature_hash=meta["feature_hash"],
        config=meta.get("config", {}),
        rng_state=meta["rng_state"],
        batch_queue=meta["batch_queue"],
    )


def _to_arrays(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: t.data.astype(np.float32, copy=True) for k, t in params.items()}


def restore(params: dict[str, Tensor], arrays: dict[str, np.ndarray], source="checkpoint") -> None:
    """Fill freshly built ``params`` in place from the ``arrays`` of
    ``source``; FormatError unless each is there with the model's shape."""
    for k, t in params.items():
        if k not in arrays:
            raise FormatError(f"{source} lacks parameter {k!r}")
        if arrays[k].shape != t.data.shape:
            raise FormatError(
                f"{source} parameter {k!r} has shape {arrays[k].shape}, "
                f"model expects {t.data.shape}"
            )
        t.data = arrays[k].astype(t.data.dtype, copy=True)


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    utterance_id: str
    speaker_id: str
    text_idx: np.ndarray
    dmel: np.ndarray  # (M, Td)
    lin: np.ndarray  # (F, T)
    spk: np.ndarray  # (S,)


def load_training_samples(manifest: Manifest, store: EmbeddingStore) -> list[Sample]:
    samples = []
    for r in manifest.records:
        if not r.features:
            raise FormatError(
                f"{r.utterance_id}: manifest has no feature caches; run prepare first"
            )
        key = r.utterance_id if r.utterance_id in store else r.speaker_id
        if key not in store:
            raise CorpusError(
                f"{r.utterance_id}: embedding store has neither this utterance"
                f" nor its speaker {r.speaker_id!r}"
            )
        samples.append(
            Sample(
                utterance_id=r.utterance_id,
                speaker_id=r.speaker_id,
                text_idx=encode(r.text, VOCAB).indices,
                dmel=read_feature_cache(r.features["dmel"]),
                lin=read_feature_cache(r.features["lin"]),
                spk=store[key].vector,
            )
        )
    return samples


def _pad(arrs: list[np.ndarray], length: int | None = None, dtype=np.float32):
    """Stack arrays zero-padded (or cut) along their last axis to ``length``,
    by default the longest, plus a validity mask with singleton middle axes:
    (B, T) for 1-D arrays, (B, 1, T) for (C, T) ones."""
    length = max(a.shape[-1] for a in arrs) if length is None else length
    lead = arrs[0].shape[:-1]
    out = np.zeros((len(arrs), *lead, length), dtype=dtype)
    mask = np.zeros((len(arrs), *(1,) * len(lead), length), dtype=np.float32)
    for i, a in enumerate(arrs):
        t = min(a.shape[-1], length)
        out[i, ..., :t] = a[..., :t]
        mask[i, ..., :t] = 1.0
    return out, mask


class BatchIterator:
    """Length-bucketed fixed-size batches in a deterministic shuffled order.

    The trailing group wraps around so every batch has exactly
    ``batch_size`` samples (interpolates need paired real/fake shapes).
    """

    def __init__(self, samples: list[Sample], batch_size: int, rng, length_key):
        order = sorted(range(len(samples)), key=lambda i: length_key(samples[i]))
        self._groups = []
        for i in range(0, len(order), batch_size):
            group = order[i : i + batch_size]
            while len(group) < batch_size:
                group = group + order[: batch_size - len(group)]
            self._groups.append(group)
        self._samples = samples
        self._rng = rng
        self.queue: list[int] = []  # group indices, popped from the end

    def next(self) -> list[Sample]:
        if not self.queue:
            self.queue = self._rng.permutation(len(self._groups)).tolist()
        return [self._samples[i] for i in self._groups[self.queue.pop()]]

    def restore_queue(self, queue: list[int]) -> None:
        """Continue from a queue saved by a run over the same groups."""
        n = len(self._groups)
        bad = [i for i in queue if type(i) is not int or not 0 <= i < n]
        if bad:
            raise CompatibilityError(
                f"checkpoint batch queue names groups {bad[:5]} outside the {n} of this run"
            )
        self.queue = list(queue)


# ---------------------------------------------------------------------------
# update steps
# ---------------------------------------------------------------------------


def critic_update(
    real: np.ndarray,
    fake: np.ndarray,
    critic: model.Critic,
    disc_params: dict[str, Tensor],
    opt: AdamState,
    rng: np.random.Generator,
    gp_weight: float,
) -> dict[str, float]:
    """One WGAN-GP critic step on (B, ...) real and fake batches.

    The critic's front is linear, so the front output of the interpolate
    u*real + (1-u)*fake is z_hat = u*z_real + (1-u)*z_fake, and the
    interpolate itself is never formed.  Three first-order passes give the
    loss's exact parameter gradient:

    1. delta, the gradient of the summed body scores at a detached copy of
       z_hat, which ``critic.grad_sq`` turns into each sample's squared
       input-gradient norm (for the model's critics through the Gram matrix
       of ``conv_in``'s kernel, never the input-sized gradient);
    2. the loss with delta as a leaf: the parameter gradient at fixed delta
       and v, the loss's gradient with respect to delta;
    3. the rest, the gradient of <v, delta(params)>.  That inner product is
       the body's directional derivative at z_hat along v, which
       ``critic.tangent`` computes forward on the tape, so one more ordinary
       backward pass differentiates it, through z_hat into the front too.

    Adam takes the sum of passes 2 and 3.  Returns the loss, the
    Wasserstein estimate, the mean gradient norm and the penalty
    mean((norm - 1)^2).
    """
    b = real.shape[0]
    u = rng.uniform(size=(b,) + (1,) * (real.ndim - 1)).astype(real.dtype)
    z_real = critic.front(Tensor(real))
    z_fake = critic.front(Tensor(fake))
    z_hat = ad.add(ad.mul(z_real, u), ad.mul(z_fake, 1.0 - u))
    z_leaf = Tensor(z_hat.data, requires_grad=True)
    (delta,) = ad.grad(ad.tsum(critic.body(z_leaf)), [z_leaf])
    delta = Tensor(delta.data, requires_grad=True)
    d_real, d_fake = critic.body(z_real), critic.body(z_fake)
    grad_sq = critic.grad_sq(delta, real.shape[-1])
    loss = losses.wgan_critic_loss(d_real, d_fake, grad_sq, gp_weight)
    names, params = list(disc_params), list(disc_params.values())
    *gs, v = ad.grad(loss, params + [delta])
    grads = {n: g.data for n, g in zip(names, gs)}
    tangent = ad.tsum(critic.tangent(z_hat, v))
    if tangent.requires_grad:  # else delta does not depend on the parameters
        grads = {n: grads[n] + g.data for n, g in zip(names, ad.grad(tangent, params))}
    adam_step(disc_params, grads, opt)
    norms = np.sqrt(grad_sq.data)
    return {
        "critic_loss": float(loss.data),
        "wasserstein": float(np.mean(d_real.data) - np.mean(d_fake.data)),
        "grad_norm": float(norms.mean()),
        "gp": float(np.mean((norms - 1.0) ** 2)),
    }


def generator_update(
    loss_recon: Tensor,
    loss_gan: Tensor | None,
    gen_params: dict[str, Tensor],
    opt: AdamState,
) -> dict[str, float]:
    for name, loss in (("reconstruction", loss_recon), ("adversarial", loss_gan)):
        if loss is not None and not np.isfinite(loss.data):
            raise TrainingAborted(f"non-finite {name} loss {float(loss.data)}")
    if loss_gan is None:
        total = loss_recon
    else:
        total, ratio = losses.combine_losses(loss_recon, loss_gan)
    if not np.isfinite(total.data):
        raise TrainingAborted(f"non-finite generator loss {float(total.data)}")
    names = list(gen_params)
    gs = ad.grad(total, [gen_params[n] for n in names])
    adam_step(gen_params, {n: g.data for n, g in zip(names, gs)}, opt)
    out = {"recon": float(loss_recon.data), "total": float(total.data)}
    if loss_gan is not None:
        out["gan"] = float(loss_gan.data)
        out["ratio"] = ratio
    return out


def _adam(cfg) -> AdamState:
    return AdamState(alpha=cfg.alpha, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)


def _opt_tables(opt: AdamState) -> dict[str, dict[str, np.ndarray]]:
    """Copies of the moment buffers, which adam_step updates in place."""
    return {
        "m": {k: v.copy() for k, v in opt.m.items()},
        "v": {k: v.copy() for k, v in opt.v.items()},
    }


def _restore_opt(opt: AdamState, tables: dict[str, dict[str, np.ndarray]], t: int) -> None:
    opt.m = {k: v.copy() for k, v in tables.get("m", {}).items()}
    opt.v = {k: v.copy() for k, v in tables.get("v", {}).items()}
    opt.t = t


# ---------------------------------------------------------------------------
# training stages
# ---------------------------------------------------------------------------


def _t2m_batch(batch, mcfg, gen_params):
    dmel, fmask = _pad([s.dmel for s in batch])

    def forward():
        texts, tmask = _pad([s.text_idx for s in batch], dtype=np.int64)
        spk = np.stack([s.spk for s in batch]).astype(np.float32)
        y, a = model.t2m_teacher_forced(texts, dmel, spk, gen_params, mcfg, tmask)
        w, amask = _guided_batch(tmask, fmask)
        return y, losses.recon_loss_t2m(y, Tensor(dmel), a, w, mask=fmask, attn_mask=amask)

    return dmel, fmask, forward


def _ssrn_batch(batch, mcfg, gen_params):
    dmel, _ = _pad([s.dmel for s in batch])
    lin, mask = _pad([s.lin for s in batch], dmel.shape[2] * mcfg.downsample)

    def forward():
        y = model.ssrn_forward(dmel, gen_params, mcfg)
        return y, losses.recon_loss_ssrn(y, Tensor(lin), mask=mask)

    return lin, mask, forward


def _guided_batch(tmask: np.ndarray, fmask: np.ndarray):
    """Per-sample guided weight grids (true N_i x T_i denominators) and a
    validity mask, both padded to the batch shape."""
    b, nmax = tmask.shape
    t_frames = fmask.shape[2]
    w = np.zeros((b, nmax, t_frames), dtype=np.float32)
    m = np.zeros((b, nmax, t_frames), dtype=np.float32)
    for i in range(b):
        n = int(tmask[i].sum())
        t = int(fmask[i, 0].sum())
        w[i, :n, :t] = losses.guided_weights(n, t)
        m[i, :n, :t] = 1.0
    return w, m


@dataclass(frozen=True)
class Stage:
    """What differs between the Text2Mel and SSRN stages.

    ``batch(samples, mcfg, gen_params)`` returns the zero-padded real
    features (the generator target, which the critic also scores), their
    (B, 1, T) frame mask, and ``forward()``, which runs the generator in the
    caller's grad mode and returns ``(y, recon_loss)``: its output and its
    reconstruction loss.  Entries call ``model``/``losses`` through module
    attributes.
    """

    init: Callable  # (ModelConfig, rng) -> generator parameters
    feature: str  # the Sample field the critic scores
    channels: Callable  # ModelConfig -> critic input channels
    batch: Callable


STAGES = {
    "t2m": Stage(
        init=lambda mcfg, rng: model.init_t2m_params(mcfg, rng),
        feature="dmel",
        channels=lambda mcfg: mcfg.n_mels,
        batch=_t2m_batch,
    ),
    "ssrn": Stage(
        init=lambda mcfg, rng: model.init_ssrn_params(mcfg, rng),
        feature="lin",
        channels=lambda mcfg: mcfg.n_bins,
        batch=_ssrn_batch,
    ),
}


def discriminator_config(model_id: str, run_cfg: RunConfig) -> DiscriminatorConfig:
    """The critic that ``run_cfg`` trains against stage ``model_id``."""
    tcfg = run_cfg.train
    channels = STAGES[model_id].channels(run_cfg.model)
    return DiscriminatorConfig(channels, tcfg.disc_channels, tcfg.disc_variant)


def check_model_fits_features(run_cfg: RunConfig) -> None:
    """Refuse (CompatibilityError) model settings that cannot fit the
    feature grids of ``run_cfg.dsp`` or the characters of `VOCAB`."""
    mcfg, fcfg = run_cfg.model, run_cfg.dsp
    if mcfg.vocab_size < len(VOCAB):
        raise CompatibilityError(
            f"model.vocab_size {mcfg.vocab_size} is smaller than the training"
            f" vocabulary's {len(VOCAB)} characters"
        )
    if not mcfg.downsample == fcfg.downsample == model.SSRN_UPSAMPLE:
        raise CompatibilityError(
            f"model.downsample {mcfg.downsample} and dsp.downsample {fcfg.downsample}"
            f" must both be {model.SSRN_UPSAMPLE}, the factor SSRN restores"
        )
    if mcfg.n_mels != fcfg.n_mels:
        raise CompatibilityError(
            f"model.n_mels {mcfg.n_mels} differs from dsp.n_mels {fcfg.n_mels}"
        )
    if mcfg.n_bins != fcfg.win // 2 + 1:
        raise CompatibilityError(
            f"model.n_bins {mcfg.n_bins} differs from dsp.win // 2 + 1"
            f" = {fcfg.win // 2 + 1}"
        )


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def train_t2m(samples, run_cfg, log_path=None, resume=None):
    """Text2Mel training: `train_stage` for "t2m"."""
    yield from train_stage("t2m", samples, run_cfg, log_path, resume)


def train_ssrn(samples, run_cfg, log_path=None, resume=None):
    """SSRN training: `train_stage` for "ssrn"."""
    yield from train_stage("ssrn", samples, run_cfg, log_path, resume)


def train_stage(
    model_id: str,
    samples: list[Sample],
    run_cfg: RunConfig,
    log_path=None,
    resume: Checkpoint | None = None,
):
    """Train ``STAGES[model_id]``; yields a Checkpoint every
    ``checkpoint_every`` steps and at the end."""
    stage = STAGES[model_id]
    tcfg = run_cfg.train
    mcfg = run_cfg.model
    check_model_fits_features(run_cfg)
    rng = np.random.default_rng(tcfg.seed)
    gen_params = stage.init(mcfg, rng)
    dcfg = discriminator_config(model_id, run_cfg)
    disc_params = model.init_discriminator_params(dcfg, rng)
    gen_opt, disc_opt = _adam(tcfg), _adam(tcfg)
    batches = BatchIterator(
        samples, tcfg.batch_size, rng, lambda s: getattr(s, stage.feature).shape[1]
    )
    start = 0
    if resume is not None:
        if resume.model_id != model_id:
            raise CompatibilityError(
                f"checkpoint is for {resume.model_id!r}, not {model_id!r}"
            )
        saved, now = resume.config.get("train") or {}, run_cfg.to_dict()["train"]
        changed = [
            f"{k} {saved.get(k)!r} -> {now.get(k)!r}"
            for k in sorted(saved.keys() | now.keys())
            if k not in _RESUME_FREE and saved.get(k) != now.get(k)
        ]
        if changed:
            raise CompatibilityError(
                "checkpoint was trained under another train recipe: " + ", ".join(changed)
            )
        restore(gen_params, resume.params)
        restore(disc_params, resume.disc_params)
        _restore_opt(gen_opt, resume.opt, resume.opt_t)
        _restore_opt(disc_opt, resume.disc_opt, resume.disc_opt_t)
        start = resume.iteration
        batches.restore_queue(resume.batch_queue)
        try:
            rng.bit_generator.state = resume.rng_state
        except (KeyError, TypeError, ValueError) as e:
            raise CompatibilityError(f"checkpoint rng state does not fit: {e!r}") from e
    fhash = feature_hash(run_cfg.dsp)
    log_f = open(log_path, "a", encoding="utf-8") if log_path else None

    def snapshot(step: int) -> Checkpoint:
        return Checkpoint(
            model_id=model_id,
            iteration=step,
            params=_to_arrays(gen_params),
            disc_params=_to_arrays(disc_params),
            opt=_opt_tables(gen_opt),
            opt_t=gen_opt.t,
            disc_opt=_opt_tables(disc_opt),
            disc_opt_t=disc_opt.t,
            vocab=VOCAB.chars,
            feature_hash=fhash,
            config=run_cfg.to_dict(),
            rng_state=rng.bit_generator.state,
            batch_queue=list(batches.queue),
        )

    critic = model.critic(dcfg, disc_params)
    try:
        for step in range(start, tcfg.max_iters):
            t0 = time.perf_counter()
            gan_on = step >= tcfg.gan_start_step
            _, mask, forward = stage.batch(batches.next(), mcfg, gen_params)
            y, recon_loss = forward()
            t_critic = time.perf_counter()
            critic_stats = {}
            if gan_on:
                # the generator's own output, detached, is scored against
                # fresh real batches in all n_critic updates (only the critic
                # moves here); the generator is then scored on the same y
                fake = (y.data * mask).astype(np.float32)
                for _ in range(tcfg.n_critic):
                    real, _, _ = stage.batch(batches.next(), mcfg, gen_params)
                    real_a, fake_a = _align_time(real, fake)
                    critic_stats = critic_update(
                        real_a, fake_a, critic, disc_params, disc_opt, rng,
                        tcfg.gp_weight,
                    )
            t_gen = time.perf_counter()
            gan_loss = None
            if gan_on:
                scores = model.discriminator_forward(ad.mul(y, Tensor(mask)), dcfg, disc_params)
                gan_loss = losses.wgan_generator_loss(scores)
            gen_stats = generator_update(recon_loss, gan_loss, gen_params, gen_opt)
            t_end = time.perf_counter()
            if log_f and ((step + 1) % tcfg.log_every == 0 or step == start):
                entry = {
                    "step": step + 1,
                    "model": model_id,
                    "critic_updates": tcfg.n_critic if gan_on else 0,
                    "generator_updates": 1,
                    "wall_ms": round(1e3 * (time.perf_counter() - t0), 3),
                    "critic_ms": round(1e3 * (t_gen - t_critic), 3),
                    "generator_ms": round(1e3 * (t_critic - t0 + t_end - t_gen), 3),
                    **{f"critic_{k}": v for k, v in critic_stats.items()},
                    **gen_stats,
                }
                log_f.write(json.dumps(entry, sort_keys=True) + "\n")
                log_f.flush()
            if (step + 1) % tcfg.checkpoint_every == 0 or step + 1 == tcfg.max_iters:
                yield snapshot(step + 1)
    finally:
        if log_f:
            log_f.close()


def _align_time(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad the shorter of two (B, C, T) batches to a common T."""
    t = max(a.shape[2], b.shape[2])
    if a.shape[2] < t:
        a = np.pad(a, ((0, 0), (0, 0), (0, t - a.shape[2])))
    if b.shape[2] < t:
        b = np.pad(b, ((0, 0), (0, 0), (0, t - b.shape[2])))
    return a, b
