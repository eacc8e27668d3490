"""Training objectives: reconstruction (L1 + cross-entropy), guided
attention, Wasserstein critic/generator losses with gradient penalty, and
the per-batch dynamic combination that gives both terms equal weight.

All means are over the unmasked elements of each term's grid; padded frames
are excluded via the optional masks.  `l1_plus_bce` is a tape primitive of
its own, like those in ``autodiff.ops``; it logs how many predictions it
clamps.
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ops
from .autodiff.tensor import make_op_output

log = logging.getLogger(__name__)

CLAMP_EPS = 1e-7
RATIO_GUARD = 1e-8


def _mask_count(size: int, mask: np.ndarray) -> float:
    """Unmasked elements among ``size`` under a broadcasting ``mask``."""
    if mask.size == 0 or size % mask.size:
        raise ValueError(f"mask shape {mask.shape} does not broadcast to {size} elements")
    count = float(mask.sum()) * (size // mask.size)
    if count == 0:
        raise ValueError("mask excludes every element")
    return count


def masked_mean(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Mean over unmasked elements; ``mask`` broadcasts against x and is a
    constant (no gradient flows through it)."""
    if mask is None:
        return ops.mean(x)
    count = _mask_count(x.data.size, mask)
    return ops.div(ops.tsum(ops.mul(x, Tensor(mask.astype(x.dtype)))), count)


def l1_plus_bce(y: Tensor, s: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """E|y - s| + E[-s log yc - (1-s) log(1-yc)], yc = y clamped to
    [CLAMP_EPS, 1 - CLAMP_EPS], as one tape node; ``s`` and ``mask`` are
    constants, and each mean is taken as `masked_mean` takes it.  The
    gradient is mask / count * (sign(y - s) + [lo < y < hi] (yc - s) /
    (yc (1 - yc))): none for the cross-entropy at or beyond a bound."""
    y, s = ad.as_tensor(y), ad.as_tensor(s)
    yd, sd = y.data, s.data
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    inside = (yd > lo) & (yd < hi)
    if clamped := yd.size - int(np.count_nonzero(inside)):
        log.warning("clamped %d of %d predictions into [%g, 1 - %g]", clamped, yd.size, lo, lo)
    yc = np.clip(yd, lo, hi)
    diff = yd - sd
    # the negated cross-entropy: mean(-ll) is -mean(ll) bit for bit
    ll = sd * np.log(yc) + (1.0 - sd) * np.log(1.0 - yc)
    if mask is None:
        weight = diff.dtype.type(1.0 / yd.size)  # as ops.mean scales
        value = np.abs(diff).sum() * weight - ll.sum() * weight
    else:
        count = diff.dtype.type(_mask_count(yd.size, mask))
        m = mask.astype(diff.dtype)
        value = (np.abs(diff) * m).sum() / count - (ll * m).sum() / count
        weight = m / count
    ctx = {"diff": diff, "yc": yc, "inside": inside, "s": sd, "weight": weight}
    return make_op_output(value, _l1_plus_bce_vjp, (y,), ctx)


def _l1_plus_bce_vjp(node, g, need):
    c = node._ctx
    yc = c["yc"]
    gy = (yc - c["s"]) / (yc * (1.0 - yc))
    gy *= c["inside"]
    gy += np.sign(c["diff"])
    gy *= g * c["weight"]
    return (gy,)


def guided_weight_value(n, t, n_total: int, t_total: int):
    """Scalar/array form of the off-diagonal attention weight,
    1 - exp(-(n/N - t/T)^2) with 0-based indices."""
    ratio = np.asarray(n, dtype=np.float64) / n_total - np.asarray(t, dtype=np.float64) / t_total
    return 1.0 - np.exp(-(ratio**2))


def guided_weights(n_total: int, t_total: int) -> np.ndarray:
    """(N, T) guided-attention weight grid; zero on the n/N == t/T locus,
    bounded by 1 - e^-1."""
    if n_total < 1 or t_total < 1:
        raise ValueError("guided weights need N >= 1 and T >= 1")
    n = np.arange(n_total)[:, None]
    t = np.arange(t_total)[None, :]
    return guided_weight_value(n, t, n_total, t_total)


def attention_term(a: Tensor, w: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """E[A (.) W]: mean over all (valid) elements of the N x T grid."""
    return masked_mean(ops.mul(ad.as_tensor(a), Tensor(w.astype(a.dtype))), mask)


def recon_loss_t2m(
    y: Tensor,
    s: Tensor,
    a: Tensor,
    w: np.ndarray,
    mask: np.ndarray | None = None,
    attn_mask: np.ndarray | None = None,
) -> Tensor:
    """Mel reconstruction objective: L1 + cross-entropy + guided attention."""
    return ops.add(l1_plus_bce(y, s, mask), attention_term(a, w, attn_mask))


def recon_loss_ssrn(y: Tensor, s: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Linear-spectrogram reconstruction objective: L1 + cross-entropy."""
    return l1_plus_bce(y, s, mask)


def wgan_critic_loss(
    d_real: Tensor,
    d_fake: Tensor,
    grad_sq: Tensor,
    gp_weight: float = 10.0,
) -> Tensor:
    """mean(d_fake) - mean(d_real) + gp_weight * mean((sqrt(grad_sq) - 1)^2).

    ``grad_sq`` holds each sample's squared norm of the critic's gradient
    with respect to its interpolated input, shape (B,).  The tape is first
    order: when ``grad_sq`` is taped from a fixed input gradient, this
    loss's gradient stops there, and ``train.critic_update`` adds the part
    that flows through the input gradient itself.
    """
    sq = ad.as_tensor(grad_sq)
    if sq.ndim != 1:
        raise ValueError(f"gradient penalty takes (B,) squared norms, got shape {sq.shape}")
    gap = ops.sub(ops.sqrt(sq), 1.0)
    penalty = ops.mean(ops.mul(gap, gap))
    return ops.add(
        ops.sub(ops.mean(ad.as_tensor(d_fake)), ops.mean(ad.as_tensor(d_real))),
        ops.mul(penalty, float(gp_weight)),
    )


def wgan_generator_loss(d_fake: Tensor) -> Tensor:
    """-mean(d_fake): the generator pushes critic scores up."""
    return ops.neg(ops.mean(ad.as_tensor(d_fake)))


def combine_losses(l_recon: Tensor, l_gan: Tensor) -> tuple[Tensor, float]:
    """l_recon + ratio * l_gan and the ratio, mean_recon / max(|mean_gan|, eps).

    The ratio is taken from the batch's loss values and is a constant
    during differentiation, so the two gradient contributions have equal
    expected weight.  Wasserstein losses can be negative, hence the
    magnitude.
    """
    l_recon, l_gan = ad.as_tensor(l_recon), ad.as_tensor(l_gan)
    ratio = float(l_recon.data) / max(abs(float(l_gan.data)), RATIO_GUARD)
    return ops.add(l_recon, ops.mul(l_gan, ratio)), ratio
