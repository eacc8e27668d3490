"""Objective-function checks: closed forms, elementwise oracles, guided
weight geometry, Wasserstein losses and the per-batch combination rule."""

import logging

import numpy as np
import pytest

import melforge.autodiff as ad
from melforge import losses
from melforge.autodiff import Tensor, ops
from oracles import loop_l1_plus_bce, max_rel_err


def _elementwise_recon(y, s):
    """Naive per-element L1 + binary cross-entropy, means over the grid."""
    total_l1 = 0.0
    total_ce = 0.0
    for yy, ss in zip(y.ravel(), s.ravel()):
        total_l1 += abs(yy - ss)
        total_ce += -ss * np.log(yy) - (1 - ss) * np.log(1 - yy)
    return total_l1 / y.size + total_ce / y.size


def test_recon_t2m_closed_form_half():
    n = t = 6
    y = np.full((4, t), 0.5)
    s = np.full((4, t), 0.5)
    a = np.eye(n)[:, :t]
    w = losses.guided_weights(n, t)
    val = float(losses.recon_loss_t2m(Tensor(y), Tensor(s), Tensor(a), w).data)
    assert val == pytest.approx(np.log(2), abs=1e-6)


def test_recon_attention_term_zero_on_diagonal_locus():
    n = t = 8
    w = losses.guided_weights(n, t)
    a = np.eye(n)  # all mass where n/N == t/T
    term = float(losses.attention_term(Tensor(a), w).data)
    assert term == pytest.approx(0.0, abs=1e-12)


def test_recon_matches_elementwise_oracle(rng):
    y = rng.uniform(0.01, 0.99, (9, 7))
    s = rng.uniform(0.0, 1.0, (9, 7))
    got = float(losses.recon_loss_ssrn(Tensor(y), Tensor(s)).data)
    assert abs(got - _elementwise_recon(y, s)) <= 1e-6

    a = rng.dirichlet(np.ones(5), size=7).T  # columns sum to 1
    w = losses.guided_weights(5, 7)
    got_t2m = float(losses.recon_loss_t2m(Tensor(y), Tensor(s), Tensor(a), w).data)
    expect = _elementwise_recon(y, s) + float((a * w).mean())
    assert abs(got_t2m - expect) <= 1e-6


def test_recon_ssrn_saturated_match():
    eps = 1e-7
    y = np.full((5, 4), 1.0 - eps)
    s = np.full((5, 4), 1.0 - eps)
    val = float(losses.recon_loss_ssrn(Tensor(y), Tensor(s)).data)
    assert val == pytest.approx(0.0, abs=1e-5)


def test_recon_clamps_out_of_range_predictions():
    y = np.array([[1.5, -0.2]])
    s = np.array([[1.0, 0.0]])
    val = float(losses.recon_loss_ssrn(Tensor(y), Tensor(s)).data)
    assert np.isfinite(val)


def test_recon_lower_bound_is_target_entropy(rng):
    s = rng.uniform(0.05, 0.95, (6, 6))
    ent = float(np.mean(-s * np.log(s) - (1 - s) * np.log(1 - s)))
    best = float(losses.recon_loss_ssrn(Tensor(s.copy()), Tensor(s)).data)
    worse = float(losses.recon_loss_ssrn(Tensor(np.clip(s + 0.1, 0.01, 0.99)), Tensor(s)).data)
    assert best == pytest.approx(ent, abs=1e-9)
    assert worse > best


def _oracle_case(case):
    """(y, s, mask) in float64 for one loop-oracle case."""
    rng = np.random.default_rng(len(case))
    s = rng.uniform(0.0, 1.0, (4, 3, 5))
    y = rng.uniform(0.01, 0.99, (4, 3, 5))
    mask = None
    if case == "bounds":  # at both clamp bounds, beyond them, and just inside
        y[0, 0] = [1e-7, 1.0 - 1e-7, -0.2, 1.5, 2e-7]
        y[1, 2] = [1.0 - 2e-7, 0.0, 1.0, 1e-7, 1.0 - 1e-7]
    elif case == "equal":
        y[::2] = s[::2]
        y[1, 1, 1:3] = s[1, 1, 1:3]
    elif case == "whole_samples_masked":
        mask = np.ones((4, 1, 5))
        mask[1] = mask[3] = 0.0
        mask[2, :, 3:] = 0.0
        y[1, 0, :2] = [-0.2, 1.5]  # masked out: no gradient, no loss
    return y, s, mask


@pytest.mark.parametrize("case", ["bounds", "equal", "whole_samples_masked"])
def test_l1_plus_bce_matches_loop_oracle(case):
    """The one-node loss and its gradient against the per-element loop, in
    float64, where the clamp bounds, y == s and masked samples are hit."""
    y, s, mask = _oracle_case(case)
    want, want_grad = loop_l1_plus_bce(y, s, mask)
    with ad.using_dtype(np.float64):
        yt = Tensor(y, requires_grad=True)
        loss = losses.l1_plus_bce(yt, Tensor(s), mask)
        (grad,) = ad.grad(loss, [yt])
    assert abs(float(loss.data) - want) <= 1e-12 * abs(want)
    assert max_rel_err(grad.data, want_grad) <= 1e-12
    if mask is not None:
        assert not grad.data[[1, 3]].any()


def test_ssrn_recon_loss_records_one_node(monkeypatch, rng):
    """The SSRN reconstruction loss records one tape node, counted by
    wrapping ``make_op_output`` in every module that calls it."""
    made = []
    real = ad.tensor.make_op_output

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        if out._vjp is not None:
            made.append(args[1])
        return out

    for module in (ops, losses):
        monkeypatch.setattr(module, "make_op_output", counting, raising=False)
    y = Tensor(rng.uniform(0.1, 0.9, (2, 9, 4)).astype(np.float32), requires_grad=True)
    mask = np.ones((2, 1, 4), dtype=np.float32)
    losses.recon_loss_ssrn(y, Tensor(rng.uniform(0.0, 1.0, (2, 9, 4))), mask)
    assert len(made) == 1


def test_recon_warning_counts_clamped_predictions(caplog):
    s = Tensor(np.full((1, 5), 0.5))
    with caplog.at_level(logging.WARNING, logger="melforge.losses"):
        losses.recon_loss_ssrn(Tensor(np.array([[0.5, 0.2, 0.8, 0.3, 0.6]])), s)
        assert not caplog.records
        losses.recon_loss_ssrn(Tensor(np.array([[1.5, -0.2, 0.5, 1e-7, 0.4]])), s)
    assert "clamped 3 of 5 predictions" in caplog.text


def test_guided_weight_values():
    w = losses.guided_weights(8, 8)
    assert np.all(np.abs(np.diag(w)) <= 1e-12)
    # formula value at |n/N - t/T| = 1
    assert losses.guided_weight_value(0, 8, 8, 8) == pytest.approx(1 - np.exp(-1), abs=1e-12)
    assert losses.guided_weight_value(8, 0, 8, 8) == pytest.approx(1 - np.exp(-1), abs=1e-12)
    for n, t in ((1, 1), (3, 9), (17, 4), (50, 50)):
        grid = losses.guided_weights(n, t)
        assert grid.min() >= 0.0
        assert grid.max() < 1 - np.exp(-1) + 1e-12
    with pytest.raises(ValueError):
        losses.guided_weights(0, 5)


def _sq_norms(g):
    """Each sample's sum of squared gradient entries, (B, ...) -> (B,)."""
    return np.sum(g.reshape(g.shape[0], -1) ** 2, axis=1)


def test_wgan_critic_loss_closed_forms(rng):
    b = 4
    scores = Tensor(np.full(b, 1.7))
    # equal scores, unit gradient norms -> loss 0
    g_unit = np.zeros((b, 2, 8))
    g_unit[:, 0, 0] = 1.0
    val = float(losses.wgan_critic_loss(scores, scores, Tensor(_sq_norms(g_unit)), 10.0).data)
    assert val == pytest.approx(0.0, abs=1e-12)
    # zero gradients, equal scores -> loss = gp_weight exactly
    zero = _sq_norms(np.zeros((b, 2, 8)))
    val = float(losses.wgan_critic_loss(scores, scores, Tensor(zero), 10.0).data)
    assert val == 10.0
    with pytest.raises(ValueError, match=r"\(B,\)"):  # a gradient array, not its norms
        losses.wgan_critic_loss(scores, scores, Tensor(g_unit), 10.0)


def test_wgan_penalty_zero_iff_unit_norms(rng):
    b = 6
    g = rng.standard_normal((b, 3, 4))
    g /= np.linalg.norm(g.reshape(b, -1), axis=1)[:, None, None]
    same = Tensor(np.zeros(b))
    sq = Tensor(_sq_norms(g))
    assert float(losses.wgan_critic_loss(same, same, sq, 10.0).data) == pytest.approx(0.0, abs=1e-12)
    g2 = g * 1.3
    assert float(losses.wgan_critic_loss(same, same, Tensor(_sq_norms(g2)), 10.0).data) > 1e-3


def test_wgan_generator_loss(rng):
    assert float(losses.wgan_generator_loss(Tensor(np.array([1.0, 3.0]))).data) == -2.0
    assert float(losses.wgan_generator_loss(Tensor(np.zeros(5))).data) == 0.0
    d = Tensor(rng.standard_normal(8), requires_grad=True)
    (gd,) = ad.grad(losses.wgan_generator_loss(d), [d])
    np.testing.assert_allclose(gd.data, -np.ones(8) / 8)


def test_combine_losses_balancing():
    total, ratio = losses.combine_losses(Tensor(np.array(2.0)), Tensor(np.array(4.0)))
    assert float(total.data) == pytest.approx(4.0)
    # ratio times mean_gan equals mean_recon: both terms weigh the same
    assert ratio * 4.0 == pytest.approx(2.0)
    # zero adversarial loss: combination reduces to the reconstruction loss
    total, _ = losses.combine_losses(Tensor(np.array(1.25)), Tensor(np.array(0.0)))
    assert float(total.data) == pytest.approx(1.25)


def test_combine_losses_gradient_uses_fixed_ratio(rng):
    with ad.using_dtype(np.float64):
        p = Tensor(rng.standard_normal(3), requires_grad=True)
        recon = ad.mean(ops.mul(p, p))
        gan = ops.neg(ad.mean(ops.mul(p, 3.0)))
        total, ratio = losses.combine_losses(recon, gan)
        (g,) = ad.grad(total, [p])
        assert ratio == float(recon.data) / max(abs(float(gan.data)), losses.RATIO_GUARD)
        expect = 2 * p.data / 3 + ratio * (-np.ones(3))
        np.testing.assert_allclose(g.data, expect, rtol=1e-10)


def test_combine_losses_gradient_matches_finite_differences(rng):
    with ad.using_dtype(np.float64):
        p0 = rng.standard_normal(4)

        def total_of(x, ratio_fixed):
            p = Tensor(x, requires_grad=True)
            recon = ad.mean(ops.mul(p, p))
            gan = ops.neg(ad.mean(ops.sigmoid(p)))
            return recon, gan, p

        recon, gan, p = total_of(p0, None)
        total, ratio = losses.combine_losses(recon, gan)
        assert ratio == float(recon.data) / max(abs(float(gan.data)), losses.RATIO_GUARD)
        (g,) = ad.grad(total, [p])
        eps = 1e-7
        fd = np.zeros(4)
        for i in range(4):
            xp = p0.copy(); xp[i] += eps
            xm = p0.copy(); xm[i] -= eps
            rp, gp_, _ = total_of(xp, None)
            rm, gm, _ = total_of(xm, None)
            # ratio held fixed at its batch value during differentiation
            fd[i] = ((float(rp.data) + ratio * float(gp_.data))
                     - (float(rm.data) + ratio * float(gm.data))) / (2 * eps)
        assert max_rel_err(g.data, fd) <= 1e-6


def test_masked_mean(rng):
    x = Tensor(rng.standard_normal((2, 3, 4)))
    mask = np.zeros((2, 1, 4), dtype=np.float64)
    mask[:, :, :2] = 1.0
    got = float(losses.masked_mean(x, mask).data)
    assert got == pytest.approx(float(x.data[:, :, :2].mean()), rel=1e-6)
    with pytest.raises(ValueError):
        losses.masked_mean(x, np.zeros((2, 1, 4)))
