"""`train` workload: interleaved Text2Mel and SSRN WGAN-GP outer steps.

The model is the toy end-to-end configuration of the acceptance suite on
the bundled fixture corpus.  One round is one Text2Mel outer step followed
by one SSRN outer step; each step is timed from the call that resumes
`train.train_t2m` / `train.train_ssrn` to its next yield (``checkpoint_every``
is 1, so every step yields).  A yielded checkpoint is inspected at once and
dropped: its optimizer moments alias arrays the next step updates in place.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from melforge import autodiff as ad
from melforge import losses, model, train
from melforge.autodiff import Tensor

from common import prepared_fixture

KINDS = ("t2m", "ssrn")
WARMUP_STEPS = 2
N_CRITIC = 5
FD_BATCH = 4
FD_EPS = 1e-6
FD_RTOL = 1e-5


class TrainWorkload:
    kinds = KINDS
    round = KINDS
    display = {"t2m": ("t2m_step_ms", "ms", 1e3), "ssrn": ("ssrn_step_ms", "ms", 1e3)}
    stop_on_failure = True  # a raising generator cannot be resumed

    def setup(self, work, seed):
        cfg, samples, _ = prepared_fixture(work, seed)
        self.cfg = replace(
            cfg,
            model=replace(cfg.model, width_scale=0.125, attention_dim=64, embed_dim=64, ssrn_width=32),
            train=replace(
                cfg.train, batch_size=16, disc_channels=16, seed=seed,
                max_iters=10**9, checkpoint_every=1, log_every=1,
            ),
        )
        self.samples = samples
        self.seed = seed
        self.logs = {k: work / f"{k}_log.jsonl" for k in KINDS}
        loops = {"t2m": train.train_t2m, "ssrn": train.train_ssrn}
        self.gens = {k: loops[k](samples, self.cfg, log_path=self.logs[k]) for k in KINDS}
        self.steps = dict.fromkeys(KINDS, 0)
        self.final_params = {}
        self.failures = []
        for _ in range(WARMUP_STEPS):
            for k in KINDS:
                self.failures += self.check(k, self.op(k))

    def op(self, kind):
        return next(self.gens[kind])

    def check(self, kind, ck) -> list[str]:
        self.steps[kind] += 1
        step = self.steps[kind]
        bad = []
        if (ck.iteration, ck.opt_t, ck.disc_opt_t) != (step, step, N_CRITIC * step):
            bad.append(
                f"{kind} step {step}: iteration/generator/critic Adam counts "
                f"{ck.iteration}/{ck.opt_t}/{ck.disc_opt_t}, expected {step}/{step}/{N_CRITIC * step}"
            )
        tables = {"params": ck.params, "disc_params": ck.disc_params}
        for key in ("m", "v"):
            tables[f"opt.{key}"] = ck.opt[key]
            tables[f"disc_opt.{key}"] = ck.disc_opt[key]
        for tname, table in tables.items():
            if not table:
                bad.append(f"{kind} step {step}: {tname} is empty")
            for pname, arr in table.items():
                if not np.all(np.isfinite(arr)):
                    bad.append(f"{kind} step {step}: non-finite {tname}[{pname}]")
        self.final_params[kind] = ck.params  # fresh copies; the moments are not kept
        return bad

    def final_check(self) -> list[str]:
        bad = list(self.failures)
        for k in KINDS:
            self.gens[k].close()
            bad += self._check_log(k)
            bad += self._check_gradient(k)
        return bad

    def close(self):
        for g in self.gens.values():
            g.close()

    def _check_log(self, kind) -> list[str]:
        entries = [json.loads(line) for line in self.logs[kind].read_text().splitlines()]
        bad = []
        if len(entries) != self.steps[kind]:
            bad.append(f"{kind}: {len(entries)} log entries for {self.steps[kind]} steps")
        for e in entries:
            if (e["critic_updates"], e["generator_updates"]) != (N_CRITIC, 1):
                bad.append(f"{kind} step {e['step']}: {e['critic_updates']} critic / "
                           f"{e['generator_updates']} generator updates")
            for key, val in e.items():
                if isinstance(val, float) and not math.isfinite(val):
                    bad.append(f"{kind} step {e['step']}: non-finite {key}")
        return bad

    # -- float64 directional finite-difference check -----------------------

    def _check_gradient(self, kind) -> list[str]:
        """Compare the tape gradient of the reconstruction loss at the final
        parameters, projected on a seeded unit direction, with a central
        difference of the loss along that direction."""
        rng = np.random.default_rng([self.seed, 7])
        pick = rng.choice(len(self.samples), size=FD_BATCH, replace=False)
        batch = [self.samples[i] for i in sorted(pick)]
        loss_fn = self._t2m_loss(batch) if kind == "t2m" else self._ssrn_loss(batch)
        base = {k: v.astype(np.float64) for k, v in self.final_params[kind].items()}
        direction = {k: rng.standard_normal(v.shape) for k, v in base.items()}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}
        with ad.using_dtype(np.float64):
            params = {k: Tensor(v, requires_grad=True) for k, v in base.items()}
            names = list(params)
            grads = ad.grad(loss_fn(params), [params[n] for n in names])
            analytic = sum(float(np.sum(g.data * direction[n])) for n, g in zip(names, grads))
            with ad.no_grad():
                def at(sign):
                    shifted = {k: Tensor(base[k] + sign * FD_EPS * direction[k]) for k in base}
                    return float(loss_fn(shifted).data)

                numeric = (at(1.0) - at(-1.0)) / (2.0 * FD_EPS)
        if abs(numeric - analytic) > FD_RTOL * max(abs(numeric), abs(analytic)) + 1e-9:
            return [f"{kind}: directional derivative {analytic:.9e} from the tape, "
                    f"{numeric:.9e} by central difference"]
        return []

    def _t2m_loss(self, batch):
        mcfg = self.cfg.model
        n_max = max(s.text_idx.size for s in batch)
        t_max = max(s.dmel.shape[1] for s in batch)
        texts = np.zeros((len(batch), n_max), dtype=np.int64)
        tmask = np.zeros((len(batch), n_max))
        dmel = np.zeros((len(batch), mcfg.n_mels, t_max))
        fmask = np.zeros((len(batch), 1, t_max))
        w = np.zeros((len(batch), n_max, t_max))
        amask = np.zeros((len(batch), n_max, t_max))
        for i, s in enumerate(batch):
            n, t = s.text_idx.size, s.dmel.shape[1]
            texts[i, :n] = s.text_idx
            tmask[i, :n] = 1.0
            dmel[i, :, :t] = s.dmel
            fmask[i, :, :t] = 1.0
            w[i, :n, :t] = losses.guided_weights(n, t)
            amask[i, :n, :t] = 1.0
        spk = np.stack([s.spk for s in batch]).astype(np.float64)

        def loss(params):
            y, a = model.t2m_teacher_forced(texts, dmel, spk, params, mcfg, tmask)
            return losses.recon_loss_t2m(y, Tensor(dmel), a, w, mask=fmask, attn_mask=amask)

        return loss

    def _ssrn_loss(self, batch):
        mcfg = self.cfg.model
        td = max(s.dmel.shape[1] for s in batch)
        t_out = td * mcfg.downsample
        dmel = np.zeros((len(batch), mcfg.n_mels, td))
        lin = np.zeros((len(batch), mcfg.n_bins, t_out))
        mask = np.zeros((len(batch), 1, t_out))
        for i, s in enumerate(batch):
            dmel[i, :, : s.dmel.shape[1]] = s.dmel
            t = min(s.lin.shape[1], t_out)
            lin[i, :, :t] = s.lin[:, :t]
            mask[i, :, :t] = 1.0

        def loss(params):
            y = model.ssrn_forward(dmel, params, mcfg)
            return losses.recon_loss_ssrn(y, Tensor(lin), mask=mask)

        return loss

    # -- per-layer metrics from the traced steps ----------------------------

    def layer_metrics(self, by_kind, med) -> dict[str, float]:
        m = {}
        for k in KINDS:
            ops = by_kind[k]
            total = lambda name: med(ops, lambda s: s["total_ms"].get(name, 0.0))
            calls = lambda pred: med(ops, lambda s: sum(c for n, c in s["calls"].items() if pred(n)))
            m[f"train.critic_update_ms.{k}"] = total("train.critic_update")
            m[f"train.generator_update_ms.{k}"] = total("train.generator_update")
            m[f"model.discriminator_forward_ms.{k}"] = total("model.discriminator_forward")
            m[f"model.discriminator_forward_calls.{k}"] = calls(lambda n: n == "model.discriminator_forward")
            m[f"autodiff.grad_ms.{k}"] = total("autodiff.tensor.grad")
            m[f"autodiff.op_calls_per_step.{k}"] = calls(lambda n: n.startswith("autodiff.ops."))
            m[f"autodiff.adam_step_ms.{k}"] = total("autodiff.adam.adam_step")
            m[f"kernels.conv_valid_ms.{k}"] = total("kernels.conv_valid")
            m[f"kernels.conv_weight_grad_ms.{k}"] = total("kernels.conv_weight_grad")
            m[f"kernels.conv_calls.{k}"] = calls(
                lambda n: n in ("kernels.conv_valid", "kernels.conv_weight_grad"))
            m[f"kernels.conv_gflop.{k}"] = med(ops, lambda s: s["counters"].get("conv_flop", 0.0) / 1e9)
        m["model.t2m_teacher_forced_ms.t2m"] = med(
            by_kind["t2m"], lambda s: s["total_ms"].get("model.t2m_teacher_forced", 0.0))
        m["model.ssrn_forward_ms.ssrn"] = med(
            by_kind["ssrn"], lambda s: s["total_ms"].get("model.ssrn_forward", 0.0))
        return m
