"""Command-line orchestration for the full pipeline.

Subcommands: prepare, train, synth, eval-sv, eval-antispoof, fixture.
Exit codes are a stable contract: 0 success, else the ``exit_code`` of the
``errors`` type raised, and 2 for a missing input file.  Networks come
from checkpoints as in `train --resume`: built at the checkpoint's model
config, then filled by ``train.restore``.
Every subcommand is deterministic given (inputs, config, seed).  Those that
read a config echo it resolved to stderr and embed its feature hash in their
outputs; gmm-lfcc `eval-antispoof` reads none and reports a null hash.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

# One BLAS/OpenMP thread unless the environment already says otherwise: the
# program's matrices are small, and on a busy two-vCPU machine OpenBLAS at
# its default two threads made `model.tenc_forward` on 100 characters take
# about 100 ms, against 6 ms with one.  This must run before numpy loads
# OpenBLAS.  Griffin-Lim's worker threads make no BLAS call; those of
# `prepare` and of the gmm-lfcc backend make theirs on one BLAS thread each.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import autodiff as ad
from . import corpus, dsp, fixture, model, textproc, train
from . import eval as ev
from .config import RunConfig, feature_hash, load_config
from .errors import CompatibilityError, CorpusError, FormatError, MelforgeError, ProtocolError
from .fileio import atomic_write, read_text


def _echo_config(cfg: RunConfig) -> None:
    print(
        json.dumps({"resolved_config": cfg.to_dict(), "feature_hash": feature_hash(cfg.dsp)}),
        file=sys.stderr,
    )


def _write_json(path, obj) -> None:
    with atomic_write(path) as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True))


def _load_cfg(args) -> RunConfig:
    overrides: dict = {"train": {}, "protocol": {}}
    if getattr(args, "seed", None) is not None:
        overrides["train"]["seed"] = args.seed
        overrides["protocol"]["seed"] = args.seed
    if getattr(args, "steps", None) is not None:
        overrides["train"]["max_iters"] = args.steps
    cfg = load_config(getattr(args, "config", None), overrides)
    _echo_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = corpus.build_manifest(args.corpus_root)
    scheme = corpus.SplitScheme.named(args.scheme, cfg.protocol.seed)
    train_man, test_man = corpus.make_split(manifest, scheme)
    ref_lin, ref_mel = corpus.corpus_reference_levels(train_man, cfg.dsp)
    fcfg = cfg.dsp.with_refs(ref_lin, ref_mel)
    train_feat = corpus.precompute_features(train_man, fcfg, out / "features")
    test_feat = corpus.precompute_features(test_man, fcfg, out / "features")
    corpus.save_manifest(train_feat, out / "train.jsonl")
    corpus.save_manifest(test_feat, out / "test.jsonl")
    report = {
        "scheme": scheme.name,
        "train_speakers": len(train_feat.speakers()),
        "test_speakers": len(test_feat.speakers()),
        "train_utterances": len(train_feat),
        "test_utterances": len(test_feat),
        "ref_lin": ref_lin,
        "ref_mel": ref_mel,
        "feature_hash": feature_hash(fcfg),
    }
    _write_json(out / "split_report.json", report)
    _write_json(out / "config.json", replace(cfg, dsp=fcfg).to_dict())
    print(
        f"prepared {report['train_utterances']} train / {report['test_utterances']} test"
        f" utterances ({report['train_speakers']} train / {report['test_speakers']} test"
        f" speakers, scheme {scheme.name})"
    )
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = corpus.load_manifest(args.manifest)
    store = corpus.load_embeddings(args.embeddings)
    _check_speaker_dim(store, cfg.model)
    train.check_model_fits_features(cfg)
    _check_feature_caches(manifest, cfg, args.force)
    resume = None
    if args.resume:
        resume = train.load_checkpoint(
            args.resume, expect_hash=feature_hash(cfg.dsp), force=args.force
        )
    samples = train.load_training_samples(manifest, store)
    log_path = out / f"{args.model}_log.jsonl"
    last = None
    for last in train.train_stage(args.model, samples, cfg, log_path=log_path, resume=resume):
        path = out / f"{args.model}_{last.iteration:07d}.mfck"
        train.save_checkpoint(last, path)
        print(f"checkpoint: {path}")
    if last is not None:
        latest = out / f"{args.model}_latest.mfck"
        train.save_checkpoint(last, latest)
        print(f"latest: {latest}")
    return 0


def _check_speaker_dim(store, mcfg: model.ModelConfig) -> None:
    """Refuse a store whose vectors are not ``model.speaker_dim`` wide."""
    if store.dim != mcfg.speaker_dim:
        raise CompatibilityError(
            f"embedding store holds {store.dim}-dim vectors, but"
            f" model.speaker_dim is {mcfg.speaker_dim}"
        )


def _check_feature_caches(manifest, cfg: RunConfig, force: bool) -> None:
    """Refuse training on feature caches made under other feature settings
    than ``cfg.dsp``, whose hash the checkpoints would carry.  Reads no
    cache; a record with none is left to `train.load_training_samples`,
    which says to run prepare."""
    if not all(r.features for r in manifest.records):
        return
    dirs = {Path(p).parent for r in manifest.records for p in r.features.values()}
    if len(dirs) != 1:
        raise CorpusError(f"the manifest's feature caches lie in {len(dirs)} directories")
    meta_path = dirs.pop() / "features.json"
    try:
        cached = json.loads(meta_path.read_text(encoding="utf-8"))["hash"]
    except (OSError, ValueError, KeyError, TypeError) as e:  # ValueError: bad UTF-8 or JSON
        raise FormatError(f"{meta_path}: no readable feature hash ({e!r})") from e
    want = feature_hash(cfg.dsp)
    if cached != want and not force:
        raise CompatibilityError(
            f"{meta_path}: the caches have feature hash {cached}, the config {want}"
            " (pass the config.json that prepare wrote, or use --force)"
        )


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _generator(path, model_id: str):
    """Checkpoint ``path``, the config it records and its generator, built
    at that config; refused unless the checkpoint is for ``model_id``."""
    ck = train.load_checkpoint(path)
    if ck.model_id != model_id:
        raise CompatibilityError(f"{path}: checkpoint is for {ck.model_id!r}, not {model_id!r}")
    run_cfg = RunConfig.from_dict(ck.config)
    params = train.STAGES[model_id].init(run_cfg.model, np.random.default_rng(0))
    train.restore(params, ck.params, path)
    return ck, run_cfg, params


def cmd_synth(args) -> int:
    if args.max_frames < 1:
        raise CorpusError(f"--max-frames must be >= 1, got {args.max_frames}")
    t2m_ck, run_cfg, t2m_params = _generator(args.t2m, "t2m")
    ssrn_ck, ssrn_cfg, ssrn_params = _generator(args.ssrn, "ssrn")
    mcfg = run_cfg.model
    if t2m_ck.feature_hash != ssrn_ck.feature_hash and not args.force:
        raise CompatibilityError(
            f"checkpoint feature hashes differ: {t2m_ck.feature_hash} vs"
            f" {ssrn_ck.feature_hash} (use --force to override)"
        )
    if args.config:  # the feature settings and the seed
        user_cfg = load_config(args.config)
        if feature_hash(user_cfg.dsp) != t2m_ck.feature_hash and not args.force:
            raise CompatibilityError(
                "config feature hash does not match the checkpoint"
                " (use --force to override)"
            )
        run_cfg = user_cfg
    _echo_config(run_cfg)
    seed = run_cfg.train.seed
    vocab = textproc.CharVocab(t2m_ck.vocab)
    text = textproc.normalize_text(read_text(args.text, CorpusError), vocab)
    seq = textproc.encode(text, vocab)
    store = corpus.load_embeddings(args.embeddings)
    if args.speaker not in store:
        raise CorpusError(f"speaker {args.speaker!r} not in embedding store")
    _check_speaker_dim(store, mcfg)
    spk = store[args.speaker]
    clock = [time.perf_counter()]  # decode start, then the end of each stage
    dmel, att, path = model.t2m_generate(
        seq.indices, spk, t2m_params, mcfg, max_frames=args.max_frames
    )
    clock.append(time.perf_counter())
    with ad.no_grad():
        lin = model.ssrn_forward(dmel[None], ssrn_params, ssrn_cfg.model).data[0]
    clock.append(time.perf_counter())
    mag = dsp.denormalize_db(lin, run_cfg.dsp.ref_lin, run_cfg.dsp.gl_sharpen)
    wave = dsp.griffin_lim(
        mag,
        iters=run_cfg.dsp.gl_iters,
        win=run_cfg.dsp.win,
        hop=run_cfg.dsp.hop,
        sample_rate=run_cfg.dsp.sample_rate,
        seed=seed,
    )
    clock.append(time.perf_counter())
    timings_ms = {
        stage: round((end - start) * 1e3, 3)
        for stage, start, end in zip(("decode", "ssrn", "griffin_lim"), clock, clock[1:])
    }
    dsp.write_wav(wave, args.out)
    sidecar = {
        "feature_hash": t2m_ck.feature_hash,
        "seed": seed,
        "text": text,
        "speaker": args.speaker,
        "frames": int(dmel.shape[1]),
        "attention_path": [int(p) for p in path],
        "timings_ms": timings_ms,
        "decode_ms_per_frame": round(timings_ms["decode"] / dmel.shape[1], 4),
    }
    _write_json(str(args.out) + ".json", sidecar)
    if args.attention:
        with atomic_write(args.attention) as f:
            f.write("frame,position\n")
            for i, p in enumerate(path):
                f.write(f"{i},{p}\n")
    print(f"synthesized {dmel.shape[1]} frames -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval-sv
# ---------------------------------------------------------------------------


def _read_enrollment(path: Path) -> dict[str, list[str]]:
    """A protocol's enrollment.json: speaker -> enrollment utterance ids.
    Anything else is a ProtocolError naming the file."""
    try:
        enrollment = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # bad JSON or bytes that are not UTF-8
        raise ProtocolError(f"{path}: enrollment is not JSON ({e})") from e
    if not isinstance(enrollment, dict) or not all(
        isinstance(utts, list) and all(isinstance(u, str) for u in utts)
        for utts in enrollment.values()
    ):
        raise ProtocolError(
            f"{path}: enrollment must map each speaker to a list of utterance ids"
        )
    return enrollment


def cmd_eval_sv(args) -> int:
    cfg = _load_cfg(args)
    pdir = Path(args.protocol_dir)
    pdir.mkdir(parents=True, exist_ok=True)
    trials_path = pdir / "trials.csv"
    enroll_path = pdir / "enrollment.json"
    if trials_path.exists() and enroll_path.exists():
        trials = ev.read_trial_csv(trials_path)
        enrollment = _read_enrollment(enroll_path)
    else:
        if not (args.test_manifest and args.synth_manifest):
            raise ProtocolError(
                "no protocol in directory; provide --test-manifest and --synth-manifest"
                " to build one"
            )
        test_man = corpus.load_manifest(args.test_manifest)
        synth_man = corpus.load_manifest(args.synth_manifest)
        enrollment, trials = ev.build_protocol(test_man, synth_man, cfg.protocol)
        ev.write_trial_csv(trials, trials_path)
        _write_json(enroll_path, enrollment)
    real = np.asarray(trials.source) == "real"
    classes = {
        "real target": real & trials.is_target,
        "real non-target": real & ~trials.is_target,
        "synthetic": ~real,
    }
    for name, mask in classes.items():
        if not mask.any():
            raise ProtocolError(f"{trials_path}: trial list has no {name} trials")
    if args.scores:
        score_map = ev.read_score_csv(args.scores)
        missing = [t for t in trials.trial_id if t not in score_map]
        if missing:
            raise ProtocolError(
                f"score CSV missing {len(missing)} trials: " + ", ".join(missing[:10])
            )
        scores = np.array(list(map(score_map.__getitem__, trials.trial_id)))
    elif args.embeddings:
        store = corpus.load_embeddings(args.embeddings)
        models = {}
        for spk, utts in enrollment.items():
            missing = [u for u in utts if u not in store]
            if missing:
                raise ProtocolError(f"missing enrollment embeddings: {missing}")
            models[spk] = ev.enroll([store[u].vector for u in utts])
        scores = ev.score_trials(models, trials, store)
    else:
        raise ProtocolError("provide either --embeddings or --scores")
    ev.write_score_csv(trials, scores, pdir / "scores.csv")
    target, nontarget, synth = (scores[mask] for mask in classes.values())
    eer, threshold = ev.compute_eer(target, nontarget)
    sr = ev.spoof_rate(synth, threshold)
    curve = ev.sr_frr_curve(target, synth, nontarget)
    ev.write_curve_csv(curve, pdir / "curve.csv")
    with atomic_write(pdir / "curve.gp") as f:
        f.write(
            "set datafile separator ','\n"
            "set xlabel 'Spoof rate'\nset ylabel 'False rejection rate'\n"
            "plot 'curve.csv' every ::1 using 2:3 with lines title 'SR vs FRR'\n"
        )
    report = {
        "eer": eer,
        "threshold": threshold,
        "spoof_rate": sr,
        "n_target": int(target.size),
        "n_nontarget": int(nontarget.size),
        "n_synthetic": int(synth.size),
        "feature_hash": feature_hash(cfg.dsp),
    }
    _write_json(pdir / "report.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# eval-antispoof
# ---------------------------------------------------------------------------


def _wav_list(path_or_dir) -> list[Path]:
    p = Path(path_or_dir)
    if p.is_dir():
        files = sorted(p.rglob("*.wav"))
    else:
        files = [p]
    if not files:
        raise CorpusError(f"no wav files under {p}")
    return files


def _lfcc_features(path) -> np.ndarray:
    """The (T, D) float64 LFCC frames of the WAV at ``path``."""
    return dsp.lfcc(dsp.read_wav(path)).T.astype(np.float64)


def _lfcc_backend(real_files, synth_files, args):
    """Scores from an LFCC + GMM likelihood-ratio classifier fitted on the
    two sets, and its report fields: a null feature hash, ``timings_ms``
    for its three stages and ``lfcc_frames`` per set.

    The per-file features and the per-file scores run as tasks on one
    thread pool that lives only for the call, sized by `dsp.worker_count`
    over the files, and the two EM fits run at once, one on the pool; numpy
    releases the GIL in the FFTs, the matrix products and ``exp``.  Each
    task computes what the serial loop computes, and results are gathered
    in listing order, so scores and fits do not depend on the worker count,
    and of several bad files the first in listing order is the one named.
    """
    k = args.gmm_components
    if k < 1:
        raise CorpusError(f"--gmm-components must be >= 1, got {k}")
    if args.gmm_iters < 1:
        raise CorpusError(f"--gmm-iters must be >= 1, got {args.gmm_iters}")
    n_real = len(real_files)
    files = [*real_files, *synth_files]
    clock = [time.perf_counter()]  # start, then the end of each stage
    with ThreadPoolExecutor(dsp.worker_count(len(files))) as pool:
        feats = list(pool.map(_lfcc_features, files))
        clock.append(time.perf_counter())
        sets = {
            "real": np.vstack(feats[:n_real]),
            "synthetic": np.vstack(feats[n_real:]),
        }
        for label, frames in sets.items():
            if len(frames) < k:
                raise CorpusError(
                    f"--gmm-components {k} exceeds the {len(frames)} LFCC frames of the {label} set"
                )

        def fit(frames):
            return ev.gmm_fit_em(frames, k, iters=args.gmm_iters, seed=args.seed or 0)[0]

        # A worker fits the synthetic set while this thread fits the real
        # one.  glibc keeps what a worker thread frees in that thread's own
        # arena, which the main thread never reuses; with both fits on
        # workers the eval workload's peak RSS was about 10 MB higher.
        synth_fit = pool.submit(fit, sets["synthetic"])
        gmm_real = fit(sets["real"])
        gmm_synth = synth_fit.result()
        clock.append(time.perf_counter())
        scores = list(pool.map(lambda x: ev.antispoof_score(x, gmm_real, gmm_synth), feats))
        clock.append(time.perf_counter())
    fields = {
        "feature_hash": None,  # `dsp.lfcc` reads no config
        "timings_ms": {
            stage: round((end - start) * 1e3, 3)
            for stage, start, end in zip(("features", "fit", "score"), clock, clock[1:])
        },
        "lfcc_frames": {label: len(frames) for label, frames in sets.items()},
    }
    return scores[:n_real], scores[n_real:], fields


def _discriminator_backend(real_files, synth_files, spec_str):
    """Scores from the critic in the checkpoint named by ``spec_str``, built
    as the checkpoint's config records it and run on features computed
    with that config, which is echoed; its report field is the feature hash."""
    parts = spec_str.split(":")
    if len(parts) != 2 or parts[0] != "discriminator":
        raise CorpusError(
            f"bad backend {spec_str!r}; expected discriminator:CKPT"
            " (the critic variant is the checkpoint's)"
        )
    ckpt_path = parts[1]
    ck = train.load_checkpoint(ckpt_path)
    run_cfg = RunConfig.from_dict(ck.config)
    _echo_config(run_cfg)
    dcfg = train.discriminator_config(ck.model_id, run_cfg)
    params = model.init_discriminator_params(dcfg, np.random.default_rng(0))
    train.restore(params, ck.disc_params, ckpt_path)
    feature = train.STAGES[ck.model_id].feature

    def score(path) -> float:
        wave = dsp.resample(dsp.read_wav(path), run_cfg.dsp.sample_rate)
        spec = dsp.wave_to_features(wave, run_cfg.dsp)[feature]
        with ad.no_grad():
            return float(model.discriminator_forward(spec[None], dcfg, params).data[0])

    fields = {"feature_hash": ck.feature_hash}
    return [score(f) for f in real_files], [score(f) for f in synth_files], fields


def cmd_eval_antispoof(args) -> int:
    real_files = _wav_list(args.real)
    synth_files = _wav_list(args.synth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.backend == "gmm-lfcc":
        real_scores, synth_scores, fields = _lfcc_backend(real_files, synth_files, args)
    elif args.backend.startswith("discriminator:"):
        real_scores, synth_scores, fields = _discriminator_backend(
            real_files, synth_files, args.backend
        )
    else:
        raise CorpusError(f"unknown backend {args.backend!r}")
    eer = ev.antispoof_eer(real_scores, synth_scores)
    ev.write_antispoof_csv(
        real_files, synth_files, real_scores, synth_scores, out / "antispoof_scores.csv"
    )
    report = {
        "backend": args.backend,
        "eer": eer,
        "n_real": len(real_files),
        "n_synthetic": len(synth_files),
        **fields,
    }
    _write_json(out / "report.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# fixture
# ---------------------------------------------------------------------------


def cmd_fixture(args) -> int:
    root = fixture.write_fixture_corpus(args.out, seed=args.seed or 0)
    print(f"fixture corpus written to {root}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="melforge",
        description="Adversarial TTS pipeline and speaker-verification spoofing evaluation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prepare", help="build manifests, splits and feature caches")
    prep.add_argument("corpus_root")
    prep.add_argument("out")
    prep.add_argument("--scheme", default="s3", choices=sorted(corpus.SPLIT_SCHEMES))
    prep.add_argument("--seed", type=int)
    prep.add_argument("--config")
    prep.set_defaults(func=cmd_prepare)

    tr = sub.add_parser("train", help="adversarial training of t2m or ssrn")
    tr.add_argument("model", choices=tuple(train.STAGES))
    tr.add_argument("--manifest", required=True)
    tr.add_argument("--embeddings", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--config")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--steps", type=int)
    tr.add_argument("--resume")
    tr.add_argument("--force", action="store_true")
    tr.set_defaults(func=cmd_train)

    sy = sub.add_parser("synth", help="synthesize speech from text")
    sy.add_argument("--text", required=True, help="UTF-8 text file")
    sy.add_argument("--speaker", required=True, help="key into the embedding store")
    sy.add_argument("--embeddings", required=True)
    sy.add_argument("--t2m", required=True)
    sy.add_argument("--ssrn", required=True)
    sy.add_argument("--out", required=True)
    sy.add_argument("--attention", help="write the attention path CSV here")
    sy.add_argument("--max-frames", type=int, default=400)
    sy.add_argument("--config")
    sy.add_argument("--force", action="store_true")
    sy.set_defaults(func=cmd_synth)

    es = sub.add_parser("eval-sv", help="speaker-verification spoofing evaluation")
    es.add_argument("--protocol-dir", required=True)
    es.add_argument("--test-manifest")
    es.add_argument("--synth-manifest")
    es.add_argument("--embeddings")
    es.add_argument("--scores", help="ingest an external score CSV instead of scoring")
    es.add_argument("--config")
    es.add_argument("--seed", type=int)
    es.set_defaults(func=cmd_eval_sv)

    ea = sub.add_parser("eval-antispoof", help="real-vs-synthetic classifier EER")
    ea.add_argument("--real", required=True, help="directory of real wavs")
    ea.add_argument("--synth", required=True, help="directory of synthetic wavs")
    ea.add_argument(
        "--backend", default="gmm-lfcc", help="gmm-lfcc or discriminator:CKPT (its critic)"
    )
    ea.add_argument("--out", required=True)
    ea.add_argument("--gmm-components", type=int, default=64)
    ea.add_argument("--gmm-iters", type=int, default=20)
    ea.add_argument("--seed", type=int)
    ea.set_defaults(func=cmd_eval_antispoof)

    fx = sub.add_parser("fixture", help="write the bundled toy corpus")
    fx.add_argument("out")
    fx.add_argument("--seed", type=int)
    fx.set_defaults(func=cmd_fixture)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MelforgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
