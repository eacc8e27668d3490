"""End-to-end CLI behavior on the toy fixture: subcommand plumbing, exit
codes, determinism and the external score-ingestion path."""

import csv
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from melforge import cli, corpus, dsp, model, train
from melforge import eval as ev
from melforge.autodiff import Tensor
from melforge.config import RunConfig
from melforge.errors import CompatibilityError, FormatError


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def tiny_cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.json"
    p.write_text(
        json.dumps(
            {
                "model": {
                    "width_scale": 0.03125,
                    "attention_dim": 16,
                    "embed_dim": 16,
                    "ssrn_width": 16,
                },
                "train": {
                    "batch_size": 4,
                    "max_iters": 3,
                    "checkpoint_every": 3,
                    "log_every": 1,
                    "disc_channels": 8,
                    "seed": 1,
                },
                "protocol": {"n_enroll": 2, "n_target": 4, "n_synth": 4},
            }
        )
    )
    return p


@pytest.fixture(scope="module")
def prepared_dir(toy_corpus, tmp_path_factory, tiny_cfg_file):
    out = tmp_path_factory.mktemp("prep")
    code = run_cli("prepare", toy_corpus, out, "--scheme", "all", "--config", tiny_cfg_file)
    assert code == 0
    return out


def test_prepare_outputs_and_idempotence(prepared_dir, toy_corpus, tiny_cfg_file):
    report = json.loads((prepared_dir / "split_report.json").read_text())
    assert report["train_utterances"] == 20
    assert report["test_speakers"] == 2
    assert (prepared_dir / "train.jsonl").exists()
    blobs = {
        p.name: p.read_bytes() for p in (prepared_dir / "features").glob("*.mfrg")
    }
    assert run_cli(
        "prepare", toy_corpus, prepared_dir, "--scheme", "all", "--config", tiny_cfg_file
    ) == 0
    for p in (prepared_dir / "features").glob("*.mfrg"):
        assert p.read_bytes() == blobs[p.name]


def test_prepare_missing_corpus_exit_2(tmp_path):
    assert run_cli("prepare", tmp_path / "nope", tmp_path / "out") == 2


@pytest.mark.parametrize("jobs", [0, -2])
def test_prepare_refuses_jobs_below_one_exit_2(toy_corpus, tmp_path, capsys, jobs):
    """prepare has no --jobs option, so argparse refuses it whatever the
    value, values below one included, before anything is written."""
    with pytest.raises(SystemExit) as exc:
        run_cli("prepare", toy_corpus, tmp_path / "out", "--jobs", jobs)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out" / "train.jsonl").exists()


def test_prepare_has_no_jobs_option_exit_2(toy_corpus, tmp_path, capsys):
    """prepare sizes its pool by the CPUs it may run on: argparse refuses
    --jobs."""
    with pytest.raises(SystemExit) as exc:
        run_cli("prepare", toy_corpus, tmp_path / "out", "--jobs", 2)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def trained_dir(prepared_dir, toy_corpus, tmp_path_factory, tiny_cfg_file):
    out = tmp_path_factory.mktemp("ckpt")
    cfg_path = prepared_dir / "config.json"  # resolved config incl. refs
    merged = json.loads(cfg_path.read_text())
    tiny = json.loads(tiny_cfg_file.read_text())
    merged["model"].update(tiny["model"])
    merged["train"].update(tiny["train"])
    cfg2 = out / "cfg.json"
    cfg2.write_text(json.dumps(merged))
    for m in ("t2m", "ssrn"):
        code = run_cli(
            "train", m,
            "--manifest", prepared_dir / "train.jsonl",
            "--embeddings", toy_corpus / "embeddings.mfem",
            "--out", out, "--config", cfg2,
        )
        assert code == 0
        assert (out / f"{m}_latest.mfck").exists()
        log_lines = (out / f"{m}_log.jsonl").read_text().splitlines()
        assert all(json.loads(l) for l in log_lines)
    return out


def test_train_resume_refuses_changed_seed_exit_4(
    trained_dir, prepared_dir, toy_corpus, tmp_path
):
    common = [
        "train", "t2m",
        "--manifest", prepared_dir / "train.jsonl",
        "--embeddings", toy_corpus / "embeddings.mfem",
        "--out", tmp_path, "--config", trained_dir / "cfg.json",
        "--resume", trained_dir / "t2m_latest.mfck",
    ]
    assert run_cli(*common, "--seed", "9") == 4
    assert not list(tmp_path.glob("*.mfck"))
    # the same recipe with more steps resumes
    assert run_cli(*common, "--steps", "4") == 0
    assert (tmp_path / "t2m_0000004.mfck").exists()


def test_train_bad_embedding_key_exit_2(prepared_dir, toy_corpus, tmp_path):
    data = (toy_corpus / "embeddings.mfem").read_bytes()
    bad = tmp_path / "bad.mfem"
    bad.write_bytes(data[:14] + b"\xff" + data[15:])  # first byte of the first key
    code = run_cli(
        "train", "t2m",
        "--manifest", prepared_dir / "train.jsonl",
        "--embeddings", bad, "--out", tmp_path / "out",
    )
    assert code == 2


def test_train_refuses_store_without_a_manifest_speaker_exit_2(
    trained_dir, prepared_dir, toy_corpus, tmp_path, capsys
):
    """A manifest utterance whose id and speaker are both missing from the
    embedding store exits 2, naming the utterance and the speaker."""
    full = corpus.load_embeddings(toy_corpus / "embeddings.mfem")
    store = corpus.EmbeddingStore(full.dim)
    for key in full.keys():
        if key.split("_")[0] != "spk1":
            store.add(key, full[key].vector)
    corpus.save_embeddings(store, tmp_path / "no_spk1.mfem")
    code = run_cli(
        "train", "t2m",
        "--manifest", prepared_dir / "train.jsonl",
        "--embeddings", tmp_path / "no_spk1.mfem",
        "--out", tmp_path / "out", "--config", trained_dir / "cfg.json", "--steps", 1,
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert "spk1_" in err and "'spk1'" in err, err
    assert not list((tmp_path / "out").glob("*.mfck"))


@pytest.mark.parametrize("key", ["batch_size", "checkpoint_every", "log_every"])
def test_train_settings_below_one_exit_2(
    key, trained_dir, prepared_dir, toy_corpus, tmp_path, capsys
):
    """train.batch_size, checkpoint_every and log_every below 1 are refused
    with FormatError naming the key, in a config file (exit 2 before any
    training) and in a checkpoint's config."""
    with pytest.raises(FormatError, match=f"train.{key}"):
        RunConfig.from_dict({"train": {key: 0}})
    cfg = json.loads((trained_dir / "cfg.json").read_text())
    cfg["train"][key] = 0
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    common = [
        "train", "t2m",
        "--manifest", prepared_dir / "train.jsonl",
        "--embeddings", toy_corpus / "embeddings.mfem",
        "--out", tmp_path / "out", "--steps", 2,
    ]
    assert run_cli(*common, "--config", tmp_path / "cfg.json") == 2
    assert f"train.{key}" in capsys.readouterr().err.splitlines()[-1]
    ck = train.load_checkpoint(trained_dir / "t2m_latest.mfck")
    ck.config["train"][key] = 0
    train.save_checkpoint(ck, tmp_path / "bad.mfck")
    resume = [*common, "--config", trained_dir / "cfg.json", "--resume", tmp_path / "bad.mfck"]
    assert run_cli(*resume) == 2
    assert f"train.{key}" in capsys.readouterr().err.splitlines()[-1]
    assert not list((tmp_path / "out").glob("*.mfck"))


def _train_args(prepared_dir, toy_corpus, out, cfg, manifest=None):
    return [
        "train", "t2m",
        "--manifest", manifest or prepared_dir / "train.jsonl",
        "--embeddings", toy_corpus / "embeddings.mfem",
        "--out", out, "--config", cfg, "--steps", 1,
    ]


def test_train_refuses_caches_of_other_feature_settings_exit_4(
    prepared_dir, toy_corpus, tiny_cfg_file, tmp_path, capsys
):
    """The caches carry the reference levels prepare resolved, which
    tiny_cfg_file lacks: training on them exits 4, naming the cache hash,
    unless --force is given."""
    args = _train_args(prepared_dir, toy_corpus, tmp_path / "out", tiny_cfg_file)
    assert run_cli(*args) == 4
    cached = json.loads((prepared_dir / "features" / "features.json").read_text())["hash"]
    assert cached in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.mfck"))
    assert run_cli(*args, "--force") == 0
    assert (tmp_path / "out" / "t2m_latest.mfck").exists()


def test_train_checks_the_cache_hash_before_reading_a_cache(
    prepared_dir, toy_corpus, tiny_cfg_file, tmp_path, monkeypatch
):
    """The feature-hash refusal (exit 4) opens no feature cache."""
    read, calls = train.read_feature_cache, []
    monkeypatch.setattr(train, "read_feature_cache", lambda p: calls.append(p) or read(p))
    assert run_cli(*_train_args(prepared_dir, toy_corpus, tmp_path / "out", tiny_cfg_file)) == 4
    assert calls == []


def test_train_resume_checks_the_checkpoint_hash_before_reading_a_cache(
    trained_dir, prepared_dir, toy_corpus, tmp_path, monkeypatch, capsys
):
    """Resuming from a checkpoint of other feature settings exits 4 before
    any feature cache is opened."""
    ck = train.load_checkpoint(trained_dir / "t2m_latest.mfck")
    ck.feature_hash = "0" * len(ck.feature_hash)
    other = tmp_path / "other.mfck"
    train.save_checkpoint(ck, other)
    read, calls = train.read_feature_cache, []
    monkeypatch.setattr(train, "read_feature_cache", lambda p: calls.append(p) or read(p))
    args = _train_args(prepared_dir, toy_corpus, tmp_path / "out", trained_dir / "cfg.json")
    assert run_cli(*args, "--resume", other) == 4
    assert f"feature hash {ck.feature_hash} != expected" in capsys.readouterr().err
    assert calls == []


def test_train_manifest_without_caches_says_run_prepare_exit_2(
    toy_corpus, tiny_cfg_file, tmp_path, capsys
):
    corpus.save_manifest(corpus.build_manifest(toy_corpus), tmp_path / "raw.jsonl")
    args = _train_args(None, toy_corpus, tmp_path / "out", tiny_cfg_file, tmp_path / "raw.jsonl")
    assert run_cli(*args) == 2
    assert "run prepare first" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dmel", "lin"])
def test_train_refuses_a_record_without_a_feature_kind_exit_2(
    kind, trained_dir, prepared_dir, toy_corpus, tmp_path, monkeypatch, capsys
):
    """A record whose features lack one of the caches training reads exits
    2, naming the utterance and the kind, before any cache is read."""
    records = list(corpus.load_manifest(prepared_dir / "train.jsonl").records)
    r = records[3]
    records[3] = replace(r, features={k: v for k, v in r.features.items() if k != kind})
    corpus.save_manifest(corpus.Manifest(tuple(records)), tmp_path / "m.jsonl")
    read, calls = train.read_feature_cache, []
    monkeypatch.setattr(train, "read_feature_cache", lambda p: calls.append(p) or read(p))
    args = _train_args(
        prepared_dir, toy_corpus, tmp_path / "out", trained_dir / "cfg.json", tmp_path / "m.jsonl"
    )
    capsys.readouterr()
    assert run_cli(*args) == 2
    assert f"{r.utterance_id}: manifest has no {kind} feature cache" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("case", ["missing", "not_json", "two_dirs"])
def test_train_refuses_unreadable_cache_metadata_exit_2(
    trained_dir, prepared_dir, toy_corpus, tmp_path, capsys, case
):
    """Caches with no readable features.json, or spread over two
    directories, exit 2 even under the config they were made with."""
    man = corpus.load_manifest(prepared_dir / "train.jsonl")
    meta = (prepared_dir / "features" / "features.json").read_bytes()
    records = []
    for i, r in enumerate(man.records):
        d = tmp_path / ("b" if case == "two_dirs" and i % 2 else "a")
        d.mkdir(exist_ok=True)
        feats = {}
        for kind, p in r.features.items():
            feats[kind] = str(d / Path(p).name)
            Path(feats[kind]).write_bytes(Path(p).read_bytes())
        records.append(replace(r, features=feats))
    for d in {Path(p).parent for r in records for p in r.features.values()}:
        if case != "missing":
            (d / "features.json").write_bytes(meta if case == "two_dirs" else b"{hash")
    corpus.save_manifest(corpus.Manifest(tuple(records)), tmp_path / "train.jsonl")
    args = _train_args(
        prepared_dir, toy_corpus, tmp_path / "out", trained_dir / "cfg.json",
        tmp_path / "train.jsonl",
    )
    assert run_cli(*args) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert ("2 directories" if case == "two_dirs" else "features.json") in err, err
    assert not list((tmp_path / "out").glob("*.mfck"))


@pytest.mark.parametrize(
    "section,key,value,named",
    [
        ("model", "downsample", 2, ("model.downsample", "dsp.downsample")),
        ("model", "downsample", 8, ("model.downsample", "dsp.downsample")),
        ("dsp", "downsample", 8, ("model.downsample", "dsp.downsample")),
        ("dsp", "n_mels", 40, ("model.n_mels", "dsp.n_mels")),
        ("model", "n_bins", 257, ("model.n_bins", "dsp.win")),
        ("dsp", "win", 512, ("model.n_bins", "dsp.win")),
        ("model", "vocab_size", 20, ("model.vocab_size", "43 characters")),
        ("model", "speaker_dim", 256, ("model.speaker_dim", "512-dim")),
    ],
    ids=["model-2", "model-8", "dsp-8", "dsp-n_mels", "model-n_bins", "dsp-win",
         "model-vocab_size", "model-speaker_dim"],
)
def test_train_refuses_downsample_ssrn_cannot_restore(
    prepared_dir, toy_corpus, tiny_cfg_file, tmp_path, capsys, section, key, value, named
):
    """Model settings that disagree with the feature settings, the training
    vocabulary or the embedding store exit 4 before training, naming both
    sides."""
    cfg = json.loads(tiny_cfg_file.read_text())
    cfg.setdefault(section, {})[key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for m in ("t2m", "ssrn"):
        code = run_cli(
            "train", m,
            "--manifest", prepared_dir / "train.jsonl",
            "--embeddings", toy_corpus / "embeddings.mfem",
            "--out", tmp_path / "out", "--config", tmp_path / "cfg.json",
        )
        assert code == 4
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
    assert not list((tmp_path / "out").glob("*.mfck"))


def test_train_refuses_unknown_disc_variant_exit_2(
    prepared_dir, toy_corpus, tiny_cfg_file, tmp_path, capsys
):
    """An unknown train.disc_variant in a config file exits 2 before
    training, naming the key and the variants there are."""
    cfg = json.loads(tiny_cfg_file.read_text())
    cfg["train"]["disc_variant"] = "3A"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = run_cli(
        "train", "t2m",
        "--manifest", prepared_dir / "train.jsonl",
        "--embeddings", toy_corpus / "embeddings.mfem",
        "--out", tmp_path / "out", "--config", tmp_path / "cfg.json",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "train.disc_variant" in err and "base, v1, v2" in err and "'3A'" in err, err
    assert not list((tmp_path / "out").glob("*.mfck"))


def test_eval_antispoof_unknown_variant_exit_2(toy_corpus, tmp_path, capsys, monkeypatch):
    """A backend string that still names a variant exits 2, naming the
    discriminator:CKPT form, before any checkpoint is read: the variant is
    the one the checkpoint records."""

    def no_read(*args, **kwargs):
        raise AssertionError("checkpoint read before the backend string was checked")

    monkeypatch.setattr(train, "load_checkpoint", no_read)
    for variant in ("3A", "base", "v1"):
        code = run_cli(
            "eval-antispoof", "--real", toy_corpus / "spk0", "--synth", toy_corpus / "spk1",
            "--backend", f"discriminator:{tmp_path / 'ck.mfck'}:{variant}",
            "--out", tmp_path / "anti",
        )
        assert code == 2, variant
        err = capsys.readouterr().err
        assert "discriminator:CKPT" in err and variant in err, err
    assert not (tmp_path / "anti" / "report.json").exists()


def test_synth_and_determinism(trained_dir, toy_corpus, tmp_path):
    text = tmp_path / "t.txt"
    text.write_text("ab c d.")
    args = [
        "synth",
        "--text", text,
        "--speaker", "spk0",
        "--embeddings", toy_corpus / "embeddings.mfem",
        "--t2m", trained_dir / "t2m_latest.mfck",
        "--ssrn", trained_dir / "ssrn_latest.mfck",
        "--out", tmp_path / "a.wav",
        "--attention", tmp_path / "att.csv",
        "--max-frames", 30,
    ]
    assert run_cli(*args) == 0
    wave = dsp.read_wav(tmp_path / "a.wav")
    assert wave.sample_rate == 22050
    att = (tmp_path / "att.csv").read_text().splitlines()
    assert att[0] == "frame,position"
    path = [int(l.split(",")[1]) for l in att[1:]]
    steps = np.diff([0] + path)
    assert np.all((steps >= 0) & (steps <= 2))
    sidecar = json.loads((tmp_path / "a.wav.json").read_text())
    assert "feature_hash" in sidecar
    assert set(sidecar["timings_ms"]) == {"decode", "ssrn", "griffin_lim"}
    assert min(sidecar["timings_ms"].values()) >= 0 and sidecar["decode_ms_per_frame"] >= 0
    # bit-identical on rerun with the same seed
    args[args.index(tmp_path / "a.wav")] = tmp_path / "b.wav"
    assert run_cli(*args) == 0
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_synth_hash_mismatch_exit_4(trained_dir, toy_corpus, tmp_path, prepared_dir):
    from melforge import train as tr

    ck = tr.load_checkpoint(trained_dir / "ssrn_latest.mfck")
    ck.feature_hash = "f" * 16
    tr.save_checkpoint(ck, tmp_path / "bad.mfck")
    text = tmp_path / "t.txt"
    text.write_text("ab.")
    code = run_cli(
        "synth", "--text", text, "--speaker", "spk0",
        "--embeddings", toy_corpus / "embeddings.mfem",
        "--t2m", trained_dir / "t2m_latest.mfck",
        "--ssrn", tmp_path / "bad.mfck",
        "--out", tmp_path / "x.wav",
    )
    assert code == 4


def _synth_args(trained_dir, toy_corpus, tmp_path, embeddings=None):
    text = tmp_path / "t.txt"
    text.write_text("ab.")
    return [
        "synth", "--text", text, "--speaker", "spk0",
        "--embeddings", embeddings or toy_corpus / "embeddings.mfem",
        "--t2m", trained_dir / "t2m_latest.mfck",
        "--ssrn", trained_dir / "ssrn_latest.mfck",
        "--out", tmp_path / "x.wav",
    ]


@pytest.mark.parametrize("frames", [0, -3])
def test_synth_refuses_max_frames_below_one_exit_2(trained_dir, toy_corpus, tmp_path, frames):
    args = _synth_args(trained_dir, toy_corpus, tmp_path)
    assert run_cli(*args, "--max-frames", frames) == 2
    assert not (tmp_path / "x.wav").exists()


def test_synth_refuses_embedding_size_mismatch_exit_4(
    trained_dir, toy_corpus, tmp_path, capsys
):
    small = corpus.EmbeddingStore(256)
    small.add("spk0", np.ones(256, dtype=np.float32))
    corpus.save_embeddings(small, tmp_path / "small.mfem")
    args = _synth_args(trained_dir, toy_corpus, tmp_path, tmp_path / "small.mfem")
    assert run_cli(*args) == 4
    err = capsys.readouterr().err.splitlines()[-1]
    assert "256" in err and "512" in err
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("t2m,ssrn", [("ssrn", "t2m"), ("ssrn", "ssrn"), ("t2m", "t2m")])
def test_synth_refuses_checkpoint_in_wrong_slot_exit_4(
    trained_dir, toy_corpus, tmp_path, capsys, t2m, ssrn
):
    args = _synth_args(trained_dir, toy_corpus, tmp_path)
    args[args.index("--t2m") + 1] = trained_dir / f"{t2m}_latest.mfck"
    args[args.index("--ssrn") + 1] = trained_dir / f"{ssrn}_latest.mfck"
    assert run_cli(*args) == 4
    assert "checkpoint is for" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_synth_refuses_corrupt_tensor_rank_exit_2(trained_dir, toy_corpus, tmp_path, capsys):
    """A t2m checkpoint whose first tensor claims 2**32 - 1 axes exits with
    code 2, naming the file, before anything of that size is allocated."""
    data = (trained_dir / "t2m_latest.mfck").read_bytes()
    (mlen,) = struct.unpack("<I", data[8:12])
    (nlen,) = struct.unpack("<H", data[12 + mlen + 4 : 12 + mlen + 6])
    ndim_at = 12 + mlen + 6 + nlen
    bad = tmp_path / "bad.mfck"
    bad.write_bytes(data[:ndim_at] + b"\xff" * 4 + data[ndim_at + 4 :])
    args = _synth_args(trained_dir, toy_corpus, tmp_path)
    args[args.index("--t2m") + 1] = bad
    capsys.readouterr()
    assert run_cli(*args) == 2
    assert f"error: {bad}: truncated shape of tensor" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def _doctor_parameter(src, table, how, dst):
    """Copy checkpoint ``src`` to ``dst`` with the first parameter of
    ``table`` removed or given an extra axis; returns its name."""
    ck = train.load_checkpoint(src)
    arrays = getattr(ck, table)
    name = sorted(arrays)[0]
    if how == "missing":
        del arrays[name]
    else:
        arrays[name] = np.zeros(arrays[name].shape + (2,), dtype=np.float32)
    train.save_checkpoint(ck, dst)
    return name


@pytest.mark.parametrize("how", ["missing", "misshapen"])
def test_checkpoint_parameter_missing_or_misshapen_exit_2(
    trained_dir, toy_corpus, tmp_path, capsys, how
):
    """synth (in either slot) and eval-antispoof refuse a checkpoint whose
    network lacks a parameter or holds one of another shape, naming both."""
    for slot in ("t2m", "ssrn"):
        bad = tmp_path / f"{slot}.mfck"
        name = _doctor_parameter(trained_dir / f"{slot}_latest.mfck", "params", how, bad)
        args = _synth_args(trained_dir, toy_corpus, tmp_path)
        args[args.index(f"--{slot}") + 1] = bad
        capsys.readouterr()
        assert run_cli(*args) == 2, slot
        err = capsys.readouterr().err
        assert str(bad) in err and repr(name) in err, err
    bad = tmp_path / "disc.mfck"
    name = _doctor_parameter(trained_dir / "ssrn_latest.mfck", "disc_params", how, bad)
    code = run_cli(
        "eval-antispoof", "--real", toy_corpus / "spk0", "--synth", toy_corpus / "spk1",
        "--backend", f"discriminator:{bad}", "--out", tmp_path / "anti",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and repr(name) in err, err
    assert not (tmp_path / "x.wav").exists()
    assert not (tmp_path / "anti" / "report.json").exists()


BAD_CONFIGS = [
    ("list", [], 2),
    ("section_list", {"train": [1, 2]}, 2),
    ("section_number", {"model": 5}, 2),
    ("unknown_key", {"train": {"bogus": 1}}, 4),
    ("unknown_section", {"vocoder": {}}, 4),
    ("str_for_int", {"protocol": {"n_enroll": "2"}}, 2),
    ("bool_for_int", {"train": {"seed": True}}, 2),
    ("unknown_variant", {"train": {"disc_variant": "3A"}}, 2),
]


def test_config_from_dict_refuses_bad_blocks():
    for name, config, code in BAD_CONFIGS:
        with pytest.raises(FormatError if code == 2 else CompatibilityError) as e:
            RunConfig.from_dict(config)
        for word in ("bogus", "vocoder", "train", "model"):
            if word in json.dumps(config):
                assert word in str(e.value), name
    assert RunConfig.from_dict({"train": None, "dsp": {}}) == RunConfig()


def test_config_from_dict_checks_value_types():
    assert RunConfig.from_dict(RunConfig().to_dict()) == RunConfig()
    cfg = RunConfig.from_dict(
        {"train": {"alpha": 1, "seed": 3}, "model": {"t2m_width": None, "ssrn_width": 24}}
    )
    assert cfg.train.alpha == 1 and cfg.model.ssrn_width == 24
    for section, key, value in [
        ("protocol", "n_enroll", "2"),
        ("protocol", "n_target", 2.0),
        ("train", "seed", True),
        ("train", "alpha", False),
        ("train", "alpha", "1e-4"),
        ("train", "max_iters", None),
        ("train", "disc_variant", 1),
        ("model", "t2m_width", 8.5),
    ]:
        with pytest.raises(FormatError, match=f"{section}.{key}"):
            RunConfig.from_dict({section: {key: value}})


def test_doctored_checkpoint_config_exit_2_or_4(trained_dir, prepared_dir, toy_corpus, tmp_path):
    text = tmp_path / "t.txt"
    text.write_text("ab.")
    for name, config, want in BAD_CONFIGS:
        ck = train.load_checkpoint(trained_dir / "t2m_latest.mfck")
        ck.config = config
        bad = tmp_path / f"{name}.mfck"
        train.save_checkpoint(ck, bad)
        synth = run_cli(
            "synth", "--text", text, "--speaker", "spk0",
            "--embeddings", toy_corpus / "embeddings.mfem",
            "--t2m", bad, "--ssrn", trained_dir / "ssrn_latest.mfck",
            "--out", tmp_path / "x.wav",
        )
        disc = run_cli(
            "eval-antispoof", "--real", toy_corpus / "spk0", "--synth", toy_corpus / "spk1",
            "--backend", f"discriminator:{bad}", "--out", tmp_path / "anti",
        )
        resume = run_cli(
            "train", "t2m",
            "--manifest", prepared_dir / "train.jsonl",
            "--embeddings", toy_corpus / "embeddings.mfem",
            "--out", tmp_path / "out", "--config", trained_dir / "cfg.json",
            "--resume", bad,
        )
        assert (synth, disc, resume) == (want, want, want), name
    assert not (tmp_path / "x.wav").exists()


def test_train_resume_refuses_mistyped_metadata_exit_2(
    trained_dir, prepared_dir, toy_corpus, tmp_path
):
    ck = train.load_checkpoint(trained_dir / "t2m_latest.mfck")
    ck.iteration = "5"
    bad = tmp_path / "bad.mfck"
    train.save_checkpoint(ck, bad)
    assert run_cli(
        "train", "t2m",
        "--manifest", prepared_dir / "train.jsonl",
        "--embeddings", toy_corpus / "embeddings.mfem",
        "--out", tmp_path / "out", "--config", trained_dir / "cfg.json",
        "--resume", bad,
    ) == 2
    assert not list((tmp_path / "out").glob("*.mfck"))


def test_bad_config_file_exit_2_or_4(trained_dir, toy_corpus, tmp_path):
    text = tmp_path / "t.txt"
    text.write_text("ab.")
    files = [(name, json.dumps(config), want) for name, config, want in BAD_CONFIGS]
    files.append(("not_json", "{model: 1", 2))
    files.append(("not_utf8", b"\xff\xfe{}", 2))
    for name, body, want in files:
        path = tmp_path / f"{name}.json"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        sv = run_cli("eval-sv", "--protocol-dir", tmp_path / "proto", "--config", path)
        synth = run_cli(
            "synth", "--text", text, "--speaker", "spk0",
            "--embeddings", toy_corpus / "embeddings.mfem",
            "--t2m", trained_dir / "t2m_latest.mfck",
            "--ssrn", trained_dir / "ssrn_latest.mfck",
            "--out", tmp_path / "x.wav", "--config", path,
        )
        assert (sv, synth) == (want, want), name
    assert run_cli("eval-sv", "--protocol-dir", tmp_path / "proto",
                   "--config", tmp_path / "missing.json") == 2


def test_eval_sv_builtin_and_ingested_match(prepared_dir, toy_corpus, tmp_path, tiny_cfg_file):
    pdir = tmp_path / "proto"
    common = [
        "eval-sv", "--protocol-dir", pdir,
        "--test-manifest", prepared_dir / "test.jsonl",
        "--synth-manifest", prepared_dir / "test.jsonl",
        "--config", tiny_cfg_file,
    ]
    assert run_cli(*common, "--embeddings", toy_corpus / "embeddings.mfem") == 0
    report1 = json.loads((pdir / "report.json").read_text())
    curve1 = (pdir / "curve.csv").read_text()
    assert (pdir / "trials.csv").exists()
    assert (pdir / "curve.gp").exists()
    # re-evaluate by ingesting the emitted scores: identical numbers
    scores_csv = pdir / "scores.csv"
    ingested = tmp_path / "proto2"
    ingested.mkdir()
    for name in ("trials.csv", "enrollment.json"):
        (ingested / name).write_bytes((pdir / name).read_bytes())
    assert run_cli(
        "eval-sv", "--protocol-dir", ingested, "--scores", scores_csv,
        "--config", tiny_cfg_file,
    ) == 0
    report2 = json.loads((ingested / "report.json").read_text())
    assert report1["eer"] == report2["eer"]
    assert report1["threshold"] == report2["threshold"]
    assert report1["spoof_rate"] == report2["spoof_rate"]
    assert curve1 == (ingested / "curve.csv").read_text()


def test_eval_sv_crash_keeps_old_report(
    prepared_dir, toy_corpus, tmp_path, tiny_cfg_file, crash_writing
):
    pdir = tmp_path / "proto"
    args = [
        "eval-sv", "--protocol-dir", pdir,
        "--test-manifest", prepared_dir / "test.jsonl",
        "--synth-manifest", prepared_dir / "test.jsonl",
        "--config", tiny_cfg_file,
        "--embeddings", toy_corpus / "embeddings.mfem",
    ]
    assert run_cli(*args) == 0
    before = (pdir / "report.json").read_bytes()
    files = sorted(p.name for p in pdir.iterdir())
    crash_writing("report.json")
    with pytest.raises(OSError, match="disk full"):
        run_cli(*args)
    assert (pdir / "report.json").read_bytes() == before
    assert sorted(p.name for p in pdir.iterdir()) == files


def test_eval_sv_missing_scores_exit_5(prepared_dir, tmp_path, tiny_cfg_file, toy_corpus):
    pdir = tmp_path / "proto"
    assert run_cli(
        "eval-sv", "--protocol-dir", pdir,
        "--test-manifest", prepared_dir / "test.jsonl",
        "--synth-manifest", prepared_dir / "test.jsonl",
        "--config", tiny_cfg_file,
        "--embeddings", toy_corpus / "embeddings.mfem",
    ) == 0
    # drop half the scores
    lines = (pdir / "scores.csv").read_text().splitlines()
    (tmp_path / "partial.csv").write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    code = run_cli(
        "eval-sv", "--protocol-dir", pdir, "--scores", tmp_path / "partial.csv",
        "--config", tiny_cfg_file,
    )
    assert code == 5


def test_eval_sv_bad_scores_exit_5(prepared_dir, tmp_path, tiny_cfg_file, toy_corpus, capsys):
    pdir = tmp_path / "proto"
    assert run_cli(
        "eval-sv", "--protocol-dir", pdir,
        "--test-manifest", prepared_dir / "test.jsonl",
        "--synth-manifest", prepared_dir / "test.jsonl",
        "--config", tiny_cfg_file,
        "--embeddings", toy_corpus / "embeddings.mfem",
    ) == 0
    header, first, *rest = (pdir / "scores.csv").read_text().splitlines()
    nan_row = first.rsplit(",", 1)[0] + ",nan"
    short_row = first.rsplit(",", 1)[0]  # four of the five fields
    for name, lines, line_no in (
        ("nan", [header, nan_row, *rest], 2),
        ("dup", [header, first, first, *rest], 3),
        ("short", [header, short_row, *rest], 2),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "eval-sv", "--protocol-dir", pdir, "--scores", path, "--config", tiny_cfg_file,
        )
        assert code == 5, name
        assert f"{name}.csv, line {line_no}:" in capsys.readouterr().err, name


def _doctor_trials(lines, case):
    """``lines`` of trials.csv with one defect; returns the new lines and
    what the error must say: the (1-based) line the reader names, or the
    trial class that is missing."""
    header, *rows = lines
    i = next(i for i, r in enumerate(rows) if r.endswith(",real,1"))
    fields = rows[i].split(",")
    if case == "repeated_id":
        return [header, *rows[: i + 1], rows[i], *rows[i + 1 :]], f"trials.csv, line {i + 3}:"
    if case == "is_target_yes":
        rows[i] = ",".join(fields[:-1] + ["yes"])
    elif case == "bad_source":
        rows[i] = ",".join(fields[:3] + ["recorded", fields[4]])
    elif case == "missing_column":
        return [",".join(r.split(",")[:-1]) for r in lines], "trials.csv, line 1:"
    elif case == "no_nontarget":
        kept = [r for r in rows if not r.endswith(",real,0")]
        assert len(kept) < len(rows)
        return [header, *kept], "trials.csv: trial list has no real non-target trials"
    return [header, *rows], f"trials.csv, line {i + 2}:"


@pytest.mark.parametrize(
    "case", ["repeated_id", "is_target_yes", "bad_source", "missing_column", "no_nontarget"]
)
def test_eval_sv_malformed_trials_exit_5(
    case, prepared_dir, tmp_path, tiny_cfg_file, toy_corpus, capsys
):
    pdir = tmp_path / "proto"
    assert run_cli(
        "eval-sv", "--protocol-dir", pdir,
        "--test-manifest", prepared_dir / "test.jsonl",
        "--synth-manifest", prepared_dir / "test.jsonl",
        "--config", tiny_cfg_file,
        "--embeddings", toy_corpus / "embeddings.mfem",
    ) == 0
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "enrollment.json").write_bytes((pdir / "enrollment.json").read_bytes())
    lines, expected = _doctor_trials((pdir / "trials.csv").read_text().splitlines(), case)
    (bad / "trials.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run_cli(
        "eval-sv", "--protocol-dir", bad, "--scores", pdir / "scores.csv",
        "--config", tiny_cfg_file,
    )
    assert code == 5
    assert expected in capsys.readouterr().err
    assert not (bad / "report.json").exists()


@pytest.mark.parametrize(
    "content",
    [b"{not json", b"\xff\xfe", b"[1]", b'{"spk0": "utt1"}', b'{"spk0": [1, 2]}'],
    ids=["not_json", "not_utf8", "list", "ids_not_a_list", "ids_not_strings"],
)
def test_eval_sv_malformed_enrollment_exit_5(
    content, prepared_dir, tmp_path, tiny_cfg_file, toy_corpus, capsys
):
    """An enrollment.json beside trials.csv that is not JSON, or not an
    object mapping speakers to lists of utterance ids, is refused like a bad
    trials.csv, where it used to end in a traceback with exit 1."""
    pdir = tmp_path / "proto"
    assert run_cli(
        "eval-sv", "--protocol-dir", pdir,
        "--test-manifest", prepared_dir / "test.jsonl",
        "--synth-manifest", prepared_dir / "test.jsonl",
        "--config", tiny_cfg_file,
        "--embeddings", toy_corpus / "embeddings.mfem",
    ) == 0
    (pdir / "enrollment.json").write_bytes(content)
    (pdir / "report.json").unlink()
    capsys.readouterr()
    code = run_cli(
        "eval-sv", "--protocol-dir", pdir, "--embeddings", toy_corpus / "embeddings.mfem",
        "--config", tiny_cfg_file,
    )
    assert code == 5
    assert "enrollment.json: enrollment" in capsys.readouterr().err
    assert not (pdir / "report.json").exists()


@pytest.mark.parametrize("command", ["eval-sv", "train"])
def test_ill_shaped_manifest_line_exit_2(
    command, prepared_dir, tmp_path, tiny_cfg_file, toy_corpus, capsys
):
    """A manifest line of the wrong shape exits 2 naming the file and line:
    a JSON list for eval-sv, a record whose features are a number for
    train."""
    first, *_ = (prepared_dir / "train.jsonl").read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    if command == "eval-sv":
        bad.write_text(first + "\n[1, 2]\n")
        argv = ["eval-sv", "--protocol-dir", tmp_path / "proto", "--test-manifest", bad,
                "--synth-manifest", bad, "--embeddings", toy_corpus / "embeddings.mfem"]
    else:
        bad.write_text(first + "\n" + json.dumps({**json.loads(first), "features": 5}) + "\n")
        argv = ["train", "t2m", "--manifest", bad, "--embeddings",
                toy_corpus / "embeddings.mfem", "--out", tmp_path / "ck"]
    capsys.readouterr()
    assert run_cli(*argv, "--config", tiny_cfg_file) == 2
    assert "bad.jsonl:2: bad manifest line" in capsys.readouterr().err


_GOOD_RECORD = json.dumps({"utterance_id": "u", "speaker_id": "s", "wav": "u.wav", "text": "t"})
_TRIALS = b"trial_id,claimed_speaker,utterance_id,source,is_target\r\n" + (
    b"t1,spk0,u1,real,1\r\nt2,spk0,u2,real,0\r\nt3,spk0,u3,synthetic,1\r\n"
)


def _not_utf8_case(case, request, tmp_path):
    """argv reading one file whose line 2 holds a byte that is not UTF-8,
    that file, and the exit code its refusal takes."""
    bad_bytes = b"\xff\xfe"
    if case == "transcript":
        root = tmp_path / "corpus"
        shutil.copytree(request.getfixturevalue("toy_corpus"), root)
        bad = sorted(root.rglob("*.txt"))[3]
        bad.write_bytes(bad.read_bytes().strip() + b"\n" + bad_bytes)
        return ["prepare", root, tmp_path / "prep", "--scheme", "all"], bad, 2
    if case.startswith("manifest"):
        bad = tmp_path / "m.jsonl"
        bad.write_bytes(_GOOD_RECORD.encode() + b"\n" + _GOOD_RECORD.encode()[:-1] + bad_bytes + b"}\n")
        if case == "manifest_train":
            return ["train", "t2m", "--manifest", bad, "--embeddings", tmp_path / "e.mfem",
                    "--out", tmp_path / "ck"], bad, 2
        return ["eval-sv", "--protocol-dir", tmp_path / "proto", "--test-manifest", bad,
                "--synth-manifest", bad, "--embeddings", tmp_path / "e.mfem"], bad, 2
    if case == "synth_text":
        args = _synth_args(request.getfixturevalue("trained_dir"),
                           request.getfixturevalue("toy_corpus"), tmp_path)
        bad = tmp_path / "t.txt"
        bad.write_bytes(b"ab.\n" + bad_bytes)
        return args, bad, 2
    pdir = tmp_path / "proto"
    pdir.mkdir()
    (pdir / "enrollment.json").write_text('{"spk0": ["u0"]}')
    if case == "trials_csv":
        bad = pdir / "trials.csv"
        bad.write_bytes(_TRIALS.replace(b"t1,", bad_bytes + b","))
        return ["eval-sv", "--protocol-dir", pdir, "--embeddings", tmp_path / "e.mfem"], bad, 5
    (pdir / "trials.csv").write_bytes(_TRIALS)
    bad = tmp_path / "scores.csv"
    bad.write_bytes(b"trial_id,claimed_speaker,source,is_target,score\n" + bad_bytes + b"\n")
    return ["eval-sv", "--protocol-dir", pdir, "--scores", bad], bad, 5


@pytest.mark.parametrize(
    "case",
    ["transcript", "manifest_train", "manifest_eval_sv", "synth_text", "trials_csv", "scores_csv"],
)
def test_text_that_is_not_utf8_is_refused(case, request, tmp_path, capsys):
    """A text input holding bytes that are not UTF-8 exits with its table
    code (2 for corpus, manifest and text inputs, 5 for the protocol's
    CSVs), naming the file and line, where it used to end in a traceback."""
    argv, bad, code = _not_utf8_case(case, request, tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == code
    assert f"{bad}, line 2: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [("--gmm-components", 0), ("--gmm-components", 100000), ("--gmm-iters", 0)],
    ids=["no_components", "more_components_than_frames", "no_iterations"],
)
def test_eval_antispoof_bad_gmm_settings_exit_2(flags, toy_corpus, tmp_path, capsys):
    args = {"--gmm-components": 2, "--gmm-iters": 3}
    args[flags[0]] = flags[1]
    code = run_cli(
        "eval-antispoof",
        "--real", toy_corpus / "spk0",
        "--synth", toy_corpus / "spk1",
        "--out", tmp_path / "anti",
        *[a for kv in args.items() for a in kv],
    )
    assert code == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "anti" / "report.json").exists()


def test_eval_antispoof_gmm_backend(toy_corpus, tmp_path, capsys):
    """The LFCC settings are fixed in `dsp`, so the report carries no
    feature hash and no config is echoed."""
    out = tmp_path / "anti"
    capsys.readouterr()
    code = run_cli(
        "eval-antispoof",
        "--real", toy_corpus / "spk0",
        "--synth", toy_corpus / "spk1",
        "--backend", "gmm-lfcc",
        "--gmm-components", 2,
        "--gmm-iters", 5,
        "--out", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["eer"] <= 1.0
    assert report["feature_hash"] is None
    assert "resolved_config" not in capsys.readouterr().err
    assert (out / "antispoof_scores.csv").exists()


def test_eval_antispoof_csv_holds_exact_scores(toy_corpus, tmp_path, monkeypatch):
    """The score CSV holds the very floats behind the report's EER."""
    seen = []
    eer_of = ev.antispoof_eer

    def tap(real, synth):
        seen.append((list(real), list(synth)))
        return eer_of(real, synth)

    monkeypatch.setattr(ev, "antispoof_eer", tap)
    out = tmp_path / "anti"
    code = run_cli(
        "eval-antispoof",
        "--real", toy_corpus / "spk0",
        "--synth", toy_corpus / "spk1",
        "--gmm-components", 2,
        "--gmm-iters", 5,
        "--out", out,
    )
    assert code == 0
    real, synth = [], []
    with open(out / "antispoof_scores.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            (real if row["source"] == "real" else synth).append(float(row["score"]))
    assert seen == [(real, synth)]
    report = json.loads((out / "report.json").read_text())
    assert eer_of(real, synth) == report["eer"]


def test_eval_antispoof_csv_quotes_paths(toy_corpus, tmp_path, monkeypatch):
    """WAV paths holding a comma or a double quote are quoted in the score
    CSV, which reads back with each file's path, source and exact score
    and ends its lines in CRLF."""
    seen = []
    eer_of = ev.antispoof_eer
    monkeypatch.setattr(ev, "antispoof_eer", lambda r, s: seen.append(r + s) or eer_of(r, s))
    wavs = sorted((toy_corpus / "spk0").glob("*.wav"))
    names = [("real", "a,0.wav"), ("real", "b.wav"), ("synth", 'c"1".wav'), ("synth", "d,2.wav")]
    for wav, (folder, name) in zip(wavs, names):
        (tmp_path / folder).mkdir(exist_ok=True)
        (tmp_path / folder / name).write_bytes(wav.read_bytes())
    out = tmp_path / "anti"
    assert run_cli(
        "eval-antispoof",
        "--real", tmp_path / "real",
        "--synth", tmp_path / "synth",
        "--gmm-components", 2,
        "--gmm-iters", 3,
        "--out", out,
    ) == 0
    with open(out / "antispoof_scores.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["file", "source", "score"]
    assert [(path, source) for path, source, _ in rows[1:]] == [
        (str(tmp_path / folder / name), "synthetic" if folder == "synth" else "real")
        for folder, name in names
    ]
    assert [float(score) for _, _, score in rows[1:]] == seen[0]
    text = (out / "antispoof_scores.csv").read_bytes()
    assert text.count(b"\r\n") == len(rows) and b'/c""1"".wav",' in text


def test_eval_antispoof_identical_sets_eer_half(toy_corpus, tmp_path):
    out = tmp_path / "anti2"
    code = run_cli(
        "eval-antispoof",
        "--real", toy_corpus / "spk0",
        "--synth", toy_corpus / "spk0",
        "--backend", "gmm-lfcc",
        "--gmm-components", 2,
        "--gmm-iters", 4,
        "--out", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["eer"] == pytest.approx(0.5, abs=0.05)


def _gmm_antispoof(real, synth, out):
    return run_cli(
        "eval-antispoof", "--real", real, "--synth", synth,
        "--gmm-components", 2, "--gmm-iters", 3, "--out", out,
    )


def test_eval_antispoof_same_bytes_for_any_worker_count(toy_corpus, tmp_path, monkeypatch):
    """On 1, 2 and 3 workers, with frequent thread switches, the score CSV
    is the same bytes and the report the same apart from its timings; no
    thread outlives the call."""
    before = set(threading.enumerate())
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 3):
            monkeypatch.setattr(dsp, "worker_count", lambda n, w=workers: w)
            out = tmp_path / f"w{workers}"
            assert _gmm_antispoof(toy_corpus / "spk0", toy_corpus / "spk1", out) == 0
            assert set(threading.enumerate()) == before
            report = json.loads((out / "report.json").read_text())
            del report["timings_ms"]
            results.append((report, (out / "antispoof_scores.csv").read_bytes()))
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]


def test_eval_antispoof_gmm_report_records_timings_and_frames(toy_corpus, tmp_path, monkeypatch):
    """The gmm-lfcc report gains ``timings_ms`` for its three stages and the
    LFCC frame count of each set, which the two EM fits (exactly two calls
    of ``ev.gmm_fit_em``, looked up at call time) receive."""
    fits = []
    fit = ev.gmm_fit_em

    def tap(features, *args, **kwargs):
        fits.append(len(features))
        return fit(features, *args, **kwargs)

    monkeypatch.setattr(ev, "gmm_fit_em", tap)
    out = tmp_path / "anti"
    assert _gmm_antispoof(toy_corpus / "spk0", toy_corpus / "spk1", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {
        "backend", "eer", "n_real", "n_synthetic", "feature_hash", "timings_ms", "lfcc_frames"
    }
    assert set(report["timings_ms"]) == {"features", "fit", "score"}
    assert min(report["timings_ms"].values()) >= 0
    frames = {
        label: sum(dsp.lfcc(dsp.read_wav(w)).shape[1] for w in (toy_corpus / spk).glob("*.wav"))
        for label, spk in (("real", "spk0"), ("synthetic", "spk1"))
    }
    assert report["lfcc_frames"] == frames
    assert sorted(fits) == sorted(frames.values())


@pytest.mark.parametrize("bad_set", ["real", "synth"])
def test_eval_antispoof_truncated_wav_exit_2_names_first_bad_file(
    bad_set, toy_corpus, tmp_path, capsys, monkeypatch
):
    """Of two truncated WAVs, one second in ``bad_set`` and one last in the
    synthetic set, the first in listing order is named (exit 2), although
    its read is held back until the other has failed; no report is written
    and no thread outlives the call."""
    sets = {}
    for name, spk in (("real", "spk0"), ("synth", "spk1")):
        sets[name] = tmp_path / name
        sets[name].mkdir()
        for wav in sorted((toy_corpus / spk).glob("*.wav"))[:4]:
            shutil.copy(wav, sets[name] / wav.name)
    first = sorted(sets[bad_set].glob("*.wav"))[1]
    later = sorted(sets["synth"].glob("*.wav"))[-1]
    for wav in (first, later):
        wav.write_bytes(wav.read_bytes()[:1001])
    read_wav, later_failed = dsp.read_wav, threading.Event()

    def held_read_wav(path):
        if path == first:
            later_failed.wait(timeout=10)
        try:
            return read_wav(path)
        finally:
            if path == later:
                later_failed.set()

    monkeypatch.setattr(dsp, "read_wav", held_read_wav)
    monkeypatch.setattr(dsp, "worker_count", lambda n: 3)
    before = set(threading.enumerate())
    capsys.readouterr()
    assert _gmm_antispoof(sets["real"], sets["synth"], tmp_path / "anti") == 2
    err = capsys.readouterr().err
    assert f"{first}: truncated WAV" in err and str(later) not in err
    assert later_failed.is_set()
    assert not (tmp_path / "anti" / "report.json").exists()
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("command", ["prepare", "eval-antispoof"])
def test_zero_rate_wav_exit_2(command, toy_corpus, tmp_path, capsys):
    """A WAV whose header gives 0 Hz is malformed: prepare (in its
    reference-level pass) and eval-antispoof exit with code 2, naming it."""
    root = tmp_path / "corpus"
    shutil.copytree(toy_corpus, root)
    bad = sorted((root / "spk0").glob("*.wav"))[0]
    data = bad.read_bytes()
    bad.write_bytes(data[:24] + bytes(4) + data[28:])  # the fmt chunk's rate
    if command == "prepare":
        args = ["prepare", root, tmp_path / "out", "--scheme", "all"]
    else:
        args = ["eval-antispoof", "--real", root / "spk0", "--synth", root / "spk1",
                "--gmm-components", 2, "--gmm-iters", 3, "--out", tmp_path / "out"]
    capsys.readouterr()
    assert run_cli(*args) == 2
    assert f"error: {bad}: malformed WAV (sample rate 0 Hz)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out" / "train.jsonl").exists()


def _critic_scores(ck, variant, wavs):
    """Each wav's score under ``model.discriminator_forward`` with the
    critic of ``ck`` read as ``variant``."""
    run_cfg = RunConfig.from_dict(ck.config)
    stage = train.STAGES[ck.model_id]
    dcfg = model.DiscriminatorConfig(
        stage.channels(run_cfg.model), run_cfg.train.disc_channels, variant
    )
    params = {k: Tensor(v) for k, v in ck.disc_params.items()}
    feats = [dsp.wave_to_features(dsp.read_wav(w), run_cfg.dsp)[stage.feature] for w in wavs]
    return [float(model.discriminator_forward(f[None], dcfg, params).data[0]) for f in feats]


def _antispoof_scores(out):
    with open(out / "antispoof_scores.csv", newline="", encoding="utf-8") as f:
        return [float(row["score"]) for row in csv.DictReader(f)]


def test_eval_antispoof_discriminator_backend(trained_dir, toy_corpus, tmp_path, capsys):
    """discriminator:CKPT scores with the critic the checkpoint's config
    records: the base critic for the trained checkpoints, v1 for one whose
    config says v1.  A config saying v2 without disc.conv2.* exits 2."""
    wavs = sorted((toy_corpus / "spk0").rglob("*.wav")) + sorted(
        (toy_corpus / "spk1").rglob("*.wav")
    )

    def run(ckpt_path, out):
        return run_cli(
            "eval-antispoof", "--real", toy_corpus / "spk0", "--synth", toy_corpus / "spk1",
            "--backend", f"discriminator:{ckpt_path}", "--out", out,
        )

    for m in ("t2m", "ssrn"):
        ck = train.load_checkpoint(trained_dir / f"{m}_latest.mfck")
        assert ck.config["train"]["disc_variant"] == "base"
        out = tmp_path / f"anti3_{m}"
        assert run(trained_dir / f"{m}_latest.mfck", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["backend"] == f"discriminator:{trained_dir / f'{m}_latest.mfck'}"
        assert report["feature_hash"] == ck.feature_hash
        assert _antispoof_scores(out) == _critic_scores(ck, "base", wavs)
    # the same parameters under a config that says v1 are scored as v1
    ck = train.load_checkpoint(trained_dir / "t2m_latest.mfck")
    ck.config["train"]["disc_variant"] = "v1"
    train.save_checkpoint(ck, tmp_path / "v1.mfck")
    assert run(tmp_path / "v1.mfck", tmp_path / "anti_v1") == 0
    v1 = _antispoof_scores(tmp_path / "anti_v1")
    assert v1 == _critic_scores(ck, "v1", wavs)
    assert v1 != _critic_scores(ck, "base", wavs)
    # v2 needs parameters the base-trained critic lacks
    ck.config["train"]["disc_variant"] = "v2"
    train.save_checkpoint(ck, tmp_path / "v2.mfck")
    capsys.readouterr()
    assert run(tmp_path / "v2.mfck", tmp_path / "anti_v2") == 2
    assert "disc.conv2." in capsys.readouterr().err
    assert not (tmp_path / "anti_v2" / "report.json").exists()


def test_eval_antispoof_discriminator_echoes_checkpoint_config(
    trained_dir, toy_corpus, tmp_path, tiny_cfg_file, capsys
):
    """The discriminator backend computes features with the checkpoint's
    config, so stderr echoes that config and its hash (not the defaults).
    eval-antispoof takes no --config: argparse refuses it with exit 2 for
    either backend."""
    ckpt = trained_dir / "t2m_latest.mfck"
    ck = train.load_checkpoint(ckpt)
    args = [
        "eval-antispoof", "--real", toy_corpus / "spk0", "--synth", toy_corpus / "spk1",
        "--backend", f"discriminator:{ckpt}", "--out", tmp_path / "anti",
    ]
    capsys.readouterr()
    assert run_cli(*args) == 0
    err = capsys.readouterr().err.splitlines()
    (echo,) = [json.loads(line) for line in err if line.startswith('{"resolved_config"')]
    assert echo["feature_hash"] == ck.feature_hash
    assert echo["resolved_config"] == RunConfig.from_dict(ck.config).to_dict()
    for backend in (f"discriminator:{ckpt}", "gmm-lfcc"):
        args[args.index("--backend") + 1] = backend
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--config", tiny_cfg_file)
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_fixture_subcommand(tmp_path):
    assert run_cli("fixture", tmp_path / "toy", "--seed", "5") == 0
    man = corpus.build_manifest(tmp_path / "toy")
    assert len(man) == 20


def test_env_seed_override(monkeypatch):
    from melforge.config import load_config

    monkeypatch.setenv("MELFORGE_SEED", "777")
    cfg = load_config()
    assert cfg.train.seed == 777
    assert cfg.protocol.seed == 777
    monkeypatch.delenv("MELFORGE_SEED")
    assert load_config().train.seed == 0


def test_env_seed_not_an_integer_exit_2(monkeypatch, tmp_path):
    from melforge.config import load_config

    monkeypatch.setenv("MELFORGE_SEED", "abc")
    with pytest.raises(FormatError, match="MELFORGE_SEED"):
        load_config()
    assert run_cli("eval-sv", "--protocol-dir", tmp_path / "proto") == 2


def test_seed_flag_overrides_env_seed(monkeypatch, tmp_path):
    """defaults < config file < MELFORGE_SEED < --seed."""
    from melforge.config import load_config

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"train": {"seed": 1}, "protocol": {"seed": 1}}))
    monkeypatch.setenv("MELFORGE_SEED", "5")
    cfg = load_config(cfg_file, {"train": {"seed": 3}, "protocol": {"seed": 3}})
    assert (cfg.train.seed, cfg.protocol.seed) == (3, 3)
    cfg = load_config(cfg_file, {"train": {"seed": None}, "protocol": {}})
    assert (cfg.train.seed, cfg.protocol.seed) == (5, 5)


@pytest.mark.parametrize("command", ["synth", "train", "eval-sv"])
def test_missing_input_file_exit_2(
    command, trained_dir, prepared_dir, toy_corpus, tiny_cfg_file, tmp_path
):
    """A missing input file ends in one error line naming it and exit 2,
    not a traceback."""
    missing = tmp_path / "missing"
    argv = {
        "synth": _synth_args(trained_dir, toy_corpus, tmp_path),
        "train": [
            "train", "t2m", "--manifest", missing,
            "--embeddings", toy_corpus / "embeddings.mfem", "--out", tmp_path / "out",
        ],
        "eval-sv": [
            "eval-sv", "--protocol-dir", tmp_path / "proto",
            "--test-manifest", prepared_dir / "test.jsonl",
            "--synth-manifest", prepared_dir / "test.jsonl",
            "--embeddings", missing, "--config", tiny_cfg_file,
        ],
    }[command]
    if command == "synth":
        argv[argv.index("--t2m") + 1] = missing
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "melforge.cli", *map(str, argv)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    last = out.stderr.splitlines()[-1]
    assert last.startswith("error:") and str(missing) in last, last


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Records the BLAS variables at the moment numpy is first imported, then
# imports the CLI module and prints them as JSON.
_SPY_NUMPY_IMPORT = f"""
import json, os, sys
seen = {{}}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in {BLAS_VARS!r}}})
        return None
sys.meta_path.insert(0, Spy())
import melforge.cli
print(json.dumps(seen))
"""


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_cli_pins_blas_threads_before_numpy_loads(preset):
    """Importing the CLI sets each BLAS thread variable to 1 before numpy
    loads, unless the environment already sets it."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(preset)
    out = subprocess.run(
        [sys.executable, "-c", _SPY_NUMPY_IMPORT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == {v: preset.get(v, "1") for v in BLAS_VARS}
