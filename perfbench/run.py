#!/usr/bin/env python3
"""Pipeline benchmark for melforge: training, synthesis and evaluation.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``train``, ``synth`` and ``eval``.  Each runs in
this one process as a closed loop of whole rounds of the workload's
operations, which come in two kinds (``op_a``, ``op_b``).  A round starts
only if the median round so far still fits in ``--seconds``.  The
set-up (inputs, checkpoints, warm-up) runs three times and its median is
``setup_s``.  Every operation's outputs are checked by code in this
directory; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every second round with every public function of the layer modules
wrapped by `tracer.Tracer`, and reports the per-layer metrics plus the
tracing overhead (traced over untraced median).  Results go to ``.perfbench/results/`` and spans to
``.perfbench/traces/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
N_SETUPS = 3
# BLAS/OpenMP pools get one thread: the program's matrices are too small to
# gain from more, and on a shared two-vCPU machine a second BLAS thread
# roughly doubled the spread of per-run medians
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "synth", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> None:
    """Import melforge from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import melforge

    where = Path(melforge.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"melforge imported from {where}, not from {src}")


@contextlib.contextmanager
def _quiet(sink: io.StringIO):
    """Keep the program's own prints off the benchmark's standard output."""
    sink.seek(0)
    sink.truncate()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


class Run:
    def __init__(self, wl, tracer, seed: int):
        self.wl, self.tracer, self.seed = wl, tracer, seed
        self.sink = io.StringIO()
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def setups(self, work: Path) -> list[float]:
        times = []
        for i in range(N_SETUPS):
            if i:
                self.wl.close()
                shutil.rmtree(work / f"setup{i - 1}")
            d = work / f"setup{i}"
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            with self.tracer.root("bench.setup"), _quiet(self.sink):
                self.wl.setup(d, self.seed)
            times.append(time.perf_counter() - t0)
        return times

    def rounds(self, budget: float, alternate: bool) -> dict[bool, dict[str, list[float]]]:
        """Whole rounds while the median round still fits in ``budget``.

        Samples are keyed by whether the tracer was on.  With ``alternate``
        every second round runs with the tracer installed, so traced and
        untraced rounds see the same stretches of machine time, and there
        are at least two rounds.
        """
        samples = {on: {k: [] for k in self.wl.kinds} for on in (False, True)}
        rounds: list[float] = []
        least = 2 if alternate else 1
        start = time.perf_counter()
        while len(rounds) < least or time.perf_counter() - start + statistics.median(rounds) <= budget:
            traced = alternate and len(rounds) % 2 == 1
            if traced:
                self.tracer.install()
            r0 = time.perf_counter()
            try:
                for kind in self.wl.round:
                    self.attempted += 1
                    self.tracer.on = traced
                    try:
                        with _quiet(self.sink), self.tracer.root(f"bench.{kind}"):
                            t0 = time.perf_counter()
                            out = self.wl.op(kind)
                            dt = time.perf_counter() - t0
                    except Exception:
                        self.failed += 1
                        self.failures.append(f"{kind} raised:\n{traceback.format_exc()}")
                        if self.wl.stop_on_failure:
                            return samples
                        continue
                    finally:
                        self.tracer.on = False
                    samples[traced][kind].append(dt)
                    self.failures += self.wl.check(kind, out)
            finally:
                self.tracer.uninstall()
            rounds.append(time.perf_counter() - r0)
        return samples


def _e2e(wl, setup_times, samples) -> dict[str, float]:
    m = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for slot, kind in zip(("op_a_ms", "op_b_ms"), wl.kinds):
        m[slot] = 1e3 * statistics.median(samples[kind]) if samples[kind] else float("nan")
    return m


def _per_layer(wl, summary, untraced, traced) -> dict[str, float]:
    from tracer import LAYERS

    def med(ops, fn):
        return float(statistics.median([fn(s) for s in ops])) if ops else 0.0

    by_kind = {k: [s for s in summary if s["root"] == f"bench.{k}"] for k in wl.kinds}
    setups = [s for s in summary if s["root"] == "bench.setup"]
    m = wl.layer_metrics(by_kind, med)
    for fn in ("corpus.corpus_reference_levels", "corpus.precompute_features",
               "train.load_training_samples", "train.load_checkpoint"):
        m[f"{fn}_ms"] = med(setups, lambda s: s["total_ms"].get(fn, 0.0))
    for slot, kind in zip(("op_a", "op_b"), wl.kinds):
        ops = by_kind[kind]
        for layer in LAYERS:
            m[f"self_ms.{layer}.{slot}"] = med(ops, lambda s: s["layer_self_ms"][layer])
        m[f"self_ms.unattributed.{slot}"] = med(ops, lambda s: s["root_self_ms"])
        m[f"trace.spans_per_op.{slot}"] = med(ops, lambda s: s["spans"])
        if untraced[kind] and traced[kind]:
            ratio = statistics.median(traced[kind]) / statistics.median(untraced[kind])
            m[f"trace.overhead_pct.{slot}"] = 100.0 * (ratio - 1.0)
    return m


def _layer_table(wl, summary) -> dict:
    """Median calls, total and self ms of every span name, per kind."""
    table = {}
    for kind in wl.kinds:
        ops = [s for s in summary if s["root"] == f"bench.{kind}"]
        names = sorted({n for s in ops for n in s["calls"]})
        rows = {
            n: [statistics.median([s[key].get(n, 0) for s in ops]) for key in ("calls", "total_ms", "self_ms")]
            for n in names
        }
        table[kind] = dict(sorted(rows.items(), key=lambda kv: -kv[1][2]))
    return table


def _blas() -> str:
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    return f"{name}, {os.environ['OPENBLAS_NUM_THREADS']} threads"


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        _import_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from common import tail
    from tracer import Tracer
    from wl_eval import EvalWorkload
    from wl_synth import SynthWorkload
    from wl_train import TrainWorkload

    wl = {"train": TrainWorkload, "synth": SynthWorkload, "eval": EvalWorkload}[args.workload]()
    tracer = Tracer()
    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    run = Run(wl, tracer, args.seed)
    try:
        if args.trace:
            tracer.install()
            tracer.on = True
        setup_times = run.setups(work)
        tracer.on = False
        tracer.uninstall()
        samples = run.rounds(args.seconds, alternate=bool(args.trace))
        run.failures += wl.final_check()
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    untraced, traced = samples[False], samples[True]
    if args.trace:
        summary = tracer.summary()
        produced = _per_layer(wl, summary, untraced, traced)
        wanted = spec["per_layer"]
    else:
        produced = _e2e(wl, setup_times, untraced)
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(produced) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {m["name"]: {"value": float(produced.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    detail = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas": _blas(), "setup_s": setup_times, "samples_s": traced if args.trace else untraced,
        "failures": run.failures,
    }
    if args.trace:
        detail["untraced_samples_s"] = untraced
        detail["layers"] = _layer_table(wl, summary)
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.npz")
    (OUT / "results" / f"{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    for msg in run.failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}  "
          f"BLAS {_blas()}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:14.4f} {m['unit']}")
    else:
        print(f"  {'setup_s':28s} {metrics['setup_s']['value']:12.4f} s    median of {len(setup_times)} set-ups")
        print(f"  {'peak_rss_mb':28s} {metrics['peak_rss_mb']['value']:12.4f} MB")
        for slot, kind in zip(("op_a_ms", "op_b_ms"), wl.kinds):
            label, unit, scale = wl.display[kind]
            xs = untraced[kind]
            if not xs:
                print(f"  {label} ({slot}): no samples")
                continue
            line = f"  {label + ' (' + slot + ')':28s} {statistics.median(xs) * scale:12.4f} {unit:4s} n={len(xs)}"
            t = tail(xs)
            if t:
                line += f"  p{t[0]}={t[1] * scale:.4f} {unit}"
            print(line)
    print(f"  attempted {run.attempted}  failed {run.failed}  correct {str(not run.failures).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
