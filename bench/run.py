"""jointvec benchmark: train, checkpoint, resume, classify and query, timed.

Run from the repository root:

    python3 bench/run.py --workload sent-add --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop. The run generates its inputs from
``--seed`` with ``jointvec.synth`` (``inputs.py``), then runs jobs of the
workload (``jobs.py``): the public calls that ``jointvec train``, ``jointvec
eval transfer`` and ``jointvec query`` make, i.e. set-up (vocabularies,
corpora, documents, tables, accumulators), ``train_joint``, ``checkpoint``,
``resume``, ``transfer_matrix`` and ``nearest_neighbors``. Jobs repeat
while another one still fits in ``--seconds``; at least five run. Each
time is the median over jobs; query percentiles pool every query of the run.

Times are reference seconds: measured seconds scaled by a calibration
loop timed around each block and at every epoch boundary (see
``jobs.Clock``), because a shared host's speed can drift by up to 2x
between and within runs. Measured (raw) values are printed beside them
and kept in the result record.

Workloads (sizes are for ``--scale ref``; ``--scale toy`` is the smoke size):

* ``sent-add``: sentence training with ADD at d=128, k=50, batch=50 on a
  400-pair en-de twin corpus over 3,000 latent words, 3 epochs from a
  fresh init, so each job holds the backprop-heavy first epoch (about 90%
  of hinge terms active) and the mostly-forward last one (about 15%).
* ``joint-doc-bi``: pivot-joint document training with BI and the combined
  document+sentence signal, en-de and en-fr, 30 four-sentence parallel
  documents each, 2 epochs (about 80% then 12% active).
* ``serve``: a planted 3-language model of 2,000 x 128 rows per language
  whose translations share one latent row. Its time goes to checkpoint
  write/read, a 6-pair transfer matrix over 200 documents per language and
  queries; its training step is a one-epoch update on 2 x 150 pairs in
  which under 1% of hinge terms are active (mostly forward).

Sizes are small so that a 30-second run holds five to ten jobs: on a
shared host a median over many short jobs is far steadier than one long
job.

Correctness checks (each failure fails its operation; any failure makes the
exit code 1): finite epoch losses, the last below the first; alignment P@1
above a floor; one loss sequence and table digest per workload, seed and
code, across the jobs of a run and across runs; ``resume(checkpoint(x))``
equals ``x``; each query's top-1 score equals a brute-force recomputation,
and on ``serve`` each single-language query's top-1 is the planted
translation; CLDC accuracy above the majority baseline for every ordered
language pair.

``--trace 1`` trains once untraced, then runs one job with the span tracer
of ``spans.py`` installed and reports the per-layer metrics plus the
tracing overhead. Spans are saved under ``.bench_run/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit and sample count, and ``ops_failed_frac``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
MIN_JOBS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_pairs_per_s", "1/s"),
    ("checkpoint_write_s", "s"),
    ("checkpoint_read_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p95", "ms"),
    ("cldc_docs_per_s", "1/s"),
]

PER_LAYER = [
    ("corpus.load_s", "s"),
    ("corpus.noise_calls", "count"),
    ("corpus.noise_s", "s"),
    ("composition.compose_calls", "count"),
    ("composition.rows_composed", "count"),
    ("composition.compose_s", "s"),
    ("composition.backprop_calls", "count"),
    ("composition.backprop_s", "s"),
    ("objective.loss_calls", "count"),
    ("objective.self_s", "s"),
    ("objective.merge_s", "s"),
    ("objective.active_fraction", "frac"),
    ("objective.final_loss_per_pair", "loss"),
    ("objective.align_p_at_1", "frac"),
    ("training.batches", "count"),
    ("training.rows_updated", "count"),
    ("training.adagrad_s", "s"),
    ("training.self_s", "s"),
    ("training.checkpoint_s", "s"),
    ("training.resume_s", "s"),
    ("embeddings.init_s", "s"),
    ("embeddings.export_s", "s"),
    ("embeddings.export_bytes", "B"),
    ("embeddings.import_s", "s"),
    ("embeddings.nn_calls", "count"),
    ("embeddings.nn_s", "s"),
    ("embeddings.rows_scanned", "count"),
    ("evaluation.represent_calls", "count"),
    ("evaluation.represent_s", "s"),
    ("evaluation.represent_unique_frac", "frac"),
    ("evaluation.perceptron_s", "s"),
    ("trace.untraced_pairs_per_s", "1/s"),
    ("trace.traced_pairs_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
]


def _import_package() -> None:
    """Import jointvec from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import jointvec
    except ImportError as exc:
        sys.exit(f"bench: cannot import jointvec from {SRC}: {exc}")
    if not os.path.abspath(jointvec.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: jointvec resolved to {jointvec.__file__}, not under {SRC}")


def _code_hash() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "jointvec"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(samples) -> dict:
    """name -> (value, unit, sample count) for every metric the jobs measured."""
    import numpy as np

    out = {}
    for name, unit in END_TO_END:
        if name == "peak_rss_mb":
            out[name] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, unit, 1)
        elif name.startswith("query_ms_"):
            if samples.query_ms:
                q = int(name.rsplit("_p", 1)[1])
                out[name] = (float(np.percentile(samples.query_ms, q)), unit, len(samples.query_ms))
        elif getattr(samples, name):
            values = getattr(samples, name)
            out[name] = (statistics.median(values), unit, len(values))
    return out


def per_layer_metrics(summary: dict, samples, untraced_rate: float) -> dict:
    """Per-layer metrics of one traced job (set-up done once), plus tracing overhead.

    Span times are measured seconds, not reference seconds.
    """
    s = summary
    represent = s["evaluation.represent"]
    traced_rate = samples.train_pairs_per_s[-1]
    values = {
        "corpus.load_s": s["corpus.load"]["total_s"],
        "corpus.noise_calls": s["corpus.noise"]["calls"],
        "corpus.noise_s": s["corpus.noise"]["total_s"],
        "composition.compose_calls": s["composition.compose"]["calls"],
        "composition.rows_composed": s["composition.compose"]["work"],
        "composition.compose_s": s["composition.compose"]["total_s"],
        "composition.backprop_calls": s["composition.backprop"]["calls"],
        "composition.backprop_s": s["composition.backprop"]["total_s"],
        "objective.loss_calls": s["objective.loss"]["calls"],
        "objective.self_s": s["objective.loss"]["self_s"],
        "objective.merge_s": s["objective.merge"]["total_s"],
        # every epoch attempts the same number of hinge terms, so the mean is exact
        "objective.active_fraction": statistics.fmean(samples.active_fractions),
        "objective.final_loss_per_pair": samples.epoch_losses[-1] / samples.pairs_per_epoch,
        "objective.align_p_at_1": samples.align_p_at_1[-1],
        "training.batches": s["training.adagrad"]["calls"],
        "training.rows_updated": s["training.adagrad"]["work"],
        "training.adagrad_s": s["training.adagrad"]["total_s"],
        "training.self_s": s["training.train"]["self_s"],
        "training.checkpoint_s": s["training.checkpoint"]["self_s"],
        "training.resume_s": s["training.resume"]["self_s"],
        "embeddings.init_s": s["embeddings.init"]["total_s"],
        "embeddings.export_s": s["embeddings.export"]["total_s"],
        "embeddings.export_bytes": s["embeddings.export"]["work"],
        "embeddings.import_s": s["embeddings.import"]["total_s"],
        "embeddings.nn_calls": s["embeddings.nn"]["calls"],
        "embeddings.nn_s": s["embeddings.nn"]["total_s"],
        "embeddings.rows_scanned": s["embeddings.nn"]["work"],
        "evaluation.represent_calls": represent["calls"],
        "evaluation.represent_s": represent["total_s"],
        "evaluation.represent_unique_frac": (
            represent["distinct_work"] / represent["calls"] if represent["calls"] else 0.0
        ),
        "evaluation.perceptron_s": s["evaluation.perceptron"]["total_s"],
        "trace.untraced_pairs_per_s": untraced_rate,
        "trace.traced_pairs_per_s": traced_rate,
        "trace.overhead_frac": untraced_rate / traced_rate - 1.0,
    }
    return {name: (float(values[name]), unit, 1) for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# run loop


def run(args) -> int:
    import inputs
    import jobs
    import spans

    workload = jobs.WORKLOADS[args.workload]
    tag = f"{workload.name}-{args.scale}-seed{args.seed}{'-trace' if args.trace else ''}"
    os.makedirs(RUN_DIR, exist_ok=True)
    work_dir = os.path.join(RUN_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    ledger, samples = jobs.Ledger(), jobs.Samples()
    extra = {}
    try:
        t0 = time.perf_counter()
        make = getattr(inputs, workload.make_inputs)
        generated = make(work_dir, args.seed, **workload.sizes[args.scale])
        extra["input_generation_s"] = time.perf_counter() - t0
        job = jobs.Job(workload, generated, args.seed, args.scale, work_dir)
        clock = jobs.Clock()

        if args.trace:
            job.run(ledger, samples, clock, setup_reps=1, train_only=True)
            untraced_rate = samples.train_pairs_per_s[-1]
            tracer = spans.Tracer()
            with tracer:
                ok = job.run(ledger, samples, clock, setup_reps=1)
            spans_path = os.path.join(RUN_DIR, f"spans-{tag}.npz")
            tracer.save(spans_path)
            summary = tracer.summary()
            extra.update(spans_file=spans_path, absent=tracer.absent, layers=summary)
            metrics = per_layer_metrics(summary, samples, untraced_rate) if ok else {}
        else:
            started = time.perf_counter()
            longest = 0.0
            while True:
                t_job = time.perf_counter()
                if not job.run(ledger, samples, clock):
                    break
                longest = max(longest, time.perf_counter() - t_job)
                enough = len(samples.digests) >= MIN_JOBS
                if enough and time.perf_counter() - started + longest > args.seconds:
                    break
            metrics = end_to_end_metrics(samples)
        _check_repro(workload, args, samples, ledger)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    config = dataclasses.asdict(job.config)
    config["kind"] = job.config.kind.value
    record = {
        "workload": workload.name, "scale": args.scale, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "commit": _commit(), "code": _code_hash(), "machine": _machine(),
        "settings": {
            "train": config, "inputs": workload.sizes[args.scale],
            "queries_per_job": job.n_queries, "query_n": jobs.QUERY_N,
            "setup_reps_per_job": 1 if args.trace else jobs.SETUP_REPS,
            "reference_calibration_s": jobs.REFERENCE_CALIBRATION_S,
        },
        "metrics": {n: {"value": v, "unit": u, "samples": k} for n, (v, u, k) in metrics.items()},
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.messages,
        "samples": dataclasses.asdict(samples),
        **extra,
    }
    with open(os.path.join(RUN_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    _print_report(record, metrics, samples, ledger)
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


def _check_repro(workload, args, samples, ledger) -> None:
    """Same workload, scale, seed and code must give the same digest in every run."""
    if not samples.digests:
        return
    key = f"{workload.name}|{args.scale}|{args.seed}|{_code_hash()}"
    path = os.path.join(RUN_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    digest = samples.digests[0]
    previous = known.setdefault(key, digest)
    ledger.record("reproducibility", [] if previous == digest else [
        f"digest {digest[:12]} differs from an earlier run's {previous[:12]}"
    ])
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1)
    os.replace(tmp, path)


def _print_report(record, metrics, samples, ledger) -> None:
    import numpy as np

    print(f"workload {record['workload']} seed {record['seed']} scale {record['scale']} "
          f"trace {record['trace']} code {record['code']} jobs {len(samples.digests)}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={n}")
    frac = ledger.failed / ledger.attempted
    print(f"  {'ops_failed_frac':34s} {frac:14.6g} {'frac':6s} n={ledger.attempted}")
    if samples.raw_query_ms and not record["trace"]:
        print(f"  measured, not reference: train_pairs_per_s "
              f"{statistics.median(samples.raw_train_pairs_per_s):.6g}, checkpoint_write_s "
              f"{statistics.median(samples.raw_checkpoint_write_s):.6g}, query_ms_p50 "
              f"{np.percentile(samples.raw_query_ms, 50):.6g}; speed factors after training "
              f"{[round(f, 3) for f in samples.speed_factors]}")
    for name in record.get("absent", []):
        print(f"  absent {name}")
    print(f"  epoch losses {samples.epoch_losses}")
    print(f"  active fractions {samples.active_fractions}")
    print(f"  alignment P@1 {samples.align_p_at_1}")
    for message in ledger.messages:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    _import_package()
    import jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("ref", "toy"), default="ref",
                        help="toy runs every step at smoke-test size")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
