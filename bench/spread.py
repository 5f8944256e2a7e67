"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload serve --seeds 1-10 --seconds 30
    python3 bench/spread.py --workload sent-add --seeds 1-10 --out bench/baseline.json

Each run is a fresh ``bench/run.py`` process. For every metric the script
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the interquartile distance as a share of the median, next
to the metric's bound from ``BENCHMARK.json``. With ``--out`` the summary
is merged into a JSON file under the workload's name, together with the
commit, machine, settings and the per-run values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "runs": len(values), "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the summary into this JSON file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        tag = f"{args.workload}-ref-seed{seed}{'-trace' if args.trace else ''}"
        with open(os.path.join(ROOT, ".bench_run", f"result-{tag}.json"), encoding="utf-8") as fh:
            runs.append(json.load(fh))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        s["samples_per_run"] = [r["metrics"][name]["samples"] for r in runs]
        summary[name] = s
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound:.2f}" + (
            "  OVER A THIRD" if s["spread"] > bound / 3 else "")
        print(f"{name:34s} median {s['median']:12.6g} q1 {s['q1']:12.6g} "
              f"q3 {s['q3']:12.6g} spread {s['spread']:.4f}{flag}")

    if args.out:
        try:
            with open(args.out, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            baseline = {}
        last = runs[-1]
        baseline[args.workload + ("/trace" if args.trace else "")] = {
            "commit": last["commit"],
            "code": last["code"],
            "machine": last["machine"],
            "settings": last["settings"],
            "seconds": seconds,
            "seeds": args.seeds,
            "metrics": summary,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
