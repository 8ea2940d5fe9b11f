"""Run the end-to-end benchmark several times and summarise each metric.

    python3 benchmarks/e2e/repeat.py --runs 10 --seed 1 [--fixed-seed]
                                     [--sets 2] [--workload NAME]
                                     [--seconds 12] [--trace 0|1]

Each run calls ``run.py`` once per workload, with seeds ``seed``,
``seed + 1``, ... (or ``seed`` every time with ``--fixed-seed``).  For
every metric it prints one row per workload: the median, the first and
third quartile (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median.  An
end-to-end metric's spread is marked ``WIDE`` when it reaches the bound
in ``BENCHMARK.json`` (``setup_s`` is exempt).  With ``--sets 2`` it runs
two sets of ``--runs`` runs and also prints how much the second set's
median is worse than the first's, marked ``WORSE`` beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct="
                         f"{result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repeat the end-to-end benchmark; see the docstring.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fixed-seed", action="store_true")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in SPEC["workloads"]])
    # values[set][workload][metric] -> one value per run
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.seed if args.fixed_seed else args.seed + i
            for workload in workloads:  # interleaved, so drift is shared
                for name, value in one_run(workload, seed, args).items():
                    values[s][workload].setdefault(name, []).append(value)
                print(f"set {s + 1} run {i + 1}/{args.runs} {workload} "
                      "done", file=sys.stderr)

    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    for metric in metrics:
        name, bound = metric["name"], metric.get("bound")
        sign = 1 if metric["better"] == "lower" else -1
        print(f"{name} ({metric['unit']}, {metric['better']} is better"
              + (f", bound {bound})" if bound is not None else ")"))
        for workload in workloads:
            row = f"  {workload:18s}"
            medians = []
            for per_set in values:
                q1, median, q3 = quartiles(per_set[workload][name])
                spread = (q3 - q1) / median if median else 0.0
                medians.append(median)
                wide = (bound is not None and name != "setup_s"
                        and spread >= bound)
                row += (f" median {median:12.6g} q1 {q1:12.6g} "
                        f"q3 {q3:12.6g} spread {spread:6.3f}"
                        + (" WIDE" if wide else "    "))
            if len(medians) == 2 and medians[0]:
                worse = sign * (medians[1] - medians[0]) / medians[0]
                row += f" | 2nd set worse by {worse:+.3f}"
                if bound is not None and worse > bound:
                    row += " WORSE"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
