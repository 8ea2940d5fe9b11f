"""End-to-end benchmark of the perfbase reproduction.

Runs the paper's Section 5 campaign on both storage backends, cached
re-analysis beside imports, and a mixed load on the experiment service,
each workload in its own subprocess (``workloads.py``)::

    python3 benchmarks/e2e/run.py --seed 1 [--workload NAME]
                                  [--seconds 12] [--trace 0|1]

It prints one row per metric, ``workload metric value unit
(n=samples)``, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace
0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``, at a
reference host speed; the wall-clock values and a few rows too noisy to
gate on are printed as extra rows (see README.md).  With
``--trace 1`` the workload runs twice with the same seed: untraced, then
with the layer wrappers of ``layers.py``; the per-layer metrics come from
the second run, and the spans go to ``.e2e_trace/<workload>/spans.jsonl``.
Without ``--workload`` every workload runs and the metric names are
prefixed with the workload's.

The exit code is 1 when a correctness check fails or a workload cannot
run, and 2 when the checkout has no ``src/repro``.  Run it from anywhere; it reads and writes only inside the checkout
(scratch files go to ``.e2e_work/`` and are removed at the end).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

from layers import LAYER_ORDER

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: a worker that runs longer than this is stopped and counts as failed
WORKER_TIMEOUT_S = 150


class WorkloadError(Exception):
    """A workload subprocess failed or printed no result."""


def run_worker(workload: str, seed: int, seconds: float,
               work_dir: pathlib.Path,
               trace_dir: pathlib.Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work-dir", str(work_dir)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    # a fixed hash seed makes dict and set order, and with it the order of
    # the program's statements, repeat from run to run; SQLite's and
    # Python's temporary files stay inside the checkout
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(work_dir),
               SQLITE_TMPDIR=str(work_dir))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{workload}: no result within "
                            f"{WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"{workload}: worker exited with "
                            f"{proc.returncode}")
    return json.loads(lines[-1])


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """The per-layer metrics of ``BENCHMARK.json`` from a traced and an
    untraced run of the same workload and seed.

    Counts are totals over the traced run; times are self milliseconds
    per timed operation at the reference host speed.  The trace overhead
    compares the time both runs spent in timed operations, also at the
    reference speed.
    """
    summary = traced["layers"]
    layers, ops = summary["layers"], summary["ops"]

    def total(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def per_op_ms(seconds: float) -> float:
        return seconds / ops * 1e3

    query = [name for name in layers if name.startswith("query.")]
    elements = [name for name in query if name != "query.engine"]
    qcache, service = traced["qcache"], traced["service"]
    probes = qcache.get("hits", 0) + qcache.get("misses", 0)
    return {
        "import.self_ms": (per_op_ms(total("import", "self_s")), "ms"),
        "parse.calls": (total("parse", "calls"), "count"),
        "parse.bytes": (total("parse", "bytes"), "B"),
        "parse.self_ms": (per_op_ms(total("parse", "self_s")), "ms"),
        "db.store.calls": (total("db.store", "calls"), "count"),
        "db.store.self_ms": (per_op_ms(total("db.store", "self_s")), "ms"),
        "db.store.bytes_per_input_byte": (traced["storage_ratio"],
                                          "ratio"),
        "db.statements": (total("db", "calls"), "count"),
        "db.rows_fetched": (total("db", "rows"), "count"),
        "db.errors": (total("db", "errors"), "count"),
        "db.self_ms": (per_op_ms(total("db", "self_s")), "ms"),
        "db.commits": (total("db.txn", "commits"), "count"),
        "db.txn.self_ms": (per_op_ms(total("db.txn", "self_s")), "ms"),
        "query.elements": (sum(total(q, "calls") for q in elements),
                           "count"),
        "query.self_ms": (per_op_ms(sum(total(q, "self_s")
                                        for q in query)), "ms"),
        "pushdown.groups_run": (total("pushdown", "calls"), "count"),
        "pushdown.statements_saved": (total("pushdown", "saved"), "count"),
        "qcache.hits": (qcache.get("hits", 0), "count"),
        "qcache.misses": (qcache.get("misses", 0), "count"),
        "qcache.stores": (qcache.get("stores", 0), "count"),
        "qcache.evictions": (qcache.get("evictions", 0), "count"),
        "qcache.hit_ratio": (qcache.get("hits", 0) / probes if probes
                             else 0.0, "ratio"),
        "output.calls": (total("output", "calls"), "count"),
        "output.bytes": (total("output", "bytes"), "B"),
        "output.self_ms": (per_op_ms(total("output", "self_s")), "ms"),
        "service.ops": (total("service", "calls"), "count"),
        "service.rejections": (service.get("service.rejections", 0),
                               "count"),
        "service.pool_timeouts": (service.get("service.pool_timeouts", 0),
                                  "count"),
        "bench.unattributed_ms": (per_op_ms(summary["unattributed_s"]),
                                  "ms"),
        "bench.trace_overhead": (traced["busy_s"] / untraced["busy_s"],
                                 "ratio"),
    }


def print_layer_table(workload: str, summary: dict) -> None:
    """calls, self seconds and self ms per operation of every layer, at
    the reference host speed."""
    ops = summary["ops"]
    print(f"{workload}: {ops} timed operations, "
          f"{summary['op_wall_s']:.4f} s wall, "
          f"{summary['op_s']:.4f} s at the reference speed")
    print(f"  {'layer':16s} {'calls':>9s} {'self s':>10s} "
          f"{'ms/op':>9s} {'errors':>7s} {'error s':>8s}")
    rows = [(layer, summary["layers"][layer]) for layer in LAYER_ORDER
            if layer in summary["layers"]]
    for layer, entry in rows:
        print(f"  {layer:16s} {entry['calls']:9d} {entry['self_s']:10.4f} "
              f"{entry['self_s'] / ops * 1e3:9.4f} {entry['errors']:7d} "
              f"{entry['error_s']:8.4f}")
    unattributed = summary["unattributed_s"]
    print(f"  {'unattributed':16s} {'':9s} {unattributed:10.4f} "
          f"{unattributed / ops * 1e3:9.4f}")
    print(f"  self times + unattributed = wall within "
          f"{summary['max_identity_error']:.2e} per operation")


def run_workload(workload: str, args, work_dir: pathlib.Path) -> dict:
    """One workload's result: ``correct``, ``attempted``, ``failed``,
    ``metrics`` (name -> (value, unit)), ``digest``."""
    untraced = run_worker(workload, args.seed, args.seconds,
                          work_dir / "untraced")
    result, problems = untraced, list(untraced["problems"])
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        result = run_worker(workload, args.seed, args.seconds,
                            work_dir / "traced",
                            ROOT / ".e2e_trace" / workload)
        problems += result["problems"]
        print_layer_table(workload, result["layers"])
        rows = {name: (value, unit, 1) for name, (value, unit)
                in layer_metrics(result, untraced).items()}
    else:
        rows = untraced["metrics"]
    metrics = {name: (value, unit) for name, (value, unit, _)
               in rows.items() if name in expected}
    if {name: unit for name, (_, unit) in metrics.items()} != expected:
        problems.append("metrics differ from BENCHMARK.json")
    for name, (value, unit, n) in rows.items():
        extra = "" if name in expected else ", not in BENCHMARK.json"
        print(f"{workload} {name} {value!r} {unit} (n={n}{extra})")
    for line in problems + result["errors"]:
        print(f"{workload}: {line}", file=sys.stderr)
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics,
            "digest": untraced["digest"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark; see the module docstring.")
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", choices=workloads,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="run length; scales every operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else workloads
    (ROOT / ".e2e_work").mkdir(exist_ok=True)
    work_dir = pathlib.Path(tempfile.mkdtemp(dir=ROOT / ".e2e_work"))
    try:
        results = {name: run_workload(name, args, work_dir / name)
                   for name in names}
    except WorkloadError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = all(r["correct"] for r in results.values())
    digests = {results[n]["digest"] for n in
               ("campaign_sqlite", "campaign_columnar") if n in results}
    if len(digests) > 1:
        print("campaign_sqlite and campaign_columnar artefacts differ",
              file=sys.stderr)
        correct = False
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
