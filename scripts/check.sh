#!/bin/sh
# Repo check runner: tier-1 test suite plus the observability battery.
#
# Test order is deterministic (pytest collects files alphabetically and
# we disable random ordering if the pytest-randomly plugin happens to
# be installed), so failures bisect cleanly.
set -e

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

# no stage may write into the checkout: record the working tree's
# status now and compare it after the last stage (skipped quietly
# outside a git work tree)
STATUS_BEFORE="$(mktemp)"
trap 'rm -f "$STATUS_BEFORE"' EXIT
IN_GIT=
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    IN_GIT=1
    git status --porcelain > "$STATUS_BEFORE"
fi

echo "== tier-1 test suite =="
python -m pytest -x -q -p no:randomly tests

echo "== observability battery (pytest -m obs) =="
python -m pytest -q -p no:randomly -m obs tests

echo "== obs-analytics: explain / diff / meta-experiment markers =="
python -m pytest -q -p no:randomly -m obs_analytics tests

echo "== batch storage path: correctness + identity markers (pytest -m batch) =="
python -m pytest -q -p no:randomly -m batch tests

echo "== parse: compiled-parser battery (pytest -m parse) =="
python -m pytest -q -p no:randomly -m parse tests

echo "== query cache: incremental engine markers (pytest -m qcache) =="
python -m pytest -q -p no:randomly -m qcache tests

echo "== diffdb: cross-backend differential battery (pytest -m diffdb) =="
python -m pytest -q -p no:randomly -m diffdb tests

echo "== e2e benchmark: harness smoke (fused-vs-unfused digests, n_runs, cross-backend agreement) =="
python -m pytest -q -p no:randomly benchmarks/e2e/test_e2e_smoke.py

echo "== faults: injection / retry / crash-recovery markers (pytest -m faults) =="
python -m pytest -q -p no:randomly -m faults tests

echo "== faults: fsck round-trip on a deliberately corrupted fixture db =="
FSCK_DIR="$(mktemp -d)"
trap 'rm -rf "$STATUS_BEFORE" "$FSCK_DIR"' EXIT
python - "$FSCK_DIR" <<'EOF'
import sys
sys.path.insert(0, "tests")
from conftest import fill_simple, make_simple_experiment
from repro.db import SQLiteServer

server = SQLiteServer(sys.argv[1])
exp = make_simple_experiment(server, "fixture")
fill_simple(exp, reps=1)
db = exp.store.db
# one instance of each repairable damage class
db.create_table("pbtmp_leak_0", [("v", "REAL")])
db.create_table("pbc_deadbeef", [("v", "REAL")])
db.execute("INSERT INTO pb_run_files (run_index, filename, checksum) "
           "VALUES (999, 'ghost.sum', 'x')")
db.create_table("rundata_999", [("pb_dataset", "INTEGER")])
db.commit()
exp.close()
EOF
# dry run must flag the damage (exit 4), repair must fix it (exit 0),
# and a second dry run must come back clean
perfbase() {
    python -c "import sys; from repro.cli.main import main; \
sys.exit(main(sys.argv[1:]))" "$@"
}
perfbase fsck -e fixture --dbdir "$FSCK_DIR" --dry-run \
    && { echo "fsck --dry-run missed the damage"; exit 1; } || test $? -eq 4
perfbase fsck -e fixture --dbdir "$FSCK_DIR"
perfbase fsck -e fixture --dbdir "$FSCK_DIR" --dry-run

echo "== sentinel: regression-sentinel battery (pytest -m sentinel) =="
python -m pytest -q -p no:randomly -m sentinel tests

echo "== sentinel: baseline -> planted latency -> perfbase check exits 3 =="
SENTINEL_DIR="$(mktemp -d)"
trap 'rm -rf "$STATUS_BEFORE" "$FSCK_DIR" "$SENTINEL_DIR"' EXIT
perfbase baseline add ci --samples 4 --dbdir "$SENTINEL_DIR"
# subshell: a VAR=x prefix on a shell *function* call leaks the
# assignment in some POSIX shells, which would poison the clean re-run
( export PERFBASE_FAULTS="latency@db.run:ms=5"
  perfbase check --against ci --samples 2 --min-samples 4 \
      --dbdir "$SENTINEL_DIR" ) \
    && { echo "check missed the planted slowdown"; exit 1; } \
    || test $? -eq 3
# a clean re-run of the same check must pass again
perfbase check --against ci --samples 2 --min-samples 4 \
    --dbdir "$SENTINEL_DIR"
# baselines must survive a consistency pass over their experiment
perfbase fsck -e perfbase_sentinel --dbdir "$SENTINEL_DIR" --dry-run

echo "== pushdown: chain-fusion battery (pytest -m pushdown) =="
python -m pytest -q -p no:randomly -m pushdown tests

echo "== pushdown/parallel: fused, unfused and 2-node CLI artifacts are byte-identical =="
PUSHDOWN_DIR="$(mktemp -d)"
trap 'rm -rf "$STATUS_BEFORE" "$FSCK_DIR" "$SENTINEL_DIR" \
    "$PUSHDOWN_DIR"' EXIT
python - "$PUSHDOWN_DIR" <<'EOF2'
import sys, pathlib
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)
ws = pathlib.Path(sys.argv[1])
(ws / "experiment.xml").write_text(experiment_xml())
(ws / "input.xml").write_text(input_xml())
(ws / "fig8.xml").write_text(fig8_query_xml())
(ws / "stddev.xml").write_text(stddev_query_xml())
results = ws / "results"
results.mkdir()
for fname, content in generate_campaign(repetitions=2):
    (results / fname).write_text(content)
EOF2
perfbase setup -d "$PUSHDOWN_DIR/experiment.xml" --dbdir "$PUSHDOWN_DIR/db"
perfbase input -e b_eff_io -d "$PUSHDOWN_DIR/input.xml" \
    --dbdir "$PUSHDOWN_DIR/db" "$PUSHDOWN_DIR"/results/*
# fig8 fuses into one group (two source->max chains joined by the
# comparison); stddev materialises its fan-out source, then fuses the
# mean/spread/combiner group over it
for q in fig8 stddev; do
    perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/$q.xml" --no-cache \
        -o "$PUSHDOWN_DIR/fused/$q" --dbdir "$PUSHDOWN_DIR/db"
    perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/$q.xml" --no-cache \
        --no-pushdown -o "$PUSHDOWN_DIR/plain/$q" --dbdir "$PUSHDOWN_DIR/db"
    perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/$q.xml" --no-cache \
        --parallel 2 -o "$PUSHDOWN_DIR/par/$q" --dbdir "$PUSHDOWN_DIR/db"
    # a cached 2-node run fills the cache, the next one runs warm
    perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/$q.xml" --parallel 2 \
        -o "$PUSHDOWN_DIR/par_cold/$q" --dbdir "$PUSHDOWN_DIR/db"
    perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/$q.xml" --parallel 2 \
        --profile -o "$PUSHDOWN_DIR/par_warm/$q" --dbdir "$PUSHDOWN_DIR/db" \
        > "$PUSHDOWN_DIR/par_warm_$q.log"
done
for run in plain par par_cold par_warm; do
    diff -r "$PUSHDOWN_DIR/fused" "$PUSHDOWN_DIR/$run"
done
# the warm profile lists every fig8 element, upfront cache hits included
test "$(grep -cE '^[A-Za-z0-9_]+ +(source|operator|combiner|output) ' \
    "$PUSHDOWN_DIR/par_warm_fig8.log")" -eq 8

echo "== metrics: a traced serial fig8 counts one db.statements per db span (both backends) =="
perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/fig8.xml" --no-cache \
    -o "$PUSHDOWN_DIR/counted/sqlite" --dbdir "$PUSHDOWN_DIR/db" \
    --trace "$PUSHDOWN_DIR/counted_sqlite.jsonl"
# the memory backend lives in-process: set up, import and query in one
python - "$PUSHDOWN_DIR" <<'EOF4'
import glob, sys
from repro.cli.main import main
ws = sys.argv[1]
memory = ["--backend", "memory", "--dbdir", f"{ws}/memdb"]
for argv in (["setup", "-d", f"{ws}/experiment.xml"],
             ["input", "-e", "b_eff_io", "-d", f"{ws}/input.xml",
              *sorted(glob.glob(f"{ws}/results/*"))],
             ["query", "-e", "b_eff_io", "-q", f"{ws}/fig8.xml",
              "--no-cache", "-o", f"{ws}/counted/memory",
              "--trace", f"{ws}/counted_memory.jsonl"]):
    if main(argv + memory) != 0:
        sys.exit(1)
EOF4
for backend in sqlite memory; do
    trace="$PUSHDOWN_DIR/counted_$backend.jsonl"
    spans="$(grep -c '"kind": "db"' "$trace")"
    statements="$(perfbase metrics dump --trace-file "$trace" --json \
        | python -c 'import json, sys
print(json.load(sys.stdin)["metrics"]["db.statements"]["value"])')"
    if [ "$spans" -ne "$statements" ]; then
        echo "$backend: $statements db.statements, $spans db spans"
        exit 1
    fi
done

echo "== query cache: cached re-analysis after an import is byte-identical =="
# one more listless/ufs run: it matches one source of each query, so
# the cached re-runs mix hits on the untouched chains with fused misses
python - "$PUSHDOWN_DIR" <<'EOF3'
import sys, pathlib
from repro.workloads.beffio import generate_campaign
more = pathlib.Path(sys.argv[1]) / "more"
more.mkdir()
for fname, content in generate_campaign(techniques=("listless",),
                                        repetitions=1, seed=7):
    (more / fname).write_text(content)
EOF3
perfbase input -e b_eff_io -d "$PUSHDOWN_DIR/input.xml" \
    --dbdir "$PUSHDOWN_DIR/db" "$PUSHDOWN_DIR"/more/*
for q in fig8 stddev; do
    perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/$q.xml" \
        -o "$PUSHDOWN_DIR/re_serial/$q" --dbdir "$PUSHDOWN_DIR/db"
    perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/$q.xml" --parallel 2 \
        -o "$PUSHDOWN_DIR/re_par/$q" --dbdir "$PUSHDOWN_DIR/db"
    perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/$q.xml" --no-cache \
        -o "$PUSHDOWN_DIR/re_fresh/$q" --dbdir "$PUSHDOWN_DIR/db"
done
diff -r "$PUSHDOWN_DIR/re_fresh" "$PUSHDOWN_DIR/re_serial"
diff -r "$PUSHDOWN_DIR/re_fresh" "$PUSHDOWN_DIR/re_par"
# the import changed the results, so serving stale ones would show
if diff -rq "$PUSHDOWN_DIR/fused" "$PUSHDOWN_DIR/re_fresh" > /dev/null; then
    echo "the imported run changed no query result"; exit 1
fi

echo "== service: multi-tenant service battery (pytest -m service) =="
python -m pytest -q -p no:randomly -m service tests

echo "== service: stress smoke under injected faults (CLI) =="
perfbase service stress --scratch --clients 200 --shards 4 \
    --faults "seed=11;lock@db.run:p=0.02;io@db.commit:p=0.01"

if [ -n "$IN_GIT" ]; then
    echo "== working tree: no stage changed the checkout =="
    if ! git status --porcelain | diff "$STATUS_BEFORE" -; then
        echo "check.sh changed the working tree (< before, > after)"
        exit 1
    fi
fi
