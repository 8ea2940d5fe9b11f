#!/bin/sh
# Repo check runner: the tier-1 test suite once, then end-to-end stages
# that drive the CLI and the e2e benchmark's smoke test.  The pytest
# markers (obs, diffdb, faults, ...) select batteries for a focused
# run; every marked test is already part of the tier-1 suite.
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

# an import's db.rows_affected on both backends is the tier-1 test
# tests/diffdb/test_importer_roundtrip.py::
# test_batch_import_counts_the_same_rows_affected
echo "== e2e benchmark: harness smoke (fused-vs-unfused digests, n_runs, cross-backend agreement) =="
python -m pytest -q -p no:randomly benchmarks/e2e/test_e2e_smoke.py

# the fsck round-trip on a deliberately damaged experiment (dry run
# exits 4, repair 0, a second dry run 0) is the tier-1 test
# tests/cli/test_fsck_roundtrip.py
perfbase() {
    python -c "import sys; from repro.cli.main import main; \
sys.exit(main(sys.argv[1:]))" "$@"
}

echo "== sentinel: baseline -> planted latency -> perfbase check exits 3 =="
SENTINEL_DIR="$(mktemp -d)"
trap 'rm -rf "$STATUS_BEFORE" "$SENTINEL_DIR"' EXIT
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

# the fused, unfused and 2-node artefact comparison is the tier-1 test
# tests/cli/test_pushdown_artifacts.py; the trace-diff stage below runs
# on this workspace: the imported campaign
echo "== workspace: b_eff_io campaign, imported =="
PUSHDOWN_DIR="$(mktemp -d)"
trap 'rm -rf "$STATUS_BEFORE" "$SENTINEL_DIR" "$PUSHDOWN_DIR"' EXIT
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

# that a traced query counts one db.statements per db span, and as
# many as an untraced one, is the tier-1 test tests/obs/test_registry.py::
# test_untraced_run_counts_like_a_traced_one; this traced run is the
# clean side of the trace-diff stage
echo "== trace-diff: planted db.run latency regresses fig8, the reverse diff improves =="
perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/fig8.xml" --no-cache \
    -o "$PUSHDOWN_DIR/counted/sqlite/fig8" --dbdir "$PUSHDOWN_DIR/db" \
    --trace "$PUSHDOWN_DIR/counted_sqlite_fig8.jsonl"
# subshell for the fault plan, as in the sentinel stage
( export PERFBASE_FAULTS="latency@db.run:ms=5"
  perfbase query -e b_eff_io -q "$PUSHDOWN_DIR/fig8.xml" --no-cache \
      -o "$PUSHDOWN_DIR/planted/fig8" --dbdir "$PUSHDOWN_DIR/db" \
      --trace "$PUSHDOWN_DIR/planted_sqlite_fig8.jsonl" )
clean="$PUSHDOWN_DIR/counted_sqlite_fig8.jsonl"
planted="$PUSHDOWN_DIR/planted_sqlite_fig8.jsonl"
perfbase trace-diff "$clean" "$planted" --min-ms 5 --fail-on-regression \
    && { echo "trace-diff missed the planted latency"; exit 1; } \
    || test $? -eq 3
perfbase trace-diff "$planted" "$clean" --min-ms 5 --fail-on-regression \
    > "$PUSHDOWN_DIR/reverse_diff.log"
grep -q "improved" "$PUSHDOWN_DIR/reverse_diff.log" \
    || { cat "$PUSHDOWN_DIR/reverse_diff.log"; exit 1; }

# the cached re-analysis after imports and a delete, on SQLite and on
# the columnar engine, is the tier-1 test
# tests/cli/test_cached_reanalysis.py; the CLI stress run under lock
# and commit faults, and the removal of its scratch directory, is the
# tier-1 test tests/cli/test_stress_cli.py

if [ -n "$IN_GIT" ]; then
    echo "== working tree: no stage changed the checkout =="
    if ! git status --porcelain | diff "$STATUS_BEFORE" -; then
        echo "check.sh changed the working tree (< before, > after)"
        exit 1
    fi
fi
