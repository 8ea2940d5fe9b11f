"""The four workloads of the end-to-end benchmark, one per process.

``run.py`` starts this script once per workload and reads the JSON
object it prints as its last line::

    python3 benchmarks/e2e/workloads.py --workload campaign_sqlite \\
        --seed 1 --seconds 12 --work-dir DIR [--trace-dir DIR]

Every input comes from ``repro.workloads.beffio.generate_campaign`` with
the given seed and is written below ``--work-dir`` during set-up.  Every
workload is a closed loop of a fixed number of operations.  The counts
below are for a 12-second run, where the measured part takes 10-19 s on
a 2-core x86 host, depending on its load; ``--seconds`` scales the
number of rounds, cycles and client operations linearly, never the data
sizes.  Fixed counts make the traced and the untraced run do the same
work, and make the layer counts repeat exactly for a seed.

Latencies are reported at a reference host speed, measured next to each
operation by ``hostspeed.py``; set-up time leaves out writing the input
files.

Every kind of operation is spread over the whole run (campaigns repeat in
rounds, and every ``TRACE_EVERY``-th suite, cycle or client operation
runs under the program's tracer), so a burst of load from elsewhere on
the host shifts a few samples of each metric instead of all samples of
one metric.

With ``--trace-dir`` the wrappers of ``layers.py`` are installed for the
measured phases only, and their spans go to ``spans.jsonl`` there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import pathlib
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import layers
from hostspeed import WINDOW, HostSpeed, SetupClock

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro import Experiment  # noqa: E402  (after the path set-up)
from repro.db.memory_backend import MemoryDatabaseServer  # noqa: E402
from repro.db.sqlite_backend import SQLiteServer  # noqa: E402
from repro.obs import JsonLinesSink, Tracer, use_tracer  # noqa: E402
from repro.parse import Importer  # noqa: E402
from repro.service import ExperimentService  # noqa: E402
from repro.workloads.beffio import generate_campaign  # noqa: E402
from repro.workloads.beffio_assets import (  # noqa: E402
    experiment_xml, fig8_query_xml, input_xml, stddev_query_xml)
from repro.xmlio import (parse_experiment_xml, parse_input_xml,  # noqa: E402
                         parse_query_xml)

REFERENCE_SECONDS = 12
SETUP_REPEATS = 3

TECHNIQUES = ("listbased", "listless")
FILESYSTEMS = ("ufs", "nfs")
PROC_COUNTS = (4, 8, 16, 32)
FILES_PER_REP = len(TECHNIQUES) * len(FILESYSTEMS) * len(PROC_COUNTS)
#: the query suite every workload runs
SUITE_XML = (fig8_query_xml("read", "ufs"), fig8_query_xml("write", "nfs"),
             stddev_query_xml("listless", "ufs"),
             stddev_query_xml("listbased", "nfs"))

TRACE_EVERY = 4

# sizes of a 12-second run
CAMPAIGN_REPS = 50        #: 16 x 50 = 800 files, ~2.8 MB of input
CALL_FILES = 8            #: files per import call: 100 calls a round
ROUND_SUITES = 12         #: 36 queries and 12 traced ones a round
ROUNDS = 3
PRELOAD_REPS = 13         #: reanalysis: 4 x 13 runs per (technique, fs)
CYCLES = 100              #: 75 untraced and 25 traced
CYCLE_FILES = 2
SHARDS = 4
SHARD_REPS = 8            #: 16 x 8 = 128 runs per service shard
CLIENTS = 2
CLIENT_OPS = 960          #: per client thread, 240 of them traced
OP_MIX = (("run_records", 40), ("describe", 20), ("execute", 30),
          ("import_text", 10))


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def traced_turn(i: int) -> bool:
    return i % TRACE_EVERY == TRACE_EVERY - 1


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest(results) -> str:
    """Hash of every artefact a suite run rendered (``None`` = failed)."""
    h = hashlib.sha256()
    for i, result in enumerate(results):
        if result is None:
            h.update(f"{i}:failed\0".encode())
            continue
        for artifact in result.artifacts:
            h.update(f"{i}/{artifact.name}\0{artifact.content}\0".encode())
    return h.hexdigest()


def write_files(files, directory: pathlib.Path,
                clock: SetupClock) -> list[str]:
    """Write input files below ``directory``; set-up time stops meanwhile."""
    with clock.paused():
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, content in files:
            path = directory / name
            path.write_text(content)
            paths.append(str(path))
    return paths


def traced(trace_path: str, fn, *args, **kwargs):
    """Run ``fn`` the way a command with ``--trace FILE`` does: under a
    fresh tracer writing JSON lines, closed at the end."""
    tracer = Tracer(JsonLinesSink(trace_path))
    try:
        with use_tracer(tracer):
            return fn(*args, **kwargs)
    finally:
        tracer.close()


class Samples:
    """Latencies per operation kind plus outcome counts.

    ``wall_ms`` holds the wall times, ``ms`` the same times at the
    reference host speed (see ``hostspeed.py``), which is sampled just
    before each operation.  Each thread that times operations needs its
    own ``Samples``.
    """

    def __init__(self, recorder: layers.Recorder | None = None):
        self.recorder = recorder
        self.speed = HostSpeed()
        self.ms: dict[str, list[float]] = defaultdict(list)
        self.wall_ms: dict[str, list[float]] = defaultdict(list)
        self.runs: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, kind: str, fn, *args, **kwargs):
        """Run one operation.  Any exception counts as a failure, and the
        failed operation keeps its latency.  In a traced run the
        operation's span records the host-speed scale as ``scale``."""
        self.attempted += 1
        result = span = None
        self.speed.sample(1 if self.speed.recent else WINDOW)
        start = time.perf_counter()
        try:
            if self.recorder is None:
                result = fn(*args, **kwargs)
            else:
                with self.recorder.operation(kind) as span:
                    result = fn(*args, **kwargs)
        except Exception as exc:  # counted and reported, not raised
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        wall_ms = (time.perf_counter() - start) * 1e3
        scale = self.speed.scale()
        if span is not None:
            span.attrs["scale"] = scale
        self.wall_ms[kind].append(wall_ms)
        self.ms[kind].append(wall_ms * scale)
        if result is not None and hasattr(result, "n_imported"):
            self.runs[kind] += result.n_imported
        return result

    def merge(self, other: "Samples") -> None:
        for kind, values in other.ms.items():
            self.ms[kind].extend(values)
        for kind, values in other.wall_ms.items():
            self.wall_ms[kind].extend(values)
        for kind, n in other.runs.items():
            self.runs[kind] += n
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[:5 - len(self.errors)])


def suite(samples: Samples, kind: str, experiment, queries,
          trace_path: str | None = None, **kwargs) -> str:
    """One run of the query suite, one timed operation per query; the
    i-th query's operations are of kind ``<kind>.<i>``."""
    if trace_path is None:
        results = [samples.timed(f"{kind}.{i}", q.execute, experiment,
                                 **kwargs) for i, q in enumerate(queries)]
    else:
        results = [samples.timed(f"{kind}.{i}", traced, trace_path,
                                 q.execute, experiment, **kwargs)
                   for i, q in enumerate(queries)]
    return digest(results)


def beffio_experiment(server):
    definition = parse_experiment_xml(experiment_xml())
    return Experiment.create(server, definition.name,
                             list(definition.variables), definition.info)


def db_bytes(directory: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("*.db"))


def file_bytes(paths) -> int:
    return sum(pathlib.Path(p).stat().st_size for p in paths)


class Campaign:
    """Section 5's campaign, repeated in rounds on fresh experiments.

    A round creates the experiment, imports every file with
    ``import_files`` calls of ``CALL_FILES`` each, then runs the suite
    ``ROUND_SUITES`` times uncached with pushdown (``perfbase query
    --no-cache``); every ``TRACE_EVERY``-th suite runs under the
    program's tracer (``perfbase query --trace FILE``).
    """

    def __init__(self, backend: str, seed: int, scale: float):
        self.backend = backend
        self.seed = seed
        self.rounds = scaled(ROUNDS, scale)
        self.experiment = None

    def setup(self, directory: pathlib.Path, clock: SetupClock) -> None:
        self.directory = directory
        files = generate_campaign(techniques=TECHNIQUES,
                                  filesystems=FILESYSTEMS,
                                  proc_counts=PROC_COUNTS,
                                  repetitions=CAMPAIGN_REPS, seed=self.seed)
        self.paths = write_files(files, directory / "input", clock)
        self.queries = [parse_query_xml(x) for x in SUITE_XML]

    def teardown(self) -> None:
        if self.experiment is not None:
            self.experiment.close()
        shutil.rmtree(self.directory)

    def measure(self, samples: Samples) -> None:
        trace = str(self.directory / "trace.jsonl")
        self.digests, self.n_runs = set(), []
        for r in range(self.rounds):
            if self.experiment is not None:
                self.experiment.close()
            self.db_dir = self.directory / f"db{r}"
            self.experiment = beffio_experiment(
                SQLiteServer(self.db_dir) if self.backend == "sqlite"
                else MemoryDatabaseServer())
            importer = Importer(self.experiment,
                                parse_input_xml(input_xml()))
            for i in range(0, len(self.paths), CALL_FILES):
                samples.timed("import", importer.import_files,
                              self.paths[i:i + CALL_FILES])
            for s in range(ROUND_SUITES):
                if traced_turn(s):
                    self.digests.add(suite(
                        samples, "traced_query", self.experiment,
                        self.queries, trace, pushdown=True))
                else:
                    self.digests.add(suite(samples, "query",
                                           self.experiment, self.queries,
                                           pushdown=True))
            self.n_runs.append(self.experiment.n_runs())

    def check(self, samples: Samples) -> list[str]:
        problems = []
        self.reference = suite(Samples(), "check", self.experiment,
                               self.queries, pushdown=False)
        if self.digests != {self.reference}:
            problems.append("suite artefacts differ from the "
                            "pushdown=False run")
        if (set(self.n_runs) != {len(self.paths)}
                or samples.runs["import"] != len(self.paths) * self.rounds):
            problems.append(f"n_runs per round {self.n_runs}, imported "
                            f"{samples.runs['import']}, files "
                            f"{len(self.paths)} x {self.rounds} rounds")
        return problems

    def storage_ratio(self) -> float:
        if self.backend != "sqlite":
            return 0.0  # the columnar engine keeps no file
        return db_bytes(self.db_dir) / file_bytes(self.paths)


class Reanalysis:
    """Imports beside cached re-queries.

    Each cycle imports ``CYCLE_FILES`` new files of one (technique, fs)
    combination, rotating through the four, then re-runs the suite
    through one shared ``QueryCache`` with pushdown on (the CLI
    default).  Every ``TRACE_EVERY``-th cycle runs under the program's
    tracer.
    """

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.cycles = scaled(CYCLES, scale)

    def setup(self, directory: pathlib.Path, clock: SetupClock) -> None:
        self.directory = directory
        combos = [(t, fs) for t in TECHNIQUES for fs in FILESYSTEMS]
        turns = math.ceil(self.cycles / len(combos))
        preload_n = len(PROC_COUNTS) * PRELOAD_REPS
        reps = PRELOAD_REPS + math.ceil(turns * CYCLE_FILES
                                        / len(PROC_COUNTS))
        self.preload, self.new = [], []
        for k, (technique, fs) in enumerate(combos):
            files = generate_campaign(
                techniques=(technique,), filesystems=(fs,),
                proc_counts=PROC_COUNTS, repetitions=reps, seed=self.seed)
            paths = write_files(files, directory / "input" / f"c{k}", clock)
            self.preload += paths[:preload_n]
            self.new.append(paths[preload_n:])
        self.experiment = beffio_experiment(SQLiteServer(directory / "db"))
        self.importer = Importer(self.experiment,
                                 parse_input_xml(input_xml()))
        self.importer.import_files(self.preload)
        self.cache = self.experiment.query_cache()
        self.queries = [parse_query_xml(x) for x in SUITE_XML]
        suite(Samples(), "cold", self.experiment, self.queries,
              cache=self.cache, pushdown=True)

    def teardown(self) -> None:
        self.experiment.close()
        shutil.rmtree(self.directory)

    def measure(self, samples: Samples) -> None:
        before = dict(self.cache.session)
        trace = str(self.directory / "trace.jsonl")
        self.imported = []
        for i in range(self.cycles):
            combo, turn = i % len(self.new), i // len(self.new)
            batch = self.new[combo][turn * CYCLE_FILES:
                                    (turn + 1) * CYCLE_FILES]
            self.imported += batch
            if not traced_turn(i):
                samples.timed("import", self.importer.import_files, batch)
                self.last = suite(samples, "query", self.experiment,
                                  self.queries, cache=self.cache,
                                  pushdown=True)
            else:
                samples.timed("traced_import", traced, trace,
                              self.importer.import_files, batch)
                self.last = suite(samples, "traced_query",
                                  self.experiment, self.queries, trace,
                                  cache=self.cache, pushdown=True)
        self.cache_counts = {k: v - before[k]
                             for k, v in self.cache.session.items()}

    def check(self, samples: Samples) -> list[str]:
        problems = []
        self.reference = suite(Samples(), "check", self.experiment,
                               self.queries, pushdown=False)
        if self.last != self.reference:
            problems.append("cached artefacts differ from an uncached run")
        imported = samples.runs["import"] + samples.runs["traced_import"]
        n_runs = self.experiment.n_runs()
        if not imported == len(self.imported) \
                == n_runs - len(self.preload):
            problems.append(f"n_runs {n_runs} after {len(self.preload)} "
                            f"preloaded, imported {imported} of "
                            f"{len(self.imported)} files")
        return problems

    def storage_ratio(self) -> float:
        return (db_bytes(self.directory / "db")
                / file_bytes(self.preload + self.imported))


class ServiceMixed:
    """Two client threads on an ``ExperimentService``, one session each.

    Each client owns two of the four shards and draws every operation
    from its own seeded RNG: 40% ``run_records`` (``perfbase ls``), 20%
    ``describe`` (``perfbase info``), 30% ``execute`` of one suite query,
    10% ``import_text`` of one fresh file.  A client only touches its own
    shards: with shared shards, imports fail with "database is locked"
    at the seed commit (see README.md).  Every ``TRACE_EVERY``-th
    operation of a client runs under the program's tracer.  The
    ``execute`` and ``import_text`` operations give the query and import
    latencies; ``run_records`` and ``describe`` are load.
    """

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.ops = scaled(CLIENT_OPS, scale)

    def plan(self, client: int) -> list[tuple[str, str, int]]:
        """``(shard, op, suite index)`` for each of a client's ops."""
        rng = random.Random(f"service:{self.seed}:{client}")
        kinds = [kind for kind, _ in OP_MIX]
        weights = [weight for _, weight in OP_MIX]
        shards = [f"shard{s}" for s in range(client, SHARDS, CLIENTS)]
        return [(rng.choice(shards), rng.choices(kinds, weights)[0],
                 rng.randrange(len(SUITE_XML)))
                for _ in range(self.ops)]

    def setup(self, directory: pathlib.Path, clock: SetupClock) -> None:
        self.directory = directory
        self.plans = [self.plan(c) for c in range(CLIENTS)]
        imports = defaultdict(int)
        for plan in self.plans:
            for shard, op, _ in plan:
                imports[shard] += op == "import_text"
        self.service = ExperimentService(str(directory / "db"),
                                         backend="sqlite")
        definition = parse_experiment_xml(experiment_xml())
        self.description = parse_input_xml(input_xml())
        self.preloaded = FILES_PER_REP * SHARD_REPS
        self.preload_bytes = 0
        self.pool: dict[str, list[tuple[str, str]]] = {}
        for s in range(SHARDS):
            name = f"shard{s}"
            files = generate_campaign(
                techniques=TECHNIQUES, filesystems=FILESYSTEMS,
                proc_counts=PROC_COUNTS,
                repetitions=SHARD_REPS + math.ceil(imports[name]
                                                   / FILES_PER_REP),
                seed=self.seed + 1000 * s)
            self.service.create_experiment(name,
                                           list(definition.variables),
                                           definition.info)
            paths = write_files(files[:self.preloaded],
                                directory / "input" / name, clock)
            exp = Experiment.open(self.service.server, name)
            Importer(exp, self.description).import_files(paths)
            exp.close()
            self.preload_bytes += file_bytes(paths)
            self.pool[name] = files[self.preloaded:]

    def teardown(self) -> None:
        self.service.close()
        shutil.rmtree(self.directory)

    def client(self, c: int, samples: Samples, acked: dict) -> None:
        queries = [parse_query_xml(x) for x in SUITE_XML]
        pool = {name: iter(files) for name, files in self.pool.items()}
        trace = str(self.directory / f"trace{c}.jsonl")
        with self.service.session("bench") as session:
            for i, (shard, op, q) in enumerate(self.plans[c]):
                kwargs = {}
                if op == "import_text":
                    name, text = next(pool[shard])
                    kind, call = "import", (session.import_text, shard,
                                            text, self.description, name)
                elif op == "execute":
                    kind, call = f"query.{q}", (session.execute, shard,
                                                queries[q])
                    kwargs = {"pushdown": True}
                else:
                    kind, call = op, (getattr(session, op), shard)
                if traced_turn(i):
                    kind, call = "traced_" + kind, (traced, trace) + call
                result = samples.timed(kind, *call, **kwargs)
                if op == "import_text" and result is not None:
                    acked[shard] += result.n_imported
                    acked["bytes"] += len(text)

    def measure(self, samples: Samples) -> None:
        per_client = [Samples(samples.recorder) for _ in range(CLIENTS)]
        self.acked = [defaultdict(int) for _ in range(CLIENTS)]
        with ThreadPoolExecutor(CLIENTS) as pool:
            futures = [pool.submit(self.client, c, per_client[c],
                                   self.acked[c]) for c in range(CLIENTS)]
            for future in futures:
                future.result()  # a client that died fails the run
        for s in per_client:
            samples.merge(s)

    def check(self, samples: Samples) -> list[str]:
        problems = []
        for s in range(SHARDS):
            name = f"shard{s}"
            exp = Experiment.open(self.service.server, name)
            n_runs = exp.n_runs()
            exp.close()
            expected = self.preloaded + self.acked[s % CLIENTS][name]
            if n_runs != expected:
                problems.append(f"{name}: n_runs {n_runs}, expected "
                                f"{expected} (preloaded + acknowledged)")
        return problems

    def storage_ratio(self) -> float:
        inputs = self.preload_bytes + sum(a["bytes"] for a in self.acked)
        return db_bytes(self.directory / "db") / inputs


WORKLOADS = {
    "campaign_sqlite": lambda seed, scale: Campaign("sqlite", seed, scale),
    "campaign_columnar": lambda seed, scale: Campaign("memory", seed,
                                                      scale),
    "reanalysis": Reanalysis,
    "service_mixed": ServiceMixed,
}


def by_query(ms: dict[str, list[float]], kind: str
             ) -> dict[str, list[float]]:
    """Latencies of ``kind`` operations per suite query."""
    return {k.split(".")[1]: v for k, v in ms.items()
            if k.startswith(kind + ".")}


def latency_metrics(ms: dict[str, list[float]], runs: int,
                    suffix: str = "") -> dict:
    """``name -> [value, unit, samples]`` of the latency metrics.

    A query latency is the mean over the suite's queries of each query's
    median: the fig8 and stddev queries differ by almost 2x, so a median
    over all of them would sit in the gap between the two and jump.
    """
    imports = ms["import"]
    queries = by_query(ms, "query")
    traced_queries = by_query(ms, "traced_query")
    both = sorted(traced_queries.keys() & queries.keys())
    untraced_ms = statistics.mean(statistics.median(queries[q])
                                  for q in both)
    traced_ms = statistics.mean(statistics.median(traced_queries[q])
                                for q in both)
    n_queries = sum(map(len, queries.values()))
    every_query = [x for values in queries.values() for x in values]
    metrics = {
        "import_ms_p50": [percentile(imports, 50), "ms", len(imports)],
        "import_ms_p90": [percentile(imports, 90), "ms", len(imports)],
        "query_ms_p50": [statistics.mean(statistics.median(v)
                                         for v in queries.values()),
                         "ms", n_queries],
        "query_ms_p90": [percentile(every_query, 90), "ms", n_queries],
        "traced_query_ms_p50": [traced_ms, "ms",
                                sum(len(traced_queries[q]) for q in both)],
        "ingest_runs_per_s": [runs / sum(imports) * 1e3, "1/s",
                              len(imports)],
        "queries_per_s": [n_queries / sum(every_query) * 1e3, "1/s",
                          n_queries],
    }
    metrics["query_trace_overhead"] = [traced_ms / untraced_ms, "ratio",
                                       metrics["traced_query_ms_p50"][2]]
    return {name + suffix: value for name, value in metrics.items()}


def e2e_metrics(samples: Samples, setups: list[SetupClock]) -> dict:
    """``name -> [value, unit, samples]`` of every end-to-end row: at
    the reference host speed, and (``.wall``) as measured."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = samples.runs["import"]
    return {
        "setup_s": [statistics.median(c.s for c in setups), "s",
                    len(setups)],
        "setup_s.wall": [statistics.median(c.wall_s for c in setups), "s",
                         len(setups)],
        **latency_metrics(samples.ms, runs),
        **latency_metrics(samples.wall_ms, runs, ".wall"),
        "peak_rss_mb": [rss_mb, "MB", 1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", required=True, type=pathlib.Path)
    parser.add_argument("--trace-dir", type=pathlib.Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](
        args.seed, args.seconds / REFERENCE_SECONDS)
    clocks = []
    for i in range(1 if args.trace_dir else SETUP_REPEATS):
        if i:
            workload.teardown()
        clocks.append(SetupClock())
        clocks[-1].start()
        workload.setup(args.work_dir / f"setup{i}", clocks[-1])
        clocks[-1].stop()
    gc.collect()

    recorder = layers.Recorder() if args.trace_dir else None
    samples = Samples(recorder)
    installed = layers.install(recorder) if recorder else []
    start = time.perf_counter()
    try:
        workload.measure(samples)
    finally:
        layers.uninstall(installed)
    measured_s = time.perf_counter() - start
    problems = workload.check(samples)

    result = {
        "workload": args.workload, "problems": problems,
        "attempted": samples.attempted, "failed": samples.failed,
        "errors": samples.errors, "measured_s": measured_s,
        "busy_s": sum(map(sum, samples.ms.values())) / 1e3,
        "digest": getattr(workload, "reference", None),
        "metrics": e2e_metrics(samples, clocks),
    }
    if recorder is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(args.trace_dir / "spans.jsonl")
        summary = layers.summarise(recorder.spans)
        if summary["max_identity_error"] > 0.01:
            problems.append("layer self times do not add up to operation "
                            f"wall time: {summary['max_identity_error']}")
        result["layers"] = summary
        result["storage_ratio"] = workload.storage_ratio()
        result["qcache"] = getattr(workload, "cache_counts", {})
        service = getattr(workload, "service", None)
        result["service"] = service.stats()["counters"] if service else {}
    workload.teardown()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
