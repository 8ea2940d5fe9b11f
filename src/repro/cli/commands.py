"""Implementations of the perfbase CLI subcommands.

Section 4: "It is invoked by providing the perfbase command (like
setup, input or query) plus required arguments to the frontend script."
"""

from __future__ import annotations

import argparse
import glob
import json
import os

from ..analysis import run_regressions, suspicious_datasets
from ..core.experiment import Experiment
from ..parse.importer import Importer, MissingPolicy
from ..status import (experiment_report, list_runs,
                      missing_sweep_points, show_run, show_variable)
from ..xmlio import (experiment_to_xml, parse_experiment_xml,
                     parse_input_xml, parse_query_xml)
from .common import (CommandError, add_cache_arguments,
                     add_dbdir_argument, add_experiment_argument,
                     add_obs_arguments, add_pushdown_arguments, echo,
                     non_negative_float, obs_session, open_experiment,
                     open_server, resolve_cli_cache,
                     resolve_cli_pushdown)

__all__ = ["register_all"]


# -- setup -------------------------------------------------------------------


def cmd_setup(args: argparse.Namespace) -> int:
    """Create a new experiment from a definition XML file."""
    definition = parse_experiment_xml(args.definition)
    server = open_server(args)
    with obs_session(args):
        exp = Experiment.create(server, definition.name,
                                list(definition.variables),
                                definition.info)
        for user, klass in definition.grants:
            exp.grant(user, klass)
    echo(f"created experiment {definition.name!r} with "
         f"{len(definition.variables)} variables in {args.dbdir}")
    exp.close()
    return 0


def _register_setup(sub) -> None:
    p = sub.add_parser(
        "setup", help="create an experiment from a definition XML")
    p.add_argument("-d", "--definition", required=True,
                   help="experiment definition XML file")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_setup)


# -- input ---------------------------------------------------------------------


def cmd_input(args: argparse.Namespace) -> int:
    """Import input files into an experiment."""
    exp = open_experiment(args)
    description = parse_input_xml(args.description)
    for override in args.fixed or []:
        if "=" not in override:
            raise CommandError(
                f"--fixed needs name=value, got {override!r}")
        name, _, value = override.partition("=")
        description.set_fixed_value(name.strip(), value.strip())
    importer = Importer(exp, description,
                        missing=MissingPolicy(args.missing),
                        force=args.force)
    paths: list[str] = []
    for pattern in args.files:
        matches = glob.glob(pattern)
        paths.extend(matches if matches else [pattern])
    with obs_session(args):
        report = importer.import_files(paths)
    echo(f"imported {report.n_imported} run(s) from "
         f"{len(paths)} file(s)")
    if report.duplicates:
        echo(f"skipped {len(report.duplicates)} duplicate file(s): "
             + ", ".join(report.duplicates))
    _echo_discards(report)
    exp.close()
    return 0


def _echo_discards(report) -> None:
    """What an import skipped under the discard policy, and the runs
    it stored without content for some variables."""
    if report.discarded:
        echo(f"discarded {report.discarded} incomplete run(s)")
    for filename, reason in report.failed.items():
        echo(f"discarded file {filename}: {reason}")
    for index, names in report.missing.items():
        echo(f"run {index}: no content for " + ", ".join(names))


def _register_input(sub) -> None:
    p = sub.add_parser(
        "input", help="import benchmark output files into an experiment")
    add_experiment_argument(p)
    p.add_argument("-d", "--description", required=True,
                   help="input description XML file")
    p.add_argument("files", nargs="+",
                   help="input files (globs allowed)")
    p.add_argument("--force", action="store_true",
                   help="re-import files that were imported before")
    p.add_argument("--missing",
                   choices=[m.value for m in MissingPolicy],
                   default="default",
                   help="policy for variables without content")
    p.add_argument("--fixed", action="append", metavar="NAME=VALUE",
                   help="fixed value override (repeatable)")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_input)


# -- query ----------------------------------------------------------------------


def cmd_query(args: argparse.Namespace) -> int:
    """Run a query specification against an experiment."""
    exp = open_experiment(args)
    query = parse_query_xml(args.query)
    qcache = resolve_cli_cache(args, exp)
    pushdown = resolve_cli_pushdown(args)
    with obs_session(args):
        if args.parallel > 1:
            from ..parallel import (ParallelQueryExecutor,
                                    SimulatedCluster)
            cluster = SimulatedCluster(args.parallel)
            executor = ParallelQueryExecutor(cluster)
            result, stats = executor.execute(query, exp,
                                             profile=args.profile,
                                             cache=qcache,
                                             pushdown=pushdown)
            echo(f"parallel execution on {stats.n_nodes} nodes: "
                 f"{stats.wall_seconds * 1e3:.1f} ms wall, "
                 f"{stats.transfers} transfers, "
                 f"{stats.queue_wait_seconds * 1e3:.1f} ms queue wait")
            cluster.shutdown()
        else:
            result = query.execute(exp, profile=args.profile,
                                   cache=qcache, pushdown=pushdown)
    if qcache is not None:
        session = qcache.session
        echo(f"query cache: {session['hits']} hit(s), "
             f"{session['misses']} miss(es), "
             f"{session['stores']} store(s), "
             f"{session.extensions} extension(s)")
    outdir = args.output or "."
    for path in result.write_all(outdir):
        echo(f"wrote {path}")
    if args.profile and result.profile is not None:
        echo(result.profile.report())
    exp.close()
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Predict parallel speedup for a query (Section 4.3): profile a
    serial run, then simulate the cluster schedule per node count."""
    from ..parallel import speedup_curve
    exp = open_experiment(args)
    query = parse_query_xml(args.query)
    qcache = resolve_cli_cache(args, exp)
    # the simulation needs a timing per element, so the profiling run
    # always uses the unfused temp-table protocol
    with obs_session(args):
        result = query.execute(exp, profile=True, cache=qcache)
    node_counts = [int(n) for n in (args.nodes or "1 2 4 8").split()]
    echo(f"query {query.name!r}: {len(query.elements)} elements, "
         f"DAG width {query.graph.width()}")
    if resolve_cli_pushdown(args):
        # the plan `perfbase query` runs: under a cache nothing fuses
        plan = query.pushdown_plan(cache_active=qcache is not None)
        if plan.groups:
            echo("pushdown: {} fused chain(s) would save {} "
                 "statement(s): {}".format(
                     len(plan.groups), plan.statements_saved,
                     "; ".join(plan.label(t)
                               for t in sorted(plan.groups))))
    echo(f"{'nodes':>6} {'makespan [ms]':>14} {'speedup':>8} "
         f"{'efficiency':>11} {'transfers':>10}")
    for n, sim in speedup_curve(query.graph, result.profile,
                                node_counts).items():
        echo(f"{n:>6} {sim.makespan_seconds * 1e3:>14.2f} "
             f"{sim.speedup:>8.2f} {sim.efficiency:>11.2f} "
             f"{sim.transfers:>10}")
    exp.close()
    return 0


def _register_query(sub) -> None:
    p = sub.add_parser(
        "query", help="run a query specification XML")
    add_experiment_argument(p)
    p.add_argument("-q", "--query", required=True,
                   help="query specification XML file")
    p.add_argument("-o", "--output", help="output directory (default .)")
    p.add_argument("--profile", action="store_true",
                   help="print per-element timing")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="execute on a simulated N-node cluster")
    add_cache_arguments(p)
    add_pushdown_arguments(p)
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "simulate",
        help="predict parallel speedup for a query on N cluster nodes")
    add_experiment_argument(p)
    p.add_argument("-q", "--query", required=True,
                   help="query specification XML file")
    p.add_argument("--nodes", metavar="'1 2 4 8'",
                   help="node counts to simulate "
                        "(space-separated, default '1 2 4 8')")
    add_cache_arguments(p)
    add_pushdown_arguments(p)
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_simulate)


# -- info / ls / runs / show / values ------------------------------------------------


def cmd_ls(args: argparse.Namespace) -> int:
    """List experiments on the server."""
    server = open_server(args)
    names = server.list_databases()
    if not names:
        echo(f"no experiments in {args.dbdir}")
        return 0
    for name in names:
        exp = Experiment.open(server, name)
        info = exp.describe()
        echo(f"{name:<24} {info['n_runs']:>5} runs  "
             f"{info['synopsis']}")
        exp.close()
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Show meta information and variables of an experiment."""
    exp = open_experiment(args)
    info = exp.describe()
    echo(f"experiment: {info['name']}")
    echo(f"  synopsis : {info['synopsis']}")
    echo(f"  project  : {info['project']}")
    echo(f"  author   : {info['performed_by']['name']} "
         f"({info['performed_by']['organization']})")
    echo(f"  created  : {info['created']}")
    echo(f"  runs     : {info['n_runs']}")
    echo("  variables:")
    for var in exp.variables:
        unit = f" [{var.unit.symbol}]" if var.unit.symbol else ""
        echo(f"    {var.kind:<9} {var.name:<16} "
             f"{var.datatype.value:<9} {var.occurrence.value:<8}"
             f"{unit}  {var.synopsis}")
    exp.close()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render the full experiment status report."""
    exp = open_experiment(args)
    with obs_session(args):
        echo(experiment_report(exp))
    exp.close()
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """List the runs of an experiment."""
    exp = open_experiment(args)
    where = {}
    for cond in args.where or []:
        if "=" not in cond:
            raise CommandError(f"--where needs name=value, got {cond!r}")
        name, _, value = cond.partition("=")
        where[name.strip()] = exp.variables[name.strip()].coerce(
            value.strip())
    with obs_session(args):
        records = list_runs(exp, where=where or None)
    for record in records:
        files = ",".join(os.path.basename(f)
                         for f in record.source_files) or "-"
        echo(f"run {record.index:>4}  {record.created}  "
             f"{record.n_datasets:>5} datasets  {files}")
    exp.close()
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """Show the full content of one run."""
    exp = open_experiment(args)
    with obs_session(args):
        echo(show_run(exp, args.run))
    exp.close()
    return 0


def cmd_values(args: argparse.Namespace) -> int:
    """Show the content of one variable across runs."""
    exp = open_experiment(args)
    with obs_session(args):
        values = show_variable(exp, args.name, distinct=args.distinct)
    for value in values:
        echo(str(value))
    exp.close()
    return 0


def _register_status(sub) -> None:
    p = sub.add_parser("ls", help="list experiments")
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("info", help="show experiment meta information")
    add_experiment_argument(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("report",
                       help="full experiment status report")
    add_experiment_argument(p)
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("runs", help="list runs of an experiment")
    add_experiment_argument(p)
    p.add_argument("--where", action="append", metavar="NAME=VALUE",
                   help="filter by once-content (repeatable)")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("show", help="show the content of one run")
    add_experiment_argument(p)
    p.add_argument("-r", "--run", type=int, required=True,
                   help="run index")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("values",
                       help="show one variable's content across runs")
    add_experiment_argument(p)
    p.add_argument("-n", "--name", required=True, help="variable name")
    p.add_argument("--distinct", action="store_true",
                   help="unique values only")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_values)


# -- update / delete / access ---------------------------------------------------------


def cmd_update(args: argparse.Namespace) -> int:
    """Evolve an experiment: add/remove variables from a definition."""
    exp = open_experiment(args)
    with obs_session(args):
        if args.add:
            definition = parse_experiment_xml(args.add)
            added = 0
            for var in definition.variables:
                if var.name not in exp.variables:
                    exp.add_variable(var)
                    added += 1
            echo(f"added {added} variable(s)")
        for name in args.remove or []:
            exp.remove_variable(name)
            echo(f"removed variable {name!r}")
    exp.close()
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    """Delete a run or the whole experiment."""
    if args.run is not None:
        exp = open_experiment(args)
        with obs_session(args):
            exp.delete_run(args.run)
        echo(f"deleted run {args.run}")
        exp.close()
    else:
        if not args.yes:
            raise CommandError(
                "deleting a whole experiment needs --yes")
        server = open_server(args)
        with obs_session(args):
            Experiment.drop(server, args.experiment)
        echo(f"deleted experiment {args.experiment!r}")
    return 0


def cmd_access(args: argparse.Namespace) -> int:
    """Grant or revoke user access."""
    exp = open_experiment(args)
    if args.grant:
        user, _, klass = args.grant.partition(":")
        if not klass:
            raise CommandError("--grant needs user:class")
        exp.grant(user, klass)
        echo(f"granted {klass!r} to {user!r}")
    if args.revoke:
        exp.revoke(args.revoke)
        echo(f"revoked access of {args.revoke!r}")
    exp.close()
    return 0


def _register_admin(sub) -> None:
    p = sub.add_parser("update", help="evolve an experiment definition")
    add_experiment_argument(p)
    p.add_argument("--add", metavar="XML",
                   help="definition XML whose new variables are added")
    p.add_argument("--remove", action="append", metavar="NAME",
                   help="variable to remove (repeatable)")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("delete", help="delete a run or an experiment")
    add_experiment_argument(p)
    p.add_argument("-r", "--run", type=int, help="run index to delete")
    p.add_argument("--yes", action="store_true",
                   help="confirm deleting the whole experiment")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser("access", help="grant or revoke user access")
    add_experiment_argument(p)
    p.add_argument("--grant", metavar="USER:CLASS",
                   help="grant a user class (query/input/admin)")
    p.add_argument("--revoke", metavar="USER", help="revoke a user")
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_access)


# -- check (automatic analysis) -----------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    """Automatic analysis: outliers and regressions.

    Two modes share the subcommand: with ``-n RESULT`` the PR3
    analysis sweep runs over one experiment's stored results; with
    ``--against``/``--all`` (or neither flag and no ``-n``) the
    regression sentinel re-runs the workload suite and compares
    against stored baselines, exiting 3 on a regression.
    """
    if args.against or args.check_all or args.result is None:
        from .sentinel import cmd_check_sentinel
        return cmd_check_sentinel(args)
    if not args.experiment:
        raise CommandError("check -n needs -e EXPERIMENT")
    exp = open_experiment(args)
    group = args.group or []
    found = False
    with obs_session(args):
        if args.kind in ("outliers", "all"):
            for s in suspicious_datasets(exp, args.result, group,
                                         threshold=args.threshold):
                echo(f"suspicious: {s}")
                found = True
        if args.kind in ("regressions", "all"):
            for r in run_regressions(exp, args.result, group):
                echo(f"regression: {r}")
                found = True
    if not found:
        echo("nothing suspicious found")
    exp.close()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Report missing points of a parameter sweep."""
    exp = open_experiment(args)
    grid = {}
    for spec in args.grid:
        if "=" not in spec:
            raise CommandError(f"grid needs name=v1,v2,..., got {spec!r}")
        name, _, values = spec.partition("=")
        grid[name.strip()] = [v.strip() for v in values.split(",")]
    with obs_session(args):
        holes = missing_sweep_points(exp, grid,
                                     repetitions=args.repetitions)
    if not holes:
        echo("sweep is complete")
    for hole in holes:
        echo(f"missing: {hole}")
    exp.close()
    return 0


def _register_check(sub) -> None:
    p = sub.add_parser(
        "check",
        help="automatic analysis (-n): outliers and regressions; "
             "sentinel mode (--against/--all): compare a fresh "
             "workload run against stored baselines")
    p.add_argument("-e", "--experiment",
                   help="experiment to analyse (-n mode only)")
    p.add_argument("-n", "--result",
                   help="result variable to analyse (omit for "
                        "sentinel mode)")
    p.add_argument("--group", action="append", metavar="NAME",
                   help="grouping parameter (repeatable)")
    p.add_argument("--kind", choices=("outliers", "regressions", "all"),
                   default="all")
    p.add_argument("--threshold", type=non_negative_float, default=3.5)
    from .sentinel import add_sentinel_check_arguments
    add_sentinel_check_arguments(p)
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "sweep", help="report missing parameter-sweep points")
    add_experiment_argument(p)
    p.add_argument("grid", nargs="+", metavar="NAME=V1,V2,...",
                   help="intended value grid per once-parameter")
    p.add_argument("--repetitions", type=int, default=1)
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_sweep)


# -- dump / restore ---------------------------------------------------------------------


def cmd_dump(args: argparse.Namespace) -> int:
    """Export an experiment (definition + runs) as JSON."""
    exp = open_experiment(args)
    payload = {
        "definition": experiment_to_xml(exp.name, exp.info,
                                        exp.variables),
        "runs": [],
    }
    with obs_session(args):
        for index in exp.run_indices():
            run = exp.load_run(index)
            record = exp.run_record(index)
            payload["runs"].append({
                "index": index,
                "created": record.created.isoformat(),
                "source_files": list(record.source_files),
                "once": {k: _jsonable(v) for k, v in run.once.items()},
                "datasets": [{k: _jsonable(v) for k, v in ds.items()}
                             for ds in run.datasets],
            })
    text = json.dumps(payload, indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        echo(f"dumped {len(payload['runs'])} run(s) to {args.output}")
    else:
        echo(text)
    exp.close()
    return 0


def _jsonable(value):
    import datetime
    if isinstance(value, datetime.datetime):
        return value.isoformat()
    return value


def cmd_restore(args: argparse.Namespace) -> int:
    """Recreate an experiment from a JSON dump."""
    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    definition = parse_experiment_xml(payload["definition"])
    name = args.experiment or definition.name
    server = open_server(args)
    with obs_session(args):
        exp = Experiment.create(server, name,
                                list(definition.variables),
                                definition.info)
        from ..core.run import RunData
        for dumped in payload.get("runs", []):
            run = RunData(once=dumped.get("once", {}),
                          datasets=dumped.get("datasets", []),
                          source_files=dumped.get("source_files", []))
            exp.store_run(run)
    echo(f"restored experiment {name!r} with "
         f"{len(payload.get('runs', []))} run(s)")
    exp.close()
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Write an experiment's definition back as XML (Fig. 5 format)."""
    exp = open_experiment(args)
    with obs_session(args):
        xml = experiment_to_xml(exp.name, exp.info, exp.variables)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(xml)
        echo(f"wrote definition to {args.output}")
    else:
        echo(xml)
    exp.close()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Import binary PBT1 traces (Section 6: non-ASCII inputs)."""
    from ..trace import TraceImportDescription, TraceImporter
    exp = open_experiment(args)
    meta: dict[str, str] = {}
    for mapping in args.meta or []:
        if "=" not in mapping:
            raise CommandError(
                f"--meta needs key=variable, got {mapping!r}")
        key, _, variable = mapping.partition("=")
        meta[key.strip()] = variable.strip()
    description = TraceImportDescription(meta=meta, mode=args.mode)
    importer = TraceImporter(exp, description,
                             missing=MissingPolicy(args.missing),
                             force=args.force)
    paths: list[str] = []
    for pattern in args.files:
        matches = glob.glob(pattern)
        paths.extend(matches if matches else [pattern])
    with obs_session(args):
        report = importer.import_files(paths)
    echo(f"imported {report.n_imported} trace run(s) from "
         f"{len(paths)} file(s)")
    if report.duplicates:
        echo(f"skipped {len(report.duplicates)} duplicate trace(s)")
    _echo_discards(report)
    exp.close()
    return 0


def _register_dump(sub) -> None:
    p = sub.add_parser("dump", help="export an experiment as JSON")
    add_experiment_argument(p)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("restore",
                       help="recreate an experiment from a JSON dump")
    p.add_argument("-i", "--input", required=True,
                   help="dump file written by `perfbase dump`")
    p.add_argument("-e", "--experiment",
                   help="override the experiment name")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("export",
                       help="write the experiment definition XML")
    add_experiment_argument(p)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("trace",
                       help="import binary PBT1 trace files")
    add_experiment_argument(p)
    p.add_argument("files", nargs="+",
                   help="trace files (globs allowed)")
    p.add_argument("--meta", action="append", metavar="KEY=VARIABLE",
                   help="map a trace metadata key to a once-variable "
                        "(repeatable)")
    p.add_argument("--mode", choices=("summary", "events"),
                   default="summary")
    p.add_argument("--force", action="store_true",
                   help="re-import traces that were imported before")
    p.add_argument("--missing",
                   choices=[m.value for m in MissingPolicy],
                   default="default")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_trace)


# -- cache (incremental query engine) -----------------------------------------


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear an experiment's persistent query cache."""
    exp = open_experiment(args)
    qcache = exp.query_cache()
    if args.action == "clear":
        n = qcache.clear()
        echo(f"cleared {n} cached vector(s)")
    else:
        stat = qcache.stat()
        echo(f"experiment: {exp.name}")
        echo(f"  entries        : {stat['entries']}")
        echo(f"  bytes          : {stat['bytes']}")
        echo(f"  rows           : {stat['rows']}")
        echo(f"  hits (total)   : {stat['hits_total']}")
        echo(f"  extensions     : {stat['extensions']}")
        echo(f"  budget         : {stat['budget_bytes']} bytes")
        echo(f"  schema counter : {stat['schema_counter']}")
        if args.verbose:
            for entry in qcache.entries():
                echo(f"  {entry.element:<20} [{entry.kind}] "
                     f"rows={entry.n_rows} bytes={entry.n_bytes} "
                     f"hits={entry.hits} schema={entry.schema_counter} "
                     f"runs={entry.n_runs} ext={entry.extensions} "
                     f"query={entry.query_name or '-'}")
    exp.close()
    return 0


def _register_cache(sub) -> None:
    p = sub.add_parser(
        "cache",
        help="inspect or clear the persistent query cache")
    p.add_argument("action", choices=("stat", "clear"),
                   help="stat: show summary; clear: drop all entries")
    add_experiment_argument(p)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="list every cached entry (stat only)")
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_cache)


# -- fsck (crash recovery) ----------------------------------------------------


def cmd_fsck(args: argparse.Namespace) -> int:
    """Detect (and unless --dry-run, repair) state left behind by an
    interrupted import, query or cache store."""
    from ..db.recovery import fsck
    exp = open_experiment(args)
    try:
        report = fsck(exp.store, repair=not args.dry_run)
    finally:
        exp.close()
    echo(report.summary())
    if args.dry_run and not report.clean:
        return 4
    return 0


def _register_fsck(sub) -> None:
    p = sub.add_parser(
        "fsck",
        help="detect and repair state left by an interrupted "
             "import/query (leaked temp tables, orphan cache tables, "
             "dangling run rows)")
    add_experiment_argument(p)
    p.add_argument("--dry-run", action="store_true",
                   help="only report what would be repaired; exit "
                        "status 4 if damage is found")
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_fsck)


# -- trace analytics: explain / trace-diff / trace-view -----------------------


def cmd_explain(args: argparse.Namespace) -> int:
    """Render a query's element DAG as an ASCII plan (EXPLAIN), with
    per-element measured numbers when a recorded trace is given
    (EXPLAIN ANALYZE, Section 4.3)."""
    from ..obs import explain, read_trace
    query = parse_query_xml(args.query)
    trace = None
    if args.trace:
        trace = read_trace(args.trace,
                           on_error="skip" if args.lax else "raise")
        for problem in trace.errors:
            echo(f"warning: skipped {problem}")
    # the plan `perfbase query` runs: by default it caches, and under
    # a cache nothing fuses
    cached = not args.no_cache
    fused = (query.pushdown_plan(cache_active=cached)
             if resolve_cli_pushdown(args) else None)
    echo(explain(query, trace, fused=fused, cached=cached), end="")
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    """Compare two recorded traces and flag wall-time regressions."""
    from ..obs import ELEMENT_KINDS, diff_traces, read_trace
    base = read_trace(args.base)
    new = read_trace(args.new)
    diff = diff_traces(base, new, threshold=args.threshold,
                       min_seconds=args.min_ms / 1e3,
                       kinds=None if args.all_kinds
                       else ELEMENT_KINDS)
    echo(diff.report(title=f"trace diff: {args.base} -> {args.new}"),
         end="")
    if args.fail_on_regression and diff.has_regressions:
        return 3
    return 0


def cmd_trace_view(args: argparse.Namespace) -> int:
    """Render a recorded trace as an ASCII span timeline."""
    from ..obs import read_trace, timeline
    from ..obs.render import DEFAULT_HIDDEN
    trace = read_trace(args.file,
                       on_error="skip" if args.lax else "raise")
    for problem in trace.errors:
        echo(f"warning: skipped {problem}")
    echo(timeline(trace.spans, width=args.width,
                  hide_kinds=() if args.all_kinds else DEFAULT_HIDDEN,
                  max_rows=args.max_rows,
                  title=f"trace timeline: {args.file}"), end="")
    return 0


def _register_obs(sub) -> None:
    p = sub.add_parser(
        "explain",
        help="show a query's element DAG as an ASCII plan "
             "(EXPLAIN; with --trace: EXPLAIN ANALYZE)")
    p.add_argument("-q", "--query", required=True,
                   help="query specification XML file")
    p.add_argument("--trace", metavar="FILE",
                   help="JSON-lines trace to annotate the plan with")
    p.add_argument("--lax", action="store_true",
                   help="skip malformed trace lines instead of failing")
    add_cache_arguments(p)
    add_pushdown_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "trace-diff",
        help="compare two recorded traces and flag regressions")
    p.add_argument("base", help="baseline JSON-lines trace")
    p.add_argument("new", help="new JSON-lines trace to compare")
    p.add_argument("--threshold", type=non_negative_float, default=0.25,
                   help="relative wall-time growth flagged as a "
                        "regression (default 0.25 = +25%%)")
    p.add_argument("--min-ms", type=non_negative_float, default=0.0,
                   help="absolute growth floor in milliseconds")
    p.add_argument("--all-kinds", action="store_true",
                   help="compare every span kind, not just query "
                        "elements")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit with status 3 if any regression is found")
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_trace_diff)

    p = sub.add_parser(
        "trace-view",
        help="render a recorded trace as an ASCII span timeline")
    p.add_argument("file", help="JSON-lines trace file")
    p.add_argument("--width", type=int, default=60,
                   help="bar area width in characters")
    p.add_argument("--max-rows", type=int, default=200,
                   help="maximum rows before eliding")
    p.add_argument("--all-kinds", action="store_true",
                   help="show hidden span kinds (per-statement db "
                        "spans)")
    p.add_argument("--lax", action="store_true",
                   help="skip malformed trace lines instead of failing")
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_trace_view)


def register_all(sub) -> None:
    """Register every subcommand on an argparse subparsers object."""
    _register_setup(sub)
    _register_input(sub)
    _register_query(sub)
    _register_status(sub)
    _register_admin(sub)
    _register_check(sub)
    _register_dump(sub)
    _register_cache(sub)
    _register_fsck(sub)
    _register_obs(sub)
    from .sentinel import register_sentinel
    register_sentinel(sub)
    from .service import register_service
    register_service(sub)
