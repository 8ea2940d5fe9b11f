"""CLI faces of the regression sentinel and the metrics registry.

``perfbase baseline`` manages stored baselines (add/list/rm/show),
``perfbase check --against/--all`` runs the sentinel comparison, and
``perfbase metrics dump`` prints the final counter/gauge
snapshot of a recorded trace file.
"""

from __future__ import annotations

import argparse
import json

from ..obs import metrics_table, read_trace
from ..sentinel import (BaselineStore, CheckOptions, capture_baseline,
                        get_workload, run_check)
from ..sentinel.assets import (EXPERIMENT_NAME,
                               element_trend_query_xml)
from .common import (CommandError, add_dbdir_argument,
                     add_obs_arguments, echo, non_negative_float,
                     obs_session, open_server)

__all__ = ["cmd_check_sentinel", "cmd_baseline", "cmd_metrics",
           "register_sentinel"]


# -- perfbase check (sentinel mode) -------------------------------------------


def sentinel_options(args: argparse.Namespace) -> CheckOptions:
    return CheckOptions(sensitivity=args.sensitivity,
                        method=args.method,
                        min_samples=args.min_samples,
                        min_change=args.min_change,
                        min_seconds=args.min_ms / 1e3)


def cmd_check_sentinel(args: argparse.Namespace) -> int:
    """Re-run the sentinel suite and compare against stored baselines."""
    server = open_server(args)
    with obs_session(args):
        outcome = run_check(server, against=args.against,
                            all_baselines=args.check_all,
                            samples=args.samples,
                            options=sentinel_options(args),
                            json_out=args.json_out)
    for report in outcome.reports:
        echo(report.render(), end="")
    if args.json_out:
        echo(f"wrote verdict to {args.json_out}")
    return outcome.exit_code


# -- perfbase baseline --------------------------------------------------------


def cmd_baseline(args: argparse.Namespace) -> int:
    """Manage stored sentinel baselines."""
    server = open_server(args)
    action = args.action
    if action == "add":
        name = _required_name(args, "baseline add")
        get_workload(args.workload)  # fail before running anything
        with obs_session(args):
            info = capture_baseline(server, name,
                                    workload=args.workload,
                                    samples=args.samples,
                                    force=args.force)
        echo(f"captured baseline {info.name!r}: workload "
             f"{info.workload!r}, {info.n_samples} sample(s), "
             f"{info.n_elements} element(s)")
        return 0
    if action == "list":
        store = BaselineStore(server)
        try:
            infos = store.baselines()
        finally:
            store.close()
        if not infos:
            echo("no baselines stored")
            return 0
        echo(f"{'name':<20} {'workload':<10} {'samples':>7}  captured")
        for info in infos:
            echo(f"{info.name:<20} {info.workload:<10} "
                 f"{info.n_samples:>7}  {info.captured}")
        return 0
    if action == "rm":
        name = _required_name(args, "baseline rm")
        store = BaselineStore(server)
        try:
            n = store.remove(name)
        finally:
            store.close()
        echo(f"removed baseline {name!r} ({n} sample run(s))")
        return 0
    if action == "show":
        name = _required_name(args, "baseline show")
        return _show_baseline(server, name)
    raise CommandError(f"unknown baseline action {action!r}")


def _required_name(args: argparse.Namespace, what: str) -> str:
    if not args.name:
        raise CommandError(f"{what} needs a baseline NAME")
    return args.name


def _show_baseline(server, name: str) -> int:
    """Per-element sample statistics of one baseline, plus the
    declarative hotspot query over the baselines experiment."""
    from ..xmlio import parse_query_xml
    store = BaselineStore(server)
    try:
        info = store.get(name)
        samples = store.element_samples(name)
    finally:
        store.close()
    echo(f"baseline {info.name!r}: workload {info.workload!r}, "
         f"{info.n_samples} sample(s), captured {info.captured}")
    from ..obs.render import table
    import numpy as np
    rows = []
    for element in sorted(samples):
        s = samples[element]
        wall = np.asarray(s.values["wall_s"], dtype=float)
        rows.append([element, s.kind, len(wall),
                     float(np.median(wall)), float(wall.min()),
                     float(wall.max())])
    echo(table(rows,
               [("element", "string"), ("kind", "string"),
                ("n", "integer"), ("wall_med_s", "float"),
                ("wall_min_s", "float"), ("wall_max_s", "float")],
               f"baseline {name!r} per-element wall time"), end="")
    # the same data through the declarative path — baselines are just
    # experiment runs, so the regular query engine reports on them too
    from ..core.experiment import Experiment
    exp = Experiment.open(server, EXPERIMENT_NAME)
    try:
        query = parse_query_xml(element_trend_query_xml(name))
        result = query.execute(exp)
        for artifact in result.artifacts:
            echo(artifact.content, end="")
    finally:
        exp.close()
    return 0


# -- perfbase metrics ---------------------------------------------------------


def cmd_metrics(args: argparse.Namespace) -> int:
    """Dump a recorded trace's metrics as an ASCII table or JSON."""
    metrics = read_trace(args.trace_file).metrics
    origin = args.trace_file
    if args.json:
        echo(json.dumps({"origin": origin,
                         "metrics": metrics.snapshot()},
                        indent=1, sort_keys=True))
        return 0
    if not metrics.names():
        echo(f"no metrics recorded ({origin})")
        return 0
    echo(metrics_table(metrics, title=f"metrics ({origin})"), end="")
    return 0


# -- registration -------------------------------------------------------------


def add_sentinel_check_arguments(parser: argparse.ArgumentParser) -> None:
    """The sentinel-mode flags of ``perfbase check``."""
    parser.add_argument(
        "--against", metavar="NAME",
        help="compare against this stored baseline (sentinel mode)")
    parser.add_argument(
        "--all", dest="check_all", action="store_true",
        help="check every stored baseline (sentinel mode)")
    parser.add_argument(
        "--samples", type=int, default=5, metavar="N",
        help="fresh sample runs per workload (default 5)")
    parser.add_argument(
        "--sensitivity", type=float, default=4.0,
        help="outlier score a fresh median must exceed (default 4.0)")
    parser.add_argument(
        "--method", choices=("mad", "zscore", "iqr"), default="mad",
        help="outlier detector for the comparison (default mad)")
    parser.add_argument(
        "--min-samples", type=int, default=4, metavar="N",
        help="baseline samples an element needs to be judged "
             "(default 4)")
    parser.add_argument(
        "--min-change", type=non_negative_float, default=0.5,
        help="relative growth floor flagged as regression "
             "(default 0.5 = +50%%)")
    parser.add_argument(
        "--min-ms", type=non_negative_float, default=2.0,
        help="absolute wall-time growth floor in milliseconds "
             "(default 2.0)")
    parser.add_argument(
        "--json-out", metavar="FILE",
        help="write the machine-readable verdict JSON to FILE")


def register_sentinel(sub) -> None:
    """Register the ``baseline`` and ``metrics`` subcommands."""
    p = sub.add_parser(
        "baseline",
        help="manage stored sentinel baselines (add/list/rm/show)")
    p.add_argument("action", choices=("add", "list", "rm", "show"))
    p.add_argument("name", nargs="?",
                   help="baseline name (add/rm/show)")
    p.add_argument("--workload", default="fig8",
                   help="sentinel workload to capture (default fig8)")
    p.add_argument("--samples", type=int, default=5, metavar="N",
                   help="sample runs to record (default 5)")
    p.add_argument("--force", action="store_true",
                   help="replace an existing baseline")
    add_obs_arguments(p)
    add_dbdir_argument(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "metrics",
        help="dump the counters and gauges a trace recorded")
    p.add_argument("action", choices=("dump",))
    p.add_argument("--trace-file", metavar="FILE", required=True,
                   help="recorded JSON-lines trace whose final metrics "
                        "snapshot to print")
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of the ASCII table")
    p.set_defaults(func=cmd_metrics)
