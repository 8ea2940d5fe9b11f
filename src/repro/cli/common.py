"""Shared plumbing of the perfbase CLI commands."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from ..core.experiment import Experiment
from ..db import BACKENDS, DatabaseServer, server_for_backend

__all__ = ["add_dbdir_argument", "add_obs_arguments",
           "add_cache_arguments", "resolve_cli_cache",
           "add_pushdown_arguments", "resolve_cli_pushdown",
           "open_server", "open_experiment", "obs_session",
           "non_negative_float", "CommandError"]

#: default database directory, overridable via environment (mirrors the
#: paper's "personal database server on his local workstation")
ENV_DBDIR = "PERFBASE_DB_DIR"
DEFAULT_DBDIR = os.path.join(os.path.expanduser("~"), ".perfbase")
#: default storage backend, overridable via environment
ENV_BACKEND = "PERFBASE_BACKEND"
DEFAULT_BACKEND = "sqlite"


class CommandError(Exception):
    """A user-facing command failure (exits with status 1)."""


def non_negative_float(text: str) -> float:
    """argparse type of thresholds and floors: a number >= 0, so a
    negative value is a usage error instead of a traceback."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number: {text!r}") from None
    if not value >= 0.0:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {text!r}")
    return value


def add_dbdir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dbdir", default=os.environ.get(ENV_DBDIR, DEFAULT_DBDIR),
        help="directory holding the experiment databases "
             f"(default: ${ENV_DBDIR} or {DEFAULT_DBDIR})")
    parser.add_argument(
        "--backend", choices=sorted(BACKENDS),
        default=os.environ.get(ENV_BACKEND, DEFAULT_BACKEND),
        help="storage backend serving the experiment databases "
             f"(default: ${ENV_BACKEND} or {DEFAULT_BACKEND}; "
             "'memory' is per-process only)")


def add_experiment_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-e", "--experiment", required=True,
        help="name of the experiment")


def open_server(args: argparse.Namespace) -> DatabaseServer:
    backend = getattr(args, "backend", None) \
        or os.environ.get(ENV_BACKEND, DEFAULT_BACKEND)
    try:
        return server_for_backend(backend, args.dbdir)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc


def open_experiment(args: argparse.Namespace) -> Experiment:
    server = open_server(args)
    return Experiment.open(server, args.experiment)


def echo(message: str = "", end: str = "\n") -> None:
    sys.stdout.write(message + end)


# -- query cache -------------------------------------------------------------


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the incremental-engine flags of query-executing commands.

    The CLI caches by default (re-running an analysis after an import
    is perfbase's dominant workload); ``--no-cache`` forces a cold run.
    """
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent query cache (force a cold run)")
    parser.add_argument(
        "--cache-budget", type=int, metavar="MB",
        help="LRU byte budget of the query cache in MiB "
             "(default 64)")


def resolve_cli_cache(args: argparse.Namespace, experiment: Experiment):
    """``cache=`` argument for ``Query.execute`` from the CLI flags."""
    if getattr(args, "no_cache", False):
        return None
    budget = getattr(args, "cache_budget", None)
    if budget is not None:
        return experiment.query_cache(
            budget_bytes=budget * 1024 * 1024)
    return experiment.query_cache()


# -- SQL pushdown ------------------------------------------------------------


def add_pushdown_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the chain-fusion escape hatch of query-running commands.

    The CLI fuses by default.  With the (default) query cache active no
    chain fuses and every element runs on its own, so the flag changes
    only queries run with ``--no-cache``.
    """
    parser.add_argument(
        "--no-pushdown", action="store_true",
        help="disable SQL pushdown (materialise every element through "
             "its own temp table instead of fusing linear chains)")


def resolve_cli_pushdown(args: argparse.Namespace) -> bool:
    """``pushdown=`` argument for the execution entry points."""
    return not getattr(args, "no_pushdown", False)


# -- observability -----------------------------------------------------------


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the tracing/metrics flags shared by data-path commands."""
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record a JSON-lines execution trace (spans + metrics) "
             "to FILE")
    parser.add_argument(
        "--metrics", action="store_true",
        help="print a span-summary and metrics table after the command")


@contextlib.contextmanager
def obs_session(args: argparse.Namespace):
    """Activate tracing for a command according to its obs flags.

    Yields the active :class:`~repro.obs.tracer.Tracer` (or ``None``
    when neither ``--trace`` nor ``--metrics`` was given — the
    zero-overhead path).  On exit the trace file is finalised and, with
    ``--metrics``, the ASCII summary is printed.
    """
    trace_file = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if not trace_file and not want_metrics:
        yield None
        return
    from ..obs import (InMemorySink, JsonLinesSink, Tracer,
                       metrics_table, summary_table, use_tracer)
    sinks = [InMemorySink()]
    if trace_file:
        sinks.append(JsonLinesSink(trace_file))
    tracer = Tracer(*sinks)
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        tracer.close()
        if trace_file:
            echo(f"wrote trace to {trace_file}")
        if want_metrics:
            echo(summary_table(tracer.spans))
            if tracer.metrics.names():
                echo(metrics_table(tracer.metrics))
