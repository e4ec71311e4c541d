"""Command-line interface: regenerate any paper table or figure.

Usage::

    bbsched list                          # available experiments
    bbsched run table1                    # print Table 1(b)
    bbsched run fig6_7 --scale default    # Figures 6 & 7 at a given scale
    bbsched run all --scale smoke         # everything (CI sanity)
    bbsched workloads --scale default     # workload summary (Table 2 view)
    bbsched simulate Theta-S4 BBSched     # one simulation run

Every experiment honours the ``REPRO_SCALE`` environment variable, and
``--scale`` overrides it.

Resilience plumbing: ``--faults mild|harsh`` replays any experiment or
simulation under a named fault scenario (``--node-mtbf`` etc. build a
custom one for ``simulate``), and ``--watchdog SECONDS`` bounds each
selection with graceful degradation::

    bbsched run fig6_7 --faults mild      # Figures 6 & 7 on flaky hardware
    bbsched simulate Theta-S4 BBSched --node-mtbf 21600 --watchdog 0.5

Durability (see ``docs/checkpointing.md``): ``simulate --checkpoint PATH``
snapshots the run every N simulated hours and on SIGINT/SIGTERM (the
process exits 128+signum after the final save), ``--resume-from PATH``
continues a snapshot to completion, and the ``grid`` command runs the §4
evaluation grid with an append-only results ledger so a killed grid
reruns only its unfinished cells::

    bbsched simulate Theta-S4 BBSched --checkpoint run.ckpt
    bbsched simulate Theta-S4 BBSched --resume-from run.ckpt
    bbsched grid --scale smoke --ledger grid.jsonl
    bbsched grid --scale smoke --ledger grid.jsonl --resume

Service mode (see ``docs/service.md``): ``serve`` runs the crash-tolerant
simulation service — a daemon on a Unix socket with admission control, a
self-healing worker pool, and a durable request journal — and ``submit``
sends it work::

    bbsched serve --socket /tmp/bb.sock --journal /tmp/bb.jsonl --deadline 300
    bbsched submit Theta-S4 BBSched --socket /tmp/bb.sock --scale smoke

Observability (see ``docs/observability.md``): ``--trace PATH`` records a
structured trace of the run (``--trace-format chrome`` produces a
Perfetto/``chrome://tracing``-loadable file), ``--metrics-out PATH``
writes the counters/gauges/histograms as JSON, and both print the
end-of-run telemetry report::

    bbsched sim Theta-S4 BBSched --trace out.json --trace-format chrome
    bbsched simulate Theta-S2 BBSched --metrics-out metrics.json
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
import threading
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, Optional, Tuple

from . import experiments as exp
from .checkpoint import CheckpointConfig
from .errors import ReproError, SimulationInterrupted, TaskError
from .experiments import report
from .methods import METHODS_SECTION4
from .resilience import SCENARIOS, FaultScenario, get_scenario
from .solvers import available_window_solvers, solver_matrix
from .telemetry import (
    Tracer,
    render_report,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from .units import fmt_duration, fmt_storage

#: experiment name → (run, render) callables.
EXPERIMENTS: Dict[str, Tuple[Callable, Callable]] = {
    "table1": (exp.table1.run, exp.table1.render),
    "fig2": (exp.fig2.run, exp.fig2.render),
    "fig4": (exp.fig4.run, exp.fig4.render),
    "fig5": (exp.fig5.run, exp.fig5.render),
    "fig6_7": (exp.fig6_7.run, exp.fig6_7.render),
    "fig8": (exp.fig8.run, exp.fig8.render),
    "fig9_11": (exp.fig9_11.run, exp.fig9_11.render),
    "fig12": (exp.fig12.run, exp.fig12.render),
    "fig13": (exp.fig13.run, exp.fig13.render),
    "table3": (exp.table3.run, exp.table3.render),
    "overheads": (exp.overheads.run, exp.overheads.render),
    "fig14": (exp.fig14.run, exp.fig14.render),
}


def _cmd_list(args: argparse.Namespace) -> int:
    print("available experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("  all")
    return 0


def _resolve_scale(args: argparse.Namespace) -> exp.Scale:
    """The requested scale, with any resilience overrides folded in."""
    scale = exp.get_scale(args.scale)
    overrides = {}
    if getattr(args, "faults", None):
        overrides["faults"] = get_scenario(args.faults)
    if getattr(args, "watchdog", None) is not None:
        overrides["watchdog_budget"] = args.watchdog
    return dataclasses.replace(scale, **overrides) if overrides else scale


def _custom_scenario(args: argparse.Namespace) -> Optional[FaultScenario]:
    """A FaultScenario from the simulate command's raw knobs, or None."""
    if not (args.node_mtbf or args.bb_mtbf or args.job_mtbf):
        return None
    return FaultScenario(
        seed=args.fault_seed,
        node_mtbf=args.node_mtbf,
        node_mttr=args.node_mttr,
        nodes_per_failure=args.nodes_per_failure,
        bb_mtbf=args.bb_mtbf,
        job_mtbf=args.job_mtbf,
    )


def _exporting(args: argparse.Namespace) -> bool:
    """Did the user ask for any telemetry output?"""
    return bool(getattr(args, "trace", None) or getattr(args, "metrics_out", None))


def _export_telemetry(args: argparse.Namespace, tracer: Tracer,
                      metrics=None, spans=None, meta=None) -> None:
    """Write the requested trace / metrics files."""
    if getattr(args, "trace", None):
        if args.trace_format == "chrome":
            write_chrome_trace(args.trace, tracer, metrics, meta)
        else:
            write_jsonl(args.trace, tracer, metrics, meta)
        print(f"wrote {args.trace_format} trace to {args.trace}")
    if getattr(args, "metrics_out", None):
        from .telemetry import MetricsRegistry

        write_metrics_json(args.metrics_out, metrics or MetricsRegistry(),
                           spans=spans, meta=meta)
        print(f"wrote metrics to {args.metrics_out}")


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    scale = _resolve_scale(args)
    # The CLI's single timing source is a telemetry tracer; it is installed
    # process-wide (so engines and solvers record into it) only when a
    # trace was requested — untraced runs keep the zero-overhead default.
    tracer = Tracer()
    with use_tracer(tracer) if _exporting(args) else nullcontext():
        for name in names:
            run, render = EXPERIMENTS[name]
            with tracer.span("experiment", experiment=name, scale=scale.name) as sp:
                if name == "table1":
                    result = run(generations=scale.generations * 5)
                else:
                    result = run(scale)
            print(f"=== {name} (scale={scale.name}, {sp.dur:.1f}s) ===")
            print(render(result))
            print()
    if _exporting(args):
        print(render_report(tracer=tracer, title="telemetry report"))
        _export_telemetry(args, tracer,
                          meta={"command": "run", "scale": scale.name})
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    scale = exp.get_scale(args.scale)
    traces = dict(exp.get_all_workloads(scale))
    traces.update(exp.get_ssd_workloads(scale))
    rows = []
    for name, tr in traces.items():
        t0, t1 = tr.span()
        rows.append([
            name,
            len(tr),
            tr.machine.nodes,
            fmt_storage(tr.machine.schedulable_bb),
            f"{100 * tr.bb_fraction():.1f}%",
            fmt_storage(tr.total_bb_volume()),
            fmt_duration(t1 - t0),
        ])
    print(report.format_table(
        rows,
        ["workload", "jobs", "nodes", "sched. BB", "BB jobs", "BB volume", "span"],
        title=f"workloads at scale={scale.name}",
    ))
    return 0


@contextmanager
def _sigterm_as_interrupt(fired: list) -> Iterator[None]:
    """Turn SIGTERM into KeyboardInterrupt so `finally` blocks run.

    Used for runs *without* a checkpoint config (which installs its own
    graceful handlers); without this a SIGTERM would skip the telemetry
    flush.  No-op off the main thread, where handlers cannot be set.

    The signal number is also appended to ``fired`` before raising: a
    KeyboardInterrupt that lands inside a C extension can be swallowed
    and re-surfaced as an unrelated error (numpy's structured-array
    comparisons mask a pending interrupt with their own TypeError), so
    callers need an exception-independent way to recognize the
    interrupt.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum: int, frame) -> None:
        fired.append(signum)
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _flush_interrupted_telemetry(args: argparse.Namespace, tracer: Tracer,
                                 **meta) -> None:
    """Best-effort telemetry export when a run did not finish."""
    if not _exporting(args):
        return
    try:
        _export_telemetry(args, tracer, meta={
            "command": "simulate", "interrupted": True, **meta})
    except OSError as exc:  # pragma: no cover - disk-full etc.
        print(f"telemetry flush failed: {exc}", file=sys.stderr)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scale = _resolve_scale(args)
    custom = _custom_scenario(args)
    if custom is not None:
        scale = dataclasses.replace(scale, faults=custom)
    checkpoint = None
    if args.checkpoint:
        checkpoint = CheckpointConfig(
            path=args.checkpoint, every_hours=args.checkpoint_every,
            handle_signals=True,
        )
    spec = exp.RunSpec.create(args.workload, args.method, scale, seed=args.seed,
                              solver=args.solver, max_attempts=args.max_attempts)
    tracer = Tracer()
    sigterm_fired: list = []
    signal_scope = (nullcontext() if checkpoint is not None
                    else _sigterm_as_interrupt(sigterm_fired))
    with use_tracer(tracer) if _exporting(args) else nullcontext():
        with tracer.span("simulate", workload=args.workload, method=args.method,
                         scale=scale.name) as sim_span:
            try:
                with signal_scope:
                    result = exp.run_spec(spec, checkpoint=checkpoint,
                                          resume_from=args.resume_from,
                                          yardstick=args.yardstick)
            except SimulationInterrupted as exc:
                # Orderly signal path: the final checkpoint is already on
                # disk; flush exporters and exit with the signal's code.
                print(f"interrupted at sim-time {exc.sim_time:.0f}s; "
                      f"checkpoint: {exc.checkpoint_path}", file=sys.stderr)
                print(f"resume with: bbsched simulate {args.workload} "
                      f"{args.method} --scale {scale.name} "
                      f"--resume-from {exc.checkpoint_path}", file=sys.stderr)
                _flush_interrupted_telemetry(
                    args, tracer, workload=args.workload, method=args.method,
                    checkpoint=exc.checkpoint_path)
                return 128 + exc.signum if exc.signum is not None else 3
            except KeyboardInterrupt:
                # Un-checkpointed interrupt (or second signal): nothing to
                # resume from, but the telemetry buffers still flush.
                print("interrupted (no checkpoint written)", file=sys.stderr)
                _flush_interrupted_telemetry(
                    args, tracer, workload=args.workload, method=args.method)
                return 130
            except Exception:
                if not sigterm_fired:
                    raise
                # The handler fired but its KeyboardInterrupt came back as
                # something else — the interrupt landed inside a C
                # extension that masked it (see _sigterm_as_interrupt).
                # Same orderly exit as the unmasked path.
                print("interrupted (no checkpoint written)", file=sys.stderr)
                _flush_interrupted_telemetry(
                    args, tracer, workload=args.workload, method=args.method)
                return 130
    dt = sim_span.dur
    s = result.summary
    print(f"{args.method} on {args.workload} (scale={scale.name}, {dt:.1f}s):")
    print(f"  node usage        {100 * s.node_usage:.2f}%")
    print(f"  burst buffer usage {100 * s.bb_usage:.2f}%")
    print(f"  avg wait          {report.hours(s.avg_wait)}")
    print(f"  avg slowdown      {s.avg_slowdown:.2f}")
    print(f"  jobs measured     {s.n_jobs}")
    print(f"  selector calls    {result.selector_calls} "
          f"({1e3 * result.mean_selector_time:.1f}ms each)")
    g = result.optimality_gap
    if g is not None:
        print("  --- optimality gap (method vs exact) ---")
        print(f"  measured passes   {g['count']:.0f} "
              f"(skipped {g['skipped']:.0f})")
        print(f"  mean / p95 / max  {100 * g['mean']:.4f}% / "
              f"{100 * g['p95']:.4f}% / {100 * g['max']:.4f}%")
    r = result.resilience
    if r is not None:
        print("  --- resilience ---")
        print(f"  node failures     {r.node_failures} "
              f"(mean online {100 * r.mean_nodes_online:.2f}%)")
        print(f"  bb degrades       {r.bb_degrades}")
        print(f"  killed / requeued {r.killed_jobs} / {r.requeued_jobs}")
        print(f"  abandoned jobs    {r.abandoned_jobs}")
        print(f"  lost node-hours   {r.lost_node_hours:.1f}")
        print(f"  usage vs online   {100 * r.node_usage_degraded:.2f}%")
        print(f"  watchdog fallbacks {r.fallback_calls} "
              f"({100 * r.fallback_rate:.1f}% of calls)")
    if _exporting(args):
        snap = result.telemetry
        metrics = snap.metrics if snap is not None else None
        print()
        print(render_report(tracer=tracer, metrics=metrics,
                            title=f"telemetry: {args.method} on {args.workload}"))
        _export_telemetry(
            args, tracer, metrics=metrics,
            spans=snap.spans if snap is not None else None,
            meta={"command": "simulate", "workload": args.workload,
                  "method": args.method, "scale": scale.name, "seed": args.seed},
        )
    return 0


def _cmd_solvers(args: argparse.Namespace) -> int:
    rows = [
        [row["name"], "exact" if row["exact"] else "heuristic", row["description"]]
        for row in solver_matrix()
    ]
    print(report.format_table(
        rows, ["solver", "kind", "description"],
        title="window solvers (--solver NAME; see docs/solvers.md)",
    ))
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    scale = exp.get_scale(args.scale)
    workloads = args.workloads.split(",") if args.workloads else list(exp.ALL_WORKLOADS)
    methods = args.methods.split(",") if args.methods else list(METHODS_SECTION4)
    if args.resume and not args.ledger:
        print("--resume requires --ledger", file=sys.stderr)
        return 2
    try:
        grid = exp.run_grid(
            scale, workloads=workloads, methods=methods, workers=args.workers,
            ledger=args.ledger, resume=args.resume,
            task_timeout=args.task_timeout, task_retries=args.task_retries,
        )
    except TaskError as exc:
        print(f"grid cell failed: {exc}", file=sys.stderr)
        if exc.traceback_text:
            print(exc.traceback_text, file=sys.stderr)
        if args.ledger:
            print(f"completed cells are preserved in {args.ledger}; "
                  f"rerun with --resume to retry only the rest", file=sys.stderr)
        return 1
    for metric in args.metric or ("node_usage", "bb_usage", "avg_wait"):
        table = exp.metric_table(grid, metric, workloads, methods)
        rows = []
        for w in workloads:
            row: list = [w]
            for m in methods:
                value = table.get(w, {}).get(m)
                if value is None:
                    row.append("-")
                elif metric == "avg_wait":
                    row.append(report.hours(value))
                elif metric.endswith("usage"):
                    row.append(f"{100 * value:.2f}%")
                else:
                    row.append(f"{value:.3f}")
            rows.append(row)
        print(report.format_table(rows, ["workload"] + methods,
                                  title=f"{metric} (scale={scale.name})"))
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ServiceConfig, ServiceDaemon

    config = ServiceConfig(
        socket_path=args.socket,
        journal_path=args.journal,
        workers=args.workers,
        high_water=args.high_water,
        policy=args.policy,
        deadline=args.deadline,
        retries=args.retries,
        quarantine_after=args.quarantine_after,
        allow_chaos=args.allow_chaos,
        degrade=not args.no_degrade,
        tcp=args.tcp,
        max_connections=args.max_connections,
        io_deadline=args.io_deadline,
        shard=args.shard,
    )
    daemon = ServiceDaemon(config)

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        # SIGTERM drains the backlog then exits; SIGINT abandons it
        # (queued/in-flight work is still in the journal for next boot).
        try:
            loop.add_signal_handler(
                signal.SIGTERM, daemon.request_shutdown, "graceful")
            loop.add_signal_handler(
                signal.SIGINT, daemon.request_shutdown, "now")
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        ready = asyncio.Event()
        task = loop.create_task(daemon.serve(ready))
        await ready.wait()
        listeners = args.socket
        if daemon.tcp_address is not None:
            listeners += f" + tcp {daemon.tcp_address[0]}:{daemon.tcp_address[1]}"
        shard = f", shard: {args.shard}" if args.shard else ""
        print(f"serving on {listeners} "
              f"(journal: {args.journal or 'none'}, "
              f"policy: {args.policy}, workers: {args.workers}{shard})",
              flush=True)
        if daemon.recovered:
            print(f"recovered {daemon.recovered} unfinished request(s) "
                  f"from the journal", flush=True)
        await task

    asyncio.run(_serve())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service import ClientRetryPolicy, ServiceClient
    from .service.shards import ShardRouter

    if not args.socket and not args.shards:
        print("error: submit needs --socket or --shards", file=sys.stderr)
        return 2
    retry = (ClientRetryPolicy(attempts=max(args.client_retries, 1))
             if args.client_retries is not None else None)
    # Unset run fields stay unset: the daemon resolves them into the
    # request's RunSpec (protocol.submit_spec), scale included.
    params = {name: getattr(args, name) for name in (
        "scale", "seed", "generations", "nodes_hint", "walltime_hint")
        if getattr(args, name) is not None}
    params.update(workload=args.workload, method=args.method)
    if args.chaos:
        params["chaos"] = json.loads(args.chaos)
    if args.key:
        params["idempotency_key"] = args.key
    if args.shards:
        router = ShardRouter(
            [e for e in args.shards.split(",") if e],
            timeout=args.connect_timeout, retry=retry)
        routed = router.submit(**params)
        extra = ("deduped" if routed.deduped else
                 "adopted" if routed.adopted else
                 "failover" if routed.failover else "primary")
        print(f"accepted as {routed.request_id} on {routed.endpoint} "
              f"({extra}, key {routed.key})")
        if args.no_wait:
            return 0
        status = router.wait(routed, timeout=args.timeout)
        rid = routed.request_id
    else:
        client = ServiceClient(args.socket, timeout=args.connect_timeout,
                               retry=retry)
        accepted = client.submit(**params)
        rid = accepted["id"]
        if accepted.get("deduped"):
            print(f"deduped to existing request {rid} "
                  f"(state {accepted.get('state')})")
        else:
            print(f"accepted as {rid} (queue depth {accepted['depth']}, "
                  f"degrade level {accepted['degrade']})")
        if args.no_wait:
            return 0
        status = client.wait(rid, timeout=args.timeout)
    state = status["state"]
    if state != "done":
        print(f"{rid} {state}: {status.get('error')}", file=sys.stderr)
        return 1
    summary = status.get("summary") or {}
    metrics = summary.get("metrics") or {}
    print(f"{rid} done: {args.method} on {args.workload}")
    for name in ("node_usage", "bb_usage", "avg_wait", "avg_slowdown"):
        if name in metrics:
            value = metrics[name]
            shown = (f"{100 * value:.2f}%" if name.endswith("usage")
                     else f"{value:.3f}")
            print(f"  {name:<14} {shown}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from .service.shards import ShardRouter

    endpoints = [e for e in args.shards.split(",") if e]
    router = ShardRouter(endpoints, seed=args.seed)
    if args.check:
        health = router.check()
        for endpoint, up in sorted(health.items()):
            print(f"{endpoint:<40} {'up' if up else 'DOWN'}")
        return 0 if all(health.values()) else 1
    keys = args.key if args.key else [router.new_key()
                                      for _ in range(args.sample)]
    for key in keys:
        info = router.route(key)
        print(f"{key} -> {info['target']}  "
              f"(preference: {' > '.join(info['preference'])})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbsched",
        description="BBSched (HPDC'19) reproduction: regenerate paper tables/figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments")
    p_list.set_defaults(func=_cmd_list)

    def add_telemetry_flags(p: argparse.ArgumentParser, with_metrics: bool = True) -> None:
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record a structured trace of the run to PATH")
        p.add_argument("--trace-format", default="jsonl",
                       choices=("jsonl", "chrome"),
                       help="trace file format: JSON Lines or Chrome trace_event "
                            "(Perfetto-loadable)")
        if with_metrics:
            p.add_argument("--metrics-out", default=None, metavar="PATH",
                           help="write the run's telemetry metrics as JSON")

    p_run = sub.add_parser("run", help="run an experiment and print its table/figure")
    p_run.add_argument("experiment", help="experiment name or 'all'")
    p_run.add_argument("--scale", default=None, choices=sorted(exp.SCALES))
    p_run.add_argument("--faults", default=None, choices=sorted(SCENARIOS),
                       help="named fault scenario to inject into every run")
    p_run.add_argument("--watchdog", type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget per selection (graceful fallback)")
    add_telemetry_flags(p_run, with_metrics=False)
    p_run.set_defaults(func=_cmd_run)

    p_wl = sub.add_parser("workloads", help="summarise the evaluation workloads")
    p_wl.add_argument("--scale", default=None, choices=sorted(exp.SCALES))
    p_wl.set_defaults(func=_cmd_workloads)

    p_sim = sub.add_parser("simulate", aliases=["sim"],
                           help="run one (workload, method) simulation")
    p_sim.add_argument("workload", help="e.g. Theta-S4")
    p_sim.add_argument("method", help="e.g. BBSched")
    p_sim.add_argument("--scale", default=None, choices=sorted(exp.SCALES))
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--solver", default=None,
                       choices=available_window_solvers(),
                       help="window solver for the optimization-backed "
                            "methods (default: the paper's GA); see "
                            "'bbsched solvers'")
    p_sim.add_argument("--yardstick", action="store_true",
                       help="re-solve every selection pass exactly (MILP) "
                            "and report the method-vs-exact optimality gap")
    p_sim.add_argument("--faults", default=None, choices=sorted(SCENARIOS),
                       help="named fault scenario to inject")
    p_sim.add_argument("--watchdog", type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget per selection (graceful fallback)")
    add_telemetry_flags(p_sim)
    fault = p_sim.add_argument_group(
        "custom fault scenario (overrides --faults; rates in seconds)")
    fault.add_argument("--node-mtbf", type=float, default=0.0,
                       help="mean time between node failures (0 disables)")
    fault.add_argument("--node-mttr", type=float, default=4 * 3600.0,
                       help="median node repair time")
    fault.add_argument("--nodes-per-failure", type=int, default=1,
                       help="nodes taken down per failure incident")
    fault.add_argument("--bb-mtbf", type=float, default=0.0,
                       help="mean time between burst-buffer degradations")
    fault.add_argument("--job-mtbf", type=float, default=0.0,
                       help="mean time between spontaneous job failures")
    fault.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault-injection streams")
    fault.add_argument("--max-attempts", type=int, default=None,
                       help="kills tolerated before a job is abandoned")
    ckpt = p_sim.add_argument_group(
        "checkpoint/resume (see docs/checkpointing.md)")
    ckpt.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="snapshot the run to PATH periodically and on "
                           "SIGINT/SIGTERM (exits 128+signum after saving)")
    ckpt.add_argument("--checkpoint-every", type=float, default=6.0,
                      metavar="SIM_HOURS",
                      help="simulated hours between periodic snapshots "
                           "(0 = only on signals)")
    ckpt.add_argument("--resume-from", default=None, metavar="PATH",
                      help="restore a checkpoint and continue it to completion")
    p_sim.set_defaults(func=_cmd_simulate)

    p_solvers = sub.add_parser(
        "solvers", help="list the window solvers --solver accepts")
    p_solvers.set_defaults(func=_cmd_solvers)

    p_grid = sub.add_parser(
        "grid", help="run the §4 evaluation grid (resumable via a ledger)")
    p_grid.add_argument("--scale", default=None, choices=sorted(exp.SCALES))
    p_grid.add_argument("--workloads", default=None, metavar="W1,W2,...",
                        help="comma-separated workload subset (default: all)")
    p_grid.add_argument("--methods", default=None, metavar="M1,M2,...",
                        help="comma-separated method subset (default: all §4)")
    p_grid.add_argument("--workers", type=int, default=None,
                        help="pool size (default: REPRO_WORKERS or cores-1)")
    p_grid.add_argument("--metric", action="append",
                        default=None, metavar="NAME",
                        help="metric table(s) to print (repeatable; default: "
                             "node_usage, bb_usage, avg_wait)")
    durable = p_grid.add_argument_group("durable execution")
    durable.add_argument("--ledger", default=None, metavar="PATH",
                         help="append each completed cell to this JSONL ledger "
                              "the moment it finishes")
    durable.add_argument("--resume", action="store_true",
                         help="skip cells already in the ledger; dispatch only "
                              "missing/failed ones")
    durable.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock budget per cell attempt")
    durable.add_argument("--task-retries", type=int, default=0,
                         help="re-dispatches allowed per crashed/hung cell")
    p_grid.set_defaults(func=_cmd_grid)

    p_serve = sub.add_parser(
        "serve", help="run the crash-tolerant simulation service daemon "
                      "(see docs/service.md)")
    p_serve.add_argument("--socket", required=True, metavar="PATH",
                         help="Unix socket to listen on")
    p_serve.add_argument("--journal", default=None, metavar="PATH",
                         help="durable request journal (JSONL); with one, a "
                              "killed daemon resumes its backlog on restart")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="simulation worker processes")
    p_serve.add_argument("--high-water", type=int, default=16,
                         help="queued requests beyond which submits are shed "
                              "with a 429")
    p_serve.add_argument("--policy", default="fcfs", choices=("fcfs", "wfp"),
                         help="admission-queue ordering policy (the repo's "
                              "own base-scheduler policies)")
    p_serve.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-request wall-clock deadline; a claimed "
                              "request overdue by this much has its worker "
                              "SIGKILLed and is retried")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="extra attempts for a failing/hung request")
    p_serve.add_argument("--quarantine-after", type=int, default=2,
                         help="isolated worker crashes before a request is "
                              "quarantined as poison")
    p_serve.add_argument("--no-degrade", action="store_true",
                         help="disable the load-shedding degradation ladder")
    p_serve.add_argument("--allow-chaos", action="store_true",
                         help="honour chaos directives in requests "
                              "(fault-injection testing only)")
    p_serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                         help="also listen on TCP (port 0 picks a free "
                              "port); the listener sniffs and answers "
                              "HTTP/1.1 too")
    p_serve.add_argument("--max-connections", type=int, default=128,
                         help="concurrent-connection ceiling across both "
                              "listeners (excess sheds with 503)")
    p_serve.add_argument("--io-deadline", type=float, default=30.0,
                         metavar="SECONDS",
                         help="per-read/per-write deadline on every "
                              "connection (slow-loris guard)")
    p_serve.add_argument("--shard", default=None, metavar="I/N",
                         help="shard identity echoed by ping/stats, e.g. 0/4")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a simulation request to a running service")
    p_submit.add_argument("workload", help="e.g. Theta-S4")
    p_submit.add_argument("method", help="e.g. BBSched")
    p_submit.add_argument("--socket", default=None, metavar="ENDPOINT",
                          help="the daemon's Unix socket path or host:port")
    p_submit.add_argument("--shards", default=None, metavar="EP1,EP2,...",
                          help="route across shard endpoints via consistent "
                               "hashing instead of a single --socket")
    p_submit.add_argument("--key", default=None, metavar="KEY",
                          help="idempotency key: makes the submit safely "
                               "retryable (resends dedup on the daemon)")
    p_submit.add_argument("--client-retries", type=int, default=None,
                          metavar="N",
                          help="total client attempts for transient "
                               "transport failures (default 4)")
    p_submit.add_argument("--scale", default=None, choices=sorted(exp.SCALES))
    p_submit.add_argument("--seed", type=int, default=None)
    p_submit.add_argument("--generations", type=int, default=None,
                          help="override the scale's GA generation count")
    p_submit.add_argument("--nodes-hint", type=int, default=None,
                          help="request size hint for the admission policy")
    p_submit.add_argument("--walltime-hint", type=float, default=None,
                          help="request duration hint for the admission policy")
    p_submit.add_argument("--chaos", default=None, metavar="JSON",
                          help="chaos directive, e.g. '{\"crash_attempts\": 1}' "
                               "(daemon must run with --allow-chaos)")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the request id and return immediately")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait for the result")
    p_submit.add_argument("--connect-timeout", type=float, default=10.0,
                          help="per-call socket timeout")
    p_submit.set_defaults(func=_cmd_submit)

    p_route = sub.add_parser(
        "route", help="inspect shard routing: where keys hash, which "
                      "shards are alive")
    p_route.add_argument("--shards", required=True, metavar="EP1,EP2,...",
                         help="shard endpoints (socket paths or host:port)")
    p_route.add_argument("--key", action="append", default=None,
                         help="key(s) to route (repeatable); default "
                              "samples random keys")
    p_route.add_argument("--sample", type=int, default=8,
                         help="random keys to sample without --key")
    p_route.add_argument("--seed", type=int, default=None,
                         help="seed for sampled keys")
    p_route.add_argument("--check", action="store_true",
                         help="ping every shard and report health "
                              "(exit 1 if any is down)")
    p_route.set_defaults(func=_cmd_route)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: unknown key {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
