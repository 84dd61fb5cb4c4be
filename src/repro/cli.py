"""``aart`` command-line interface.

Subcommands:

* ``aart solve problem.json`` — solve a JSON-described AA instance with
  Algorithm 2 (optionally Algorithm 1, raw mode, or local-search polish),
  print placement + certificate, optionally save the assignment.
* ``aart generate`` — emit a random Section VII workload as a problem JSON.
* ``aart figure fig2a`` — regenerate one of the paper's figure panels.
* ``aart evaluate problem.json assignment.json`` — score an existing
  assignment against the super-optimal bound.
* ``aart solvers`` — list every registered solver with its guarantee.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.linearize import linearize
from repro.core.problem import ALPHA
from repro.core.solve import solve
from repro.engine import SOLVER_KINDS, SolveContext, list_solvers, solver_table
from repro.experiments.figures import FIGURES, expected_shape_violations, run_figure
from repro.experiments.report import series_table
from repro.serialization import (
    load_assignment,
    load_problem,
    save_assignment,
    save_problem,
)
from repro.workloads.generators import make_distribution, make_problem


def _print_solution(problem, assignment, bound, label: str) -> None:
    value = assignment.total_utility(problem)
    ratio = value / bound if bound else 1.0
    print(f"{label}: total utility = {value:.6g}")
    print(f"super-optimal bound = {bound:.6g}")
    print(f"certified ratio     = {ratio:.4f} (worst-case guarantee {ALPHA:.4f})")
    loads = assignment.server_loads(problem.n_servers)
    for j in range(problem.n_servers):
        members = assignment.threads_on(j)
        print(
            f"  server {j}: load {loads[j]:.4g}/{problem.capacity:g}, "
            f"threads {members.tolist()}"
        )


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    ctx = None
    if args.trace:
        from repro.observability import JsonlSink, Tracer

        ctx = SolveContext(seed=0, sink=JsonlSink(args.trace), tracer=Tracer())
    sol = solve(problem, algorithm=args.algorithm, reclaim=not args.no_reclaim, ctx=ctx)
    assignment = sol.assignment
    if args.refine:
        from repro.extensions.localsearch import local_search

        refined = local_search(problem, assignment)
        assignment = refined.assignment
        print(
            f"local search: +{refined.improvement:.6g} utility "
            f"({refined.moves} moves, {refined.swaps} swaps)"
        )
    _print_solution(problem, assignment, sol.super_optimal_utility, args.algorithm)
    if ctx is not None:
        ctx.emit_counters(solver=args.algorithm)
        ctx.emit_trace(solver=args.algorithm)
        ctx.sink.close()
        print(f"trace written to {args.trace} (convert: aart trace {args.trace})")
    if args.output:
        save_assignment(assignment, args.output)
        print(f"assignment saved to {args.output}")
    return 0


def cmd_generate(args) -> int:
    params = {}
    if args.dist == "powerlaw":
        params["alpha"] = args.alpha
    if args.dist == "discrete":
        params["gamma"] = args.gamma
        params["theta"] = args.theta
    dist = make_distribution(args.dist, **params)
    problem = make_problem(
        dist,
        n_servers=args.servers,
        beta=args.beta,
        capacity=args.capacity,
        seed=args.seed,
    )
    save_problem(problem, args.output)
    print(
        f"wrote {problem.n_threads}-thread / {problem.n_servers}-server "
        f"{args.dist} instance to {args.output}"
    )
    return 0


def cmd_figure(args) -> int:
    spec = FIGURES[args.figure_id]
    points = run_figure(
        args.figure_id,
        trials=args.trials,
        seed=args.seed,
        n_jobs=args.jobs,
        chunksize=args.chunksize,
    )
    print(spec.title)
    print(series_table(points, x_label=spec.x_label))
    if args.spark:
        from repro.experiments.report import spark_table

        print()
        print(spark_table(points))
    if args.save:
        from repro.experiments.runner import points_to_dict
        import json
        from pathlib import Path

        Path(args.save).write_text(
            json.dumps(points_to_dict(args.figure_id, points, args.seed), indent=2)
        )
        print(f"results saved to {args.save}")
    violations = expected_shape_violations(args.figure_id, points)
    for v in violations:
        print(f"SHAPE WARNING: {v}")
    return 1 if violations else 0


def cmd_evaluate(args) -> int:
    problem = load_problem(args.problem)
    assignment = load_assignment(args.assignment)
    try:
        assignment.validate(problem)
    except ValueError as exc:
        print(
            f"error: assignment {args.assignment} is infeasible for {args.problem}: {exc}",
            file=sys.stderr,
        )
        return 2
    bound = linearize(problem).super_optimal_utility
    _print_solution(problem, assignment, bound, "evaluated assignment")
    return 0


def cmd_solvers(args) -> int:
    print(solver_table(kind=args.kind))
    return 0


def _run_daemon(args, build, save) -> int:
    """Serve one front door over TCP until Ctrl-C or SIGTERM, then save it.

    ``build(sink, flight)`` gets the ``--trace`` JSONL sink and the
    ``--flight-dump`` recorder (each ``None`` when not asked for) and
    returns ``(front, name, detail)``: the
    :class:`~repro.service.AllocationService` or
    :class:`~repro.service.FleetCoordinator` to serve and the words the
    banner names it with.  ``save(front)`` writes ``--snapshot`` on the
    way out, whether Ctrl-C or a supervisor's SIGTERM stopped the loop.
    """
    import os
    import signal
    import threading

    from repro.observability import FlightRecorder, JsonlSink, write_flight
    from repro.service import MetricsHttpServer, TcpServer

    sink = JsonlSink(args.trace) if args.trace else None
    flight = FlightRecorder() if args.flight_dump else None
    front, name, detail = build(sink, flight)
    server = TcpServer(front, host=args.host, port=args.port)
    if flight is not None:

        def dump_flight():
            with server.lock:
                doc = front.flight_snapshot()
            write_flight(doc, args.flight_dump)

        # SIGUSR1 → dump the document /debug/flight serves (postmortem on
        # demand).  A fleet's asks its shards under the batch lock, which
        # the interrupted main thread may hold, so a thread writes it.
        signal.signal(
            signal.SIGUSR1,
            lambda signum, frame: threading.Thread(target=dump_flight, daemon=True).start(),
        )
        print(f"flight recorder armed: kill -USR1 {os.getpid()} dumps to {args.flight_dump}")
    httpd = None
    if args.metrics_port is not None:
        httpd = MetricsHttpServer(
            front,
            host=args.host,
            port=args.metrics_port,
            lock=server.lock,
            flight_dump_path=args.flight_dump or None,
        ).start()
        print(f"metrics on http://{httpd.host}:{httpd.port}/metrics (health: /healthz)")

    def _graceful_term(signum, frame):
        # SIGTERM takes the same shutdown path as Ctrl-C, so the snapshot
        # still gets written.
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful_term)
    try:
        # Flushed: a supervisor reading a pipe waits for this line.
        print(
            f"{name} on {server.host}:{server.port} ({detail}); Ctrl-C to stop",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if httpd is not None:
            httpd.stop()
        if args.snapshot:
            save(front)
        if sink is not None:
            sink.close()
    return 0


def cmd_serve(args) -> int:
    from pathlib import Path

    from repro.service import (
        AdmissionPolicy,
        AllocationService,
        ClusterState,
        ReplanPolicy,
        load_snapshot,
        save_snapshot,
    )

    def build(sink, flight):
        if args.snapshot and Path(args.snapshot).exists():
            state = load_snapshot(args.snapshot)
            print(
                f"warm restart from {args.snapshot}: version {state.version}, "
                f"{state.n_threads} threads on {state.n_servers} servers"
            )
        else:
            state = ClusterState(
                args.servers, args.capacity, args.migration_cost, solver=args.solver
            )
        service = AllocationService(
            state,
            replan_policy=ReplanPolicy(
                drift_threshold=args.drift,
                max_staleness=args.staleness if args.staleness > 0 else None,
                migration_budget=args.migration_budget,
            ),
            admission_policy=AdmissionPolicy(
                min_marginal_utility=args.min_gain, max_queue=args.max_queue
            ),
            solve_budget_s=args.budget_s,
            sink=sink,
            seed=args.seed,
            flight=flight,
        )
        detail = f"{state.n_servers} servers × C={state.capacity:g}"
        return service, "aart allocation service", detail

    def save(service):
        save_snapshot(service.state, args.snapshot)
        print(f"snapshot saved to {args.snapshot} (version {service.state.version})")

    return _run_daemon(args, build, save)


def _parse_endpoints(spec: str, default_port: int) -> list[tuple[str, int]]:
    """``host:port,host,...`` → [(host, port), ...] (default port filled in)."""
    endpoints = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        host, _, port = chunk.rpartition(":")
        if host:
            endpoints.append((host, int(port)))
        else:
            endpoints.append((chunk, default_port))
    if not endpoints:
        raise ValueError(f"no endpoints in {spec!r}")
    return endpoints


def _status_table(rows: list[tuple[str, dict]]) -> str:
    """One aligned table over per-instance status dicts (label per row)."""
    header = ("endpoint", "ver", "threads", "servers", "C", "utility", "ratio", "queue")
    table = [header]
    for label, st in rows:
        ratio = st.get("last_ratio")
        table.append(
            (
                label,
                str(st["version"]),
                str(st["n_threads"]),
                str(st["n_servers"]),
                f"{st['capacity']:g}",
                f"{st['total_utility']:.6g}",
                "-" if ratio is None else f"{ratio:.4f}",
                str(st["queue_length"]),
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    )


def _print_status(status: dict) -> None:
    """The classic single-instance ``aart client status`` rendering."""
    print(
        f"version {status['version']}: {status['n_threads']} threads on "
        f"{status['n_servers']} servers (C={status['capacity']:g})"
    )
    print(f"total utility      = {status['total_utility']:.6g}")
    if status["last_bound"]:
        print(
            f"last certification = {status['last_ratio']:.4f} of bound "
            f"{status['last_bound']:.6g} (at version "
            f"{status['last_certified_version']})"
        )
    loads = ", ".join(f"{x:.4g}" for x in status["server_loads"])
    print(f"server loads       = [{loads}]")
    print(f"steps since replan = {status['steps_since_replan']}")


def cmd_client(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.serialization import utility_from_dict
    from repro.service import Client

    if args.client_command == "status" and args.endpoints:
        # Multi-instance view: one status round per endpoint, one table.
        rows = []
        for host, port in _parse_endpoints(args.endpoints, args.port):
            with Client(host=host, port=port) as client:
                rows.append((f"{host}:{port}", client.status()))
        print(_status_table(rows))
        total_u = sum(st["total_utility"] for _, st in rows)
        total_n = sum(st["n_threads"] for _, st in rows)
        print(f"total: {total_n} threads, utility {total_u:.6g} "
              f"across {len(rows)} instances")
        return 0

    tracer = None
    if getattr(args, "trace", None):
        from repro.observability import Tracer

        tracer = Tracer()

    with Client(host=args.host, port=args.port, tracer=tracer) as client:
        if args.client_command == "submit":
            if args.utility_file:
                spec = _json.loads(Path(args.utility_file).read_text())
            else:
                spec = _json.loads(args.utility)
            resp = client.submit(args.id, utility_from_dict(spec))
        elif args.client_command == "remove":
            resp = client.remove(args.id)
        elif args.client_command == "rebalance":
            resp = client.rebalance()
        elif args.client_command == "snapshot":
            resp = client.snapshot(args.output)
        elif args.client_command == "flight":
            flight = client.flight()
            doc = _json.dumps(flight, indent=2, sort_keys=True, default=str)
            if args.output:
                Path(args.output).write_text(doc + "\n")
                print(
                    f"flight ring ({len(flight.get('events', []))} events) "
                    f"written to {args.output}"
                )
            else:
                print(doc)
            resp = None
        elif args.client_command == "metrics":
            print(_render_metrics(client.metrics()))
            resp = None
        else:  # status
            _print_status(client.status())
            resp = None
    if tracer is not None:
        snap = tracer.snapshot()
        Path(args.trace).write_text(_json.dumps(snap, sort_keys=True) + "\n")
        print(
            f"trace ({len(snap['spans'])} spans) written to {args.trace} "
            f"(render: aart trace {args.trace})"
        )
    if resp is None:
        return 0
    payload = {k: v for k, v in resp.data.items() if k != "state"}
    if resp.ok:
        print(f"{resp.op}: ok {_json.dumps(payload, sort_keys=True)}")
        return 0
    print(f"{resp.op}: REFUSED — {resp.error}", file=sys.stderr)
    return 1


def cmd_fleet(args) -> int:
    """``aart fleet serve|status|rebalance`` — the sharded allocation tier."""
    if args.fleet_command == "serve":
        return _fleet_serve(args)

    from repro.service import Client

    with Client(host=args.host, port=args.port) as client:
        if args.fleet_command == "rebalance":
            resp = client.rebalance()
            if not resp.ok:
                print(f"rebalance: REFUSED — {resp.error}", file=sys.stderr)
                return 1
            d = resp.data
            print(
                f"rebalance: {d.get('migrations', 0)} migrations, "
                f"{d.get('rollbacks', 0)} rollbacks "
                f"(donor {d.get('donor')} → receiver {d.get('receiver')})"
            )
            print(
                f"fleet utility {d.get('utility_before', 0.0):.6g} → "
                f"{d.get('utility_after', 0.0):.6g}"
            )
            return 0
        # status
        status = client.status()
        if not status.get("fleet"):
            print(
                "warning: endpoint is a single service, not a fleet "
                "coordinator", file=sys.stderr,
            )
            _print_status(status)
            return 0
        cert = status["certificate"]
        print(
            f"fleet of {status['n_shards']} shards: {status['n_threads']} "
            f"threads on {status['n_servers']} servers "
            f"({status['steps']} steps, {status['migrations']} migrations, "
            f"{status['rebalances']} rebalances)"
        )
        ratio = cert["ratio"]
        print(
            f"composed certificate: utility {cert['utility']:.6g} / bound "
            f"{cert['bound']:.6g}"
            + ("" if ratio is None else f" = {ratio:.4f}")
            + (
                f" (α={cert['alpha']:.4f} "
                f"{'holds' if cert['holds_alpha'] else 'NOT certified'})"
            )
        )
        rows = [
            (f"shard {s['shard']}", s) for s in status["shards"]
        ]
        print(_status_table(rows))
        return 0


def _fleet_serve(args) -> int:
    from pathlib import Path

    from repro.observability import FlightRecorder
    from repro.service import (
        AllocationService,
        ClusterState,
        FleetCoordinator,
        FleetPolicy,
        load_fleet_snapshot,
        save_fleet_snapshot,
    )

    def build(sink, flight):
        policy = FleetPolicy(
            rebalance_interval=args.rebalance_interval or None,
            imbalance_threshold=args.imbalance,
            migration_budget=args.migration_budget,
        )
        if args.snapshot and Path(args.snapshot).exists():
            fleet = load_fleet_snapshot(
                args.snapshot, policy=policy, sink=sink, flight=flight
            )
            print(
                f"warm restart from {args.snapshot}: {fleet.n_shards} shards, "
                f"{fleet.n_threads} threads"
            )
        else:
            shards = [
                AllocationService(
                    ClusterState(
                        args.servers_per_shard, args.capacity, solver=args.solver
                    ),
                    seed=args.seed + k,
                    # Each shard keeps its own ring beside the coordinator's,
                    # as a warm restart's shards do (fleet_snapshot_from_dict).
                    flight=FlightRecorder() if flight is not None else None,
                )
                for k in range(args.shards)
            ]
            fleet = FleetCoordinator(shards, policy=policy, sink=sink, flight=flight)
        return fleet, "aart fleet coordinator", f"{fleet.n_shards} shards"

    def save(fleet):
        save_fleet_snapshot(fleet, args.snapshot)
        print(f"fleet snapshot saved to {args.snapshot}")

    return _run_daemon(args, build, save)


def _hist_quantile(inst: dict, q: float) -> float:
    """Bucket-resolution quantile from a histogram instrument snapshot."""
    import math

    total = int(inst["count"])
    if total == 0:
        return math.nan
    rank = q * total
    seen = 0
    for bound, n in zip(inst["buckets"], inst["counts"]):
        seen += int(n)
        if seen >= rank and n:
            return float(bound)
    return math.inf


def _fmt_seconds(s: float) -> str:
    import math

    if math.isnan(s):
        return "-"
    if math.isinf(s):
        return "inf"
    return f"{s * 1e3:.3g}ms" if s < 1.0 else f"{s:.3g}s"


def _render_metrics(data: dict) -> str:
    """Human-readable summary of a ``QueryMetrics`` response payload."""
    gap = data["gap"]
    lines = [
        f"guarantee: {'OK' if gap['ok'] else 'BREACHED'} — "
        f"{gap['steps']} certified steps, {gap['breaches']} below "
        f"α={gap['threshold']:.4f}",
    ]
    if gap["last_ratio"] is not None:
        lines.append(
            f"ratio: last {gap['last_ratio']:.4f}, "
            f"min {gap['min_ratio']:.4f}, p50 {gap['p50']:.4f} "
            f"(rolling window of {gap['window']})"
        )
    counters, gauges, hists = [], [], []
    for inst in data["metrics"]["instruments"]:
        if inst["kind"] == "counter":
            counters.append(inst)
        elif inst["kind"] == "gauge":
            gauges.append(inst)
        else:
            hists.append(inst)
    if gauges:
        lines.append("gauges:")
        for inst in gauges:
            label = "".join(f"{{{k}={v}}}" for k, v in sorted(inst["labels"].items()))
            lines.append(f"  {inst['name']}{label} = {inst['value']:g}")
    if hists:
        lines.append("histograms (count / mean / p50 / p95):")
        for inst in hists:
            label = "".join(f"{{{k}={v}}}" for k, v in sorted(inst["labels"].items()))
            n = int(inst["count"])
            mean = inst["sum"] / n if n else float("nan")
            lines.append(
                f"  {inst['name']}{label}: {n} / {_fmt_seconds(mean)} / "
                f"{_fmt_seconds(_hist_quantile(inst, 0.50))} / "
                f"{_fmt_seconds(_hist_quantile(inst, 0.95))}"
            )
    if counters:
        lines.append("counters:")
        for inst in counters:
            lines.append(f"  {inst['name']} = {inst['value']:g}")
    return "\n".join(lines)


def _phase_table(rows: list[tuple[str, ...]]) -> str:
    """Aligned per-endpoint/shard phase-latency table."""
    header = ("endpoint", "shard", "op", "phase", "count", "p50", "p99")
    table = [header, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    )


def _phase_rows(label: str, data: dict) -> list[tuple[str, ...]]:
    """Phase-histogram rows from one ``QueryMetrics`` payload."""
    from repro.observability import REQUEST_PHASE_SECONDS

    rows = []
    for inst in data["metrics"]["instruments"]:
        if inst["name"] != REQUEST_PHASE_SECONDS or inst["kind"] != "histogram":
            continue
        labels = inst["labels"]
        rows.append(
            (
                label,
                str(labels.get("shard", "-")),
                str(labels.get("op", "-")),
                str(labels.get("phase", "-")),
                str(int(inst["count"])),
                _fmt_seconds(_hist_quantile(inst, 0.50)),
                _fmt_seconds(_hist_quantile(inst, 0.99)),
            )
        )
    rows.sort()
    return rows


def cmd_top(args) -> int:
    """Poll a running service and render a compact refreshing dashboard."""
    import time

    from repro.service import Client

    if args.endpoints:
        # Per-shard phase-latency view: p50/p99 of every
        # aart_request_phase_seconds series across the given endpoints.
        ticks = 0
        try:
            while True:
                rows: list[tuple[str, ...]] = []
                for host, port in _parse_endpoints(args.endpoints, args.port):
                    with Client(host=host, port=port) as client:
                        rows.extend(_phase_rows(f"{host}:{port}", client.metrics()))
                if rows:
                    print(_phase_table(rows))
                else:
                    print("(no aart_request_phase_seconds series yet — "
                          "send some requests)")
                ticks += 1
                if args.iterations and ticks >= args.iterations:
                    return 0
                time.sleep(args.interval)
                print()
        except KeyboardInterrupt:
            return 0

    ticks = 0
    try:
        while True:
            with Client(host=args.host, port=args.port) as client:
                status = client.status()
                data = client.metrics()
            gap = data["gap"]
            ratio = status["last_ratio"]
            loads = ", ".join(f"{x:.4g}" for x in status["server_loads"])
            print(
                f"v{status['version']}: {status['n_threads']} threads, "
                f"queue {status['queue_length']}, "
                f"utility {status['total_utility']:.6g}, "
                f"ratio {ratio:.4f} (α {gap['threshold']:.3f}), "
                f"{'OK' if gap['ok'] else 'BREACHED'} "
                f"[{gap['breaches']}/{gap['steps']} breached]"
            )
            print(f"  loads [{loads}] / C={status['capacity']:g}")
            for inst in data["metrics"]["instruments"]:
                if inst["kind"] != "histogram" or not inst["labels"].get("op"):
                    continue
                n = int(inst["count"])
                lines = (
                    f"  {inst['labels']['op']}: {n} reqs, "
                    f"p50 {_fmt_seconds(_hist_quantile(inst, 0.50))}, "
                    f"p95 {_fmt_seconds(_hist_quantile(inst, 0.95))}"
                )
                print(lines)
            ticks += 1
            if args.iterations and ticks >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_trace(args) -> int:
    """Convert a JSONL event file's trace snapshots to Chrome trace JSON."""
    import json as _json
    from pathlib import Path

    from repro.observability import TRACE_FORMAT, Tracer, chrome_trace

    snapshots = []
    for line in Path(args.trace_file).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = _json.loads(line)
        except ValueError:
            continue
        if obj.get("format") == TRACE_FORMAT and "spans" in obj:
            snapshots.append(obj)
    if not snapshots:
        print(
            f"error: no {TRACE_FORMAT} snapshots in {args.trace_file} "
            "(solve with --trace, or emit_trace() from a SolveContext)",
            file=sys.stderr,
        )
        return 2
    if args.format == "chrome":
        doc = _json.dumps(chrome_trace(*snapshots))
        if args.output:
            Path(args.output).write_text(doc + "\n")
            n = sum(len(s["spans"]) for s in snapshots)
            print(
                f"wrote {n} spans from {len(snapshots)} trace(s) to {args.output} "
                "(load at https://ui.perfetto.dev or chrome://tracing)"
            )
        else:
            print(doc)
        return 0
    # --format tree: ASCII span forests with durations.
    for snap in snapshots:
        tracer = Tracer(trace_id=snap.get("trace_id", "?"))
        tracer.merge(snap, parent_id=None, at=0.0)
        print(f"trace {tracer.trace_id}:")

        def render(nodes, depth):
            for node in nodes:
                print(
                    f"{'  ' * depth}- {node['name']} "
                    f"({_fmt_seconds(node['duration'])})"
                )
                render(node["children"], depth + 1)

        render(tracer.tree(), 1)
    return 0


def cmd_check(args) -> int:
    from pathlib import Path

    from repro.checks import render_json, render_sarif, render_text, run_checks

    paths = args.paths or [p for p in ("src", "tests") if Path(p).exists()]

    def split_codes(chunks):
        if not chunks:
            return None
        return [c for chunk in chunks for c in chunk.split(",")]

    baseline = args.baseline
    if args.update_baseline and baseline is None:
        baseline = ".aart-baseline.json"
    result = run_checks(
        paths,
        select=split_codes(args.select),
        ignore=split_codes(args.ignore),
        baseline=baseline,
        update_baseline=args.update_baseline,
    )
    if args.format == "json":
        rendered = render_json(result)
    elif args.format == "sarif":
        rendered = render_sarif(result)
    else:
        rendered = render_text(result)
    print(rendered)
    return result.exit_code


def cmd_profile(args) -> int:
    from repro.analysis.instance import profile_instance

    problem = load_problem(args.problem)
    prof = profile_instance(problem)
    print(f"threads/servers/beta : {prof.n_threads} / {prof.n_servers} / {prof.beta:g}")
    print(f"top-utility gini     : {prof.top_gini:.3f} (dispersion; high = hard for heuristics)")
    print(f"demand fraction      : mean {prof.demand_fraction_mean:.3f}, "
          f"max {prof.demand_fraction_max:.3f} (fragmentation risk)")
    print(f"pool saturation      : {prof.saturation:.3f}")
    print(f"curvature mean       : {prof.curvature_mean:.3f} (0.5 linear, 1.0 step)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aart",
        description="Utility-maximizing thread assignment and resource allocation "
        "(IPDPS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem JSON")
    p.add_argument("problem")
    p.add_argument(
        "--algorithm",
        choices=[s.name for s in list_solvers()],
        default="alg2",
        help="any registered solver (see `aart solvers`)",
    )
    p.add_argument("--no-reclaim", action="store_true",
                   help="run the verbatim paper algorithm (no post-pass)")
    p.add_argument("--refine", action="store_true",
                   help="polish with move/swap local search")
    p.add_argument("--trace", metavar="PATH",
                   help="write instrumentation events (JSONL) here")
    p.add_argument("-o", "--output", help="save the assignment JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="generate a Section VII workload")
    p.add_argument("--dist", choices=("uniform", "normal", "powerlaw", "discrete"),
                   default="uniform")
    p.add_argument("--alpha", type=float, default=2.0, help="power-law exponent")
    p.add_argument("--gamma", type=float, default=0.85, help="discrete P(low)")
    p.add_argument("--theta", type=float, default=5.0, help="discrete high/low")
    p.add_argument("--servers", type=int, default=8)
    p.add_argument("--beta", type=float, default=5.0, help="threads per server")
    p.add_argument("--capacity", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("figure", help="regenerate a paper figure panel")
    p.add_argument("figure_id", choices=sorted(FIGURES))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes per sweep point (-1 = all cores); "
                   "results are bit-identical for any N")
    p.add_argument("--chunksize", type=int, default=None, metavar="K",
                   help="trials per worker chunk (default: ~4 chunks per worker)")
    p.add_argument("--spark", action="store_true",
                   help="also render unicode sparklines per series")
    p.add_argument("--save", help="write results JSON here (with provenance)")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("evaluate", help="score an assignment JSON")
    p.add_argument("problem")
    p.add_argument("assignment")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("check", help="run the domain-aware static-analysis pass")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: src and tests)")
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text",
                   help="report format (json is the CI artifact; sarif renders "
                   "as code-scanning annotations)")
    p.add_argument("--select", action="append", metavar="RULES",
                   help="comma-separated rule codes to run (default: all); "
                   "repeatable")
    p.add_argument("--ignore", action="append", metavar="RULES",
                   help="comma-separated rule codes to skip (validated against "
                   "the registry); repeatable")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="suppress findings recorded in this baseline file "
                   "(aart-baseline/1)")
    p.add_argument("--update-baseline", action="store_true",
                   help="regenerate the baseline file from this run's findings "
                   "(default file: .aart-baseline.json)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("profile", help="diagnose an instance's difficulty")
    p.add_argument("problem")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("solvers", help="list registered solvers and guarantees")
    p.add_argument("--kind", choices=SOLVER_KINDS, default=None,
                   help="filter to one registry kind (e.g. --kind heuristic "
                   "for the Section VII baselines)")
    p.set_defaults(func=cmd_solvers)

    p = sub.add_parser("serve", help="run the allocation service daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421, help="0 picks a free port")
    p.add_argument("--servers", type=int, default=4)
    p.add_argument("--capacity", type=float, default=100.0)
    p.add_argument("--migration-cost", type=float, default=0.0)
    p.add_argument("--solver", default="alg2",
                   choices=[s.name for s in list_solvers()],
                   help="registry algorithm for policy replans")
    p.add_argument("--drift", type=float, default=ALPHA,
                   help="replan when utility < DRIFT × super-optimal bound "
                   f"(default: the paper's α ≈ {ALPHA:.3f})")
    p.add_argument("--staleness", type=int, default=16,
                   help="replan after this many incremental steps (0 disables)")
    p.add_argument("--migration-budget", type=int, default=None,
                   help="decline policy replans moving more threads than this")
    p.add_argument("--min-gain", type=float, default=0.0,
                   help="admission floor on a thread's projected marginal utility")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="admission bound on the pending-mutation queue")
    p.add_argument("--budget-s", type=float, default=None,
                   help="per-step wall-clock solve budget (seconds)")
    p.add_argument("--snapshot", metavar="PATH",
                   help="restore from PATH at start (if present) and save on exit")
    p.add_argument("--trace", metavar="PATH",
                   help="write request/step/replan events (JSONL) here")
    p.add_argument("--flight-dump", metavar="PATH",
                   help="attach a flight recorder; SIGUSR1 (and the first "
                   "/healthz 503) dumps the ring of recent events here")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="also serve HTTP /metrics (Prometheus) and /healthz "
                   "(JSON) on this port (0 picks a free port)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="talk to a running allocation service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--trace", metavar="PATH",
                   help="trace this request: stitch the server's ferried "
                   "spans under the client span and write an aart-trace/1 "
                   "JSONL line here (render: aart trace PATH)")
    csub = p.add_subparsers(dest="client_command", required=True)
    c = csub.add_parser("submit", help="admit a thread")
    c.add_argument("--id", required=True, help="thread id")
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--utility", help='inline utility JSON, e.g. '
                       '\'{"type": "log", "coeff": 1, "scale": 1, "cap": 100}\'')
    group.add_argument("--utility-file", help="file with one utility JSON object")
    c = csub.add_parser("remove", help="withdraw a thread")
    c.add_argument("--id", required=True, help="thread id")
    csub.add_parser("rebalance", help="force a full re-solve")
    c = csub.add_parser("status", help="print the cluster overview")
    c.add_argument("--endpoints", metavar="HOST:PORT,...",
                   help="comma-separated service endpoints — render one "
                   "table across all of them (bare host inherits --port)")
    csub.add_parser("metrics", help="print gap stats and instrument summary")
    c = csub.add_parser("snapshot", help="snapshot the daemon's state")
    c.add_argument("-o", "--output", help="server-side path to write (else inline)")
    c = csub.add_parser("flight", help="fetch the daemon's flight-recorder ring")
    c.add_argument("-o", "--output", help="write the aart-flight/1 JSON here "
                   "(else pretty-print)")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("fleet", help="run or inspect a sharded fleet coordinator")
    fsub = p.add_subparsers(dest="fleet_command", required=True)
    f = fsub.add_parser("serve", help="run N in-process shards behind one "
                        "coordinator endpoint")
    f.add_argument("--host", default="127.0.0.1")
    f.add_argument("--port", type=int, default=7431, help="0 picks a free port")
    f.add_argument("--shards", type=int, default=3)
    f.add_argument("--servers-per-shard", type=int, default=4)
    f.add_argument("--capacity", type=float, default=100.0)
    f.add_argument("--solver", default="alg2",
                   choices=[s.name for s in list_solvers()],
                   help="registry algorithm each shard replans with")
    f.add_argument("--rebalance-interval", type=int, default=8,
                   help="cross-shard rebalance after this many fleet steps "
                   "(0 disables the interval trigger)")
    f.add_argument("--imbalance", type=float, default=0.25,
                   help="cross-shard rebalance when residual-capacity "
                   "fractions spread wider than this")
    f.add_argument("--migration-budget", type=int, default=8,
                   help="max threads one cross-shard pass may migrate")
    f.add_argument("--snapshot", metavar="PATH",
                   help="restore the fleet from PATH at start (if present) "
                   "and save on exit (aart-fleet-snapshot/1)")
    f.add_argument("--trace", metavar="PATH",
                   help="write fleet step/rebalance/migration events here")
    f.add_argument("--flight-dump", metavar="PATH",
                   help="attach a flight recorder; SIGUSR1 (and the first "
                   "/healthz 503) dumps the ring of recent events here")
    f.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="also serve shard-labeled /metrics and fleet /healthz")
    f.add_argument("--seed", type=int, default=0)
    f = fsub.add_parser("status", help="composed certificate + per-shard table")
    f.add_argument("--host", default="127.0.0.1")
    f.add_argument("--port", type=int, default=7431)
    f = fsub.add_parser("rebalance", help="force one cross-shard rebalance pass")
    f.add_argument("--host", default="127.0.0.1")
    f.add_argument("--port", type=int, default=7431)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("top", help="live dashboard for a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--endpoints", metavar="HOST:PORT,...",
                   help="phase-latency mode: tabulate per-shard "
                   "aart_request_phase_seconds p50/p99 across these "
                   "endpoints (bare host inherits --port)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls")
    p.add_argument("--iterations", type=int, default=0, metavar="N",
                   help="stop after N frames (default: until Ctrl-C)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "trace", help="convert a JSONL trace to Chrome/Perfetto or a span tree"
    )
    p.add_argument("trace_file", help="JSONL written by --trace / emit_trace()")
    p.add_argument("--format", choices=("chrome", "tree"), default="chrome")
    p.add_argument("-o", "--output", help="write Chrome JSON here (else stdout)")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution shim
    sys.exit(main())
