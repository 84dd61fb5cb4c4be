"""CLI: generate → solve → evaluate round-trip, figure smoke, error paths."""

import json

import pytest

from repro.cli import main


def test_generate_writes_problem(tmp_path, capsys):
    out = tmp_path / "p.json"
    rc = main(["generate", "--dist", "uniform", "--servers", "2", "--beta", "3",
               "--capacity", "50", "--seed", "1", "-o", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["format"] == "aart-problem/1"
    assert data["n_servers"] == 2
    assert len(data["utilities"]) == 6
    assert "6-thread" in capsys.readouterr().out


def test_generate_discrete_params(tmp_path):
    out = tmp_path / "d.json"
    rc = main(["generate", "--dist", "discrete", "--gamma", "0.5", "--theta", "3",
               "--servers", "2", "--beta", "2", "-o", str(out)])
    assert rc == 0


def test_solve_prints_certificate(tmp_path, capsys):
    out = tmp_path / "p.json"
    main(["generate", "--servers", "2", "--beta", "4", "--capacity", "100",
          "--seed", "3", "-o", str(out)])
    rc = main(["solve", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "certified ratio" in text
    assert "server 0" in text


def test_solve_saves_and_evaluate_scores(tmp_path, capsys):
    p = tmp_path / "p.json"
    a = tmp_path / "a.json"
    main(["generate", "--servers", "2", "--beta", "3", "--seed", "5", "-o", str(p)])
    rc = main(["solve", str(p), "-o", str(a)])
    assert rc == 0
    assert a.exists()
    rc = main(["evaluate", str(p), str(a)])
    assert rc == 0
    assert "evaluated assignment" in capsys.readouterr().out


def test_evaluate_infeasible_assignment_exits_nonzero(tmp_path, capsys):
    """Overloading a server must be reported clearly, not scored."""
    p = tmp_path / "p.json"
    a = tmp_path / "a.json"
    main(["generate", "--servers", "2", "--beta", "2", "--capacity", "100",
          "--seed", "7", "-o", str(p)])
    n_threads = len(json.loads(p.read_text())["utilities"])
    # Every thread on server 0 with a full-capacity grant: loads sum to
    # n_threads × C on one server — infeasible for any n_threads > 1.
    a.write_text(json.dumps({
        "format": "aart-assignment/1",
        "servers": [0] * n_threads,
        "allocations": [100.0] * n_threads,
    }))
    rc = main(["evaluate", str(p), str(a)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "exceeds capacity" in err


def test_evaluate_wrong_thread_count_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "p.json"
    a = tmp_path / "a.json"
    main(["generate", "--servers", "2", "--beta", "2", "-o", str(p)])
    a.write_text(json.dumps({
        "format": "aart-assignment/1", "servers": [0], "allocations": [1.0],
    }))
    assert main(["evaluate", str(p), str(a)]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_solve_refine_flag(tmp_path, capsys):
    p = tmp_path / "p.json"
    main(["generate", "--servers", "2", "--beta", "2", "--seed", "4", "-o", str(p)])
    rc = main(["solve", str(p), "--refine"])
    assert rc == 0
    assert "local search" in capsys.readouterr().out


def test_solve_raw_mode(tmp_path):
    p = tmp_path / "p.json"
    main(["generate", "--servers", "2", "--beta", "3", "--seed", "6", "-o", str(p)])
    assert main(["solve", str(p), "--no-reclaim", "--algorithm", "alg1"]) == 0


def test_figure_smoke(capsys):
    rc = main(["figure", "fig3c", "--trials", "2"])
    # Shape warnings allowed at 2 trials; command must still render rows.
    out = capsys.readouterr().out
    assert "alg2/SO" in out
    assert rc in (0, 1)


def test_figure_spark_and_save(tmp_path, capsys):
    out_path = tmp_path / "fig.json"
    rc = main(["figure", "fig3c", "--trials", "2", "--spark",
               "--save", str(out_path)])
    assert rc in (0, 1)
    out = capsys.readouterr().out
    assert "…" in out  # sparkline range markers
    assert out_path.exists()
    data = json.loads(out_path.read_text())
    assert data["figure_id"] == "fig3c"


def test_profile_diagnostics(tmp_path, capsys):
    p = tmp_path / "p.json"
    main(["generate", "--dist", "powerlaw", "--servers", "2", "--beta", "4",
          "--seed", "8", "-o", str(p)])
    rc = main(["profile", str(p)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gini" in out
    assert "saturation" in out


def test_client_session_against_live_server(capsys):
    """`aart client` subcommands against a TcpServer-hosted daemon."""
    from repro.service import AllocationService, ClusterState, TcpServer

    svc = AllocationService(ClusterState(2, 10.0))
    with TcpServer(svc, port=0) as srv:
        port = str(srv.port)
        rc = main(["client", "--port", port, "submit", "--id", "t1", "--utility",
                   '{"type": "log", "coeff": 1, "scale": 1, "cap": 10}'])
        assert rc == 0
        assert "submit: ok" in capsys.readouterr().out
        rc = main(["client", "--port", port, "status"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 threads on 2 servers" in out
        assert "total utility" in out
        rc = main(["client", "--port", port, "rebalance"])
        assert rc == 0
        rc = main(["client", "--port", port, "remove", "--id", "ghost"])
        assert rc == 1
        assert "REFUSED" in capsys.readouterr().err
        rc = main(["client", "--port", port, "remove", "--id", "t1"])
        assert rc == 0


def test_client_submit_utility_file(tmp_path, capsys):
    from repro.service import AllocationService, ClusterState, TcpServer

    spec = tmp_path / "u.json"
    spec.write_text('{"type": "saturating", "vmax": 2, "k": 1, "cap": 10}')
    svc = AllocationService(ClusterState(1, 10.0))
    with TcpServer(svc, port=0) as srv:
        rc = main(["client", "--port", str(srv.port), "submit", "--id", "s",
                   "--utility-file", str(spec)])
    assert rc == 0
    assert svc.state.thread_ids == ["s"]


def test_serve_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--port", "0"])
    assert args.servers == 4
    assert args.staleness == 16
    assert 0.82 < args.drift < 0.83


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_solve_trace_then_chrome_export(tmp_path, capsys):
    """--trace writes a span tree that `aart trace` renders both ways."""
    p = tmp_path / "prob.json"
    trace = tmp_path / "run.jsonl"
    main(["generate", "--servers", "2", "--beta", "3", "--seed", "2", "-o", str(p)])
    assert main(["solve", str(p), "--trace", str(trace)]) == 0
    capsys.readouterr()

    chrome = tmp_path / "run.chrome.json"
    assert main(["trace", str(trace), "--format", "chrome", "-o", str(chrome)]) == 0
    doc = json.loads(chrome.read_text())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in xs}
    assert "solve.alg2" in names and "linearize" in names

    assert main(["trace", str(trace), "--format", "tree"]) == 0
    out = capsys.readouterr().out
    assert "solve.alg2" in out
    assert "linearize" in out


def test_trace_rejects_file_without_spans(tmp_path, capsys):
    bogus = tmp_path / "empty.jsonl"
    bogus.write_text('{"type": "counters", "counters": {}}\n')
    assert main(["trace", str(bogus)]) == 2
    assert "no aart-trace" in capsys.readouterr().err


def test_client_metrics_and_top_against_live_server(capsys):
    from repro.service import AllocationService, ClusterState, TcpServer

    svc = AllocationService(ClusterState(2, 10.0))
    with TcpServer(svc, port=0) as srv:
        port = str(srv.port)
        main(["client", "--port", port, "submit", "--id", "t1", "--utility",
              '{"type": "log", "coeff": 1, "scale": 1, "cap": 10}'])
        main(["client", "--port", port, "rebalance"])
        capsys.readouterr()

        assert main(["client", "--port", port, "metrics"]) == 0
        out = capsys.readouterr().out
        assert "guarantee: OK" in out
        assert "ratio: last" in out
        assert "aart_request_latency_seconds" in out
        assert "aart_threads" in out

        rc = main(["top", "--port", port, "--iterations", "1", "--interval", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "threads" in out and "ratio" in out


def test_serve_metrics_port_flag_parses():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--port", "0",
                                      "--metrics-port", "9100"])
    assert args.metrics_port == 9100
    assert build_parser().parse_args(["serve"]).metrics_port is None


def test_serve_saves_snapshot_on_sigterm(tmp_path):
    """A supervisor's SIGTERM takes `aart serve` through its shutdown path."""
    import os
    import queue
    import signal
    import subprocess
    import sys
    import threading
    from pathlib import Path

    from repro.service import load_snapshot

    snap = tmp_path / "svc.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--servers", "2", "--snapshot", str(snap)],
        stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)

    threading.Thread(target=pump, daemon=True).start()
    try:
        while "Ctrl-C to stop" not in lines.get(timeout=30.0):
            pass
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
    state = load_snapshot(str(snap))
    assert state.n_servers == 2 and state.n_threads == 0


def test_fleet_sigusr1_dump_carries_the_shard_rings(tmp_path):
    """`kill -USR1` on `aart fleet serve` writes the document /debug/flight
    serves: the coordinator's ring plus every shard's under ``shards``.
    Each in-process shard keeps its own ring, so the shard that placed a
    submitted thread shows its step."""
    import json
    import os
    import queue
    import re
    import signal
    import subprocess
    import sys
    import threading
    import time
    from pathlib import Path

    from repro.service import Client
    from repro.utility.functions import LogUtility

    dump = tmp_path / "fleet-flight.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fleet", "serve", "--port", "0",
         "--shards", "2", "--servers-per-shard", "2", "--flight-dump", str(dump)],
        stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)

    threading.Thread(target=pump, daemon=True).start()
    try:
        line = ""
        while "Ctrl-C to stop" not in line:
            line = lines.get(timeout=30.0)
        port = int(re.search(r":(\d+) \(", line).group(1))
        with Client(port=port, timeout=30.0) as client:
            assert client.submit("t1", LogUtility(1.0, 1.0, 10.0)).ok
        proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not dump.exists():
            assert time.monotonic() < deadline, "no flight dump within 30 s"
            time.sleep(0.05)
        doc = json.loads(dump.read_text(encoding="utf-8"))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
    assert doc["format"] == "aart-flight/1"
    assert len(doc["shards"]) == 2
    assert all(ring["format"] == "aart-flight/1" for ring in doc["shards"])
    assert any(e["kind"] == "step" for ring in doc["shards"] for e in ring["events"])
