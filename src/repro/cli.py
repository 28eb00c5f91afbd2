"""Command-line interface.

``hgdb-py`` drives the debugger from a shell, the workflow a hardware
engineer would actually use with trace files and symbol tables on disk::

    hgdb-py replay run.vcd symbols.db          # offline debugging session
    hgdb-py info symbols.db                    # inspect a symbol table
    hgdb-py vcd-info run.vcd                   # inspect a trace
    hgdb-py shard pkg.mod:factory -b f.py:42   # parallel seed sweep
    hgdb-py lint pkg.mod:factory --json        # static analysis gate
    hgdb-py stats pkg.mod:factory              # profile one shard run
    hgdb-py hub serve pkg.mod:factory          # multi-session debug server
    hgdb-py hub attach localhost:9000 -b f.py:42 -c "c; p out; q"

Observability (``repro.obs``, see docs/observability.md): ``stats`` runs
one instrumented shard and prints the metric catalog; ``shard
--trace-out t.json`` records a merged Chrome trace (coordinator + every
worker) loadable in Perfetto, and ``--prometheus m.prom`` writes the
aggregated metrics in text exposition format.

Also usable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_info(args) -> int:
    from .symtable import SQLiteSymbolTable

    st = SQLiteSymbolTable(args.symbols)
    print(f"top module : {st.top_name()}")
    print(f"debug mode : {st.attribute('debug_mode') == '1'}")
    insts = st.instances()
    print(f"instances  : {len(insts)}")
    for inst in insts[: args.limit]:
        gen = st.generator_variables(inst.id)
        print(f"  {inst.name}  (module {inst.module}, {len(gen)} generator vars)")
    bps = st.all_breakpoints()
    print(f"breakpoints: {len(bps)}")
    for f in st.filenames():
        lines = st.breakpoint_lines(f)
        print(f"  {f}: {len(lines)} breakable lines ({lines[0]}..{lines[-1]})")
    return 0


def _cmd_vcd_info(args) -> int:
    from .trace import parse_vcd_file

    vcd = parse_vcd_file(args.vcd)
    clock = vcd.find_clock()
    print(f"signals  : {len(vcd.by_path)}")
    print(f"end time : {vcd.end_time}")
    if clock is not None:
        posedges = sum(1 for v in clock.values if v == 1)
        print(f"clock    : {clock.path} ({posedges} rising edges)")
    scopes = list(vcd.root_scopes)
    while scopes:
        scope = scopes.pop(0)
        print(f"  scope {scope.path}: {len(scope.signals)} signals")
        scopes.extend(scope.children)
    return 0


def _cmd_replay(args) -> int:
    from .client import ConsoleDebugger
    from .core import Runtime
    from .symtable import SQLiteSymbolTable
    from .trace import ReplayEngine

    replay = ReplayEngine.from_file(args.vcd, args.clock)
    symtable = SQLiteSymbolTable(args.symbols)
    runtime = Runtime(replay, symtable)

    script = None
    if args.command:
        script = [c.strip() for c in args.command.split(";") if c.strip()]
    debugger = ConsoleDebugger(runtime, script=script, echo=True)
    runtime.attach()

    print(f"replaying {args.vcd}: {replay.n_cycles} cycles")
    print(f"symbol table top: {symtable.top_name()}")
    print(replay.timeline.describe())
    for pre in args.breakpoint or []:
        debugger.execute(f"b {pre}")
    replay.run()
    print(f"replay finished at cycle {replay.get_time()}")
    return 0


def _parse_location(text: str):
    """Split ``FILE:LINE[ if COND]`` into (filename, line, condition)."""
    location, _, condition = text.partition(" if ")
    filename, _, line_s = location.strip().rpartition(":")
    if not filename:
        raise ValueError(f"expected FILE:LINE[ if COND], got {text!r}")
    return filename, int(line_s), (condition.strip() or None)


def load_design_factory(spec: str):
    """Resolve a ``MODULE:CALLABLE`` design factory — the one import
    helper every factory-taking subcommand (``lint``/``shard``/``stats``/
    ``hub``) shares, so the error messages stay uniform.  Returns the
    callable, or prints an error and returns None."""
    import importlib

    mod_name, _, attr = spec.partition(":")
    if not attr:
        print(
            f"error: factory must be MODULE:CALLABLE, got {spec!r}",
            file=sys.stderr,
        )
        return None
    try:
        module = importlib.import_module(mod_name)
        return getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        print(f"error: cannot load factory {spec!r}: {exc}", file=sys.stderr)
        return None


def _cmd_lint(args) -> int:
    import json

    from . import hgf
    from .lint import (
        Severity,
        diagnostics_to_json,
        format_diagnostics,
        has_errors,
        lint_circuit,
    )

    try:
        threshold = Severity.parse(args.min_severity)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    exit_code = 0
    documents = []
    for spec in args.factory:
        factory = load_design_factory(spec)
        if factory is None:
            return 2
        try:
            circuit = hgf.elaborate(factory())
        except Exception as exc:
            print(f"error: elaborating {spec!r} failed: {exc}",
                  file=sys.stderr)
            return 2
        diags = lint_circuit(circuit, form="high")
        if has_errors(diags):
            exit_code = 1
        shown = [d for d in diags if d.severity >= threshold]
        if args.json:
            documents.append(
                diagnostics_to_json(shown, design=circuit.name)
            )
        elif shown:
            print(f"{circuit.name}: {len(shown)} diagnostic(s)")
            print(format_diagnostics(shown))
        else:
            print(f"{circuit.name}: clean")
    if args.json:
        doc = (
            documents[0]
            if len(documents) == 1
            else {"version": 1, "designs": documents}
        )
        print(json.dumps(doc, indent=2))
    return exit_code


def _cmd_shard(args) -> int:
    import json

    import repro
    from .shard import (
        BreakpointSpec,
        RetryPolicy,
        ShardSession,
        WatchSpec,
    )
    from .sim import SessionOptions

    factory = load_design_factory(args.factory)
    if factory is None:
        return 2
    design = repro.compile(factory(), debug=args.debug)

    try:
        breakpoints = []
        for spec in args.breakpoint or []:
            filename, line, condition = _parse_location(spec)
            breakpoints.append(
                BreakpointSpec(filename, line, condition=condition)
            )
        watchpoints = []
        for spec in args.watch or []:
            name, _, condition = spec.partition(" if ")
            watchpoints.append(
                WatchSpec(name.strip(), condition=condition.strip() or None)
            )
        overrides = {}
        for spec in args.override or []:
            name, eq, value = spec.partition("=")
            if not eq or not name:
                raise ValueError(f"expected NAME=VALUE, got {spec!r}")
            overrides[name] = int(value, 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def on_event(ev):
        if args.verbose and ev["event"] == "progress":
            print(
                f"  shard {ev['shard']}: {ev['done']}/{ev['total']} cycles, "
                f"{ev['hits']} hit(s)"
            )

    # Exporter flags imply the depth they need; an explicit --obs wins.
    obs_mode = args.obs
    if obs_mode is None and args.trace_out:
        obs_mode = "trace"
    elif obs_mode is None and args.prometheus:
        obs_mode = "metrics"
    if args.trace_out and obs_mode != "trace":
        print(
            f"error: --trace-out needs --obs trace, not {obs_mode!r}",
            file=sys.stderr,
        )
        return 2

    retry = RetryPolicy(max_attempts=max(1, args.retries))
    with ShardSession(
        design, workers=args.workers,
        options=SessionOptions(obs=obs_mode),
    ) as session:
        report = session.sweep(
            shards=args.shards,
            cycles=args.cycles,
            seed_base=args.seed_base,
            breakpoints=breakpoints,
            watchpoints=watchpoints,
            overrides=overrides,
            hit_limit=args.hit_limit,
            on_event=on_event if args.verbose else None,
            timeout=args.timeout,
            timeline_cycles=args.timeline,
            retry=retry,
            deadline=args.deadline,
            worlds_per_shard=args.worlds,
        )
    print(report.summary())
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report.to_json(), f, indent=2)
            f.write("\n")
        print(f"wrote {args.json}")
    if args.trace_out:
        report.write_chrome_trace(args.trace_out)
        print(f"wrote {args.trace_out} ({len(report.trace_spans())} span(s))")
    if args.prometheus:
        with open(args.prometheus, "w") as f:
            f.write(report.prometheus())
        print(f"wrote {args.prometheus}")
    return 0 if report.ok else 1


def _cmd_stats(args) -> int:
    import json

    import repro
    from .obs import format_metrics, make_obs, write_chrome_trace, write_prometheus
    from .shard import ShardSpec
    from .shard.worker import run_shard
    from .sim import compile_design, native
    from .symtable import symbol_table

    factory = load_design_factory(args.factory)
    if factory is None:
        return 2
    design = repro.compile(factory(), debug=args.debug)
    symtable = symbol_table(design)
    mode = "trace" if args.trace_out else "metrics"
    obs = make_obs(mode, proc="stats", labels={"shard": "0"})
    spec = ShardSpec(
        shard_id=0, seed=args.seed, cycles=args.cycles,
        timeline_cycles=args.timeline,
    )
    result = run_shard(design.low, symtable, spec, obs=obs)
    snapshot = obs.metrics.snapshot()
    print(
        f"{design.name}: {result.cycles} cycles in {result.wall_time_s:.3f}s "
        f"(seed {spec.seed})"
    )
    # Which tier Simulator.run() free-runs this design on (the shard
    # above runs its stimulus tape on the same kernel, unless --timeline
    # keeps it in Python).
    print(f"native free-run tier: {native.status(compile_design(design.low))}")
    print(format_metrics(snapshot))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(snapshot, f, indent=2)
            f.write("\n")
        print(f"wrote {args.json}")
    if args.trace_out:
        write_chrome_trace(args.trace_out, obs.tracer.spans)
        print(f"wrote {args.trace_out} ({len(obs.tracer.spans)} span(s))")
    if args.prometheus:
        write_prometheus(args.prometheus, snapshot)
        print(f"wrote {args.prometheus}")
    return 0


def _cmd_hub_serve(args) -> int:
    import time

    import repro
    from .hub import DebugHub, SessionOptions

    factory = load_design_factory(args.factory)
    if factory is None:
        return 2
    design = repro.compile(factory(), debug=args.debug)
    options = SessionOptions(
        snapshots=args.snapshots, obs=args.obs, strict=args.strict
    )
    hub = DebugHub(
        design, host=args.host, port=args.port,
        idle_ttl=args.idle_exit, options=options,
    )
    host, port = hub.serve_background()
    print(f"hub serving {design.name} on {host}:{port}")
    if args.address_file:
        with open(args.address_file, "w") as f:
            f.write(f"{host}:{port}\n")
    try:
        if args.serve_seconds is not None:
            # Bounded serving (tests, CI): hold the design hot for a
            # fixed window, then exit cleanly.
            time.sleep(args.serve_seconds)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        hub.close()
    return 0


def _cmd_hub_attach(args) -> int:
    from .client import ConsoleDebugger
    from .hub import HubClient

    host, _, port_s = args.address.rpartition(":")
    if not host:
        print(f"error: expected HOST:PORT, got {args.address!r}",
              file=sys.stderr)
        return 2
    script = None
    if args.command:
        script = [
            c.strip()
            for chunk in args.command
            for c in chunk.split(";")
            if c.strip()
        ]
    client = HubClient(host, int(port_s))
    try:
        hello = client.hello()
        session = client.attach(seed=args.seed, name=args.name)
        print(
            f"attached to {hello['design']} "
            f"({hello['sessions']} other session(s))"
        )
        debugger = ConsoleDebugger(session=session, script=script, echo=True)
        for pre in args.breakpoint or []:
            debugger.execute(f"b {pre}")
        stop = debugger.drive(args.cycles)
        if stop is None or stop.reason != "detached":
            # One-shot CLI attach: release the hub session instead of
            # leaving it parked for re-attach.
            session.detach()
        if stop is not None and stop.reason == "error":
            return 1
    finally:
        client.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgdb-py",
        description="source-level debugging for hardware generators",
    )
    sub = parser.add_subparsers(dest="command_name", required=True)

    p_info = sub.add_parser("info", help="inspect a symbol table")
    p_info.add_argument("symbols", help="SQLite symbol table path")
    p_info.add_argument("--limit", type=int, default=20, help="max instances shown")
    p_info.set_defaults(fn=_cmd_info)

    p_vcd = sub.add_parser("vcd-info", help="inspect a VCD trace")
    p_vcd.add_argument("vcd", help="VCD file path")
    p_vcd.set_defaults(fn=_cmd_vcd_info)

    p_rep = sub.add_parser("replay", help="debug a captured trace")
    p_rep.add_argument("vcd", help="VCD file path")
    p_rep.add_argument("symbols", help="SQLite symbol table path")
    p_rep.add_argument("--clock", help="full clock path (auto-detected otherwise)")
    p_rep.add_argument(
        "-b", "--breakpoint", action="append",
        help="breakpoint FILE:LINE to insert before replay (repeatable)",
    )
    p_rep.add_argument(
        "-c", "--command",
        help="semicolon-separated debugger commands (otherwise interactive)",
    )
    p_rep.set_defaults(fn=_cmd_replay)

    p_lint = sub.add_parser(
        "lint",
        help="statically analyze designs and report all diagnostics",
    )
    p_lint.add_argument(
        "factory",
        nargs="+",
        help="design factories as MODULE:CALLABLE returning an hgf.Module "
             "(repeatable)",
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable diagnostic document instead of "
             "file:line text (schema in docs/lint.md)",
    )
    p_lint.add_argument(
        "--min-severity", default="info", metavar="LEVEL",
        help="hide findings below this severity (info|warning|error); "
             "the exit code still reflects all error findings",
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_shard = sub.add_parser(
        "shard",
        aliases=["sweep"],
        help="run N design shards in parallel and aggregate debugger hits "
             "(alias: sweep)",
    )
    p_shard.add_argument(
        "factory",
        help="design factory as MODULE:CALLABLE returning an hgf.Module",
    )
    p_shard.add_argument("--shards", type=int, default=4, help="shard count")
    p_shard.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU; 0 = inline)",
    )
    p_shard.add_argument(
        "--cycles", type=int, default=1000, help="cycles per shard"
    )
    p_shard.add_argument(
        "--seed-base", type=int, default=0,
        help="shard i runs seed SEED_BASE+i",
    )
    p_shard.add_argument(
        "--worlds", type=int, default=0, metavar="N",
        help="pack N consecutive shards into each worker attempt, run "
             "one after another; results are identical to the unpacked "
             "sweep.  0 = one shard per attempt",
    )
    p_shard.add_argument(
        "-b", "--breakpoint", action="append",
        help="breakpoint 'FILE:LINE[ if COND]' armed in every shard "
             "(repeatable)",
    )
    p_shard.add_argument(
        "-w", "--watch", action="append",
        help="watchpoint 'NAME[ if COND]' armed in every shard (repeatable)",
    )
    p_shard.add_argument(
        "-o", "--override", action="append",
        help="hold input NAME=VALUE constant in every shard (repeatable)",
    )
    p_shard.add_argument(
        "--hit-limit", type=int, default=None,
        help="detach a shard's debugger after this many hits",
    )
    p_shard.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock budget for the whole sweep (s); on expiry "
             "workers are terminated and the sweep aborts",
    )
    p_shard.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="attempts per shard before degrading to inline execution: "
             "crashed, hung, or wire-corrupted workers are relaunched "
             "with backoff (default: 3)",
    )
    p_shard.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-shard attempt deadline (s): a worker exceeding it is "
             "terminated (then killed) and the attempt retried",
    )
    p_shard.add_argument(
        "--timeline", type=int, default=0, metavar="N",
        help="stream each shard's last N cycles of compressed state "
             "history so replica divergence is localized to the first "
             "divergent cycle and signal (0 = off)",
    )
    p_shard.add_argument(
        "--json", help="also write the aggregated report as JSON"
    )
    p_shard.add_argument(
        "--obs", choices=["off", "metrics", "trace"], default=None,
        help="observability depth (repro.obs) for the coordinator and "
             "every worker; default: $REPRO_OBS, then off.  Implied by "
             "--trace-out (trace) and --prometheus (metrics)",
    )
    p_shard.add_argument(
        "--trace-out", metavar="PATH",
        help="write the sweep's merged Chrome trace (coordinator + every "
             "worker on one timeline; open in Perfetto)",
    )
    p_shard.add_argument(
        "--prometheus", metavar="PATH",
        help="write the aggregated metrics in Prometheus text format",
    )
    p_shard.add_argument(
        "--debug", action="store_true",
        help="compile in debug mode (-O0 analog; keeps every variable)",
    )
    p_shard.add_argument(
        "-v", "--verbose", action="store_true",
        help="print per-shard progress events as they stream in",
    )
    p_shard.set_defaults(fn=_cmd_shard)

    p_hub = sub.add_parser(
        "hub",
        help="persistent multi-session debug server (docs/hub.md)",
    )
    hub_sub = p_hub.add_subparsers(dest="hub_command", required=True)

    p_serve = hub_sub.add_parser(
        "serve",
        help="compile a design once and serve debug sessions over TCP",
    )
    p_serve.add_argument(
        "factory",
        help="design factory as MODULE:CALLABLE returning an hgf.Module",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: an ephemeral port, printed on startup)",
    )
    p_serve.add_argument(
        "--address-file", metavar="PATH",
        help="write the bound HOST:PORT to this file once listening "
             "(lets scripts attach to an ephemeral port)",
    )
    p_serve.add_argument(
        "--idle-exit", type=float, default=None, metavar="S",
        help="evict sessions idle for S seconds (default: keep forever)",
    )
    p_serve.add_argument(
        "--serve-seconds", type=float, default=None, metavar="S",
        help="serve for S seconds then exit (default: until interrupted)",
    )
    p_serve.add_argument(
        "--snapshots", type=int, default=0, metavar="N",
        help="per-session retained timeline entries (enables reverse "
             "debugging across cycles)",
    )
    p_serve.add_argument(
        "--obs", choices=["off", "metrics", "trace"], default=None,
        help="hub observability depth (repro.obs); default: $REPRO_OBS",
    )
    p_serve.add_argument(
        "--strict", choices=["off", "warning", "error"], default=None,
        help="lint gate severity at hub compile (default: error)",
    )
    p_serve.add_argument(
        "--debug", action="store_true",
        help="compile in debug mode (-O0 analog; keeps every variable)",
    )
    p_serve.set_defaults(fn=_cmd_hub_serve)

    p_attach = hub_sub.add_parser(
        "attach", help="attach a console session to a running hub"
    )
    p_attach.add_argument("address", help="hub HOST:PORT")
    p_attach.add_argument(
        "-b", "--breakpoint", action="append",
        help="breakpoint FILE:LINE to insert before running (repeatable)",
    )
    p_attach.add_argument(
        "-c", "--command", action="append",
        help="debugger command to run at stops; repeatable, and each "
             "occurrence may hold several separated by ';' "
             "(otherwise interactive)",
    )
    p_attach.add_argument(
        "--seed", type=int, default=None,
        help="drive the session with the deterministic seed-N stimulus",
    )
    p_attach.add_argument(
        "--cycles", type=int, default=1000, help="cycles to run"
    )
    p_attach.add_argument("--name", default=None, help="session name")
    p_attach.set_defaults(fn=_cmd_hub_attach)

    p_stats = sub.add_parser(
        "stats",
        help="run one instrumented shard and print its metric catalog",
    )
    p_stats.add_argument(
        "factory",
        help="design factory as MODULE:CALLABLE returning an hgf.Module",
    )
    p_stats.add_argument(
        "--cycles", type=int, default=1000, help="cycles to run"
    )
    p_stats.add_argument("--seed", type=int, default=0, help="stimulus seed")
    p_stats.add_argument(
        "--timeline", type=int, default=0, metavar="N",
        help="also retain N cycles of compressed history (exercises the "
             "timeline metrics)",
    )
    p_stats.add_argument(
        "--json", metavar="PATH", help="write the metrics snapshot as JSON"
    )
    p_stats.add_argument(
        "--trace-out", metavar="PATH",
        help="record spans too and write a Chrome trace (Perfetto)",
    )
    p_stats.add_argument(
        "--prometheus", metavar="PATH",
        help="write the snapshot in Prometheus text format",
    )
    p_stats.add_argument(
        "--debug", action="store_true",
        help="compile in debug mode (-O0 analog; keeps every variable)",
    )
    p_stats.set_defaults(fn=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
