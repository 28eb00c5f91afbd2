"""A gdb-inspired console debugger (paper Sec. 3.5).

Two ways to drive a session, one command surface:

* **passive** (the classic shape): construct with a
  :class:`repro.core.Runtime`; when a breakpoint hits, the REPL runs
  inside the (blocking) clock callback, exactly like gdb sitting on a
  ptrace stop.  The embedding code owns the clock (``sim.step(...)``).
* **driving**: construct with any
  :class:`~repro.hub.api.SessionHandle` — a hub session
  (:class:`~repro.hub.client.HubSession`) or an in-process
  :class:`~repro.hub.api.LocalSession` — and call :meth:`drive`; the
  console owns the run loop and every control command resumes the
  session.  This is ``hgdb-py hub attach``.

In both modes, every data command goes through the unified session API
(:class:`~repro.hub.api.SessionHandle`), so the console never touches a
concrete engine class.  Fully scriptable — pass ``script`` a list of
commands and read ``transcript`` — which is how the tests and the
paper's case study drive it.

Commands are declared in a registry (:func:`register_command`): name,
aliases, usage, help, handler.  ``help`` output is generated from the
registry, and embedders add commands by registering specs instead of
patching the dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.frames import VariableView
from ..core.runtime import (
    CONTINUE,
    DETACH,
    REVERSE_CONTINUE,
    REVERSE_STEP,
    STEP,
    Command,
    DebuggerError,
    HitGroup,
    Runtime,
)
from ..hub.api import LocalSession, SessionError, SessionHandle, StopInfo

# -- the command registry ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class CommandSpec:
    """One console command: how it's named, parsed, documented, run."""

    name: str                 # canonical name ("continue")
    handler: object           # fn(dbg, args: list[str]) -> Command | None
    aliases: tuple = ()       # short forms ("c",)
    usage: str = ""           # one-line syntax, shown by `help`
    help: str = ""            # one-line description, shown by `help`


#: Default commands every ConsoleDebugger starts with, in `help` order.
_REGISTRY: dict[str, CommandSpec] = {}


def register_command(name: str, *, aliases=(), usage: str = "",
                     help: str = ""):
    """Declare a console command.  Used as a decorator on a handler
    ``fn(dbg, args)``; the spec lands in the default registry that every
    new :class:`ConsoleDebugger` copies (instances can also
    :meth:`~ConsoleDebugger.register` their own)."""

    def deco(fn):
        _REGISTRY[name] = CommandSpec(
            name, fn, tuple(aliases), usage or name, help
        )
        return fn

    return deco


# -- frame normalization ----------------------------------------------------
# A stop's frames are core.frames.Frame objects in passive mode and
# Frame.to_dict() records when they crossed the hub wire; these helpers
# give every command one shape to render.


def _frame_instance(frame) -> str:
    return frame["instance"] if isinstance(frame, dict) else frame.instance_path


def _frame_breakpoint_id(frame) -> int:
    if isinstance(frame, dict):
        return frame["breakpoint_id"]
    return frame.breakpoint.id


def _frame_vars(frame, kind: str) -> list[VariableView]:
    if isinstance(frame, dict):
        return [VariableView.from_dict(v) for v in frame.get(kind, [])]
    return frame.local_vars if kind == "local" else frame.generator_vars


class ConsoleDebugger:
    """Scriptable gdb-like front end over the unified session API."""

    def __init__(
        self,
        runtime: Runtime | None = None,
        script: list[str] | None = None,
        echo: bool = False,
        session: SessionHandle | None = None,
    ):
        if (runtime is None) == (session is None):
            raise ValueError(
                "ConsoleDebugger needs a Runtime (passive mode) or a "
                "SessionHandle (driving mode), not both"
            )
        self.runtime = runtime
        if runtime is not None:
            runtime.on_hit = self._on_hit
            self.session: SessionHandle = LocalSession(runtime)
            self.driving = False
        else:
            self.session = session
            self.driving = True
        self.script = list(script) if script else None
        self.echo = echo
        self.transcript: list[str] = []
        #: the current stop: a HitGroup (passive) or StopInfo (driving)
        self.current_hit: HitGroup | StopInfo | None = None
        self.current_frame = 0
        self.last_stop: StopInfo | None = None
        self.commands: dict[str, CommandSpec] = dict(_REGISTRY)

    def register(self, spec: CommandSpec) -> None:
        """Add (or replace) a command on this console instance."""
        self.commands[spec.name] = spec

    # -- I/O -----------------------------------------------------------------

    def _out(self, text: str) -> None:
        self.transcript.append(text)
        if self.echo:
            print(text)

    def _read(self) -> str:
        if self.script is not None:
            if not self.script:
                # Scripted session exhausted: keep running (passive) or
                # detach (driving — nobody is left to answer the REPL).
                return "q" if self.driving else "c"
            cmd = self.script.pop(0)
            self._out(f"(hgdb) {cmd}")
            return cmd
        return input("(hgdb) ")

    # -- hit handling (passive mode) -----------------------------------------

    def _on_hit(self, hit: HitGroup) -> Command:
        self.current_hit = hit
        self.current_frame = 0
        self._print_stop_banner(hit)
        while True:
            cmd = self.execute(self._read())
            if cmd is not None:
                self.current_hit = None
                return cmd

    def _print_stop_banner(self, hit) -> None:
        """The stop banner; ``hit`` is a HitGroup or a stopped StopInfo
        (both carry time/filename/line/frames/watch)."""
        watch = hit.watch if not isinstance(hit, dict) else None
        if watch is not None:
            if "error" in watch:
                self._out(
                    f"watchpoint #{watch['id']} condition error: "
                    f"{watch['error']}; watching unconditionally"
                )
            self._out(
                f"watchpoint #{watch['id']} {watch['label']}: "
                f"{watch['old']} -> {watch['new']} @ cycle {hit.time}"
            )
        else:
            short = hit.filename.rsplit("/", 1)[-1]
            self._out(
                f"stopped at {short}:{hit.line} @ cycle {hit.time} "
                f"[{len(hit.frames)} thread(s)]"
            )

    # -- driving mode ---------------------------------------------------------

    def drive(self, cycles: int = 1_000_000) -> StopInfo | None:
        """Own the run loop of an attached session: run up to ``cycles``
        cycles, serve the REPL at every stop, resume on control commands,
        and return the final :class:`StopInfo` (done/detached/error)."""
        self._enter_stop(self.session.run(cycles))
        while self.last_stop is not None and self.last_stop.stopped:
            self.execute(self._read())
        return self.last_stop

    def _enter_stop(self, stop: StopInfo | None) -> None:
        self.last_stop = stop
        self.current_frame = 0
        if stop is None:
            self.current_hit = None
            return
        if stop.stopped:
            self.current_hit = stop
            self._print_stop_banner(stop)
            return
        self.current_hit = None
        if stop.reason == "done":
            if stop.exit_code is not None:
                self._out(
                    f"finished @ cycle {stop.time} (exit {stop.exit_code})"
                )
            else:
                self._out(
                    f"ran {stop.cycles} cycle(s); now at cycle {stop.time}"
                )
        elif stop.reason == "detached":
            self._out(f"detached @ cycle {stop.time}")
        elif stop.reason == "error":
            self._out(f"error: {stop.message}")

    def _control(self, command: Command) -> Command | None:
        """Passive mode: bubble the Command to the runtime's scan loop.
        Driving mode: apply it to the session here and show the stop."""
        if not self.driving:
            return command
        session = self.session
        if command is DETACH:
            self._enter_stop(session.detach())
        elif command is CONTINUE:
            self._enter_stop(session.cont())
        elif command is STEP:
            self._enter_stop(session.step())
        elif command is REVERSE_STEP:
            self._enter_stop(session.reverse_step())
        elif command is REVERSE_CONTINUE:
            self._enter_stop(session.reverse_cont())
        return None

    # -- command dispatch ------------------------------------------------------

    def execute(self, line: str) -> Command | None:
        """Run one command.  Returns a control Command to resume, or None to
        stay paused / when not at a breakpoint."""
        line = line.strip()
        if not line:
            return None
        try:
            return self._dispatch(line)
        except SessionError as exc:
            # Session errors are user-facing statements, not failures —
            # they arrive pre-worded ("no timeline: ...", "stats: no
            # counters ...", "shard requires a live Simulator backend").
            self._out(str(exc))
            return None
        except Exception as exc:  # noqa: BLE001 - REPL surface
            self._out(f"error: {exc}")
            return None

    def _dispatch(self, line: str) -> Command | None:
        parts = line.split()
        cmd, args = parts[0], parts[1:]
        spec = self.commands.get(cmd)
        if spec is None:
            for candidate in self.commands.values():
                if cmd in candidate.aliases:
                    spec = candidate
                    break
        if spec is None:
            self._out(f"unknown command {cmd!r}; try c/s/rs/rc/b/p/info/q")
            return None
        return spec.handler(self, args)

    # -- shared helpers ----------------------------------------------------

    def _frame(self):
        if self.current_hit is None:
            raise DebuggerError("not stopped at a breakpoint")
        if not self.current_hit.frames:
            raise DebuggerError("watchpoint stop has no source frame")
        return self.current_hit.frames[self.current_frame]

    def _print_vars(self, views: list[VariableView], indent: str = "  ") -> None:
        def rec(v: VariableView, pad: str) -> None:
            if v.is_aggregate:
                self._out(f"{pad}{v.name}:")
                for c in v.children:
                    rec(c, pad + "  ")
            else:
                val = v.value
                shown = f"{val} (0x{val:x})" if isinstance(val, int) else str(val)
                self._out(f"{pad}{v.name} = {shown}")

        for v in views:
            rec(v, indent)


# -- control commands -------------------------------------------------------


@register_command("continue", aliases=("c",),
                  help="resume until next breakpoint")
def _cmd_continue(dbg: ConsoleDebugger, args) -> Command | None:
    return dbg._control(CONTINUE)


@register_command("step", aliases=("s", "n", "next"),
                  help="stop at next source statement")
def _cmd_step(dbg: ConsoleDebugger, args) -> Command | None:
    return dbg._control(STEP)


@register_command("reverse-step", aliases=("rs",),
                  help="step backwards (intra-cycle, then prior cycle)")
def _cmd_reverse_step(dbg: ConsoleDebugger, args) -> Command | None:
    return dbg._control(REVERSE_STEP)


@register_command("reverse-continue", aliases=("rc",),
                  help="run backwards to the previous breakpoint hit")
def _cmd_reverse_continue(dbg: ConsoleDebugger, args) -> Command | None:
    return dbg._control(REVERSE_CONTINUE)


@register_command("quit", aliases=("q", "detach"),
                  help="detach from the simulation")
def _cmd_quit(dbg: ConsoleDebugger, args) -> Command | None:
    return dbg._control(DETACH)


@register_command("run", usage="run [CYCLES]",
                  help="run an attached session (driving mode only)")
def _cmd_run(dbg: ConsoleDebugger, args) -> None:
    if not dbg.driving:
        dbg._out("run: the embedding code owns the clock in passive mode")
        return
    cycles = int(args[0]) if args else 1_000_000
    dbg._enter_stop(dbg.session.run(cycles))


# -- breakpoints ------------------------------------------------------------


@register_command("break", aliases=("b",), usage="b FILE:LINE [if COND]",
                  help="insert breakpoint(s)")
def _cmd_break(dbg: ConsoleDebugger, args) -> None:
    if not args:
        dbg._out("usage: b FILE:LINE [if COND]")
        return
    location = args[0]
    condition = None
    if len(args) >= 3 and args[1] == "if":
        condition = " ".join(args[2:])
    filename, _, line_s = location.rpartition(":")
    bps = dbg.session.add_breakpoint(filename, int(line_s), condition=condition)
    dbg._out(
        f"breakpoint set: {len(bps)} emulated breakpoint(s) at "
        f"{location}" + (f" if {condition}" if condition else "")
    )
    for bp in bps:
        dbg._out(f"  #{bp['id']} {bp['instance']} [{bp['enable']}]")


@register_command("watch", usage="watch NAME [if COND]",
                  help="data breakpoint: stop when NAME changes")
def _cmd_watch(dbg: ConsoleDebugger, args) -> None:
    condition = None
    if len(args) >= 3 and args[1] == "if":
        condition = " ".join(args[2:])
    wp = dbg.session.add_watchpoint(args[0], condition=condition)
    dbg._out(f"watchpoint #{wp['id']} on {wp['path']}")


@register_command("ignore", usage="ignore ID N",
                  help="skip the next N hits of breakpoint ID")
def _cmd_ignore(dbg: ConsoleDebugger, args) -> None:
    if dbg.session.ignore(int(args[0]), int(args[1])):
        dbg._out(f"ignoring next {args[1]} hits of #{args[0]}")
    else:
        dbg._out(f"no breakpoint {args[0]}")


@register_command("delete", usage="delete [ID]",
                  help="remove one or all breakpoints")
def _cmd_delete(dbg: ConsoleDebugger, args) -> None:
    if args:
        ok = dbg.session.remove_breakpoint(int(args[0]))
        dbg._out("deleted" if ok else f"no breakpoint {args[0]}")
    else:
        dbg.session.clear_breakpoints()
        dbg._out("all breakpoints deleted")


# -- inspection -------------------------------------------------------------


@register_command("print", aliases=("p",), usage="p EXPR",
                  help="evaluate in the current frame's scope")
def _cmd_print(dbg: ConsoleDebugger, args) -> None:
    expr = " ".join(args)
    if not expr:
        dbg._out("usage: p EXPR")
        return
    bp_id = None
    if dbg.current_hit is not None and dbg.current_hit.frames:
        bp_id = _frame_breakpoint_id(dbg._frame())
    value = dbg.session.evaluate(expr, breakpoint_id=bp_id)
    dbg._out(
        f"{expr} = {value} (0x{value:x})"
        if isinstance(value, int)
        else f"{expr} = {value}"
    )


@register_command("info", usage="info threads|breakpoints|time|files|warnings",
                  help="session facts")
def _cmd_info(dbg: ConsoleDebugger, args) -> None:
    what = args[0] if args else "time"
    if what == "threads":
        hit = dbg.current_hit
        if hit is None:
            dbg._out("not stopped")
            return
        for i, f in enumerate(hit.frames):
            marker = "*" if i == dbg.current_frame else " "
            dbg._out(f"{marker} thread {i}: {_frame_instance(f)}")
    elif what == "breakpoints":
        bps = dbg.session.breakpoints()
        wps = dbg.session.watchpoints()
        for bp in bps:
            cond = f" if {bp['condition']}" if bp["condition"] else ""
            short = bp["filename"].rsplit("/", 1)[-1]
            dbg._out(
                f"#{bp['id']} {short}:{bp['line']} {bp['instance']}"
                f"{cond} (hits: {bp['hits']})"
            )
        for wp in wps:
            dbg._out(f"watch #{wp['id']} {wp['path']} (hits: {wp['hits']})")
        if not bps and not wps:
            dbg._out("no breakpoints")
    elif what == "time":
        dbg._out(f"cycle {dbg.session.get_time()}")
    elif what == "files":
        for f in dbg.session.files():
            dbg._out(f)
    elif what == "warnings":
        warnings = dbg.session.warnings()
        for w in warnings:
            dbg._out(w)
        if not warnings:
            dbg._out("no warnings")
    else:
        dbg._out(f"unknown info {what!r}")


@register_command("frame", usage="frame [N]",
                  help="select the N-th concurrent thread")
def _cmd_frame(dbg: ConsoleDebugger, args) -> None:
    hit = dbg.current_hit
    if hit is None:
        dbg._out("not stopped")
        return
    if args:
        idx = int(args[0])
        if not 0 <= idx < len(hit.frames):
            dbg._out(f"no thread {idx}")
            return
        dbg.current_frame = idx
    f = hit.frames[dbg.current_frame]
    dbg._out(f"thread {dbg.current_frame}: {_frame_instance(f)}")


@register_command("locals", help="print the current frame's local variables")
def _cmd_locals(dbg: ConsoleDebugger, args) -> None:
    dbg._print_vars(_frame_vars(dbg._frame(), "local"))


@register_command("gen", help="print the current frame's generator variables")
def _cmd_gen(dbg: ConsoleDebugger, args) -> None:
    dbg._print_vars(_frame_vars(dbg._frame(), "generator"))


@register_command("where", help="current stop location")
def _cmd_where(dbg: ConsoleDebugger, args) -> None:
    hit = dbg.current_hit
    if hit is None:
        dbg._out("not stopped")
    else:
        dbg._out(f"{hit.filename}:{hit.line} @ cycle {hit.time}")


@register_command("set", usage="set PATH VALUE",
                  help="force a signal value (live simulation only)")
def _cmd_set(dbg: ConsoleDebugger, args) -> None:
    dbg.session.poke(args[0], int(args[1], 0))
    dbg._out(f"{args[0]} = {args[1]}")


# -- subsystem commands -----------------------------------------------------


@register_command("timeline", usage="timeline [info|goto T|history NAME [N]]",
                  help="inspect/use the retained time-travel window")
def _cmd_timeline(dbg: ConsoleDebugger, args) -> None:
    """One command serves every backend — the live simulator's compressed
    keyframe+delta timeline, the replay engine's full-trace window, and a
    remote hub session — because all expose the same session API."""
    info = dbg.session.timeline_info()
    if info is None:
        dbg._out(
            "no timeline: this backend keeps no history (construct the "
            "simulator with options=SessionOptions(snapshots=N))"
        )
        return
    sub = args[0] if args else "info"
    if sub == "info":
        dbg._out(info["describe"])
        dbg._out(f"current cycle: {info['time']}")
    elif sub == "goto":
        if len(args) < 2:
            dbg._out("usage: timeline goto T")
            return
        dbg.session.set_time(int(args[1], 0))
        dbg._out(f"now at cycle {dbg.session.get_time()}")
    elif sub == "history":
        if len(args) < 2:
            dbg._out("usage: timeline history NAME [N]")
            return
        limit = int(args[2]) if len(args) > 2 else 16
        series = dbg.session.history(args[1], limit=limit)
        path, samples, total = series["path"], series["samples"], series["total"]
        if not samples:
            dbg._out(f"no retained history for {path}")
            return
        if total > len(samples):
            dbg._out(f"{path}: last {len(samples)} of {total} retained")
        else:
            dbg._out(f"{path}: {len(samples)} retained cycle(s)")
        for t, v in samples:
            dbg._out(f"  cycle {t}: {v} (0x{v:x})")
    else:
        dbg._out(f"unknown timeline subcommand {sub!r}; "
                 f"try info/goto/history")


@register_command("lint", usage="lint [SEVERITY]",
                  help="static analysis of the attached circuit "
                       "(docs/lint.md)")
def _cmd_lint(dbg: ConsoleDebugger, args) -> None:
    result = dbg.session.lint(args[0] if args else None)
    if not result["count"]:
        dbg._out("lint: clean")
        return
    dbg._out(f"lint: {result['count']} diagnostic(s)")
    for line in result["text"].splitlines():
        dbg._out(f"  {line}")


@register_command(
    "shard",
    usage="shard N CYCLES [SEED] [retries=K] [deadline=S]",
    help="parallel sweep: N seeds of this design with the current "
         "breakpoints, hits aggregated (docs/sharding.md)",
)
def _cmd_shard(dbg: ConsoleDebugger, args) -> None:
    retries = None
    deadline = None
    positional = []
    for arg in args:
        key, eq, value = arg.partition("=")
        if eq and key in ("retries", "deadline"):
            try:
                if key == "retries":
                    retries = max(1, int(value))
                else:
                    deadline = float(value)
            except ValueError:
                dbg._out(f"bad {key} value {value!r}")
                return
        else:
            positional.append(arg)
    args = positional
    if len(args) < 2:
        dbg._out("usage: shard N CYCLES [SEED] [retries=K] [deadline=S]")
        return
    report = dbg.session.shard_sweep(
        int(args[0]),
        int(args[1]),
        seed_base=int(args[2]) if len(args) > 2 else 0,
        retries=retries,
        deadline=deadline,
    )
    for line in report["summary"].splitlines():
        dbg._out(line)


@register_command("stats",
                  help="simulator execution counters; full metric catalog "
                       "when observability is armed (docs/observability.md)")
def _cmd_stats(dbg: ConsoleDebugger, args) -> None:
    for key, value in dbg.session.stats().items():
        dbg._out(f"  {key:<24} {value}")
    snapshot = dbg.session.metrics()
    if snapshot is not None:
        from ..obs import format_metrics

        for line in format_metrics(snapshot).splitlines():
            dbg._out(line)


@register_command("help", aliases=("h", "?"),
                  help="this command list (generated from the registry)")
def _cmd_help(dbg: ConsoleDebugger, args) -> None:
    for spec in dbg.commands.values():
        names = "/".join((spec.name,) + spec.aliases)
        syntax = spec.usage if spec.usage != spec.name else names
        dbg._out(f"  {syntax:<42} {spec.help}")
