"""The in-memory symbol table answers every interface method, ids
included, exactly as the SQLite file of the same table: built by
Algorithm 1 or copied from the design's SQLite file, on the paper's designs
(FpuCmp, the RV32 core's release and debug builds, the ten RV32 suite
programs), on the test helpers, and on a hand-written table with the shapes
no generator here writes, copied and loaded back from its JSON dump.  The
hub, the shard farm and ``hgdb-py stats`` build it without SQLite."""

import functools
import sqlite3

import pytest

import repro
from repro.cli import main
from repro.cpu import RV32Core, assemble, benchmark_by_name, build_suite
from repro.fpu import FpuCmp
from repro.hub import DebugHub, HubClient
from repro.shard import BreakpointSpec, ShardSession
from repro.symtable import (
    MemorySymbolTable,
    SQLiteSymbolTable,
    dump_json,
    in_memory,
    load_json,
    open_symbol_db,
    symbol_table,
    write_symbol_table,
)
from repro.symtable.writer import write_sqlite
from tests.helpers import Accumulator, AluLike, Counter, SumLoop, TwoLeaves, line_of


def _rv32(name="qsort"):
    return RV32Core(assemble(benchmark_by_name(name).source).words, 8192)


def _handmade():
    """Two instances and two columns on one line, inserted out of
    scheduling order; a scope with a constant and a name bound twice; a
    generator variable bound twice, first to a constant."""
    conn = open_symbol_db()
    conn.executescript("""
        INSERT INTO attribute VALUES ('top', 'Top'), ('debug_mode', '1');
        INSERT INTO instance VALUES
            (1, 'Top', 'Top'), (2, 'Top.b', 'Leaf'), (3, 'Top.a', 'Leaf');
        INSERT INTO breakpoint VALUES
            (1, 2, 'x.py', 5, 9, 'n1', 's1', NULL, NULL),
            (2, 3, 'x.py', 5, 9, 'n2', 's2', 'Top.a.en', 'en'),
            (3, 3, 'x.py', 5, 2, 'n3', 's3', NULL, NULL),
            (4, 1, 'a.py', 7, 0, 'n4', 's4', NULL, NULL),
            (5, 1, 'x.py', 1, 0, 'n5', 's5', NULL, NULL);
        INSERT INTO variable VALUES
            (1, 'Top.b.r', 1), (2, '42', 0), (3, 'Top.b.q', 1),
            (4, 'Top.b.k', 1), (5, '7', 0), (6, 'Top.w', 1);
        INSERT INTO scope_variable VALUES
            (1, 2, 'k'), (1, 1, 'r'), (1, 3, 'r'), (1, 4, 'k'), (2, 2, 'c');
        INSERT INTO generator_variable VALUES
            (2, 5, 'width'), (2, 6, 'width'), (1, 6, 'w');
    """)
    return conn


DESIGNS = {
    "FpuCmp": lambda: FpuCmp(buggy=True),
    "RV32-release": _rv32,
    "Counter": Counter,
    "Accumulator": Accumulator,
    "AluLike": AluLike,
    "TwoLeaves": TwoLeaves,
    "SumLoop": SumLoop,
    **{f"RV32-{b.name}": functools.partial(_rv32, b.name) for b in build_suite()},
}


def _tables(name, kind):
    """(the SQLite reference, the in-memory table under test)."""
    if name == "handmade":
        sql = SQLiteSymbolTable(_handmade())
        if kind == "copy":
            return sql, in_memory(sql)
        loaded = load_json(dump_json(sql))  # ids renumbered in dump order
        return SQLiteSymbolTable(write_sqlite(loaded.rows)), loaded
    if name == "RV32-debug":
        design = repro.compile(_rv32(), debug=True)
    else:
        design = repro.compile(DESIGNS[name]())
    sql = SQLiteSymbolTable(write_symbol_table(design))
    return sql, in_memory(sql) if kind == "copy" else symbol_table(design)


CASES = [
    *[(name, kind) for name in [*DESIGNS, "RV32-debug"] for kind in ("copy", "built")],
    ("handmade", "copy"),
    ("handmade", "json"),
]


@pytest.fixture(
    scope="module",
    params=CASES,
    ids=[name if kind == "copy" else f"{name}-{kind}" for name, kind in CASES],
)
def tables(request):
    sql, mem = _tables(*request.param)
    yield sql, mem
    sql.conn.close()


def test_breakpoint_queries_match(tables):
    sql, mem = tables
    assert mem.all_breakpoints() == sql.all_breakpoints()
    assert mem.filenames() == sql.filenames()
    for filename in sql.filenames() + ["no_such_file.py"]:
        lines = sql.breakpoint_lines(filename)
        assert mem.breakpoint_lines(filename) == lines
        for line in lines + [0, max(lines, default=0) + 1]:
            at = sql.breakpoints_at(filename, line)
            assert mem.breakpoints_at(filename, line) == at
            for column in {bp.column for bp in at} | {-1}:
                assert mem.breakpoints_at(filename, line, column) == (
                    sql.breakpoints_at(filename, line, column)
                )


def test_breakpoint_by_id_matches(tables):
    sql, mem = tables
    ids = [bp.id for bp in sql.all_breakpoints()]
    assert ids
    for bp_id in ids + [0, -1, max(ids) + 1]:
        assert mem.breakpoint(bp_id) == sql.breakpoint(bp_id)


def test_scopes_match(tables):
    sql, mem = tables
    for bp in sql.all_breakpoints():
        scope = sql.scope_variables(bp.id)
        assert mem.scope_variables(bp.id) == scope
        names = [v.name for v in scope]
        constants = [
            v.name for v in sql.generator_variables(bp.instance_id)
            if not v.is_rtl
        ]
        for name in names + constants + ["no_such_name"]:
            assert mem.resolve_scoped_var(bp.id, name) == (
                sql.resolve_scoped_var(bp.id, name)
            )
    unknown = max(bp.id for bp in sql.all_breakpoints()) + 1
    assert mem.scope_variables(unknown) == sql.scope_variables(unknown) == []
    assert mem.resolve_scoped_var(unknown, "x") is None


def test_instances_and_generator_variables_match(tables):
    sql, mem = tables
    assert mem.instances() == sql.instances()
    for inst in sql.instances():
        gvars = sql.generator_variables(inst.id)
        assert mem.generator_variables(inst.id) == gvars
        for name in [v.name for v in gvars] + ["no_such_name"]:
            assert mem.resolve_instance_var(inst.id, name) == (
                sql.resolve_instance_var(inst.id, name)
            )
    unknown = max(i.id for i in sql.instances()) + 1
    assert mem.generator_variables(unknown) == []
    assert mem.resolve_instance_var(unknown, "x") is None


def test_attributes_match(tables):
    sql, mem = tables
    for name in ("top", "debug_mode", "no_such_attribute"):
        assert mem.attribute(name) == sql.attribute(name)
    assert mem.top_name() == sql.top_name()


def test_returned_lists_are_copies(tables):
    sql, mem = tables
    bp = next(b for b in sql.all_breakpoints() if sql.scope_variables(b.id))
    inst = next(i for i in sql.instances() if sql.generator_variables(i.id))
    answers = [
        lambda: mem.all_breakpoints(),
        lambda: mem.breakpoints_at(bp.filename, bp.line),
        lambda: mem.breakpoints_at(bp.filename, bp.line, bp.column),
        lambda: mem.scope_variables(bp.id),
        lambda: mem.instances(),
        lambda: mem.generator_variables(inst.id),
        lambda: mem.filenames(),
        lambda: mem.breakpoint_lines(bp.filename),
    ]
    for answer in answers:
        first = answer()
        first.clear()
        assert answer(), "a caller emptied the table"


def test_a_copy_of_a_copy_is_the_copy(tables):
    _sql, mem = tables
    assert isinstance(mem, MemorySymbolTable)
    assert in_memory(mem) is mem


@pytest.fixture()
def no_sqlite(monkeypatch):
    """Any SQLite connection fails, here and in every process forked
    from here."""

    def poisoned(*args, **kwargs):
        raise AssertionError("an SQLite connection was opened")

    monkeypatch.setattr(sqlite3, "connect", poisoned)


class TestNoSQLite:
    def test_hub_session_runs_to_its_first_stop(self, no_sqlite):
        design = repro.compile(Counter())
        _f, line = line_of(design, "count")
        hub = DebugHub(design)
        host, port = hub.serve_background()
        with hub, HubClient(host, port) as client:
            session = client.attach()
            session.poke("en", 1)
            session.reset(1)
            assert session.add_breakpoint("helpers.py", line)
            assert session.run(10).reason == "breakpoint"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_shard_sweep(self, no_sqlite, workers):
        design = repro.compile(Accumulator())
        _f, line = line_of(design, "acc")
        bp = BreakpointSpec("helpers.py", line, condition="acc >= 100")
        with ShardSession(design, workers=workers) as session:
            report = session.sweep(4, 200, overrides={"en": 1}, breakpoints=[bp])
        assert report.ok
        assert all(r.attempts == 1 and not r.failures for r in report.results)
        assert all(r.hits for r in report.results)

    def test_stats(self, no_sqlite, capsys):
        assert main(["stats", "tests.helpers:Accumulator", "--cycles", "100"]) == 0
        assert "100 cycles in" in capsys.readouterr().out
