"""The in-memory symbol table answers every interface method exactly as
the SQLite table it was copied from, on the paper's designs (FpuCmp, the
RV32 core's release and debug builds), on the test helpers, and on a
hand-written table with the shapes no generator here writes."""

import pytest

import repro
from repro.cpu import RV32Core, assemble, benchmark_by_name
from repro.fpu import FpuCmp
from repro.symtable import (
    MemorySymbolTable,
    SQLiteSymbolTable,
    in_memory,
    open_symbol_db,
    write_symbol_table,
)
from tests.helpers import Accumulator, AluLike, Counter, SumLoop, TwoLeaves


def _written(top, debug=False):
    return lambda: write_symbol_table(repro.compile(top(), debug=debug))


def _rv32():
    return RV32Core(assemble(benchmark_by_name("qsort").source).words, 8192)


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


TABLES = {
    "FpuCmp": _written(lambda: FpuCmp(buggy=True)),
    "RV32-release": _written(_rv32),
    "RV32-debug": _written(_rv32, debug=True),
    "Counter": _written(Counter),
    "Accumulator": _written(Accumulator),
    "AluLike": _written(AluLike),
    "TwoLeaves": _written(TwoLeaves),
    "SumLoop": _written(SumLoop),
    "handmade": _handmade,
}


@pytest.fixture(scope="module", params=sorted(TABLES))
def tables(request):
    sql = SQLiteSymbolTable(TABLES[request.param]())
    yield sql, in_memory(sql)
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
