"""Symbol table tests: schema (Fig. 3), writer, and the four query
primitives of Sec. 3.4."""

import os
import subprocess
import sys

import pytest

import repro
from repro.symtable import SQLiteSymbolTable, open_symbol_db, write_symbol_table
from tests.helpers import Accumulator, Counter, SumLoop, TwoLeaves, line_of


@pytest.fixture()
def two_leaves():
    d = repro.compile(TwoLeaves())
    return d, SQLiteSymbolTable(write_symbol_table(d))


class TestSchema:
    def test_tables_exist(self):
        conn = open_symbol_db()
        tables = {
            r[0]
            for r in conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
        }
        assert {
            "instance",
            "breakpoint",
            "variable",
            "scope_variable",
            "generator_variable",
            "attribute",
        } <= tables

    def test_indices_exist(self):
        conn = open_symbol_db()
        indices = {
            r[0]
            for r in conn.execute("SELECT name FROM sqlite_master WHERE type='index'")
        }
        assert "idx_bp_loc" in indices

    def test_reopen_does_not_recreate(self, tmp_path):
        path = str(tmp_path / "s.db")
        conn = open_symbol_db(path)
        conn.execute("INSERT INTO attribute(name, value) VALUES ('x', '1')")
        conn.commit()
        conn.close()
        conn2 = open_symbol_db(path)
        row = conn2.execute("SELECT value FROM attribute WHERE name='x'").fetchone()
        assert row["value"] == "1"

    def test_location_query_uses_index(self):
        conn = open_symbol_db()
        plan = conn.execute(
            "EXPLAIN QUERY PLAN SELECT * FROM breakpoint WHERE filename=? AND line_num=?",
            ("f", 1),
        ).fetchall()
        assert any("idx_bp_loc" in str(tuple(r)) for r in plan)


class TestWriter:
    def test_instances_enumerated(self, two_leaves):
        _d, st = two_leaves
        names = [i.name for i in st.instances()]
        assert names == ["TwoLeaves", "TwoLeaves.a", "TwoLeaves.b"]

    def test_top_attribute(self, two_leaves):
        _d, st = two_leaves
        assert st.top_name() == "TwoLeaves"
        assert st.attribute("debug_mode") == "0"

    def test_breakpoints_per_instance(self, two_leaves):
        """One source statement in a twice-instantiated module yields two
        breakpoints — the concurrent 'threads' of Fig. 4B."""
        d, st = two_leaves
        filename, line = line_of(d, "o")
        bps = st.breakpoints_at(filename, line)
        assert {b.instance_name for b in bps} == {"TwoLeaves.a", "TwoLeaves.b"}

    def test_debug_mode_flag(self):
        d = repro.compile(Counter(), debug=True)
        st = SQLiteSymbolTable(write_symbol_table(d))
        assert st.attribute("debug_mode") == "1"

    def test_file_backed(self, tmp_path):
        d = repro.compile(Counter())
        path = str(tmp_path / "sym.db")
        write_symbol_table(d, path)
        st = SQLiteSymbolTable(path)
        assert st.top_name() == "Counter"


class TestQueries:
    def test_breakpoints_at_unknown_location(self, two_leaves):
        _d, st = two_leaves
        assert st.breakpoints_at("nope.py", 1) == []

    def test_scope_variables(self, two_leaves):
        d, st = two_leaves
        filename, line = line_of(d, "o")
        bp = st.breakpoints_at(filename, line)[0]
        names = {v.name for v in st.scope_variables(bp.id)}
        assert {"i", "o"} <= names

    def test_resolve_scoped_var(self, two_leaves):
        d, st = two_leaves
        filename, line = line_of(d, "o")
        bp = st.breakpoints_at(filename, line)[0]
        assert st.resolve_scoped_var(bp.id, "i") == "i"
        assert st.resolve_scoped_var(bp.id, "nope") is None

    def test_resolve_instance_var(self, two_leaves):
        _d, st = two_leaves
        top = st.instances()[0]
        var = st.resolve_instance_var(top.id, "x")
        assert var is not None and var.is_rtl
        assert st.resolve_instance_var(top.id, "nope") is None

    def test_generator_variables_constants(self):
        d = repro.compile(Counter(width=5))
        st = SQLiteSymbolTable(write_symbol_table(d))
        top = st.instances()[0]
        gen = {v.name: v for v in st.generator_variables(top.id)}
        assert gen["width"].value == "5" and not gen["width"].is_rtl

    def test_all_breakpoints_ordered(self, two_leaves):
        _d, st = two_leaves
        bps = st.all_breakpoints()
        keys = [b.order_key() for b in bps]
        assert keys == sorted(keys)

    def test_breakpoint_lookup(self, two_leaves):
        _d, st = two_leaves
        bp = st.all_breakpoints()[0]
        again = st.breakpoint(bp.id)
        assert again is not None and again.id == bp.id
        assert st.breakpoint(99999) is None

    def test_filenames_and_lines(self, two_leaves):
        d, st = two_leaves
        files = st.filenames()
        assert len(files) == 1
        lines = st.breakpoint_lines(files[0])
        assert lines == sorted(lines) and len(lines) >= 3

    def test_ssa_var_map_stored(self):
        """The SSA context mapping of Listing 2 survives into SQL."""
        d = repro.compile(SumLoop(2), debug=True)
        st = SQLiteSymbolTable(write_symbol_table(d))
        sum_bps = [b for b in st.all_breakpoints() if b.sink == "sum"]
        assert len(sum_bps) == 3
        # Third version's scope maps `sum` to the previous SSA temp.
        third = sum_bps[2]
        assert st.resolve_scoped_var(third.id, "sum") == "sum_1"

    def test_enable_stored_for_conditionals(self):
        d = repro.compile(Accumulator())
        st = SQLiteSymbolTable(write_symbol_table(d))
        acc_bps = [b for b in st.all_breakpoints() if b.sink == "acc"]
        assert acc_bps and acc_bps[0].enable is not None
        assert acc_bps[0].enable_src == "(en == 1)"


class TestDebugVsOptimizedSize:
    def test_debug_tables_not_smaller(self):
        opt = repro.compile(SumLoop(4))
        dbg = repro.compile(SumLoop(4), debug=True)
        st_opt = SQLiteSymbolTable(write_symbol_table(opt))
        st_dbg = SQLiteSymbolTable(write_symbol_table(dbg))
        n_opt = len(st_opt.all_breakpoints())
        n_dbg = len(st_dbg.all_breakpoints())
        assert n_dbg >= n_opt


def test_breakpoint_ids_do_not_depend_on_string_hashing():
    """Lowering visits a module's children in statement order, so the
    breakpoint rows (id, instance id, line) of a design with several
    child instances are the same under any ``PYTHONHASHSEED``."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    script = (
        "import repro\n"
        "from repro.symtable import symbol_table\n"
        "from tests.helpers import TwoLeaves\n"
        "rows = symbol_table(repro.compile(TwoLeaves())).rows.breakpoints\n"
        "print([(b.id, b.instance_id, b.line) for b in rows])\n"
    )
    outs = []
    for seed in ("0", "11"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("[(1, ")
