"""Frame reconstruction (bundles!) and hierarchy matching (Sec. 3.4)."""

import collections
import gc
import random
import weakref

import pytest

import repro
import repro.hgf as hgf
from repro.core import CONTINUE, Runtime
from repro.core.frames import FrameBuilder, build_variable_tree
from repro.core import matching
from repro.core.matching import MatchError, locate_instance
from repro.hub import SessionOptions
from repro.sim import Simulator
from repro.symtable import (
    SQLiteSymbolTable,
    SymbolTableInterface,
    in_memory,
    write_symbol_table,
)
from repro.trace import ReplayEngine, VcdWriter
from tests.helpers import Counter, TwoLeaves, fresh_frame, line_of


class TestVariableTree:
    def test_flat_variables(self):
        tree = build_variable_tree([("a", 1, "a"), ("b", 2, "b")])
        assert [v.name for v in tree] == ["a", "b"]
        assert tree[0].value == 1

    def test_bundle_reconstruction(self):
        """Flattened RTL signals regroup into the source bundle — the
        PortBundle reconstruction of paper Sec. 4.2."""
        tree = build_variable_tree(
            [
                ("io.a", 1, "io_a"),
                ("io.b.lo", 2, "io_b_lo"),
                ("io.b.hi", 3, "io_b_hi"),
                ("other", 9, "other"),
            ]
        )
        io = next(v for v in tree if v.name == "io")
        assert io.is_aggregate
        assert io.child("a").value == 1
        b = io.child("b")
        assert b.child("lo").value == 2 and b.child("hi").value == 3

    def test_vec_reconstruction(self):
        tree = build_variable_tree([("v[0]", 5, None), ("v[1]", 6, None)])
        v = tree[0]
        assert v.name == "v"
        assert [c.name for c in v.children] == ["[0]", "[1]"]

    def test_flatten_round_trip(self):
        tree = build_variable_tree([("io.a", 1, None), ("io.b", 2, None)])
        flat = tree[0].flatten()
        assert flat == [("io.a", 1), ("io.b", 2)]

    def test_to_dict(self):
        tree = build_variable_tree([("x.y", 3, "x_y")])
        d = tree[0].to_dict()
        assert d["name"] == "x"
        assert d["children"][0]["value"] == 3


class TestMatching:
    def _symtable(self, design):
        return SQLiteSymbolTable(write_symbol_table(design))

    def test_identity_mapping(self):
        d = repro.compile(TwoLeaves())
        sim = Simulator(d.low)
        st = self._symtable(d)
        mapping = locate_instance(st, sim.hierarchy())
        assert mapping["TwoLeaves"] == "TwoLeaves"
        assert mapping["TwoLeaves.a"] == "TwoLeaves.a"

    def test_wrapped_design_located(self):
        """Paper Sec. 3.4: the symbol table has a partial view; the runtime
        finds the generated IP inside a testbench wrapper."""
        d = repro.compile(TwoLeaves())
        sim = Simulator(d.low, top_path="TestHarness.dut.core")
        st = self._symtable(d)
        mapping = locate_instance(st, sim.hierarchy())
        assert mapping["TwoLeaves"] == "TestHarness.dut.core"
        assert mapping["TwoLeaves.b"] == "TestHarness.dut.core.b"

    def test_wrong_design_rejected(self):
        d1 = repro.compile(TwoLeaves())
        d2 = repro.compile(Counter())
        sim = Simulator(d2.low)
        st = self._symtable(d1)
        with pytest.raises(MatchError):
            locate_instance(st, sim.hierarchy())


class TestInstanceMapKeptWithTheTable:
    """An in-memory table keeps ``locate_instance``'s answer per hierarchy
    it was matched against; other tables match on every ``Runtime()``."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = []

        def counting(table, hierarchy):
            calls.append((id(table), id(hierarchy)))
            return locate_instance(table, hierarchy)

        monkeypatch.setattr(matching, "locate_instance", counting)
        return calls

    def test_one_locate_per_table_and_hierarchy(self, counted):
        design = repro.compile(TwoLeaves())
        table = in_memory(SQLiteSymbolTable(write_symbol_table(design)))
        sims = [Simulator(design.low), Simulator(design.low, top_path="TB.core")]
        runtimes = [Runtime(sim, table) for _ in range(3) for sim in sims]
        assert len(counted) == 2
        assert sorted(counted) == sorted({(id(table), id(s.hierarchy())) for s in sims})
        for rt in runtimes:
            assert rt.instance_map == locate_instance(table, rt.sim.hierarchy())
        assert runtimes[1].instance_map["TwoLeaves.a"] == "TB.core.a"
        # Each runtime holds its own copy: editing one leaves the next alone.
        runtimes[0].instance_map["TwoLeaves.a"] = "elsewhere"
        assert Runtime(sims[0], table).instance_map["TwoLeaves.a"] == "TwoLeaves.a"

    def test_other_tables_locate_every_time(self, counted):
        design = repro.compile(TwoLeaves())
        table = SQLiteSymbolTable(write_symbol_table(design))
        sim = Simulator(design.low)
        for _ in range(3):
            Runtime(sim, table)
        assert len(counted) == 3

    def test_a_reused_id_never_answers_for_another_hierarchy(self, counted):
        design = repro.compile(TwoLeaves())
        table = in_memory(SQLiteSymbolTable(write_symbol_table(design)))
        sim = Simulator(design.low, top_path="TB.core")
        hierarchy = sim.hierarchy()
        # An entry under this hierarchy's id whose weak reference names
        # another (live) hierarchy: what a collected one's id reuse leaves.
        stranger = Simulator(design.low).hierarchy()
        table.located[id(hierarchy)] = (weakref.ref(stranger), {"TwoLeaves": "stale"})
        assert Runtime(sim, table).instance_map["TwoLeaves"] == "TB.core"
        assert len(counted) == 1

    def test_a_collected_hierarchy_leaves_no_entry(self):
        design = repro.compile(TwoLeaves())
        table = in_memory(SQLiteSymbolTable(write_symbol_table(design)))
        sim = Simulator(design.low)
        Runtime(sim, table)
        key = id(sim.hierarchy())
        assert key in table.located
        del sim
        gc.collect()
        assert key not in table.located


class TestFrameBuilder:
    def test_frame_reads_live_values(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low)
        sim.reset()
        sim.poke("en", 1)
        sim.step(3)
        st = SQLiteSymbolTable(write_symbol_table(d))
        mapping = locate_instance(st, sim.hierarchy())
        fb = FrameBuilder(st, sim, mapping)
        filename, line = line_of(d, "out")
        bp = st.breakpoints_at(filename, line)[0]
        frame = fb.build(bp, sim.get_time())
        assert frame.var("count") == 3
        assert frame.var("en") == 1

    def test_generator_vars_in_frame(self):
        d = repro.compile(Counter(width=6))
        sim = Simulator(d.low)
        sim.reset()
        st = SQLiteSymbolTable(write_symbol_table(d))
        fb = FrameBuilder(st, sim, locate_instance(st, sim.hierarchy()))
        filename, line = line_of(d, "out")
        bp = st.breakpoints_at(filename, line)[0]
        frame = fb.build(bp, 0)
        gen = {v.name: v.value for v in frame.generator_vars}
        assert gen["width"] == "6"

    def test_bundle_frame(self):
        class BundleMod(hgf.Module):
            def __init__(self):
                super().__init__()
                self.io = self.input(
                    "io",
                    typ=hgf.Bundle(a=hgf.UInt(8), q=hgf.Flip(hgf.UInt(8))),
                )
                self.io.q <<= self.io.a + 1

        d = repro.compile(BundleMod())
        sim = Simulator(d.low)
        sim.reset()
        sim.poke("io_a", 41)
        st = SQLiteSymbolTable(write_symbol_table(d))
        fb = FrameBuilder(st, sim, locate_instance(st, sim.hierarchy()))
        bp = st.all_breakpoints()[0]
        frame = fb.build(bp, 0)
        io = next(v for v in frame.local_vars if v.name == "io")
        assert io.is_aggregate
        assert io.child("a").value == 41
        assert io.child("q").value == 42

    def test_missing_signal_value_none(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low)
        st = SQLiteSymbolTable(write_symbol_table(d))
        fb = FrameBuilder(st, sim, {"Counter": "WrongPath"})
        bp = st.all_breakpoints()[0]
        frame = fb.build(bp, 0)
        assert all(v.value is None for v in frame.local_vars if not v.is_aggregate)


class _Lane(hgf.Module):
    """A leaf whose scope holds a bundle of a vector (split names) and a
    generator constant."""

    def __init__(self, bias: int):
        super().__init__()
        self.bias = bias
        self.io = self.input(
            "io",
            typ=hgf.Bundle(v=hgf.Vec(2, hgf.UInt(4)), q=hgf.Flip(hgf.UInt(5))),
        )
        self.io.q <<= self.io.v[0] + self.io.v[1] + bias


class _Lanes(hgf.Module):
    """Two instances of one leaf (one source line, two breakpoints) plus
    several top-level lines.  Every breakpoint is unconditional, so each
    hits once per cycle."""

    def __init__(self):
        super().__init__()
        self.x = self.input("x", 4)
        self.y = self.output("y", 10)
        a = self.instance("a", _Lane(1))
        b = self.instance("b", _Lane(2))
        for lane, (lo, hi) in ((a, (0, 3)), (b, (5, 0))):
            v0, v1 = lane.io.v[0], lane.io.v[1]
            v0 <<= self.x ^ lo
            v1 <<= self.x ^ hi
        self.y <<= hgf.cat(a.io.q, b.io.q)


class _CountingTable(SymbolTableInterface):
    """A symbol table that forwards every query and counts it by method
    and arguments."""

    def __init__(self, inner: SymbolTableInterface):
        self.inner = inner
        self.calls: collections.Counter = collections.Counter()

    def _query(self, method: str, *args):
        self.calls[method, args] += 1
        return getattr(self.inner, method)(*args)

    def breakpoints_at(self, filename, line, column=None):
        return self._query("breakpoints_at", filename, line, column)

    def scope_variables(self, breakpoint_id):
        return self._query("scope_variables", breakpoint_id)

    def resolve_scoped_var(self, breakpoint_id, name):
        return self._query("resolve_scoped_var", breakpoint_id, name)

    def resolve_instance_var(self, instance_id, name):
        return self._query("resolve_instance_var", instance_id, name)

    def instances(self):
        return self._query("instances")

    def generator_variables(self, instance_id):
        return self._query("generator_variables", instance_id)

    def all_breakpoints(self):
        return self._query("all_breakpoints")

    def breakpoint(self, breakpoint_id):
        return self._query("breakpoint", breakpoint_id)

    def filenames(self):
        return self._query("filenames")

    def breakpoint_lines(self, filename):
        return self._query("breakpoint_lines", filename)

    def attribute(self, name):
        return self._query("attribute", name)

    def count(self, method: str) -> dict:
        return {
            args[0]: n for (name, args), n in self.calls.items() if name == method
        }


def _armed(design, sim):
    """A runtime over ``sim`` with every breakpoint of ``design`` set,
    checking each frame it builds against a fresh-query build.  The
    simulator holds the runtime only weakly: keep the returned runtime
    while the run goes on."""
    table = SQLiteSymbolTable(write_symbol_table(design))
    counting = _CountingTable(table)
    built: list = []

    def on_hit(hit):
        for frame in hit.frames:
            fresh = fresh_frame(
                table, sim, runtime.instance_map, frame.breakpoint, hit.time
            )
            assert frame.to_dict() == fresh.to_dict()
            built.append(frame)
        return CONTINUE

    runtime = Runtime(sim, counting, on_hit)
    runtime.attach()
    lines = {(b.filename, b.line) for b in table.all_breakpoints()}
    for filename, line in sorted(lines):
        runtime.add_breakpoint(filename, line)
    return counting, built, runtime


def _stimulus(cycles: int) -> list[int]:
    rng = random.Random(cycles)
    return [rng.getrandbits(4) for _ in range(cycles)]


def _run(sim, cycles: int) -> None:
    sim.reset()
    for x in _stimulus(cycles):
        sim.poke("x", x)
        sim.step()


def _live(design, cycles, _tmp_path, fast=True):
    sim = Simulator(design.low, options=SessionOptions(fast=fast))
    counting, built, _runtime = _armed(design, sim)
    _run(sim, cycles)
    return counting, built


def _reference(design, cycles, tmp_path):
    return _live(design, cycles, tmp_path, fast=False)


def _replay(design, cycles, tmp_path):
    path = str(tmp_path / "run.vcd")
    writer = VcdWriter(path)
    _run(Simulator(design.low, trace=writer, options=SessionOptions()), cycles)
    writer.close()
    replay = ReplayEngine.from_file(path)
    counting, built, _runtime = _armed(design, replay)
    replay.run()
    return counting, built


class TestFramePlans:
    """A breakpoint's frames query the symbol table once, then only read
    values — and every frame equals one built from fresh queries."""

    @pytest.mark.parametrize("cycles", [1, 3, 8])
    @pytest.mark.parametrize(
        "backend",
        [_live, _reference, _replay],
        ids=["live", "reference", "replay"],
    )
    def test_one_query_per_breakpoint_and_instance(self, backend, cycles, tmp_path):
        design = repro.compile(_Lanes())
        counting, built = backend(design, cycles, tmp_path)
        hits = collections.Counter(f.breakpoint.id for f in built)
        instances = {f.breakpoint.instance_id for f in built}
        assert len(hits) == len(counting.inner.all_breakpoints()) == 7
        assert min(hits.values()) >= cycles
        assert len(instances) == 3
        assert counting.count("scope_variables") == dict.fromkeys(hits, 1)
        assert counting.count("generator_variables") == dict.fromkeys(instances, 1)

    def test_plan_keeps_split_names_and_unresolvable_paths(self):
        design = repro.compile(_Lanes())
        _counting, built = _live(design, 2, None)
        lane = next(f for f in built if f.instance_path == "_Lanes.a")
        io = next(v for v in lane.local_vars if v.name == "io")
        assert [c.name for c in io.child("v").children] == ["[0]", "[1]"]
        generator = {v.name: v.value for v in lane.generator_vars}
        assert generator["bias"] == "1"
        assert generator["io"] is None  # the flattened bundle has no signal
