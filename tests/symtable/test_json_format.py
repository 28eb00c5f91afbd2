"""JSON symbol table interchange tests: round trips and a hand-written
table driving the full debugger (framework independence)."""

import json

import pytest

import repro
from repro.core import CONTINUE, Runtime
from repro.sim import Simulator
from repro.symtable import MemorySymbolTable, SQLiteSymbolTable, write_symbol_table
from repro.symtable.json_format import (
    JsonFormatError,
    dump_json,
    load_json,
)
from tests.helpers import Accumulator, TwoLeaves, line_of


@pytest.fixture()
def acc_table():
    d = repro.compile(Accumulator())
    return d, SQLiteSymbolTable(write_symbol_table(d))


class TestRoundTrip:
    def test_lossless(self, acc_table):
        _d, st = acc_table
        text = dump_json(st)
        st2 = load_json(text)
        assert st2.top_name() == st.top_name()
        assert st2.instances() == st.instances()
        bps1 = st.all_breakpoints()
        bps2 = st2.all_breakpoints()
        assert len(bps1) == len(bps2)
        for a, b in zip(bps1, bps2, strict=False):
            assert (a.filename, a.line, a.node, a.enable) == (
                b.filename, b.line, b.node, b.enable,
            )
            assert st.scope_variables(a.id) == st2.scope_variables(b.id)

    def test_generator_variables_survive(self, acc_table):
        _d, st = acc_table
        st2 = load_json(dump_json(st))
        top1 = st.instances()[0]
        top2 = st2.instances()[0]
        assert st.generator_variables(top1.id) == st2.generator_variables(top2.id)

    def test_multi_instance(self):
        d = repro.compile(TwoLeaves())
        st = SQLiteSymbolTable(write_symbol_table(d))
        st2 = load_json(dump_json(st))
        assert [i.name for i in st2.instances()] == [i.name for i in st.instances()]

    def test_json_is_valid_and_versioned(self, acc_table):
        _d, st = acc_table
        doc = json.loads(dump_json(st))
        assert doc["version"] == 1
        assert doc["top"] == "Accumulator"


class TestValidation:
    def test_bad_json_rejected(self):
        with pytest.raises(JsonFormatError, match="invalid JSON"):
            load_json("{nope")

    def test_missing_keys_rejected(self):
        with pytest.raises(JsonFormatError, match="required keys"):
            load_json('{"breakpoints": []}')

    def test_future_version_rejected(self):
        with pytest.raises(JsonFormatError, match="version"):
            load_json('{"version": 99, "top": "X", "instances": []}')

    def test_unknown_instance_rejected(self):
        doc = {
            "top": "X",
            "instances": [{"name": "X", "module": "X"}],
            "breakpoints": [
                {"filename": "f", "line": 1, "instance": "Y"}
            ],
        }
        with pytest.raises(JsonFormatError, match="unknown instance"):
            load_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda d: d["instances"][0].pop("name"), r"instances\[0\]\.name"),
            (lambda d: d["breakpoints"][0].pop("line"), r"breakpoints\[0\]\.line"),
            (
                lambda d: d["breakpoints"][0].update(line="abc"),
                r"breakpoints\[0\]\.line",
            ),
            (
                lambda d: d["breakpoints"][0]["scope"][0].pop("value"),
                r"breakpoints\[0\]\.scope\[0\]\.value",
            ),
            (lambda d: d.update(instances=5), "instances"),
        ],
        ids=[
            "instance-without-name",
            "breakpoint-without-line",
            "line-not-a-number",
            "scope-variable-without-value",
            "instances-not-a-list",
        ],
    )
    def test_malformed_field_rejected(self, change, field):
        """Each malformed field raises JsonFormatError naming the field."""
        doc = {
            "top": "X",
            "instances": [{"name": "X", "module": "X"}],
            "breakpoints": [
                {
                    "filename": "f",
                    "line": 1,
                    "instance": "X",
                    "scope": [{"name": "a", "value": "a"}],
                }
            ],
        }
        load_json(json.dumps(doc))  # well formed as written
        change(doc)
        with pytest.raises(JsonFormatError, match=field):
            load_json(json.dumps(doc))


class TestHandWrittenTable:
    def test_external_framework_workflow(self):
        """A foreign HGF emits JSON debug info by hand; hgdb debugs the
        design with it — no SQLite, no repro.ir involvement."""
        design = repro.compile(Accumulator())
        native = SQLiteSymbolTable(write_symbol_table(design))
        _f, line = line_of(design, "acc")
        filename = native.filenames()[0]

        doc = {
            "top": "Accumulator",
            "instances": [
                {
                    "name": "Accumulator",
                    "module": "Accumulator",
                    "variables": [{"name": "kind", "value": "external", "rtl": False}],
                }
            ],
            "breakpoints": [
                {
                    "filename": filename,
                    "line": line,
                    "instance": "Accumulator",
                    "node": "_ssa_acc_0",
                    "sink": "acc",
                    "enable": "en",
                    "enable_src": "en asserted",
                    "scope": [
                        {"name": "acc", "value": "acc", "rtl": True},
                        {"name": "d", "value": "d", "rtl": True},
                    ],
                }
            ],
        }
        st = load_json(json.dumps(doc))
        assert isinstance(st, MemorySymbolTable)

        sim = Simulator(design.low)
        hits = []
        rt = Runtime(sim, st, lambda h: (hits.append(h.frames[0].var("acc")), CONTINUE)[1])
        rt.attach()
        rt.add_breakpoint(filename, line)
        sim.reset()
        sim.poke("en", 1)
        sim.poke("d", 4)
        sim.step(3)
        assert hits == [0, 4, 8]
