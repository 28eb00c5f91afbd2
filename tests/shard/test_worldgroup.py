"""World-grouped shard sweeps.

``ShardSession.sweep(worlds_per_shard=M)`` packs M consecutive shards
into one worker attempt, which runs them one after another as scalar
stimulus tapes.  The contract: the report flattens back to one
:class:`ShardResult` per shard, and every field that matters — state
digest, cycles actually run, exit code, hit records — is identical to
the same sweep run unpacked, inline or forked.
"""

from __future__ import annotations

import ast
import os

import pytest

import repro
import repro.hgf as hgf
import repro.shard
from repro.shard import (
    BreakpointSpec,
    ShardError,
    ShardSession,
    WorldGroupSpec,
    group_worlds,
    make_sweep,
)
from repro.shard.spec import ShardSpec

from tests.helpers import Accumulator, line_of


class Stopper(hgf.Module):
    """Stops at a stimulus-dependent cycle: members of one group finish
    at different per-world times (or not at all)."""

    def __init__(self):
        super().__init__()
        x = self.input("x", 8)
        self.o = self.output("o", 16)
        acc = self.reg("acc", 16, init=0)
        acc <<= (acc + x.pad(16))[15:0]
        self.stop(acc[7:0] == self.lit(0xA5, 8), 3)
        self.o <<= acc


def _rows(report):
    return [
        (r.shard_id, r.seed, r.cycles, r.exit_code, r.state_digest)
        for r in sorted(report.results, key=lambda r: r.shard_id)
    ]


# -- spec validation and wire format ----------------------------------------


def test_worldgroup_spec_validation():
    a = ShardSpec(0, seed=0, cycles=100)
    b = ShardSpec(1, seed=1, cycles=100)
    with pytest.raises(ShardError):
        WorldGroupSpec(members=())
    with pytest.raises(ShardError):
        WorldGroupSpec(members=(a, ShardSpec(1, seed=1, cycles=50)))
    with pytest.raises(ShardError):
        WorldGroupSpec(members=(a, ShardSpec(1, seed=1, cycles=100,
                                             reset_cycles=3)))
    with pytest.raises(ShardError):
        WorldGroupSpec(
            members=(a, ShardSpec(1, seed=1, cycles=100,
                                  overrides={"en": 1}))
        )
    g = WorldGroupSpec(members=(a, b))
    assert (g.shard_id, g.seed, g.cycles, g.worlds) == (0, 0, 100, 2)


def test_worldgroup_wire_roundtrip():
    specs = make_sweep(4, 50, seed_base=7)
    g = WorldGroupSpec(members=tuple(specs))
    back = WorldGroupSpec.from_wire(g.to_wire())
    assert back == g


def test_group_worlds_chunking():
    specs = make_sweep(5, 10)
    assert group_worlds(specs, 0) == specs
    assert group_worlds(specs, 1) == specs
    groups = group_worlds(specs, 2)
    assert [g.worlds for g in groups] == [2, 2, 1]
    assert [m.shard_id for g in groups for m in g.members] == [0, 1, 2, 3, 4]


# -- digest parity: grouped == unpacked -------------------------------------


@pytest.mark.parametrize("workers", [0, 2])
def test_grouped_sweep_digest_identical(workers):
    """Groups (inline and forked) produce per-shard results identical to
    the plain sweep, including divergent per-member stop cycles and exit
    codes."""
    design = repro.compile(Stopper())
    with ShardSession(design, workers=0) as s:
        plain = s.sweep(6, 400, overrides=None)
    with ShardSession(design, workers=workers) as s:
        grouped = s.sweep(6, 400, worlds_per_shard=3)
    assert grouped.ok
    assert _rows(grouped) == _rows(plain)
    # The scenario is only interesting if stop cycles actually diverge.
    cycles = {r.cycles for r in plain.results}
    assert len(cycles) > 1, "per-world finish cycles must diverge"


def test_grouped_sweep_with_breakpoints_matches_plain():
    """A group whose members arm breakpoints and a hit limit produces
    the plain sweep's digests and hit counts, member by member."""
    design = repro.compile(Accumulator())
    fn, line = line_of(design, "acc")
    bp = BreakpointSpec(fn, line, condition="acc > 30000")
    with ShardSession(design, workers=0) as s:
        plain = s.sweep(4, 300, overrides={"en": 1}, breakpoints=[bp],
                        hit_limit=5)
        grouped = s.sweep(4, 300, overrides={"en": 1}, breakpoints=[bp],
                          hit_limit=5, worlds_per_shard=2)
    assert grouped.ok
    assert _rows(grouped) == _rows(plain)
    assert [len(r.hits) for r in grouped.results] == [
        len(r.hits) for r in plain.results
    ]
    assert any(r.hits for r in grouped.results)


def test_shard_package_imports_no_numpy_or_manyworlds():
    """World groups run on the scalar engine: no module of the shard
    package imports numpy or the many-worlds simulator."""
    root = os.path.dirname(repro.shard.__file__)
    imported = set()
    for name in os.listdir(root):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module}.{a.name}" for a in node.names)
    assert imported
    assert not any(
        {"numpy", "manyworlds"} & set(m.lower().split(".")) for m in imported
    ), sorted(imported)


def test_run_accepts_prebuilt_groups():
    design = repro.compile(Stopper())
    specs = make_sweep(4, 150)
    with ShardSession(design, workers=0) as s:
        plain = s.run(specs)
        grouped = s.run(group_worlds(specs, 4))
    assert _rows(grouped) == _rows(plain)
    assert len(grouped.results) == 4
