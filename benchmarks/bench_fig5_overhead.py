"""Figure 5: simulation time for the RocketChip benchmark suite under
{baseline, baseline+hgdb, debug, debug+hgdb}.

The paper's claim: "at no point does hgdb overhead exceed 5% of runtime",
in both optimized (baseline) and unoptimized (debug) builds, because the
only per-cycle cost is a clock-edge callback that returns immediately when
no breakpoint is inserted.

``test_fig5_table`` regenerates the figure's data: one row per benchmark,
normalized to the baseline, and asserts the hgdb overhead bound (with CI
head-room: the paper's bound is 5%, we assert 30% per benchmark and 10%
on the suite geomean for a Python-process-noise margin and report the
measured numbers).  Each (program, build) is compiled once and every
simulator reuses that ``CompiledDesign``, as a debug session does, so a
run times the simulation rather than the native kernel's lookup.  A
single native run takes well under a millisecond, so one sample is a
batch of runs with the configurations taking turns run by run.  An idle
runtime registers no clock callback at all
(``tests/core/test_runtime.py`` checks that structurally), so what the
idle columns read is the estimator's noise floor.  The table also
reports, without asserting it, an *armed* column: a breakpoint on the
register-file writeback whose condition never holds, evaluated at every
writeback — by the native kernel, which returns to Python only on cycles
where it holds, so the column reads the kernel's per-cycle cost of
interpreting the breakpoint's wake program (15-25% over a run that
interprets none).
"""

from __future__ import annotations

import inspect
import math
import os
import time

import pytest

from repro.core import Runtime
from repro.cpu import RV32Core
from repro.sim import SessionOptions, Simulator, compile_design

BENCH_NAMES = [
    "multiply", "mm", "mt-matmul", "vvadd", "qsort",
    "dhrystone", "median", "towers", "spmv", "mt-vvadd",
]

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
if _SMOKE:
    BENCH_NAMES = BENCH_NAMES[:2]

_REPEATS = 1 if _SMOKE else 5
#: runs per timed sample in the Fig. 5 table
_BATCH = 1 if _SMOKE else 40
_MAX_CYCLES = 100_000
#: The armed column's breakpoint: a PC no suite program reaches.
_ARMED_CONDITION = "pc == 0xFFFFFFF0"


def _writeback_line() -> tuple[str, int]:
    """(file, line) of the register-file writeback in the CPU source."""
    path = inspect.getsourcefile(RV32Core)
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if "regs.write(rd, wb_val" in line:
                return path, number
    raise LookupError("register-file writeback not found")


@pytest.fixture(scope="module")
def compiled_designs(compiled_suite):
    """{(bench name, debug): CompiledDesign}, compiled once per module."""
    return {
        key: compile_design(design.low, None)
        for key, (_bench, design, _st) in compiled_suite.items()
    }


def _run_once(
    bench, design, compiled, st, hgdb, fast: bool = True
) -> tuple[float, int]:
    """One measured simulation run; returns (seconds, cycles).  ``hgdb``
    is False (detached), True (attached, idle) or ``"armed"``."""
    sim = Simulator(
        design.low, compiled=compiled, options=SessionOptions(fast=fast)
    )
    if hgdb:
        rt = Runtime(sim, st)
        rt.attach()
        if hgdb == "armed":
            rt.add_breakpoint(*_writeback_line(), condition=_ARMED_CONDITION)
    sim.reset()
    t0 = time.perf_counter()
    code = sim.run(_MAX_CYCLES)
    dt = time.perf_counter() - t0
    assert code == 0, f"{bench.name} did not finish"
    assert sim.peek("tohost") == bench.expected
    return dt, sim.get_time()


def _measure_configs(
    bench, configs, repeats: int = _REPEATS, batch: int = 1
) -> list[float]:
    """Best-of-N for several configurations.  One sample of a
    configuration is the summed time of ``batch`` runs, and within a
    sample the configurations take turns run by run, so machine-load
    drift affects all of them equally (the comparison is relative).  Each
    configuration is ``(design, compiled, st, hgdb)`` or ``(design,
    compiled, st, hgdb, fast)``."""
    best = [float("inf")] * len(configs)
    for _ in range(repeats):
        sample = [0.0] * len(configs)
        for _ in range(batch):
            for i, cfg in enumerate(configs):
                sample[i] += _run_once(bench, *cfg)[0]
        best = [min(b, s) for b, s in zip(best, sample, strict=True)]
    return best


@pytest.mark.parametrize("name", BENCH_NAMES)
@pytest.mark.parametrize("config", ["baseline", "baseline+hgdb", "debug", "debug+hgdb"])
def test_fig5_point(benchmark, compiled_suite, compiled_designs, name, config):
    """One (benchmark, configuration) cell of Fig. 5."""
    debug = config.startswith("debug")
    hgdb = config.endswith("hgdb")
    bench, design, st = compiled_suite[(name, debug)]
    compiled = compiled_designs[(name, debug)]

    def setup():
        sim = Simulator(design.low, compiled=compiled)
        if hgdb:
            rt = Runtime(sim, st)
            rt.attach()
        sim.reset()
        return (sim,), {}

    def run(sim):
        code = sim.run(_MAX_CYCLES)
        assert code == 0

    benchmark.pedantic(run, setup=setup, rounds=3)


def test_fig5_table(benchmark, compiled_suite, compiled_designs, capsys):
    """Regenerate the full Fig. 5 table and check the overhead claim."""

    rows: list[tuple[str, float, float, float, float, float]] = []

    def sweep():
        rows.clear()
        for name in BENCH_NAMES:
            bench, d_opt, st_opt = compiled_suite[(name, False)]
            _b, d_dbg, st_dbg = compiled_suite[(name, True)]
            c_opt = compiled_designs[(name, False)]
            c_dbg = compiled_designs[(name, True)]
            base, base_hgdb, dbg, dbg_hgdb, armed = _measure_configs(
                bench,
                [
                    (d_opt, c_opt, st_opt, False),
                    (d_opt, c_opt, st_opt, True),
                    (d_dbg, c_dbg, st_dbg, False),
                    (d_dbg, c_dbg, st_dbg, True),
                    (d_opt, c_opt, st_opt, "armed"),
                ],
                batch=_BATCH,
            )
            rows.append((name, base, base_hgdb, dbg, dbg_hgdb, armed))

    benchmark.pedantic(sweep, rounds=1)

    header = (
        f"{'benchmark':12s} {'baseline':>9s} {'+hgdb':>7s} {'ovh%':>6s}"
        f" {'debug':>9s} {'+hgdb':>7s} {'ovh%':>6s}"
        f" {'+armed':>7s} {'ovh%':>6s}  (normalized to baseline)"
    )
    lines = ["", "=== Fig. 5: simulation time, normalized to baseline ===", header]
    base_ovhs, dbg_ovhs, armed_ovhs = [], [], []
    for name, base, base_h, dbg, dbg_h, armed in rows:
        ovh_b = base_h / base - 1
        ovh_d = dbg_h / dbg - 1
        ovh_a = armed / base - 1
        base_ovhs.append(max(ovh_b, 0.0))
        dbg_ovhs.append(max(ovh_d, 0.0))
        armed_ovhs.append(max(ovh_a, 0.0))
        lines.append(
            f"{name:12s} {1.0:9.3f} {base_h / base:7.3f} {100 * ovh_b:6.2f}"
            f" {dbg / base:9.3f} {dbg_h / base:7.3f} {100 * ovh_d:6.2f}"
            f" {armed / base:7.3f} {100 * ovh_a:6.2f}"
        )
    geo_b = math.exp(sum(math.log(1 + o) for o in base_ovhs) / len(base_ovhs)) - 1
    geo_d = math.exp(sum(math.log(1 + o) for o in dbg_ovhs) / len(dbg_ovhs)) - 1
    geo_a = math.exp(sum(math.log(1 + o) for o in armed_ovhs) / len(armed_ovhs)) - 1
    lines.append(
        f"{'geomean ovh':12s} {'':9s} {100 * geo_b:7.2f}% {'':6s} {'':9s} "
        f"{100 * geo_d:7.2f}% {'':6s} {100 * geo_a:7.2f}%"
    )
    lines.append(
        "paper claim: hgdb overhead < 5% in all configurations "
        "(armed: reported, not asserted)"
    )
    with capsys.disabled():
        print("\n".join(lines))

    if _SMOKE:
        return  # single-repeat smoke runs are too noisy for the bounds

    # The paper's qualitative claims.  Bounds carry CI head-room: a
    # sample is a batch of sub-millisecond native runs, so individual
    # cells still see process noise when the whole benchmark suite runs
    # in one batch.
    for name, base, base_h, dbg, dbg_h, _armed in rows:
        assert base_h / base - 1 < 0.30, f"{name}: baseline hgdb overhead too high"
        assert dbg_h / dbg - 1 < 0.30, f"{name}: debug hgdb overhead too high"
        # debug (unoptimized) builds are not faster than optimized ones
        assert dbg > base * 0.7, f"{name}: debug build unexpectedly fast"
    assert geo_b < 0.10, "suite-wide baseline overhead exceeds claim margin"
    assert geo_d < 0.10, "suite-wide debug overhead exceeds claim margin"


def test_fig5_fast_vs_reference(compiled_suite, compiled_designs, capsys):
    """Fast-vs-reference rows on the same free-running workload as Fig. 5.
    With ``fast=True`` and nothing observing single cycles, ``run()``
    hands the whole budget to the native C kernel, so the "fast" side
    runs native against the Python reference and the ratio reads far
    below parity (0.01-0.04 on a 2-CPU container); this row guards
    against the fast tier *regressing* plain simulation."""
    names = BENCH_NAMES[:1] if _SMOKE else BENCH_NAMES[:4]
    lines = [
        "",
        "=== Fig. 5 extension: fast vs reference engine (free-running) ===",
        f"{'benchmark':12s} {'reference':>10s} {'fast':>10s} {'ratio':>7s}",
    ]
    ratios = []
    for name in names:
        bench, design, st = compiled_suite[(name, False)]
        compiled = compiled_designs[(name, False)]
        ref, fast = _measure_configs(
            bench,
            [
                (design, compiled, st, False, False),
                (design, compiled, st, False, True),
            ],
        )
        ratios.append(fast / ref)
        lines.append(f"{name:12s} {ref * 1e3:9.1f}ms {fast * 1e3:9.1f}ms {fast / ref:7.3f}")
    with capsys.disabled():
        print("\n".join(lines))
    if not _SMOKE:
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        assert geo < 1.25, "fast path regresses free-running simulation"
