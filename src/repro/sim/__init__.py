"""repro.sim — a zero-delay, cycle-based RTL simulator.

``Simulator`` executes the compiled Low form and implements the unified
simulator interface (paper Sec. 3.3) used by the hgdb runtime; the same
interface is implemented by ``repro.trace.ReplayEngine`` for offline traces.
"""

from .compiler import CombLoopError, CompiledDesign, compile_design
from .engine import SessionOptions, Simulator
from .manyworlds import ManyWorldsSimulator, make_sweep_stimulus
from .interface import (
    HierNode,
    SignalInfo,
    SimulationFinished,
    SimulatorError,
    SimulatorInterface,
)
from .store import ValueStore, resolve_store_kind
from .stimulus import Stimulus
from .testbench import Driver, Monitor, Testbench, Transaction
from .timeline import (
    FullTraceTimeline,
    Timeline,
    TimelineError,
    TimelineView,
    first_timeline_divergence,
)

__all__ = [
    "CombLoopError",
    "CompiledDesign",
    "Driver",
    "FullTraceTimeline",
    "HierNode",
    "ManyWorldsSimulator",
    "Monitor",
    "SessionOptions",
    "SignalInfo",
    "SimulationFinished",
    "Simulator",
    "SimulatorError",
    "SimulatorInterface",
    "Stimulus",
    "Testbench",
    "Timeline",
    "TimelineError",
    "TimelineView",
    "Transaction",
    "ValueStore",
    "compile_design",
    "first_timeline_divergence",
    "make_sweep_stimulus",
    "resolve_store_kind",
]
