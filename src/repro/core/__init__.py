"""repro.core — the hgdb debugger runtime (the paper's primary contribution).

``Runtime`` bridges a simulation backend and a symbol table, emulating
breakpoints at clock edges with SSA-derived enable conditions, scheduling
them in lexical order (forward or reverse), and reconstructing
source-level stack frames.  Debugger clients reach it through the
session API and the debug hub's wire (:mod:`repro.hub`).
"""

from .expr_eval import ExprError, evaluate_str, parse
from .frames import Frame, FrameBuilder, VariableView, build_variable_tree
from .matching import MatchError, locate_instance
from .runtime import (
    CONTINUE,
    DETACH,
    REVERSE_CONTINUE,
    REVERSE_STEP,
    STEP,
    Command,
    CommandKind,
    DebuggerError,
    HitGroup,
    HitPlan,
    HitRecorder,
    Runtime,
    hit_record,
)
from .scheduler import Group, InsertedBreakpoint, Scheduler

__all__ = [
    "CONTINUE",
    "Command",
    "CommandKind",
    "DETACH",
    "DebuggerError",
    "ExprError",
    "Frame",
    "FrameBuilder",
    "Group",
    "HitGroup",
    "HitPlan",
    "HitRecorder",
    "InsertedBreakpoint",
    "MatchError",
    "REVERSE_CONTINUE",
    "REVERSE_STEP",
    "Runtime",
    "STEP",
    "Scheduler",
    "VariableView",
    "build_variable_tree",
    "evaluate_str",
    "hit_record",
    "locate_instance",
    "parse",
]
