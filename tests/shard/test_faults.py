"""repro.faults unit tests: the fault plan must be a pure function of
(seed, shard, attempt) — same plan, same faults, every run — and the
garbled-wire helper must defeat the event decoder every time."""

import pytest

from repro.faults import (
    RPC_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    FaultError,
    FaultInjector,
    FaultPlan,
    RPCFaultInjector,
    ShardFault,
    corrupt_line,
)
from repro.shard import WireError, decode_line, encode_line, heartbeat_event


class TestShardFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            ShardFault(kind="meteor", at_cycle=0)

    def test_negative_cycle_rejected(self):
        with pytest.raises(FaultError, match=">= 0"):
            ShardFault(kind="kill", at_cycle=-1)

    def test_wire_round_trip(self):
        f = ShardFault(
            kind="hang", at_cycle=7, exit_code=3, hang_s=1.5, stubborn=True
        )
        assert ShardFault.from_wire(f.to_wire()) == f


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        a = FaultPlan(seed=11, rate=0.5)
        b = FaultPlan(seed=11, rate=0.5)
        draws = [
            (s, n, a.fault_for(s, n, 100))
            for s in range(8) for n in (1, 2, 3)
        ]
        assert draws == [
            (s, n, b.fault_for(s, n, 100)) for s in range(8) for n in (1, 2, 3)
        ]
        # and the draw is repeatable on the same plan instance
        assert draws == [
            (s, n, a.fault_for(s, n, 100)) for s in range(8) for n in (1, 2, 3)
        ]

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=0, rate=0.5)
        b = FaultPlan(seed=1, rate=0.5)
        assert [a.fault_for(s, 1, 100) for s in range(32)] != [
            b.fault_for(s, 1, 100) for s in range(32)
        ]

    def test_rate_bounds(self):
        none = FaultPlan(seed=0, rate=0.0)
        all_ = FaultPlan(seed=0, rate=1.0)
        assert all(
            none.fault_for(s, n, 50) is None for s in range(8) for n in (1, 2)
        )
        assert all(
            all_.fault_for(s, n, 50) is not None
            for s in range(8) for n in (1, 2)
        )

    def test_invalid_rate_rejected(self):
        with pytest.raises(FaultError, match="within"):
            FaultPlan(rate=1.5)
        with pytest.raises(FaultError, match="within"):
            FaultPlan(rate=-0.1)

    def test_invalid_kinds_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultPlan(kinds=("kill", "meteor"))
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultPlan(kinds=("drop",))  # an RPC response fault

    def test_only_shards_restricts(self):
        plan = FaultPlan(seed=0, rate=1.0, only_shards=(2, 5))
        faulted = [s for s in range(8) if plan.fault_for(s, 1, 50)]
        assert faulted == [2, 5]

    def test_at_cycle_pins_and_default_draw_is_bounded(self):
        pinned = FaultPlan(seed=0, rate=1.0, at_cycle=13)
        assert all(
            pinned.fault_for(s, 1, 50).at_cycle == 13 for s in range(8)
        )
        drawn = FaultPlan(seed=0, rate=1.0)
        assert all(
            0 <= drawn.fault_for(s, 1, 50).at_cycle < 50 for s in range(16)
        )

    def test_max_faulty_attempts_guarantees_convergence(self):
        plan = FaultPlan(seed=0, rate=1.0, max_faulty_attempts=2)
        assert plan.fault_for(0, 1, 50) is not None
        assert plan.fault_for(0, 2, 50) is not None
        assert plan.fault_for(0, 3, 50) is None
        assert plan.fault_for(0, 99, 50) is None

    def test_kind_restriction_and_knob_forwarding(self):
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("hang",), hang_s=2.5, stubborn=True,
            exit_code=9,
        )
        for s in range(8):
            f = plan.fault_for(s, 1, 50)
            assert f.kind == "hang"
            assert f.hang_s == 2.5 and f.stubborn and f.exit_code == 9

    def test_wire_round_trip_preserves_draws(self):
        plan = FaultPlan(
            seed=42, rate=0.4, kinds=("kill", "corrupt"), only_shards=(0, 3),
            at_cycle=5, max_faulty_attempts=2, hang_s=1.0, stubborn=True,
            exit_code=7,
        )
        back = FaultPlan.from_wire(plan.to_wire())
        assert back.to_wire() == plan.to_wire()
        assert [back.fault_for(s, n, 60) for s in range(8) for n in (1, 2)] == [
            plan.fault_for(s, n, 60) for s in range(8) for n in (1, 2)
        ]

    @pytest.mark.parametrize("knob", ["rpc_rate", "rpc_kinds", "rpc_delay_s"])
    def test_plans_have_no_rpc_knobs(self, knob):
        """Shard workers query no RPC server, so a plan has none to arm."""
        with pytest.raises(TypeError, match=knob):
            FaultPlan(**{knob: 0.1})
        assert knob not in FaultPlan().to_wire()


class TestCorruptLine:
    def test_never_decodes(self):
        for event in (
            heartbeat_event(0, 10),
            {"event": "done", "shard": 1, "result": {"shard_id": 1}},
        ):
            garbled = corrupt_line(encode_line(event))
            with pytest.raises(WireError):
                decode_line(garbled)

    def test_stays_one_framing_unit(self):
        garbled = corrupt_line(encode_line(heartbeat_event(2, 5)))
        assert garbled.endswith(b"\n")
        assert b"\n" not in garbled[:-1]


class TestFaultInjector:
    def test_inert_without_fault(self):
        inj = FaultInjector(None)
        inj.on_cycle(0)
        assert not inj.corrupting

    def test_corrupt_arms_at_cycle_once(self):
        inj = FaultInjector(ShardFault(kind="corrupt", at_cycle=3))
        inj.on_cycle(2)
        assert not inj.corrupting
        inj.on_cycle(3)
        assert inj.corrupting


class TestRPCFaultInjector:
    def test_deterministic_sequence(self):
        a = RPCFaultInjector(seed=5, rate=0.5)
        b = RPCFaultInjector(seed=5, rate=0.5)
        assert [a.decide() for _ in range(64)] == [
            b.decide() for _ in range(64)
        ]

    def test_rate_one_always_faults_with_known_kinds(self):
        inj = RPCFaultInjector(seed=0, rate=1.0, delay_s=0.7)
        for _ in range(16):
            kind, delay = inj.decide()
            assert kind in RPC_FAULT_KINDS
            assert delay == (0.7 if kind == "delay" else 0.0)

    def test_rate_zero_never_faults(self):
        inj = RPCFaultInjector(seed=0, rate=0.0)
        assert all(inj.decide() is None for _ in range(16))


class TestHeartbeatWire:
    def test_heartbeat_round_trips(self):
        ev = heartbeat_event(3, 1200)
        back = decode_line(encode_line(ev))
        assert back["event"] == "heartbeat"
        assert back["shard"] == 3 and back["done"] == 1200

    def test_kind_tables_are_disjoint(self):
        assert not set(WORKER_FAULT_KINDS) & set(RPC_FAULT_KINDS)
