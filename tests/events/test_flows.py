"""Dynamic max-min fluid flows on the shared bottleneck.

The fleet's byte-movement claims ride on this model, so the tests pin
both exact closed-form cases (hand-computed drain times for joins and
leaves mid-transfer) and the safety invariant: at no reallocation
instant may the rates exceed the bottleneck capacity or a flow's own
access cap.  The invariant is property-tested over randomized flow sets,
observing every reallocation by wrapping the link's allocator.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import FlowLink, Simulator, max_min_rates

#: the allocator every FlowLink reallocation calls
_ALLOCATOR = "repro.events.flows.max_min_rates"

#: relative slack for float comparisons on rate sums
_EPS = 1e-9


class TestMaxMinRates:
    def test_uncapped_flows_split_equally(self):
        assert max_min_rates([100.0, 100.0], 10.0) == [5.0, 5.0]

    def test_bottlenecked_flow_keeps_cap_leftover_resplits(self):
        assert max_min_rates([2.0, 100.0, 100.0], 12.0) == [2.0, 5.0, 5.0]

    def test_all_capped_below_share(self):
        assert max_min_rates([1.0, 2.0], 100.0) == [1.0, 2.0]

    def test_empty(self):
        assert max_min_rates([], 10.0) == []


class TestFlowLinkExact:
    def test_solo_flow_drains_at_min_of_cap_and_capacity(self):
        sim = Simulator()
        link = FlowLink(sim, capacity_bps=10.0)
        ev = link.transfer(10, 4.0, latency_s=0.5)  # 80 bits at 4 bps
        sim.run()
        rec = ev.value
        assert rec.drain_s == pytest.approx(20.0)
        assert rec.done_s == pytest.approx(20.5)

    def test_simultaneous_flows_get_fair_shares(self):
        sim = Simulator()
        link = FlowLink(sim, capacity_bps=10.0)
        a = link.transfer(10, 100.0)  # 80 bits, uncapped
        b = link.transfer(10, 100.0)
        sim.run()
        # Equal shares of 5 bps each: both drain at 16 s.
        assert a.value.drain_s == pytest.approx(16.0)
        assert b.value.drain_s == pytest.approx(16.0)

    def test_late_join_reshapes_rates_mid_transfer(self):
        """Hand-computed dynamic case.

        Capacity 10 bps.  A (80 bits) starts alone at t=0 and drains at
        10 bps.  B (80 bits) joins at t=4 when A has 40 bits left; both
        then run at 5 bps.  A drains at t=12; B has 40 bits left, takes
        the full 10 bps, and drains at t=16.
        """
        sim = Simulator()
        link = FlowLink(sim, capacity_bps=10.0)
        results = {}

        def starter(name, delay, num_bytes):
            yield sim.timeout(delay)
            rec = yield link.transfer(num_bytes, 100.0, tag=name)
            results[name] = rec

        sim.process(starter("a", 0.0, 10))
        sim.process(starter("b", 4.0, 10))
        sim.run()
        assert results["a"].drain_s == pytest.approx(12.0)
        assert results["b"].drain_s == pytest.approx(16.0)

    def test_leave_frees_capacity_for_remaining_flow(self):
        """A short flow leaving mid-transfer speeds up the long one:
        two uncapped flows at 5 bps each; the 40-bit one drains at t=8,
        the 120-bit one then takes 10 bps and drains at t=16."""
        sim = Simulator()
        link = FlowLink(sim, capacity_bps=10.0)
        short = link.transfer(5, 100.0)  # 40 bits
        long = link.transfer(15, 100.0)  # 120 bits
        sim.run()
        assert short.value.drain_s == pytest.approx(8.0)
        assert long.value.drain_s == pytest.approx(16.0)

    def test_latency_charged_after_drain_not_on_link(self):
        sim = Simulator()
        link = FlowLink(sim, capacity_bps=8.0)
        a = link.transfer(1, 8.0, latency_s=5.0)  # 8 bits -> drains t=1
        sim.run()
        assert a.value.drain_s == pytest.approx(1.0)
        assert a.value.done_s == pytest.approx(6.0)
        # The link was free after t=1 even though done fires at t=6.
        assert not link._flows

    def test_zero_byte_transfer_completes_instantly(self):
        sim = Simulator()
        link = FlowLink(sim, capacity_bps=10.0)
        with mock.patch(_ALLOCATOR, wraps=max_min_rates) as allocator:
            ev = link.transfer(0, 5.0, latency_s=3.0)
            assert ev.processed or ev.triggered
            sim.run()
        rec = ev.value
        assert rec.num_bytes == 0
        assert rec.start_s == rec.drain_s == rec.done_s == 0.0
        allocator.assert_not_called()  # never touched the link

    def test_flow_record_duration(self):
        sim = Simulator()
        link = FlowLink(sim, capacity_bps=8.0)
        ev = link.transfer(2, 8.0, latency_s=0.25)  # 16 bits -> 2 s
        sim.run()
        assert ev.value.done_s - ev.value.start_s == pytest.approx(2.25)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FlowLink(sim, capacity_bps=0.0)
        link = FlowLink(sim, capacity_bps=10.0)
        with pytest.raises(ValueError):
            link.transfer(-1, 5.0)
        with pytest.raises(ValueError):
            link.transfer(10, 0.0)
        with pytest.raises(ValueError):
            link.transfer(10, 5.0, latency_s=-1.0)


class TestRateInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        flows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500_000),  # bytes
                st.floats(min_value=1e3, max_value=1e8),  # access cap
                st.floats(min_value=0.0, max_value=30.0),  # start delay
            ),
            min_size=1,
            max_size=8,
        ),
        capacity=st.floats(min_value=1e3, max_value=1e8),
    )
    def test_rates_never_exceed_caps_or_capacity(self, flows, capacity):
        """At every reallocation instant: sum(rates) <= capacity and each
        flow's rate <= its own access cap — no matter how flows arrive
        and leave."""
        sim = Simulator()
        link = FlowLink(sim, capacity)
        events = []

        def starter(delay, num_bytes, cap):
            yield sim.timeout(delay)
            events.append((yield link.transfer(num_bytes, cap)))

        for num_bytes, cap, delay in flows:
            sim.process(starter(delay, num_bytes, cap))
        allocations = []

        def allocate(caps, link_capacity):
            rates = max_min_rates(caps, link_capacity)
            allocations.append((list(caps), link_capacity, rates))
            return rates

        with mock.patch(_ALLOCATOR, allocate):
            sim.run()
        assert len(events) == len(flows)  # every flow completed
        assert allocations  # at least one reallocation happened
        for caps, link_capacity, rates in allocations:
            assert link_capacity == capacity
            assert sum(rates) <= capacity * (1 + _EPS)
            for rate, cap in zip(rates, caps):
                assert rate <= cap * (1 + _EPS)

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=200_000), min_size=1, max_size=6
        ),
        capacity=st.floats(min_value=1e4, max_value=1e8),
    )
    def test_aggregate_drain_bounded_by_capacity(self, sizes, capacity):
        """All flows together can never finish faster than the bottleneck
        allows: last drain >= total bits / capacity."""
        sim = Simulator()
        link = FlowLink(sim, capacity)
        events = [link.transfer(n, 1e9) for n in sizes]
        sim.run()
        last_drain = max(ev.value.drain_s for ev in events)
        total_bits = sum(n * 8.0 for n in sizes)
        assert last_drain >= total_bits / capacity * (1 - 1e-9)

