import gzip
import io
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from refsim.config import SimConfig, WorkloadSpec
from refsim.controller import MemRequest
from refsim.errors import ConfigError
from refsim.simulation import Simulation
from refsim.timing import DramGeometry
from refsim.workload import (
    AddressMap,
    Core,
    TraceRecord,
    parse_trace,
    scatter_pages,
    synth_random,
    synth_stream,
)

GEO = DramGeometry()


class TestParseTrace:
    def test_basic_records(self):
        text = "5 0x1fc0 R\n0 0x0000 W\n"
        records = list(parse_trace(io.StringIO(text)))
        assert records == [TraceRecord(5, 0x1fc0, False), TraceRecord(0, 0, True)]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n3 0x40 R\n   \n"
        assert len(list(parse_trace(io.StringIO(text)))) == 1

    def test_malformed_line_reports_number(self):
        text = "1 0x40 R\nx y z\n"
        with pytest.raises(ConfigError, match="line 2"):
            list(parse_trace(io.StringIO(text)))

    def test_address_alignment(self):
        records = list(parse_trace(io.StringIO("0 0x1f R\n")))
        assert records[0].address == 0

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("2 0x80 W\n")
        from refsim.workload import open_trace
        with open_trace(str(path)) as fh:
            assert len(list(parse_trace(fh))) == 1


class TestSynthRandom:
    def test_deterministic_per_seed(self):
        gen_a = synth_random(7, 1 << 20, 0.5, 4)
        gen_b = synth_random(7, 1 << 20, 0.5, 4)
        a = [next(gen_a) for _ in range(50)]
        b = [next(gen_b) for _ in range(50)]
        assert a == b
        gen_c = synth_random(8, 1 << 20, 0.5, 4)
        assert [next(gen_c) for _ in range(50)] != a

    def test_mean_bubbles(self):
        gen = synth_random(1, 1 << 22, 0.8, 10.0)
        n = 200_000
        mean = sum(next(gen).bubbles for _ in range(n)) / n
        assert mean == pytest.approx(10.0, abs=0.1)

    def test_read_fraction_one_means_no_writes(self):
        gen = synth_random(3, 1 << 20, 1.0, 5)
        assert not any(next(gen).is_write for _ in range(5000))

    def test_addresses_within_footprint(self):
        gen = synth_random(5, 1 << 16, 0.5, 2, base=1 << 20)
        for _ in range(2000):
            rec = next(gen)
            assert (1 << 20) <= rec.address < (1 << 20) + (1 << 16)
            assert rec.address % 64 == 0

    def test_footprint_too_small(self):
        with pytest.raises(ConfigError):
            next(synth_random(1, 32, 0.5, 1))


class TestSynthStream:
    def test_sequential_columns_same_row(self):
        gen = synth_stream(0, 1 << 20, 64)
        addrs = [next(gen).address for _ in range(8)]
        assert addrs == [i * 64 for i in range(8)]

    def test_wrap_at_footprint(self):
        gen = synth_stream(0, 256, 64)
        addrs = [next(gen).address for _ in range(6)]
        assert addrs == [0, 64, 128, 192, 0, 64]

    def test_row_hit_fraction_beats_random(self):
        def hit_fraction(policy_gen):
            amap = AddressMap(GEO)
            last_row = {}
            hits = total = 0
            for _ in range(4000):
                rec = next(policy_gen)
                ch, rank, bank, row, _ = amap.decode(rec.address)
                key = (ch, rank, bank)
                hits += last_row.get(key) == row
                total += 1
                last_row[key] = row
            return hits / total

        stream_hits = hit_fraction(synth_stream(0, 1 << 24, 64))
        random_hits = hit_fraction(synth_random(0, 1 << 24, 1.0, 0))
        assert stream_hits > 5 * random_hits


class TestScatterPages:
    def test_bijective_on_pages(self):
        bits = 22
        seen = set()
        stride = 1 << 12
        recs = (TraceRecord(0, a, False) for a in range(0, 1 << bits, stride))
        for rec in scatter_pages(recs, bits):
            assert rec.address not in seen
            seen.add(rec.address)
        assert len(seen) == 1 << (bits - 12)

    def test_offset_within_page_preserved(self):
        recs = iter([TraceRecord(0, (3 << 12) | 0x140, False)])
        out = next(scatter_pages(recs, 30))
        assert out.address & 0xfff == 0x140


class TestAddressMap:
    def test_round_trip_examples(self):
        amap = AddressMap(GEO)
        fields = (1, 0, 5, 1234, 17)
        assert amap.decode(amap.encode(*fields)) == fields

    @given(st.integers(min_value=0, max_value=(1 << 34) - 1))
    @settings(max_examples=300)
    def test_round_trip_random_addresses(self, addr):
        amap = AddressMap(GEO)
        addr &= ~63
        ch, rank, bank, row, col = amap.decode(addr)
        assert amap.encode(ch, rank, bank, row, col) == addr

    def test_field_ranges(self):
        amap = AddressMap(GEO)
        with pytest.raises(ConfigError):
            amap.encode(2, 0, 0, 0, 0)

    def test_non_pow2_rejected(self):
        with pytest.raises(ConfigError):
            AddressMap(DramGeometry(channels=3))


class _StubController:
    def __init__(self, accept=True):
        self.accept = accept
        self.requests = []

    def enqueue(self, req):
        if not self.accept:
            return False
        self.requests.append(req)
        return True


def make_core(trace, ctrl=None):
    ctrl = ctrl or _StubController()
    amap = AddressMap(GEO)
    core = Core(trace, amap, {0: ctrl, 1: ctrl} if isinstance(ctrl, _StubController) else ctrl,
                clock_ratio=6, id_counter=itertools.count())
    return core, ctrl


class TestCoreModel:
    def test_ipc_ceiling_on_bubble_stream(self):
        trace = iter([TraceRecord(1_000_000, 0, True)])
        core, ctrl = make_core(trace)
        for cyc in range(1, 101):
            core.advance(cyc)
        assert core.retired == 600 * 3
        assert core.retired / core.core_cycle == 3.0

    def test_mshr_limit_stalls_ninth_read(self):
        trace = iter(TraceRecord(0, i * 4096, False) for i in range(20))
        core, ctrl = make_core(trace)
        core.advance(10)
        assert len(ctrl.requests) == 8
        assert core.blocked_returns
        # returning one read admits exactly one more
        ctrl.requests[0].core_ref = core
        core.on_read_return(ctrl.requests[0])
        core.advance(11)
        assert len(ctrl.requests) == 9

    def test_window_blocks_retirement_behind_pending_read(self):
        records = [TraceRecord(0, 0, False)] + [TraceRecord(200, 4096, True)]
        core, ctrl = make_core(iter(records))
        core.advance(30)   # plenty of cycles: bubbles pile up behind the read
        assert core.window_occ >= 128 - 8
        assert core.blocked_returns
        retired_before = core.retired
        ctrl.requests[0].core_ref = core
        core.on_read_return(ctrl.requests[0])
        assert core.retired > retired_before

    def test_writes_posted_without_window_slot(self):
        trace = iter(TraceRecord(0, i * 4096, True) for i in range(32))
        core, ctrl = make_core(trace)
        core.advance(4)
        assert core.window_occ == 0
        assert len(ctrl.requests) == 32 or not core.blocked_returns

    def test_write_backpressure_stalls_core(self):
        trace = iter(TraceRecord(0, i * 4096, True) for i in range(8))
        core, ctrl = make_core(trace, _StubController(accept=False))
        core.advance(5)
        assert core.retired == 0
        ctrl.accept = True
        core.advance(10)
        assert core.retired == 8


class TestRequestConservation:
    def test_every_request_completes_or_is_in_flight(self):
        cfg = SimConfig(policy="pb", density=8, cores=2, seed=2,
                        geometry=DramGeometry(channels=1, ranks_per_channel=1),
                        warmup_cycles=0, measured_cycles=30000,
                        default_workload=WorkloadSpec(kind="random",
                                                      footprint=8 << 20,
                                                      read_fraction=0.7,
                                                      intensity=6.0))
        sim = Simulation(cfg)
        stats = sim.run()
        issued = sum(core.issued_mem for core in sim.cores)
        # writes complete at enqueue, so only queued reads are outstanding
        queued_reads = sum(len(q) for c in sim.controllers for q in c.bank_reads)
        assert stats.completed_reads + stats.completed_writes + queued_reads == issued
