import pytest

from refsim.controller import ChannelController, MemRequest
from refsim.engine import TimingEngine
from refsim.errors import ConfigError
from refsim.refresh import make_policy

from helpers import small_geometry, small_timing


def make_ctrl(policy="noref", sarp=False, timing=None, **ctrl_kw):
    geo = small_geometry()
    timing = timing or small_timing()
    eng = TimingEngine(geo, timing, channel_index=0, sarp_enabled=sarp)
    pol = make_policy(policy, geo, timing, seed=5)
    return ChannelController(eng, pol, **ctrl_kw)


def req(req_id, *, write=False, rank=0, bank=0, row=0, col=0, arrival=0):
    return MemRequest(req_id, write, 0, rank, bank, row, col, arrival)


class TestEnqueue:
    def test_read_accepted(self):
        ctrl = make_ctrl()
        assert ctrl.enqueue(req(0))
        assert ctrl.read_count == 1

    def test_read_backpressure_at_capacity(self):
        ctrl = make_ctrl(read_capacity=4)
        for i in range(4):
            assert ctrl.enqueue(req(i))
        assert not ctrl.enqueue(req(99))

    def test_write_backpressure_at_capacity(self):
        ctrl = make_ctrl(write_capacity=4, low_watermark=1, high_watermark=3)
        for i in range(4):
            assert ctrl.enqueue(req(i, write=True))
        assert not ctrl.enqueue(req(99, write=True))

    def test_write_reaching_high_watermark_enters_writeback(self):
        ctrl = make_ctrl(write_capacity=64, low_watermark=32, high_watermark=48)
        for i in range(47):
            ctrl.enqueue(req(i, write=True, bank=i % 8))
            assert not ctrl.writeback_active
        ctrl.enqueue(req(47, write=True))
        assert ctrl.writeback_active

    def test_writes_complete_at_enqueue(self):
        ctrl = make_ctrl()
        w = req(0, write=True, arrival=7)
        ctrl.enqueue(w)
        assert w.completion_cycle == 7
        assert ctrl.stats.completed_writes == 1

    def test_bad_watermarks_rejected(self):
        with pytest.raises(ConfigError):
            make_ctrl(low_watermark=40, high_watermark=30)


class TestWritebackMode:
    def drain_until_exit(self, ctrl, start=0, limit=20000):
        entered_at = ctrl.write_count
        for t in range(start, limit):
            ctrl.tick(t)
            if not ctrl.writeback_active:
                return entered_at, ctrl.write_count, t
        raise AssertionError("writeback never exited")

    def test_exit_at_low_watermark(self):
        ctrl = make_ctrl(write_capacity=64, low_watermark=32, high_watermark=48)
        for i in range(48):
            ctrl.enqueue(req(i, write=True, bank=i % 8, row=i % 4))
        assert ctrl.writeback_active
        entry_occ, exit_occ, _ = self.drain_until_exit(ctrl)
        assert entry_occ >= 48
        assert exit_occ <= 32

    def test_reads_not_scheduled_during_writeback(self):
        ctrl = make_ctrl(write_capacity=64, low_watermark=2, high_watermark=4)
        ctrl.enqueue(req(0, bank=1, row=3))
        for i in range(4):
            ctrl.enqueue(req(10 + i, write=True, bank=0, row=0))
        assert ctrl.writeback_active
        t = 0
        while ctrl.writeback_active:
            ctrl.tick(t)
            t += 1
            assert t < 10000
        assert ctrl.stats.completed_reads == 0   # read waited out the drain
        assert ctrl.engine.n_wr >= 2

    def test_hysteresis_no_double_toggle(self):
        # occupancy between low and high while inactive: stays inactive
        ctrl = make_ctrl(write_capacity=64, low_watermark=4, high_watermark=8)
        for i in range(7):
            ctrl.enqueue(req(i, write=True, bank=i % 8))
        for t in range(50):
            ctrl.tick(t)
        assert not ctrl.writeback_active
        assert ctrl.stats.completed_reads == 0


class TestFrFcfs:
    def test_row_hit_preferred_over_older_miss(self):
        ctrl = make_ctrl()
        eng = ctrl.engine
        # open row 5 in bank 0
        eng.issue_act(0, 0, 5, 0)
        older_miss = req(1, bank=1, row=7)
        younger_hit = req(2, bank=0, row=5)
        ctrl.enqueue(older_miss)
        ctrl.enqueue(younger_hit)
        t = eng.bank_state(0, 0).rw_ready
        ctrl.tick(t)
        assert eng.n_rd == 1                      # the hit went out first
        assert younger_hit.id not in [r.id for r in ctrl.bank_reads[0]]

    def test_row_hit_behind_older_miss_in_same_bank_served_first(self):
        ctrl = make_ctrl()
        eng = ctrl.engine
        eng.issue_act(0, 0, 5, 0)
        older_miss = req(1, bank=0, row=7)
        younger_hit = req(2, bank=0, row=5)
        ctrl.enqueue(older_miss)
        ctrl.enqueue(younger_hit)
        t = eng.bank_state(0, 0).rw_ready
        assert t < eng.bank_state(0, 0).pre_ready   # the miss cannot close the row yet
        ctrl.tick(t)
        assert eng.n_rd == 1 and eng.n_pre == 0
        assert list(ctrl.bank_reads[0]) == [older_miss]

    def test_oldest_hit_wins_among_hits(self):
        ctrl = make_ctrl()
        eng = ctrl.engine
        eng.issue_act(0, 0, 5, 0)
        eng.issue_act(0, 1, 6, 4)
        second = req(7, bank=1, row=6)
        first = req(3, bank=0, row=5)
        ctrl.enqueue(second)
        ctrl.enqueue(first)
        t = max(eng.bank_state(0, 0).rw_ready, eng.bank_state(0, 1).rw_ready)
        ctrl.tick(t)
        assert first.completion_cycle is None     # issued (in flight), dequeued
        assert all(r.id != 3 for r in ctrl.bank_reads[0])
        assert any(r.id == 7 for r in ctrl.bank_reads[1])

    def test_closed_row_precharge_when_no_hits(self):
        ctrl = make_ctrl()
        eng = ctrl.engine
        eng.issue_act(0, 0, 5, 0)
        ctrl.enqueue(req(1, bank=0, row=9))       # miss on the open row
        t = eng.bank_state(0, 0).pre_ready
        ctrl.tick(t)
        assert eng.n_pre == 1
        assert eng.bank_state(0, 0).open_row is None

    def test_miss_eventually_activates(self):
        ctrl = make_ctrl()
        ctrl.enqueue(req(1, bank=2, row=9))
        for t in range(100):
            ctrl.tick(t)
        assert ctrl.stats.completed_reads == 1


class TestRefreshIntegration:
    def test_refab_preempts_and_blocks_rank(self):
        timing = small_timing(tREFIab=50, tRFCab=20)
        ctrl = make_ctrl(policy="ab", timing=timing)
        eng = ctrl.engine
        # keep a stream of row hits coming to bank 0
        for i in range(6):
            ctrl.enqueue(req(i, bank=0, row=1))
        issued_at = None
        for t in range(200):
            ctrl.tick(t)
            if eng.n_refab and issued_at is None:
                issued_at = t
        assert issued_at is not None
        # demands to the rank resumed only after the refresh window
        assert ctrl.stats.completed_reads == 6

    def test_one_command_per_cycle(self):
        timing = small_timing(tREFIab=40, tRFCab=10)
        geo = small_geometry()
        eng = TimingEngine(geo, timing, 0, False)
        eng.enable_cmd_log()
        pol = make_policy("pb", geo, timing, seed=1)
        ctrl = ChannelController(eng, pol)
        for i in range(40):
            ctrl.enqueue(req(i, bank=i % 8, row=i % 16, write=(i % 3 == 0)))
        for t in range(2000):
            ctrl.tick(t)
        cycles = [c[0] for c in eng.cmd_log]
        assert len(cycles) == len(set(cycles))

    def test_no_starvation_bounded_latency(self):
        ctrl = make_ctrl(policy="pb", timing=small_timing(tREFIpb=30, tRFCpb=8))
        reqs = [req(i, bank=i % 8, row=(i * 7) % 64) for i in range(30)]
        for r in reqs:
            ctrl.enqueue(r)
        for t in range(100000):
            ctrl.tick(t)
            if ctrl.stats.completed_reads == len(reqs):
                break
        assert ctrl.stats.completed_reads == len(reqs)
        assert all(r.completion_cycle is not None and
                   r.completion_cycle - r.arrival_cycle < 10 ** 6 for r in reqs)


class TestSubarrayParallelism:
    """While bank 0 refreshes subarray 0 (rows 0-7) from cycle 0 to 8, a read
    to that subarray waits and counts once as a conflict; a read to another
    subarray of the bank activates inside the refresh."""

    def run_read(self, row):
        ctrl = make_ctrl(sarp=True)
        ctrl.always_scan = True      # a pass every cycle: count once, not per pass
        eng = ctrl.engine
        eng.issue_refpb(0, 0, 0)
        refresh_end = eng.bank_state(0, 0).refresh_end
        ctrl.enqueue(req(1, bank=0, row=row))
        act_at = None
        for t in range(1, 40):
            ctrl.tick(t)
            if act_at is None and eng.n_act:
                act_at = t
        assert ctrl.stats.completed_reads == 1
        return ctrl.stats, act_at, refresh_end

    def test_read_to_refreshing_subarray_waits_and_counts_once(self):
        stats, act_at, refresh_end = self.run_read(row=3)
        assert act_at >= refresh_end
        assert stats.subarray_conflicts == 1
        assert stats.sarp_parallel_accesses == 0

    def test_read_to_other_subarray_activates_during_refresh(self):
        stats, act_at, refresh_end = self.run_read(row=20)
        assert act_at < refresh_end
        assert stats.sarp_parallel_accesses == 1
        assert stats.subarray_conflicts == 0
