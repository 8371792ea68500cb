import random

import pytest

from refsim.engine import ACT, BLOCKED, TimingEngine, advance_refresh_counters
from refsim.timing import DramGeometry
from refsim.workload import AddressMap

from helpers import small_geometry, small_timing

FULL_GEO = DramGeometry()   # 64K rows, 8 subarrays -> 8192 rows per group


def full_engine():
    """A SARP engine on the full geometry with bank 0 of rank 0 refreshing
    subarray 0 from cycle 0 to 30."""
    eng = TimingEngine(FULL_GEO, small_timing(tRFCpb=30, tRFCab=60),
                       sarp_enabled=True)
    eng.issue_refpb(0, 0, 0)
    return eng


def logged_subarray(row):
    eng = TimingEngine(FULL_GEO, small_timing())
    eng.enable_cmd_log()
    eng.issue_act(0, 0, row, 0)
    (cycle, kind, ch, rank, bank, subarray, logged_row, col), = eng.cmd_log
    assert (kind, logged_row) == (ACT, row)
    return subarray


class TestSubarrayOfRow:
    def test_first_row(self):
        assert logged_subarray(0) == 0

    def test_group_boundary(self):
        assert logged_subarray(8191) == 0
        assert logged_subarray(8192) == 1
        # the refresh of subarray 0 holds row 8191 but not row 8192
        eng = full_engine()
        assert eng.act_ready_at(0, 0, 8191, 1) == 30
        assert eng.act_ready_at(0, 0, 8192, 1) <= 1

    def test_last_row(self):
        assert logged_subarray(65535) == 7

    def test_out_of_range(self):
        # the engine has no range checks: every decoded address is in range
        amap = AddressMap(FULL_GEO)
        for address in (0, (1 << 40) - 1, 1 << 63, (1 << 64) - 64):
            ch, rank, bank, row, col = amap.decode(address)
            assert 0 <= ch < FULL_GEO.channels
            assert 0 <= rank < FULL_GEO.ranks_per_channel
            assert 0 <= bank < FULL_GEO.banks_per_rank
            assert 0 <= row < FULL_GEO.rows_per_bank
            assert 0 <= col < FULL_GEO.columns_per_row


class TestCounterAdvance:
    def test_carry_into_next_subarray(self):
        assert advance_refresh_counters(0, 8184, 8, FULL_GEO) == (1, 0)

    def test_wraparound(self):
        assert advance_refresh_counters(7, 8184, 8, FULL_GEO) == (0, 0)

    def test_zero_rows_identity(self):
        assert advance_refresh_counters(3, 17, 0, FULL_GEO) == (3, 17)

    def test_multi_subarray_jump(self):
        assert advance_refresh_counters(6, 0, 8192 * 3, FULL_GEO) == (1, 0)


class TestAccessAllowed:
    def test_other_subarray_allowed(self):
        assert full_engine().act_ready_at(0, 0, 9000, 1) <= 1

    def test_refreshing_subarray_blocked(self):
        assert full_engine().act_ready_at(0, 0, 100, 1) == 30

    def test_second_access_blocked(self):
        # another subarray already drives the global bitlines
        eng = full_engine()
        eng.issue_act(0, 0, 20000, 1)
        assert eng.act_ready_at(0, 0, 9000, 20) == BLOCKED


def parallel_banks(eng, ri, now):
    """Banks of a rank that are refreshing and still accept an activate to
    a row outside the refreshing subarray."""
    out = set()
    for bi in range(eng.n_banks):
        bank = eng.bank_state(ri, bi)
        if bank.refresh_end > now:
            row = ((bank.refresh_subarray + 1) % eng.geometry.subarrays_per_bank
                   * eng.rows_per_sub)
            if eng.act_ready_at(ri, bi, row, now) <= now:
                out.add(bi)
    return out


class TestModeBanks:
    def test_all_bank_refresh_exposes_every_bank(self):
        eng = TimingEngine(small_geometry(), small_timing(tRFCab=40, tRFCpb=8),
                           sarp_enabled=True)
        eng.issue_refab(0, 0)
        assert parallel_banks(eng, 0, 10) == set(range(8))

    def test_per_bank_refresh_exposes_one_bank(self):
        eng = TimingEngine(small_geometry(), small_timing(), sarp_enabled=True)
        eng.issue_refpb(0, 3, 0)
        assert parallel_banks(eng, 0, 4) == {3}

    def test_no_refresh_empty(self):
        eng = TimingEngine(small_geometry(), small_timing(), sarp_enabled=True)
        assert parallel_banks(eng, 0, 0) == set()

    def test_baseline_policy_empty(self):
        eng = TimingEngine(small_geometry(), small_timing(), sarp_enabled=False)
        eng.issue_refpb(0, 3, 0)
        assert parallel_banks(eng, 0, 4) == set()


class TestShadowConsistency:
    def test_independent_replay_matches_engine(self):
        """The device counters a controller would shadow: after n refreshed
        rows a bank's counters are (n // rows_per_subarray mod subarrays,
        n mod rows_per_subarray), whatever mix of REFpb/REFab got it there."""
        geo = small_geometry()
        rps = geo.rows_per_subarray
        timing = small_timing(tRFCpb=4, tRFCab=12, rows_per_ref=3)
        eng = TimingEngine(geo, timing, sarp_enabled=True)
        rows = [[0] * geo.banks_per_rank for _ in range(geo.ranks_per_channel)]
        rng = random.Random(5)
        t = 0
        for _ in range(500):
            t += rng.randint(1, 20)
            ri = rng.randrange(geo.ranks_per_channel)
            if rng.random() < 0.8:
                bi = rng.randrange(geo.banks_per_rank)
                if eng.refpb_ready_at(ri, bi, t) <= t:
                    eng.issue_refpb(ri, bi, t, rows=3)
                    rows[ri][bi] += 3
            elif eng.refab_ready_at(ri, t) <= t:
                eng.issue_refab(ri, t, rows=3)
                rows[ri] = [n + 3 for n in rows[ri]]
            for r in range(geo.ranks_per_channel):
                for b in range(geo.banks_per_rank):
                    bank = eng.bank_state(r, b)
                    n = rows[r][b]
                    assert (bank.ref_sa, bank.ref_row) == \
                        ((n // rps) % geo.subarrays_per_bank, n % rps)
        assert sum(map(sum, rows)) > 3 * 200


class TestConflictFrequency:
    @pytest.mark.parametrize("subarrays,expected", [(8, 1 / 8), (16, 1 / 16)])
    def test_uniform_hit_rate(self, subarrays, expected):
        geo = DramGeometry(subarrays_per_bank=subarrays)
        rng = random.Random(11)
        sa, row = 0, 0
        conflicts = 0
        samples = 120_000
        for i in range(samples):
            if i % 10 == 0:   # refresh pointer advances between accesses
                sa, row = advance_refresh_counters(sa, row, 8, geo)
            if rng.randrange(geo.rows_per_bank) // geo.rows_per_subarray == sa:
                conflicts += 1
        assert conflicts / samples == pytest.approx(expected, abs=0.02)


class TestParallelServiceLatency:
    def test_read_to_idle_subarray_beats_waiting(self):
        """An access to an idle subarray of a refreshing bank completes in
        the ordinary activate+read latency instead of waiting out tRFCpb."""
        geo = small_geometry()
        timing = small_timing(tRFCpb=60, tRFCab=90, tRCD=3, tCL=3, tBURST=2)
        eng = TimingEngine(geo, timing, sarp_enabled=True)
        eng.issue_refpb(0, 0, 0)
        t_act = eng.act_ready_at(0, 0, 9, 1)
        assert t_act <= timing.tRRD_ref  # not stalled until refresh end
        eng.issue_act(0, 0, 9, t_act)
        t_rd = max(eng.rw_ready_at(0, 0, 9, t_act, False), t_act)
        done = eng.issue_rd(0, 0, 0, t_rd)
        assert done < 60  # strictly earlier than the refresh completes

        baseline = TimingEngine(geo, timing, sarp_enabled=False)
        baseline.issue_refpb(0, 0, 0)
        assert baseline.act_ready_at(0, 0, 9, 1) == 60
