import random

import pytest

from refsim.engine import (
    ACT, BLOCKED, PRE, RD, WR, REFAB, REFPB, DramCommand, TimingEngine,
)
from refsim.errors import SimulationError

from helpers import random_stimulus, small_geometry, small_timing


def make_engine(sarp=False, **timing_over):
    return TimingEngine(small_geometry(), small_timing(**timing_over),
                        channel_index=0, sarp_enabled=sarp)


class TestActConstraints:
    def test_trrd_between_ranks_banks(self):
        eng = make_engine(tRRD=4, tRRD_ref=5)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=1), 0)
        assert eng.ready_at(DramCommand(ACT, 0, 0, 1, row=1), 2) == 4
        # other rank is unconstrained by this rank's tRRD
        assert eng.ready_at(DramCommand(ACT, 0, 1, 0, row=1), 2) == 0

    def test_four_activate_window(self):
        eng = make_engine(tRRD=2, tFAW=10, tFAW_ref=14)
        for i, t in enumerate((0, 2, 4, 6)):
            eng.issue(DramCommand(ACT, 0, 0, i, row=1), t)
        fifth = DramCommand(ACT, 0, 0, 4, row=1)
        # tRRD allows 8; legal once the oldest of the last four leaves
        # the window
        assert eng.ready_at(fifth, 8) == 10
        assert eng.ready_at(fifth, 9) == 10

    def test_act_on_open_bank(self):
        eng = make_engine()
        eng.issue(DramCommand(ACT, 0, 0, 0, row=1), 0)
        assert eng.ready_at(DramCommand(ACT, 0, 0, 0, row=2), 30) == BLOCKED

    def test_trp_after_precharge(self):
        eng = make_engine(tRP=3, tRAS=8)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=1), 0)
        eng.issue(DramCommand(PRE, 0, 0, 0), 8)
        assert eng.ready_at(DramCommand(ACT, 0, 0, 0, row=2), 10) == 8 + 3

    def test_trc_same_bank(self):
        eng = make_engine(tRC=11, tRAS=4, tRP=3)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=1), 0)
        eng.issue(DramCommand(PRE, 0, 0, 0), 4)
        # tRP allows 7
        assert eng.ready_at(DramCommand(ACT, 0, 0, 0, row=2), 8) == 11


class TestReadWrite:
    def test_read_data_timing(self):
        eng = make_engine(tRCD=3, tCL=3, tBURST=2)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=5), 0)
        cmd = DramCommand(RD, 0, 0, 0, row=5, column=2)
        assert eng.ready_at(cmd, 2) == 3
        done = eng.issue(cmd, 3)
        assert done == 3 + 3 + 2

    def test_bus_turnaround_write_to_read(self):
        eng = make_engine(tCWL=2, tBURST=2, tWTR=2)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=5), 0)
        eng.issue(DramCommand(WR, 0, 0, 0, row=5), 3)
        rd = DramCommand(RD, 0, 0, 0, row=5)
        # read must wait for write burst end plus tWTR: 3 + 2 + 2 + 2 = 9
        assert eng.ready_at(rd, 8) == 9

    def test_bus_turnaround_read_to_write(self):
        eng = make_engine(tRTW=4)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=5), 0)
        eng.issue(DramCommand(RD, 0, 0, 0, row=5), 3)
        wr = DramCommand(WR, 0, 0, 0, row=5)
        assert eng.ready_at(wr, 6) == 7

    def test_row_mismatch(self):
        eng = make_engine()
        eng.issue(DramCommand(ACT, 0, 0, 0, row=5), 0)
        assert eng.ready_at(DramCommand(RD, 0, 0, 0, row=6), 10) == BLOCKED
        assert eng.ready_at(DramCommand(RD, 0, 0, 1, row=6), 10) == BLOCKED


class TestRefresh:
    def test_refab_ties_up_all_banks(self):
        eng = make_engine(tRFCab=20)
        eng.issue(DramCommand(REFAB, 0, 0), 0)
        for b in range(8):
            assert eng.bank_refreshing(0, b, 10)
            assert eng.ready_at(DramCommand(ACT, 0, 0, b, row=1), 10) == 20
        # other rank unaffected
        assert eng.ready_at(DramCommand(ACT, 0, 1, 0, row=1), 10) == 0
        # rank usable again after tRFCab
        assert eng.ready_at(DramCommand(ACT, 0, 0, 3, row=1), 20) <= 20

    def test_refpb_ties_up_one_bank(self):
        eng = make_engine(tRFCpb=8)
        eng.issue(DramCommand(REFPB, 0, 0, 2), 0)
        assert eng.ready_at(DramCommand(ACT, 0, 0, 2, row=1), 4) == 8
        for b in range(8):
            if b != 2:
                assert eng.ready_at(DramCommand(ACT, 0, 0, b, row=1), 4) == 0

    def test_refpb_overlap_rejected(self):
        eng = make_engine(tRFCpb=8)
        eng.issue(DramCommand(REFPB, 0, 0, 5), 0)
        assert eng.ready_at(DramCommand(REFPB, 0, 0, 3), 4) == 8

    def test_refab_requires_all_precharged(self):
        eng = make_engine()
        eng.issue(DramCommand(ACT, 0, 0, 6, row=1), 0)
        assert eng.ready_at(DramCommand(REFAB, 0, 0), 30) == BLOCKED
        eng.issue(DramCommand(PRE, 0, 0, 6), 30)
        assert eng.ready_at(DramCommand(REFAB, 0, 0), 30) == 30 + 3

    def test_refpb_requires_precharged_bank(self):
        eng = make_engine()
        eng.issue(DramCommand(ACT, 0, 0, 1, row=1), 0)
        assert eng.ready_at(DramCommand(REFPB, 0, 0, 1), 30) == BLOCKED

    def test_refresh_advances_row_counters(self):
        eng = make_engine()
        bank = eng.bank_state(0, 3)
        assert (bank.ref_sa, bank.ref_row) == (0, 0)
        for _ in range(4):  # 4 commands x 2 rows = one 8-row subarray
            t = eng.ranks[0].refresh_until + 1
            eng.issue(DramCommand(REFPB, 0, 0, 3), max(t, 0))
        assert (bank.ref_sa, bank.ref_row) == (1, 0)

    def test_scaled_trrd_during_refresh(self):
        eng = make_engine(tRRD=2, tRRD_ref=6, tRFCpb=30, tRFCab=60)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=1), 0)
        eng.issue(DramCommand(REFPB, 0, 0, 7), 2)
        nxt = DramCommand(ACT, 0, 0, 1, row=1)
        # base tRRD satisfied at 2 but refresh in flight demands tRRD_ref
        assert eng.ready_at(nxt, 4) == 6


class TestSarpMode:
    def test_act_other_subarray_during_refresh(self):
        eng = make_engine(sarp=True, tRFCpb=30, tRFCab=60)
        eng.issue(DramCommand(REFPB, 0, 0, 0), 0)   # refreshes subarray 0
        same_sub = DramCommand(ACT, 0, 0, 0, row=3)     # rows 0-7 = subarray 0
        other_sub = DramCommand(ACT, 0, 0, 0, row=9)    # subarray 1
        assert eng.ready_at(same_sub, 5) == 30
        assert eng.ready_at(other_sub, 5) == 0
        eng.issue(other_sub, 5)
        # only one subarray may be activated for access at a time
        third = DramCommand(ACT, 0, 0, 0, row=17)
        assert eng.ready_at(third, 10) == BLOCKED

    def test_read_completes_during_refresh(self):
        eng = make_engine(sarp=True, tRFCpb=30, tRFCab=60, tRCD=3, tCL=3, tBURST=2)
        eng.issue(DramCommand(REFPB, 0, 0, 0), 0)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=9), 2)
        done = eng.issue(DramCommand(RD, 0, 0, 0, row=9, column=1), 5)
        assert done == 10 < 30  # served well inside the refresh window

    def test_refpb_with_open_row_other_subarray(self):
        eng = make_engine(sarp=True)
        eng.issue(DramCommand(ACT, 0, 0, 0, row=9), 0)  # subarray 1 open
        # next refresh target is subarray 0: allowed alongside the open row
        assert eng.ready_at(DramCommand(REFPB, 0, 0, 0), 30) == 11   # tRC
        eng2 = make_engine(sarp=True)
        eng2.issue(DramCommand(ACT, 0, 0, 0, row=3), 0)  # subarray 0 open
        assert eng2.ready_at(DramCommand(REFPB, 0, 0, 0), 30) == BLOCKED


class TestErrors:
    def test_illegal_issue_raises(self):
        eng = make_engine()
        with pytest.raises(SimulationError):
            eng.issue(DramCommand(RD, 0, 0, 0, row=1), 0)


class TestInvariants:
    def test_refresh_exclusivity_per_bank_policy(self):
        eng = make_engine()
        rng = random.Random(7)
        t = 0
        for _ in range(2000):
            t += rng.randint(1, 4)
            ri = rng.randrange(2)
            bi = rng.randrange(8)
            cmd = DramCommand(REFPB, 0, ri, bi)
            if eng.ready_at(cmd, t) <= t:
                eng.issue(cmd, t)
            refreshing = [b for b in range(8) if eng.bank_refreshing(ri, b, t)]
            assert len(refreshing) <= 1

    def test_refab_all_or_none(self):
        eng = make_engine(tRFCab=20)
        eng.issue(DramCommand(REFAB, 0, 1), 5)
        for t in (5, 10, 24):
            states = [eng.bank_refreshing(1, b, t) for b in range(8)]
            assert all(states) or not any(states)

    def test_activation_rate_bound(self):
        eng = make_engine(tRRD=2, tFAW=10)
        rng = random.Random(11)
        acts = []
        t = 0
        for _ in range(3000):
            t += rng.randint(1, 3)
            bi = rng.randrange(8)
            cmd = DramCommand(ACT, 0, 0, bi, row=1)
            if eng.ready_at(cmd, t) <= t:
                eng.issue(cmd, t)
                acts.append(t)
                eng.issue(DramCommand(PRE, 0, 0, bi), t + 8)
        for i in range(4, len(acts)):
            assert acts[i] - acts[i - 4] >= 10


@pytest.mark.parametrize("sarp", (False, True))
@pytest.mark.parametrize("refresh_kind", (REFPB, REFAB))
def test_rw_ready_at_is_bank_term_or_bus_floor(sarp, refresh_kind):
    """Replayed over random stimulus, every open row's RD/WR ready time is
    the larger of its bank's own term and the channel's data-bus floor."""
    history = random_stimulus(make_engine(sarp), random.Random(23), 1500,
                              refresh_kind)
    eng = make_engine(sarp)
    checked = 0
    for cmd, t in history:
        for now in (t - 1, t):
            for ri in range(eng.n_ranks):
                for bi in range(eng.n_banks):
                    bank = eng.bank_state(ri, bi)
                    if bank.open_row is None:
                        continue
                    term = bank.rw_ready
                    if bank.refresh_end > now and not sarp:
                        term = max(term, bank.refresh_end)
                    for is_write in (False, True):
                        floor = eng.rw_floor(is_write)
                        ready = eng.rw_ready_at(ri, bi, bank.open_row, now,
                                                is_write)
                        assert ready == max(term, floor)
                        assert ready >= floor
                        checked += 1
        eng.issue(cmd, t)
    assert checked > 1000
