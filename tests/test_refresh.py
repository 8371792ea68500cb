import random

import pytest

from refsim.engine import REFAB, REFPB, TimingEngine
from refsim.refresh import (
    AuditReport,
    RefreshRecord,
    make_policy,
    retention_audit,
    warp_select_bank,
)

from helpers import reference_retention_audit, small_geometry, small_timing


class FakeCtrl:
    """Controller stand-in for policy-level tests: real engine, fake queues."""

    def __init__(self, geometry, timing, policy_kind, sarp=False, seed=0):
        self.engine = TimingEngine(geometry, timing, 0, sarp)
        self.policy = make_policy(policy_kind, geometry, timing, seed)
        self.geometry = geometry
        self.writeback_active = False
        self.read_count = 0
        self.demand = [[0] * geometry.banks_per_rank
                       for _ in range(geometry.ranks_per_channel)]
        self.log = []

    def bank_demand_count(self, ri, bi):
        return self.demand[ri][bi]

    def rank_demand_count(self, ri):
        return sum(self.demand[ri])

    def issue_refresh(self, p, now):
        if p.kind == REFAB:
            self.engine.issue_refab(p.rank, now, p.cycles, p.rows)
        else:
            self.engine.issue_refpb(p.rank, p.bank, now, p.cycles, p.rows)
        self.log.append(self.policy.on_issued(p, now, self))

    def step(self, now):
        """One controller cycle: boundaries, then serve pending if legal."""
        self.policy.on_cycle(now, self)
        for p in list(self.policy.pending):
            if p.kind == REFAB:
                ready = self.engine.refab_ready_at(p.rank, now)
            else:
                ready = self.engine.refpb_ready_at(p.rank, p.bank, now)
            if ready <= now:
                self.issue_refresh(p, now)
                break


GEO = small_geometry()


class TestAllBank:
    def test_boundary_demands_every_rank(self):
        timing = small_timing(tREFIab=100, tRFCab=20)
        ctrl = FakeCtrl(GEO, timing, "ab")
        for t in range(402):
            ctrl.step(t)
        per_rank = {}
        for rec in ctrl.log:
            per_rank.setdefault(rec.rank, []).append(rec)
        assert set(per_rank) == {0, 1}
        for recs in per_rank.values():
            assert len(recs) == 4
            assert [r.nominal for r in recs] == [100, 200, 300, 400]
            # the two ranks share one command bus; at most one cycle of slip
            assert all(r.cycle - r.nominal <= 1 for r in recs)
            assert all(r.category == "nominal" for r in recs)

    def test_noref_never_demands(self):
        ctrl = FakeCtrl(GEO, small_timing(), "noref")
        for t in range(2000):
            ctrl.step(t)
        assert ctrl.log == []


class TestPerBankRoundRobin:
    def test_strict_rotation(self):
        timing = small_timing(tREFIpb=20, tRFCpb=8)
        ctrl = FakeCtrl(GEO, timing, "pb")
        for t in range(20 * 16 + 1):
            ctrl.step(t)
        rank0 = [r.bank for r in ctrl.log if r.rank == 0]
        assert rank0[:8] == list(range(8))
        assert rank0[8:16] == list(range(8))

    def test_busy_bank_delays_but_issues(self):
        timing = small_timing(tREFIpb=20, tRFCpb=8)
        ctrl = FakeCtrl(GEO, timing, "pb")
        ctrl.engine.issue_act(0, 0, 5, 0)   # bank 0 busy with an open row
        for t in range(1, 60):
            ctrl.step(t)
        assert not any(r.bank == 0 and r.rank == 0 for r in ctrl.log)
        ctrl.engine.issue_pre(0, 0, 60)
        for t in range(61, 80):
            ctrl.step(t)
        assert any(r.bank == 0 and r.rank == 0 for r in ctrl.log)


class TestWarpSelect:
    def test_minimum_demand_bank(self):
        counts = [3, 0, 2, 5, 1, 4, 2, 6]
        assert warp_select_bank(counts, [0] * 8) == 1

    def test_tie_break_lowest_index(self):
        counts = [2, 2, 7, 9, 9, 9, 9, 9]
        assert warp_select_bank(counts, [0] * 8) == 0

    def test_all_capped_returns_none(self):
        assert warp_select_bank([1] * 8, [8] * 8) is None

    def test_capped_bank_skipped(self):
        counts = [0, 1, 2, 3, 4, 5, 6, 7]
        credits = [8, 0, 0, 0, 0, 0, 0, 0]
        assert warp_select_bank(counts, credits) == 1


class TestOutOfOrder:
    def timing(self):
        return small_timing(tREFIpb=20, tRFCpb=8, tREFIab=160)

    def test_postpone_decrements_credit(self):
        ctrl = FakeCtrl(GEO, self.timing(), "darp")
        ctrl.demand[0][0] = 3          # nominal bank 0 has pending demands
        ctrl.step(20)                  # first boundary, rank 0 slot 0
        assert ctrl.policy.credit(0, 0) == -1
        assert not any(p.bank == 0 and p.rank == 0 for p in ctrl.policy.pending)

    def test_idle_nominal_bank_refreshed(self):
        ctrl = FakeCtrl(GEO, self.timing(), "darp")
        ctrl.step(20)
        assert any(r.bank == 0 and r.category == "nominal" for r in ctrl.log)

    def test_forced_at_credit_floor(self):
        ctrl = FakeCtrl(GEO, self.timing(), "darp")
        pol = ctrl.policy
        ctrl.demand[0] = [9] * 8       # every bank always busy
        ctrl.demand[1] = [9] * 8
        forced = []
        for t in range(20, 20 * 200):
            ctrl.step(t)
            forced = [r for r in ctrl.log if r.category == "forced"]
            if forced:
                break
        assert forced, "credit floor never forced a refresh"
        assert min(pol.credit(ri, b) for ri in range(2) for b in range(8)) >= -8

    def test_idle_refresh_picks_among_eligible(self):
        ctrl = FakeCtrl(GEO, self.timing(), "darp", seed=9)
        pol = ctrl.policy
        # make banks 2 and 5 the only eligible pull-in targets
        for b in range(8):
            if b not in (2, 5):
                ctrl.demand[0][b] = 1
        ctrl.demand[1] = [1] * 8
        wake = pol.opportunistic(5, ctrl)
        assert wake <= 5
        assert ctrl.log[-1].bank in (2, 5)
        assert ctrl.log[-1].category == "pulled"

    def test_writeback_refresh_targets_min_demand_bank(self):
        ctrl = FakeCtrl(GEO, self.timing(), "darp")
        ctrl.writeback_active = True
        ctrl.demand[0] = [3, 0, 2, 5, 1, 4, 2, 6]
        ctrl.demand[1] = [9] * 8
        wake = ctrl.policy.opportunistic(7, ctrl)
        assert wake <= 7
        pend = [p for p in ctrl.policy.pending if p.rank == 0]
        assert pend and pend[0].bank == 1

    def test_no_pull_in_for_bank_with_demands(self):
        ctrl = FakeCtrl(GEO, self.timing(), "darp", seed=2)
        for ri in range(2):
            for b in range(8):
                ctrl.demand[ri][b] = 1
        assert ctrl.policy.opportunistic(3, ctrl) > 3
        assert ctrl.log == []


class TestCreditFuzz:
    def test_bounds_and_conservation(self):
        timing = small_timing(tREFIpb=10, tRFCpb=4, tREFIab=80)
        ctrl = FakeCtrl(GEO, timing, "darp", seed=13)
        pol = ctrl.policy
        rng = random.Random(99)
        boundaries = 0
        t = 0
        while boundaries < 20000:
            t += 1
            if rng.random() < 0.3:
                ri = rng.randrange(2)
                bi = rng.randrange(8)
                ctrl.demand[ri][bi] = rng.choice([0, 0, 1, 4])
            ctrl.writeback_active = rng.random() < 0.3
            before = sum(pol.slot)
            ctrl.step(t)
            if rng.random() < 0.4:
                pol.opportunistic(t, ctrl)
            after = sum(pol.slot)
            if after != before:
                boundaries += after - before
                for ri in range(2):
                    for b in range(8):
                        credit = pol.credit(ri, b)
                        assert -8 <= credit <= 8
        # conservation re-derived from the log and the nominal grid
        for ri in range(2):
            issued_from_log = [0] * 8
            for rec in ctrl.log:
                if rec.rank == ri:
                    issued_from_log[rec.bank] += 1
            for b in range(8):
                assert issued_from_log[b] == pol.issued[ri][b]
                assert pol.credit(ri, b) == pol.issued[ri][b] - pol.scheduled[ri][b]


class TestElastic:
    def test_idle_rank_gets_refreshed_without_forcing(self):
        timing = small_timing(tREFIab=100, tRFCab=20)
        ctrl = FakeCtrl(GEO, timing, "elastic")
        for t in range(1200):
            ctrl.step(t)
        assert ctrl.log, "no refreshes on an idle rank"
        assert not any(r.category == "forced" for r in ctrl.log)

    def test_saturated_rank_forces_at_backlog_cap(self):
        timing = small_timing(tREFIab=100, tRFCab=20)
        ctrl = FakeCtrl(GEO, timing, "elastic")
        for ri in range(2):
            ctrl.demand[ri] = [5] * 8
        for t in range(3000):
            ctrl.step(t)
        assert ctrl.log
        assert all(r.category == "forced" for r in ctrl.log)
        # backlog stays within the eight-command flexibility
        assert all(len(owed) <= 8 for owed in ctrl.policy.owed)


class TestAdaptive:
    def test_mode_follows_read_queue(self):
        timing = small_timing(tREFIab=100, tRFCab=20, tRFCab_ns=20.0,
                              rows_per_ref=8)
        ctrl = FakeCtrl(GEO, timing, "ar")
        ctrl.read_count = 0
        ctrl.step(100)                      # idle boundary -> fine-grained mode
        rec_idle = ctrl.log[-1]
        ctrl.read_count = 5
        busy_boundary = min(ctrl.policy.next_boundary)
        for t in range(101, busy_boundary + 1):
            ctrl.step(t)
        rec_busy = ctrl.log[-1]
        assert rec_idle.rows < rec_busy.rows
        assert rec_idle.duration < rec_busy.duration
        assert rec_busy.rows == 8


def rr_log(geometry, timing, cycles, rank=0):
    """Synthetic perfectly-nominal round-robin per-bank log."""
    records = []
    nb = geometry.banks_per_rank
    slot = 0
    t = timing.tREFIpb
    while t <= cycles:
        records.append(RefreshRecord(t, REFPB, rank, slot % nb, 0, "nominal",
                                     timing.rows_per_ref, timing.tRFCpb, t))
        slot += 1
        t += timing.tREFIpb
    return records


class TestRetentionAudit:
    def test_round_robin_log_passes(self):
        geo = small_geometry(ranks_per_channel=1)
        timing = small_timing(tREFIpb=20, tREFIab=160, retention_ms=1.0)
        records = rr_log(geo, timing, 20000)
        report = retention_audit(records, geo, timing, 20000)
        assert report.ok
        assert report.max_lateness == 0

    def test_late_command_flagged(self):
        geo = small_geometry(ranks_per_channel=1)
        timing = small_timing(tREFIpb=20, tREFIab=160, retention_ms=1.0)
        records = rr_log(geo, timing, 5000)
        slack = 8 * timing.tREFIab
        records[10] = RefreshRecord(
            records[10].nominal + slack + 1, REFPB, 0, records[10].bank, 0,
            "nominal", timing.rows_per_ref, timing.tRFCpb, records[10].nominal)
        records.sort(key=lambda r: r.cycle)
        report = retention_audit(records, geo, timing, 5000)
        assert any(v.kind == "late-refresh" for v in report.violations)
        assert report.max_lateness > slack

    def test_missing_bank_rows_reported(self):
        geo = small_geometry(ranks_per_channel=1)
        timing = small_timing(tREFIpb=20, tREFIab=160, retention_ms=1.0)
        records = [r for r in rr_log(geo, timing, 30000) if r.bank != 3]
        report = retention_audit(records, geo, timing, 30000)
        starved = [v for v in report.violations if v.kind == "starved-bank"]
        assert len(starved) == 1
        assert starved[0].bank == 3
        assert starved[0].rows, "stale rows of the silent bank must be listed"

    def test_stale_row_detected_on_long_run(self):
        # retention 2 us at tCK=1ns -> 2000 cycles, plus 8*tREFIab = 1280 of
        # slack: a row may go 3280 cycles unrefreshed.  A round-robin sweep
        # of a 64-row bank at 2 rows per command takes 32 * 8 * 20 = 5120.
        geo = small_geometry(ranks_per_channel=1)
        timing = small_timing(tREFIpb=20, tREFIab=160, retention_ms=0.002)
        limit = timing.retention_cycles + 8 * timing.tREFIab
        assert limit == 3280

        # a log that goes quiet: every bank starves, all 64 rows at risk
        horizon = 2000 + 8 * 160 + 2000
        records = rr_log(geo, timing, 600)
        report = retention_audit(records, geo, timing, horizon)
        last = {r.bank: r.cycle for r in records}
        assert [(v.kind, v.bank, v.detail, v.rows) for v in report.violations] == [
            ("starved-bank", b,
             f"no refresh for {horizon - last[b]} cycles (64 rows at risk)",
             list(range(16)))
            for b in range(8)]

        # a log that keeps every bank alive but sweeps too slowly: the rows
        # first refreshed before end - limit, and the rows never reached,
        # are stale when the run ends (bank 5 refreshed rows 0-1 at exactly
        # end - limit, which is still in time)
        end = 3400
        report = retention_audit(rr_log(geo, timing, limit), geo, timing, end)
        early = [0, 1]
        expected = {b: early + list(range(42, 64)) for b in range(4)}
        expected[4] = early + list(range(40, 64))
        expected.update({b: list(range(40, 64)) for b in (5, 6, 7)})
        assert [(v.kind, v.rank, v.bank, v.detail, v.rows)
                for v in report.violations] == [
            ("stale-row", 0, b,
             f"{len(rows)} rows beyond retention at end of run", rows[:16])
            for b, rows in sorted(expected.items())]

        # the limit is exact: rows 2-3, last refreshed at cycle 1000, are
        # in time at 1000 + limit and stale one cycle later
        geo = small_geometry(ranks_per_channel=1, banks_per_rank=1,
                             rows_per_bank=4, subarrays_per_bank=2)
        records = [RefreshRecord(c, REFPB, 0, 0, 0, "nominal", 2, 8, c)
                   for c in (100, 1000, 3000)]
        assert retention_audit(records, geo, timing, 1000 + limit).ok
        report = retention_audit(records, geo, timing, 1000 + limit + 1)
        assert [(v.kind, v.bank, v.detail, v.rows) for v in report.violations] \
            == [("stale-row", 0, "2 rows beyond retention at end of run", [2, 3])]

    def test_empty_log_fails_liveness(self):
        geo = small_geometry(ranks_per_channel=1)
        timing = small_timing()
        report = retention_audit([], geo, timing, 10 ** 6)
        assert not report.ok


def random_refresh_log(rng):
    """A random refresh log and the system it runs on: 1-2 ranks, 1-4 banks,
    8-64 rows, commands of up to 70 rows, retention that can be shorter
    than tREFIab, and records that can arrive out of cycle order."""
    geo = small_geometry(ranks_per_channel=rng.randint(1, 2),
                         banks_per_rank=rng.choice((1, 2, 4)),
                         rows_per_bank=rng.choice((8, 16, 32, 64)),
                         subarrays_per_bank=rng.choice((1, 2, 8)))
    trefi = rng.randint(5, 200)
    timing = small_timing(tREFIab=trefi, tREFIpb=max(1, trefi // 8),
                          retention_ms=rng.randint(1, 2 * trefi) / 1e6)
    banks = rng.sample(range(geo.banks_per_rank), rng.randint(1, geo.banks_per_rank))
    span = rng.randint(50, 3000) if rng.random() < 0.5 else rng.randint(1, 9 * trefi)
    cycles = sorted(rng.randrange(span) for _ in range(rng.randint(0, 60)))
    if rng.random() < 0.3:
        rng.shuffle(cycles)
    records = []
    for c in cycles:
        rank = rng.randrange(geo.ranks_per_channel)
        rows = rng.randint(0, 70) if rng.random() < 0.2 else rng.randint(1, 8)
        nominal = c - rng.randint(-20, 10 * trefi)
        if rng.random() < 0.15:
            records.append(RefreshRecord(c, REFAB, rank, -1, 0, "nominal", rows, 8, nominal))
        else:
            records.append(RefreshRecord(c, REFPB, rank, rng.choice(banks), 0,
                                         "nominal", rows, 8, nominal))
    end = max(cycles, default=0) + rng.randint(0, rng.choice((1, 12)) * trefi)
    return records, geo, timing, end


def test_retention_audit_equals_row_by_row_reference():
    rng = random.Random(4242)
    seen = {"rows>bank": 0, "untouched": 0, "out-of-order": 0,
            "wrapped-report": 0, "stale-row": 0, "starved-bank": 0}
    for _ in range(400):
        records, geo, timing, end = random_refresh_log(rng)
        max_rows = rng.choice((1, 3, 16))
        got = retention_audit(records, geo, timing, end, max_rows)
        want = reference_retention_audit(records, geo, timing, end, max_rows)
        assert got.max_lateness == want.max_lateness
        assert [(v.kind, v.rank, v.bank, v.detail, v.rows) for v in got.violations] \
            == [(v.kind, v.rank, v.bank, v.detail, v.rows) for v in want.violations]
        # the edge cases this log exercised
        nrows = geo.rows_per_bank
        seen["rows>bank"] += any(r.rows > nrows for r in records)
        seen["out-of-order"] += any(a.cycle > b.cycle for a, b in zip(records, records[1:]))
        # a bank with no record that is not yet starved but whose rows,
        # had they been tracked from cycle 0, would be beyond retention
        touched = {(r.rank, b) for r in records for b in range(geo.banks_per_rank)
                   if r.bank in (b, -1)}
        slack = 8 * timing.tREFIab
        seen["untouched"] += (len(touched) < geo.ranks_per_channel * geo.banks_per_rank
                              and timing.retention_cycles + slack < end
                              <= timing.tREFIab + slack)
        for v in want.violations:
            seen[v.kind] = seen.get(v.kind, 0) + 1
            # rows on both sides of the replay pointer: sweep order differs
            pointer = sum(r.rows for r in records
                          if r.rank == v.rank and r.bank in (v.bank, -1)) % nrows
            seen["wrapped-report"] += (min(v.rows, default=nrows) < pointer
                                       <= max(v.rows, default=-1))
    assert all(seen.values()), seen

