"""Shared fixtures: small hand-checkable timing sets, random command
stimulus for engine/oracle differential testing, and planted-fault
histories."""

import random

from refsim.engine import (ACT, PRE, RD, WR, REFAB, REFPB, DramCommand,
                           TimingEngine, advance_refresh_counters)
from refsim.refresh import AuditReport, AuditViolation
from refsim.timing import DramGeometry, TimingParams


def small_geometry(**over) -> DramGeometry:
    fields = dict(channels=1, ranks_per_channel=2, banks_per_rank=8,
                  subarrays_per_bank=8, rows_per_bank=64, columns_per_row=8,
                  cacheline_bytes=64)
    fields.update(over)
    return DramGeometry(**fields)


def small_timing(**over) -> TimingParams:
    fields = dict(
        tCK_ns=1.0, tRCD=3, tRP=3, tCL=3, tCWL=2, tRAS=8, tRC=11,
        tRRD=2, tFAW=10, tWTR=2, tRTW=4, tBURST=2,
        tRFCab=20, tRFCpb=8, tREFIab=100, tREFIpb=12,
        tFAW_ref=14, tRRD_ref=3,
        tRFCab_ns=20.0, tRFCpb_ns=8.0, tREFIab_ns=100.0,
        retention_ms=1.0, rows_per_ref=2,
    )
    fields.update(over)
    return TimingParams(**fields)


def random_command(engine: TimingEngine, rng: random.Random,
                   refresh_kind: str | None = REFPB) -> DramCommand | None:
    """A random command for the engine's current state, or None when the
    roll picked a kind with nothing to target."""
    g = engine.geometry
    roll = rng.random()
    ri = rng.randrange(g.ranks_per_channel)
    bi = rng.randrange(g.banks_per_rank)
    if roll < 0.35:
        return DramCommand(ACT, engine.channel_index, ri, bi,
                           row=rng.randrange(g.rows_per_bank))
    if roll < 0.65:
        # target an open row when one exists so reads/writes make progress
        open_banks = [(r, b) for r in range(g.ranks_per_channel)
                      for b in range(g.banks_per_rank)
                      if engine.bank_state(r, b).open_row is not None]
        if not open_banks:
            return None
        ri, bi = rng.choice(open_banks)
        row = engine.bank_state(ri, bi).open_row
        kind = RD if rng.random() < 0.6 else WR
        return DramCommand(kind, engine.channel_index, ri, bi, row=row,
                           column=rng.randrange(g.columns_per_row))
    if roll < 0.85:
        return DramCommand(PRE, engine.channel_index, ri, bi)
    if refresh_kind == REFPB:
        return DramCommand(REFPB, engine.channel_index, ri, bi,
                           subarray=engine.bank_state(ri, bi).ref_sa)
    if refresh_kind == REFAB:
        # an all-bank refresh needs every bank of the rank closed: close
        # the first open one rather than try a refresh that cannot issue
        for b in range(g.banks_per_rank):
            if engine.bank_state(ri, b).open_row is not None:
                return DramCommand(PRE, engine.channel_index, ri, b)
        return DramCommand(REFAB, engine.channel_index, ri,
                           subarray=engine.bank_state(ri, 0).ref_sa)
    return None


def random_stimulus(engine: TimingEngine, rng: random.Random, n_accepted: int,
                    refresh_kind: str | None = REFPB):
    """Attempt random commands, issuing the ones the engine accepts.

    Returns the accepted history as (cmd, cycle) pairs.  At most one
    command per cycle, matching the controller's command-bus model.
    """
    history = []
    t = 0
    attempts_since_accept = 0
    while len(history) < n_accepted:
        t += rng.randint(1, 3)
        cmd = random_command(engine, rng, refresh_kind)
        if cmd is None:
            continue
        if engine.ready_at(cmd, t) <= t:
            engine.issue(cmd, t)
            history.append((cmd, t))
            attempts_since_accept = 0
        else:
            attempts_since_accept += 1
            assert attempts_since_accept < 10_000, "stimulus wedged"
    return history


def planted_fault_timing() -> TimingParams:
    """The timing the planted faults are built against: tRC exceeds
    tRAS + tRP, so an activate can break tRC alone."""
    return small_timing(tRAS=4, tRRD=4, tRRD_ref=5, tFAW=20, tFAW_ref=24)


def planted_fault_histories():
    """Hand-built illegal histories, each with the rule it must trip and
    whether the oracle runs in subarray-parallel (SARP) mode."""
    cases = []

    def add(name, rule_prefix, cmds, sarp=False):
        cases.append((name, rule_prefix, cmds, sarp))

    A = ACT
    add("overlapping refpb in one rank", "refpb.overlap",
        [(DramCommand(REFPB, 0, 0, 1), 0), (DramCommand(REFPB, 0, 0, 5), 3)])
    add("act violates tRRD", "act.tRRD",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(A, 0, 0, 1, row=1), 1)])
    add("fifth act inside tFAW", "act.tFAW",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(A, 0, 0, 1, row=1), 4),
         (DramCommand(A, 0, 0, 2, row=1), 8), (DramCommand(A, 0, 0, 3, row=1), 12),
         (DramCommand(A, 0, 0, 4, row=1), 16)])
    add("read to wrong row", "rw.row-mismatch",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(RD, 0, 0, 0, row=2), 5)])
    add("read before tRCD", "rw.tRCD",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(RD, 0, 0, 0, row=1), 1)])
    add("precharge before tRAS", "pre.tRAS",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(PRE, 0, 0, 0), 3)])
    add("act to refreshing bank", "act.bank-refreshing",
        [(DramCommand(REFPB, 0, 0, 0), 0), (DramCommand(A, 0, 0, 0, row=1), 2)])
    add("second act without precharge", "act.bank-busy",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(A, 0, 0, 0, row=2), 20)])
    add("write too soon after read", "wr.tRTW",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(RD, 0, 0, 0, row=1), 5),
         (DramCommand(WR, 0, 0, 0, row=1), 6)])
    add("all-bank refresh with open row", "refab.bank-not-precharged",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(REFAB, 0, 0), 30)])
    add("act too soon after precharge", "act.tRP",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(PRE, 0, 0, 0), 8),
         (DramCommand(A, 0, 0, 0, row=2), 10)])
    add("act too soon after act to one bank", "act.tRC",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(PRE, 0, 0, 0), 4),
         (DramCommand(A, 0, 0, 0, row=2), 8)])
    add("read too soon after write", "rd.tWTR",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(WR, 0, 0, 0, row=1), 3),
         (DramCommand(RD, 0, 0, 0, row=1), 8)])
    add("read inside the previous read's burst", "rd.bus-burst",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(RD, 0, 0, 0, row=1), 3),
         (DramCommand(RD, 0, 0, 0, row=1), 4)])
    add("read to a closed bank", "rw.no-open-row",
        [(DramCommand(RD, 0, 0, 0, row=1), 5)])
    add("per-bank refresh with open row", "refpb.bank-not-precharged",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(REFPB, 0, 0, 0), 30)])
    add("refpb violates tRRD", "refpb.tRRD",
        [(DramCommand(A, 0, 0, 0, row=1), 0), (DramCommand(REFPB, 0, 0, 7), 2)])
    add("sarp act to the refreshing subarray", "act.subarray-conflict",
        [(DramCommand(REFPB, 0, 0, 0, subarray=0), 0),
         (DramCommand(A, 0, 0, 0, row=3), 2)], sarp=True)
    add("sarp refpb of the open row's subarray", "refpb.subarray-conflict",
        [(DramCommand(A, 0, 0, 0, row=3), 0),
         (DramCommand(REFPB, 0, 0, 0, subarray=0), 30)], sarp=True)
    return cases


def reference_retention_audit(records, geometry, timing, end_cycle,
                              max_reported_rows=16) -> AuditReport:
    """retention_audit written row by row: one last-refresh cycle per row of
    every touched bank, replayed from the engine's refresh counters."""
    slack = 8 * timing.tREFIab
    limit = timing.retention_cycles + slack
    nrows = geometry.rows_per_bank
    violations = []
    max_lateness = 0
    last_row, last_cmd, sweep = {}, {}, {}

    def touch(ri, bi, rows, cycle):
        sa, lr = sweep.get((ri, bi), (0, 0))
        arr = last_row.setdefault((ri, bi), [0] * nrows)
        start = sa * geometry.rows_per_subarray + lr
        for i in range(rows):
            r = (start + i) % nrows
            if cycle - arr[r] > limit:
                violations.append(AuditViolation(
                    "stale-row", ri, bi,
                    f"row {r} refreshed {cycle - arr[r]} cycles after previous", [r]))
            arr[r] = cycle
        sweep[(ri, bi)] = advance_refresh_counters(sa, lr, rows, geometry)
        last_cmd[(ri, bi)] = cycle

    for rec in records:
        max_lateness = max(max_lateness, rec.cycle - rec.nominal)
        if rec.cycle - rec.nominal > slack:
            violations.append(AuditViolation(
                "late-refresh", rec.rank, rec.bank,
                f"command due at {rec.nominal} issued at {rec.cycle}"))
        banks = range(geometry.banks_per_rank) if rec.kind == REFAB else [rec.bank]
        for bi in banks:
            touch(rec.rank, bi, rec.rows, rec.cycle)

    period = timing.tREFIab
    for ri in range(geometry.ranks_per_channel):
        for bi in range(geometry.banks_per_rank):
            last = last_cmd.get((ri, bi), 0)
            arr = last_row.get((ri, bi))
            if end_cycle - last > period + slack:
                arr = arr or [0] * nrows
                stale = [r for r in range(nrows) if arr[r] <= end_cycle - period - slack]
                violations.append(AuditViolation(
                    "starved-bank", ri, bi, f"no refresh for {end_cycle - last} "
                    f"cycles ({len(stale)} rows at risk)", stale[:max_reported_rows]))
            elif arr is not None:
                stale = [r for r in range(nrows) if end_cycle - arr[r] > limit]
                if stale:
                    violations.append(AuditViolation(
                        "stale-row", ri, bi,
                        f"{len(stale)} rows beyond retention at end of run",
                        stale[:max_reported_rows]))
    return AuditReport(violations, max_lateness)
