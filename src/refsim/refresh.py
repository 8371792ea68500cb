"""Refresh scheduling policies and the retention audit.

Every policy is a per-channel strategy object the controller consults each
cycle.  A policy expresses itself through two surfaces:

  * pending        -- committed refreshes the controller must issue next
                      (it precharges blocking rows and stalls new demands
                      to the target scope until the command goes out);
  * opportunistic  -- None, or a method invoked only on cycles where no
                      demand command and no closed-row precharge could
                      issue; the out-of-order policy's hook refreshes idle
                      banks and, during write drains, hides refreshes
                      behind the writes.  It returns a cycle: <= now means
                      the policy acted this cycle; a future cycle is the
                      earliest the controller should ask again (BLOCKED
                      when there is nothing to wait for).

Credit bookkeeping for the out-of-order policy: a per-bank `scheduled`
counter ticks at the bank's nominal round-robin slots and an `issued`
counter ticks on every refresh actually sent; their difference is the
refresh credit, bounded to [-8, +8].  Postponing is simply not issuing at
a slot; serving any owed refresh moves the credit back toward zero.
"""

import random
from collections import deque
from dataclasses import dataclass, field

from .engine import BLOCKED, REFAB, REFPB
from .errors import SimulationError
from .timing import DramGeometry, TimingParams, fgr_timing, policy_row

CREDIT_MIN = -8
CREDIT_MAX = 8


@dataclass
class RefreshRecord:
    """One issued refresh command, as consumed by retention_audit."""
    cycle: int
    kind: str
    rank: int
    bank: int          # -1 for all-bank commands
    credit_after: int
    category: str      # nominal | postponed | pulled | forced
    rows: int
    duration: int
    nominal: int       # cycle this command was nominally due


class PendingRefresh:
    """A committed refresh the controller must get out (prep + issue)."""
    __slots__ = ("kind", "rank", "bank", "category", "nominal", "cycles", "rows")

    def __init__(self, kind, rank, bank, category, nominal, cycles, rows):
        self.kind = kind
        self.rank = rank
        self.bank = bank
        self.category = category
        self.nominal = nominal
        self.cycles = cycles
        self.rows = rows


class RefreshPolicy:
    """Base: no refresh at all (the ideal upper bound)."""

    # on_cycle reads the demand queues: the controller then also runs it on
    # the cycle after any request arrives or issues and after any refresh
    watches_demand = False
    # the idle-bus hook of the module docstring; None when there is none
    opportunistic = None

    def __init__(self, geometry: DramGeometry, timing: TimingParams, seed: int = 0):
        self.geometry = geometry
        self.timing = timing
        self.pending: list[PendingRefresh] = []

    def on_cycle(self, now: int, ctrl) -> None:
        pass

    def next_event(self, now: int) -> int:
        """Earliest future cycle on_cycle must run again (scheduling hint)."""
        return BLOCKED

    def on_issued(self, p: PendingRefresh, now: int, ctrl) -> RefreshRecord:
        """Bookkeeping when a committed refresh goes out."""
        self.pending.remove(p)
        return RefreshRecord(now, p.kind, p.rank,
                             p.bank if p.bank is not None else -1,
                             0, p.category, p.rows, p.cycles, p.nominal)


class AllBankPolicy(RefreshPolicy):
    """Rank-level refresh on a fixed tREFIab grid (also the FGR carrier)."""

    def __init__(self, geometry, timing, seed=0):
        super().__init__(geometry, timing, seed)
        self.next_boundary = [timing.tREFIab] * geometry.ranks_per_channel

    def on_cycle(self, now, ctrl):
        trefi = self.timing.tREFIab
        for ri in range(self.geometry.ranks_per_channel):
            while now >= self.next_boundary[ri]:
                self.pending.append(PendingRefresh(
                    REFAB, ri, None, "nominal", self.next_boundary[ri],
                    self.timing.tRFCab, self.timing.rows_per_ref))
                self.next_boundary[ri] += trefi

    def next_event(self, now):
        return min(self.next_boundary)


class PerBankRoundRobinPolicy(RefreshPolicy):
    """Strict round-robin per-bank refresh on a tREFIpb grid."""

    def __init__(self, geometry, timing, seed=0):
        super().__init__(geometry, timing, seed)
        nr = geometry.ranks_per_channel
        self.next_boundary = [timing.tREFIpb] * nr
        self.slot = [0] * nr

    def on_cycle(self, now, ctrl):
        trefi = self.timing.tREFIpb
        nb = self.geometry.banks_per_rank
        for ri in range(self.geometry.ranks_per_channel):
            while now >= self.next_boundary[ri]:
                bank = self.slot[ri] % nb
                self.pending.append(PendingRefresh(
                    REFPB, ri, bank, "nominal", self.next_boundary[ri],
                    self.timing.tRFCpb, self.timing.rows_per_ref))
                self.slot[ri] += 1
                self.next_boundary[ri] += trefi

    def next_event(self, now):
        return min(self.next_boundary)


def warp_select_bank(demand_counts, credits) -> int | None:
    """Write-drain refresh victim: the bank with the fewest pending demand
    requests whose credit can still absorb a pull-in; ties go to the lowest
    bank index.  None when every bank is credit-capped."""
    best = None
    for b, (count, credit) in enumerate(zip(demand_counts, credits)):
        if credit >= CREDIT_MAX:
            continue
        if best is None or count < demand_counts[best]:
            best = b
    return best


class OutOfOrderPerBankPolicy(RefreshPolicy):
    """Per-bank refresh freed from round-robin order.

    At a bank's nominal slot the refresh is postponed while the bank has
    pending demands and credit remains; banks at the credit floor are
    refreshed by force.  Idle cycles refresh a randomly chosen bank with
    no pending demands; during write drains the victim is instead the
    bank with the fewest pending demands, hiding the refresh behind the
    writes of the other banks.
    """

    def __init__(self, geometry, timing, seed=0):
        super().__init__(geometry, timing, seed)
        nr = geometry.ranks_per_channel
        nb = geometry.banks_per_rank
        self.nb = nb
        self.next_boundary = [timing.tREFIpb] * nr
        self.slot = [0] * nr
        self.scheduled = [[0] * nb for _ in range(nr)]
        self.issued = [[0] * nb for _ in range(nr)]
        self.rng = random.Random(seed)
        self._pending_scope = set()   # (rank, bank) with a committed refresh

    def credit(self, ri: int, bi: int) -> int:
        return self.issued[ri][bi] - self.scheduled[ri][bi]

    def _nominal_of(self, ri: int, bi: int, k: int) -> int:
        # k-th refresh of a bank is due at its k-th round-robin slot
        return (k * self.nb + bi + 1) * self.timing.tREFIpb

    def _commit(self, ri, bi, category, nominal):
        self.pending.append(PendingRefresh(
            REFPB, ri, bi, category, nominal,
            self.timing.tRFCpb, self.timing.rows_per_ref))
        self._pending_scope.add((ri, bi))

    def on_cycle(self, now, ctrl):
        trefi = self.timing.tREFIpb
        for ri in range(self.geometry.ranks_per_channel):
            while now >= self.next_boundary[ri]:
                boundary = self.next_boundary[ri]
                self.next_boundary[ri] += trefi
                bank = self.slot[ri] % self.nb
                self.slot[ri] += 1
                self.scheduled[ri][bank] += 1
                credit = self.credit(ri, bank)
                if credit < CREDIT_MIN:
                    raise SimulationError(
                        f"refresh credit below {CREDIT_MIN} on rank {ri} bank {bank}")
                if (ri, bank) in self._pending_scope:
                    continue                      # a refresh is already on its way
                if credit == CREDIT_MIN:
                    self._commit(ri, bank, "forced",
                                 self._nominal_of(ri, bank, self.issued[ri][bank]))
                elif ctrl.bank_demand_count(ri, bank) == 0:
                    self._commit(ri, bank, "nominal", boundary)
                # else: postpone (the scheduled tick already lowered the credit)

    def next_event(self, now):
        return min(self.next_boundary)

    def opportunistic(self, now, ctrl):
        if ctrl.writeback_active:
            return self._writeback_refresh(now, ctrl)
        return self._idle_refresh(now, ctrl)

    def _writeback_refresh(self, now, ctrl):
        eng = ctrl.engine
        fired = False
        for ri in range(self.geometry.ranks_per_channel):
            if eng.rank_refreshing(ri, now):
                continue
            if any(p.rank == ri for p in self.pending):
                continue
            counts = [ctrl.bank_demand_count(ri, b) for b in range(self.nb)]
            credits = [self.credit(ri, b) for b in range(self.nb)]
            bank = warp_select_bank(counts, credits)
            if bank is not None:
                self._commit(ri, bank, "pull",
                             self._nominal_of(ri, bank, self.issued[ri][bank]))
                fired = True
        return now if fired else BLOCKED

    def _idle_refresh(self, now, ctrl):
        eng = ctrl.engine
        candidates = []
        wake = BLOCKED
        for ri in range(self.geometry.ranks_per_channel):
            if any(p.rank == ri for p in self.pending):
                continue
            for b in range(self.nb):
                if (ctrl.bank_demand_count(ri, b) == 0
                        and self.credit(ri, b) < CREDIT_MAX):
                    r = eng.refpb_ready_at(ri, b, now)
                    if r <= now:
                        candidates.append((ri, b))
                    elif r < wake:
                        wake = r
        if not candidates:
            return wake
        ri, bank = candidates[self.rng.randrange(len(candidates))]
        p = PendingRefresh(REFPB, ri, bank, "pull",
                           self._nominal_of(ri, bank, self.issued[ri][bank]),
                           self.timing.tRFCpb, self.timing.rows_per_ref)
        self.pending.append(p)
        self._pending_scope.add((ri, bank))
        ctrl.issue_refresh(p, now)
        return now

    def on_issued(self, p, now, ctrl):
        ri, bi = p.rank, p.bank
        credit_before = self.credit(ri, bi)
        self.issued[ri][bi] += 1
        credit_after = credit_before + 1
        if credit_after > CREDIT_MAX:
            raise SimulationError(
                f"refresh credit above {CREDIT_MAX} on rank {ri} bank {bi}")
        if p.category in ("forced", "nominal"):
            category = p.category
        else:
            # opportunistic: serving an owed refresh vs. pulling one in early
            category = "postponed" if credit_before < 0 else "pulled"
        self.pending.remove(p)
        self._pending_scope.discard((ri, bi))
        return RefreshRecord(now, REFPB, ri, bi, credit_after, category,
                             p.rows, p.cycles, p.nominal)


class ElasticAllBankPolicy(RefreshPolicy):
    """All-bank refresh postponed toward predicted rank idle gaps.

    Simplified reimplementation of idle-time-predictive refresh: an
    exponential moving average of observed rank idle-gap lengths decides
    at each boundary whether to issue or postpone; a postponed refresh is
    released once the rank has been idle for a delay that shrinks linearly
    as the backlog approaches the eight-command limit.

    A rank is idle while it has no queued demand (buffered writes count).
    Idle runs are measured from the cycles on_cycle observes, so it must
    run on the first cycle after every change in demand or in committed
    refreshes (watches_demand); between those, next_event is the next
    tREFIab boundary or the cycle an idle rank's release delay runs out.
    """

    EMA_WEIGHT = 0.2
    watches_demand = True

    def __init__(self, geometry, timing, seed=0):
        super().__init__(geometry, timing, seed)
        nr = geometry.ranks_per_channel
        self.next_boundary = [timing.tREFIab] * nr
        self.owed = [[] for _ in range(nr)]    # nominal cycles of postponed refreshes
        self.ema_idle = [0.0] * nr
        self.idle_since = [-1] * nr

    def _release(self, ri, category):
        nominal = self.owed[ri].pop(0)
        self.pending.append(PendingRefresh(
            REFAB, ri, None, category, nominal,
            self.timing.tRFCab, self.timing.rows_per_ref))

    def on_cycle(self, now, ctrl):
        trefi = self.timing.tREFIab
        trfc = self.timing.tRFCab
        for ri in range(self.geometry.ranks_per_channel):
            idle = ctrl.rank_demand_count(ri) == 0
            if idle:
                if self.idle_since[ri] < 0:
                    self.idle_since[ri] = now
            elif self.idle_since[ri] >= 0:
                gap = now - self.idle_since[ri]
                self.ema_idle[ri] = (self.EMA_WEIGHT * gap
                                     + (1 - self.EMA_WEIGHT) * self.ema_idle[ri])
                self.idle_since[ri] = -1

            if now >= self.next_boundary[ri]:
                self.owed[ri].append(self.next_boundary[ri])
                self.next_boundary[ri] += trefi
                if self.ema_idle[ri] >= trfc and not self._has_pending(ri):
                    self._release(ri, "nominal")

            if self.owed[ri] and not self._has_pending(ri):
                backlog = len(self.owed[ri])
                if backlog >= 8:
                    self._release(ri, "forced")
                elif idle:
                    delay = (8 - backlog) * trfc // 8
                    if now - self.idle_since[ri] >= delay:
                        self._release(ri, "postponed")

    def next_event(self, now):
        wake = min(self.next_boundary)
        trfc = self.timing.tRFCab
        for ri, owed in enumerate(self.owed):
            since = self.idle_since[ri]
            if owed and since >= 0 and not self._has_pending(ri):
                release = since + (8 - len(owed)) * trfc // 8
                if release < wake:
                    wake = release
        return wake

    def _has_pending(self, ri):
        return any(p.rank == ri for p in self.pending)

    def on_issued(self, p, now, ctrl):
        self.pending.remove(p)
        return RefreshRecord(now, REFAB, p.rank, -1, -len(self.owed[p.rank]),
                             p.category, p.rows, p.cycles, p.nominal)


class AdaptiveRefreshPolicy(RefreshPolicy):
    """Switches between normal-rate and 4x fine-granularity all-bank
    refresh at each boundary: fine mode when the read queue is idle."""

    def __init__(self, geometry, timing, seed=0):
        super().__init__(geometry, timing, seed)
        self.timing_1x = timing
        self.timing_4x = fgr_timing(timing, "4x")
        self.next_boundary = [timing.tREFIab] * geometry.ranks_per_channel

    def on_cycle(self, now, ctrl):
        for ri in range(self.geometry.ranks_per_channel):
            while now >= self.next_boundary[ri]:
                t = self.timing_4x if ctrl.read_count == 0 else self.timing_1x
                self.pending.append(PendingRefresh(
                    REFAB, ri, None, "nominal", self.next_boundary[ri],
                    t.tRFCab, t.rows_per_ref))
                self.next_boundary[ri] += t.tREFIab

    def next_event(self, now):
        return min(self.next_boundary)


def make_policy(kind: str, geometry, timing, seed=0) -> RefreshPolicy:
    """An instance of the scheduler class named by the kind's registry row."""
    return globals()[policy_row(kind).scheduler](geometry, timing, seed)


# ---------------------------------------------------------------------------
# Retention audit


@dataclass
class AuditViolation:
    kind: str
    rank: int
    bank: int
    detail: str
    rows: list = field(default_factory=list)


@dataclass
class AuditReport:
    violations: list
    max_lateness: int

    @property
    def ok(self) -> bool:
        return not self.violations


def retention_audit(records: list[RefreshRecord], geometry: DramGeometry,
                    timing: TimingParams, end_cycle: int,
                    max_reported_rows: int = 16) -> AuditReport:
    """Verify a refresh log preserves data integrity.

    Three checks, all against the log alone:
      1. every command within 8*tREFIab of its nominal due cycle;
      2. no bank silent for longer than its per-bank period plus slack
         (a starved bank's owed rows are reported);
      3. every row re-refreshed within the retention window plus slack
         (rows assumed freshly written at cycle 0; binds on long runs).
    """
    slack = 8 * timing.tREFIab
    limit = timing.retention_cycles + slack
    nb = geometry.banks_per_rank
    nrows = geometry.rows_per_bank
    violations = []
    max_lateness = 0

    # (rank, bank) -> [replay pointer, deque of (rows, last refresh cycle)
    # runs in sweep order from the pointer]; the pointer advances as the
    # engine's refresh counters do, which is cyclic in the row index
    banks = {}
    last_cmd = {}

    def touch_rows(ri, bi, rows, cycle):
        key = (ri, bi)
        state = banks.get(key)
        if state is None:
            state = banks[key] = [0, deque([(nrows, 0)])]
        start, runs = state
        r = start
        left = min(rows, nrows)     # rows beyond one sweep were just refreshed
        while left:
            n, last = runs.popleft()
            if n > left:
                runs.appendleft((n - left, last))
                n = left
            if cycle - last > limit:
                for i in range(r, r + n):
                    row = i % nrows
                    violations.append(AuditViolation(
                        "stale-row", ri, bi,
                        f"row {row} refreshed {cycle - last} cycles after previous",
                        [row]))
            r += n
            left -= n
        if rows:
            runs.append((min(rows, nrows), cycle))
        state[0] = (start + rows) % nrows
        last_cmd[key] = cycle

    def stale_rows(state, cutoff):
        """Count and lowest indices of the rows last refreshed at or
        before cutoff."""
        r, runs = state
        count = 0
        spans = []
        for n, last in runs:
            if last <= cutoff:
                count += n
                if r + n > nrows:       # the run wraps past the last row
                    spans += [(r, nrows), (0, r + n - nrows)]
                else:
                    spans.append((r, r + n))
            r = (r + n) % nrows
        spans.sort()
        lowest = []
        for a, b in spans:
            lowest.extend(range(a, min(b, a + max_reported_rows - len(lowest))))
        return count, lowest

    for rec in records:
        lateness = rec.cycle - rec.nominal
        if lateness > max_lateness:
            max_lateness = lateness
        if lateness > slack:
            violations.append(AuditViolation(
                "late-refresh", rec.rank, rec.bank,
                f"command due at {rec.nominal} issued at {rec.cycle}"))
        if rec.kind == REFAB:
            for bi in range(nb):
                touch_rows(rec.rank, bi, rec.rows, rec.cycle)
        else:
            touch_rows(rec.rank, rec.bank, rec.rows, rec.cycle)

    # per-bank liveness and end-of-run staleness
    period = timing.tREFIab
    untouched = (0, [(nrows, 0)])
    for ri in range(geometry.ranks_per_channel):
        for bi in range(nb):
            last = last_cmd.get((ri, bi), 0)
            state = banks.get((ri, bi))
            if end_cycle - last > period + slack:
                count, rows = stale_rows(state or untouched,
                                         end_cycle - period - slack)
                violations.append(AuditViolation(
                    "starved-bank", ri, bi,
                    f"no refresh for {end_cycle - last} cycles "
                    f"({count} rows at risk)", rows))
            elif state is not None:
                count, rows = stale_rows(state, end_cycle - limit - 1)
                if count:
                    violations.append(AuditViolation(
                        "stale-row", ri, bi,
                        f"{count} rows beyond retention at end of run", rows))

    return AuditReport(violations, max_lateness)
