"""Per-channel memory controller.

Bounded read/write queues, FR-FCFS with a closed-row policy, write
batching between a high and a low watermark, and last-moment command
generation: commands are derived from the scheduled request right before
they go to the DRAM, so there are no command queues to seize up.

Refresh interplay per cycle (at most one command per channel):
  1. committed refreshes go first: issue when legal, otherwise precharge a
     blocking open row; new demands to the target scope are held back;
  2. demand scheduling in the active direction (reads normally, writes
     while draining): row hits oldest-first, then the oldest ready miss's
     activate;
  3. closed-row maintenance: precharge open rows with no pending hits;
  4. the policy's opportunistic hook (idle-bank or write-drain refreshes).
Steps 2 and 3 share one sweep over the banks, which looks up each open
bank's row hit once.  While the channel's data bus (engine.rw_floor) rules
out every RD/WR this cycle, the row hits' ready times are not computed:
the floor itself is a lower bound on the cycle the first of them can go.

Scheduling passes are skipped between the minimum ready cycle reported by
the timing engine and the next state event (request arrival, refresh end,
writeback exit, a change in the policy's committed refreshes); decisions
are identical to evaluating every cycle because nothing issuable can
appear inside the skipped span.  The policy's on_cycle likewise runs only
at its next_event, and, for policies that watch demand, on the cycle after
any request arrives, any RD/WR issues or any refresh issues.  always_scan
turns all of this off: a pass and a policy call on every cycle, the
reference the event-driven run must match.
"""

import heapq
import operator
from collections import deque

from .engine import BLOCKED, REFAB, REFPB, TimingEngine
from .errors import ConfigError
from .refresh import PendingRefresh, RefreshPolicy


_req_id = operator.attrgetter("id")


class MemRequest:
    __slots__ = ("id", "core", "is_write", "channel", "rank", "bank", "subarray",
                 "row", "column", "arrival_cycle", "completion_cycle",
                 "core_ref", "window_entry", "conflict_counted")

    def __init__(self, req_id, core, is_write, channel, rank, bank, subarray,
                 row, column, arrival_cycle):
        self.id = req_id
        self.core = core
        self.is_write = is_write
        self.channel = channel
        self.rank = rank
        self.bank = bank
        self.subarray = subarray
        self.row = row
        self.column = column
        self.arrival_cycle = arrival_cycle
        self.completion_cycle = None
        self.core_ref = None
        self.window_entry = None
        self.conflict_counted = False


class ChannelStats:
    """Counters owned by one channel controller.

    reset() zeroes the measured-window counters but keeps the refresh log,
    which must span the whole run for retention auditing."""

    def __init__(self):
        self.refresh_log = []
        self.reset()

    def reset(self):
        self.completed_reads = 0
        self.completed_writes = 0
        self.read_latency_total = 0
        self.read_latency_hist = {}
        self.refresh_counts = {"nominal": 0, "postponed": 0, "pulled": 0,
                               "forced": 0, "during_writeback": 0}
        self.subarray_conflicts = 0
        self.sarp_parallel_accesses = 0
        self.writeback_cycles = 0
        self.writeback_episodes = 0


class ChannelController:
    def __init__(self, engine: TimingEngine, policy: RefreshPolicy,
                 read_capacity: int = 64, write_capacity: int = 64,
                 low_watermark: int = 32, high_watermark: int = 48):
        if not 0 <= low_watermark < high_watermark <= write_capacity:
            raise ConfigError("watermarks must satisfy 0 <= low < high <= capacity")
        self.engine = engine
        self.policy = policy
        self.geometry = engine.geometry
        self.read_capacity = read_capacity
        self.write_capacity = write_capacity
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self.nr = engine.n_ranks
        self.nb = engine.n_banks
        self.nbanks = self.nr * self.nb
        self.bank_reads = [deque() for _ in range(self.nbanks)]
        self.bank_writes = [deque() for _ in range(self.nbanks)]
        self.demand_counts = [0] * self.nbanks
        self.rank_demand = [0] * self.nr
        self.read_count = 0
        self.write_count = 0
        self.writeback_active = False
        self.returns = []            # (data_cycle, req_id, req)
        self.stats = ChannelStats()
        self.next_attempt = 0        # earliest cycle a scheduling pass can matter
        self.always_scan = False     # cycle-by-cycle reference (equivalence tests)
        self._policy_wake = 0        # earliest cycle policy.on_cycle must run
        self._watch_demand = policy.watches_demand
        # per-direction row-hit candidate cache: (version, row, req-or-None)
        self._rd_version = [0] * self.nbanks
        self._wr_version = [0] * self.nbanks
        self._rd_hit = [(-1, -1, None)] * self.nbanks
        self._wr_hit = [(-1, -1, None)] * self.nbanks

    # -- request intake --

    def enqueue(self, req: MemRequest) -> bool:
        """Returns False (backpressure) when the matching queue is full."""
        idx = req.rank * self.nb + req.bank
        if req.is_write:
            if self.write_count >= self.write_capacity:
                return False
            self.bank_writes[idx].append(req)
            self._wr_version[idx] += 1
            self.write_count += 1
            # fire-and-forget: a buffered write is complete for the issuer
            req.completion_cycle = req.arrival_cycle
            self.stats.completed_writes += 1
            if not self.writeback_active and self.write_count >= self.high_watermark:
                self.writeback_active = True
                self.stats.writeback_episodes += 1
        else:
            if self.read_count >= self.read_capacity:
                return False
            self.bank_reads[idx].append(req)
            self._rd_version[idx] += 1
            self.read_count += 1
        self.demand_counts[idx] += 1
        self.rank_demand[req.rank] += 1
        self.next_attempt = 0
        if self._watch_demand:
            self._policy_wake = 0
        return True

    def bank_demand_count(self, ri: int, bi: int) -> int:
        return self.demand_counts[ri * self.nb + bi]

    def rank_demand_count(self, ri: int) -> int:
        return self.rank_demand[ri]

    # -- per-cycle scheduling --

    def tick(self, now: int) -> None:
        eng = self.engine
        if eng.next_end <= now:
            eng.advance(now)
            self.next_attempt = now
        returns = self.returns
        if returns and returns[0][0] <= now:
            while returns and returns[0][0] <= now:
                _, _, req = heapq.heappop(returns)
                self._complete_read(req, now)
        if self.writeback_active:
            self.stats.writeback_cycles += 1
            if self.write_count <= self.low_watermark:
                self.writeback_active = False
                self.next_attempt = now
        policy = self.policy
        scan = self.always_scan
        if scan or now >= self._policy_wake:
            committed = len(policy.pending)
            policy.on_cycle(now, self)
            self._policy_wake = policy.next_event(now)
            if len(policy.pending) != committed:
                self.next_attempt = now
        if now < self.next_attempt and not scan:
            return
        issued, wake = self._full_pass(now)
        self.next_attempt = now + 1 if issued else max(now + 1, wake)

    def _full_pass(self, now: int):
        wake = BLOCKED
        pending = self.policy.pending
        if pending:
            eng = self.engine
            for p in pending:
                if p.kind == REFAB:
                    r = eng.refab_ready_at(p.rank, now)
                else:
                    r = eng.refpb_ready_at(p.rank, p.bank, now)
                if r <= now:
                    self.issue_refresh(p, now)
                    return True, 0
                if r < wake:
                    wake = r
            issued, w = self._refresh_prep(pending, now)
            if issued:
                return True, 0
            if w < wake:
                wake = w
        if self.writeback_active:
            issued, w = self._schedule_demand(self.bank_writes, now, True)
        else:
            issued, w = self._schedule_demand(self.bank_reads, now, False)
        if issued:
            return True, 0
        if w < wake:
            wake = w
        w = self.policy.opportunistic(now, self)
        if w <= now:
            return True, 0
        if w < wake:
            wake = w
        return False, wake

    def issue_refresh(self, p: PendingRefresh, now: int) -> None:
        eng = self.engine
        if p.kind == REFAB:
            eng.issue_refab(p.rank, now, p.cycles, p.rows)
        else:
            eng.issue_refpb(p.rank, p.bank, now, p.cycles, p.rows)
        record = self.policy.on_issued(p, now, self)
        if self._watch_demand:
            self._policy_wake = 0
        st = self.stats
        st.refresh_log.append(record)
        st.refresh_counts[record.category] += 1
        if self.writeback_active:
            st.refresh_counts["during_writeback"] += 1

    def _refresh_prep(self, pending, now):
        """Precharge an open row that blocks a committed refresh."""
        eng = self.engine
        wake = BLOCKED
        for p in pending:
            banks = range(self.nb) if p.kind == REFAB else (p.bank,)
            for bi in banks:
                bank = eng.bank_state(p.rank, bi)
                if bank.open_row is None:
                    continue
                if p.kind == REFPB and eng.sarp_enabled:
                    # only a row in the way of the next refresh must go
                    if bank.open_row // eng.rows_per_sub != bank.ref_sa:
                        continue
                r = bank.pre_ready
                if r <= now:
                    eng.issue_pre(p.rank, bi, now)
                    return True, 0
                if r < wake:
                    wake = r
        return False, wake

    def _blocked_indices(self, pending):
        blocked = set()
        for p in pending:
            if p.kind == REFAB:
                base = p.rank * self.nb
                blocked.update(range(base, base + self.nb))
            else:
                blocked.add(p.rank * self.nb + p.bank)
        return blocked

    def _schedule_demand(self, queues, now, is_write):
        """Steps 2 and 3: a row hit, else an activate, else a closed-row
        precharge, from one sweep over the banks."""
        eng = self.engine
        sarp = eng.sarp_enabled
        pending = self.policy.pending
        blocked = self._blocked_indices(pending) if pending else None
        banks = eng.banks
        nb = self.nb
        wake = BLOCKED
        if is_write:
            versions, hit_cache = self._wr_version, self._wr_hit
        else:
            versions, hit_cache = self._rd_version, self._rd_hit

        hits = []
        acts = []
        pre_idx = -1           # first bank whose idle open row can close now
        pre_wake = BLOCKED
        for idx in range(self.nbanks):
            q = queues[idx]
            bank = banks[idx]
            row = bank.open_row
            if row is not None:
                req = None
                if q:
                    ver = versions[idx]
                    cached = hit_cache[idx]
                    if cached[0] == ver and cached[1] == row:
                        req = cached[2]
                    else:
                        for cand in q:
                            if cand.row == row:
                                req = cand
                                break
                        hit_cache[idx] = (ver, row, req)
                if req is None:
                    if pre_idx < 0:
                        r = bank.pre_ready
                        if r <= now:
                            pre_idx = idx
                        elif r < pre_wake:
                            pre_wake = r
                elif blocked is None or idx not in blocked:
                    hits.append(req)
                continue
            if not q or (blocked is not None and idx in blocked):
                continue
            req = q[0]
            if bank.refresh_end > now:
                if not sarp:
                    continue
                if req.subarray == bank.refresh_subarray:
                    if not req.conflict_counted:
                        req.conflict_counted = True
                        self.stats.subarray_conflicts += 1
                    continue
            acts.append(req)

        # row hits first (oldest first), unless the data bus is still busy
        if hits:
            floor = eng.rw_floor(is_write)
            if floor > now:
                wake = floor
            else:
                if len(hits) > 1:
                    hits.sort(key=_req_id)
                for req in hits:
                    r = eng.rw_ready_at(req.rank, req.bank, req.row, now, is_write)
                    if r <= now:
                        self._issue_rw(req, now, is_write)
                        return True, 0
                    if r < wake:
                        wake = r
        # then the oldest ready activate
        if len(acts) > 1:
            acts.sort(key=_req_id)
        for req in acts:
            r = eng.act_ready_at(req.rank, req.bank, req.row, now)
            if r <= now:
                if banks[req.rank * nb + req.bank].refresh_end > now:
                    self.stats.sarp_parallel_accesses += 1
                eng.issue_act(req.rank, req.bank, req.row, now)
                return True, 0
            if r < wake:
                wake = r
        # then close the first idle open row
        if pre_idx >= 0:
            eng.issue_pre(pre_idx // nb, pre_idx % nb, now)
            return True, 0
        return False, wake if wake < pre_wake else pre_wake

    def _issue_rw(self, req: MemRequest, now: int, is_write: bool) -> None:
        eng = self.engine
        idx = req.rank * self.nb + req.bank
        if is_write:
            eng.issue_wr(req.rank, req.bank, req.column, now)
            self.bank_writes[idx].remove(req)
            self._wr_version[idx] += 1
            self.write_count -= 1
        else:
            done = eng.issue_rd(req.rank, req.bank, req.column, now)
            self.bank_reads[idx].remove(req)
            self._rd_version[idx] += 1
            self.read_count -= 1
            heapq.heappush(self.returns, (done, req.id, req))
        self.demand_counts[idx] -= 1
        self.rank_demand[req.rank] -= 1
        if self._watch_demand:
            self._policy_wake = 0

    def _complete_read(self, req: MemRequest, now: int) -> None:
        req.completion_cycle = now
        st = self.stats
        st.completed_reads += 1
        latency = now - req.arrival_cycle
        st.read_latency_total += latency
        st.read_latency_hist[latency] = st.read_latency_hist.get(latency, 0) + 1
        if req.core_ref is not None:
            req.core_ref.on_read_return(req)

    def drain_pending_returns(self, now: int) -> None:
        """Complete reads whose data is still in flight (end-of-run accounting)."""
        while self.returns:
            done, _, req = heapq.heappop(self.returns)
            self._complete_read(req, done)
