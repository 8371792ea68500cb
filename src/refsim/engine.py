"""Per-channel DRAM state tracking and timing-constraint enforcement.

One engine instance models one channel: bank/rank state machines, the
rolling four-activate window, bus turnaround, and refresh occupancy.  The
*_ready_at methods are the engine's one encoding of the DDR rules; the
controller drives it through them and the issue_* methods (hot path,
integer arguments, no allocation).  ready_at/issue take a DramCommand and
dispatch to the same methods.

With subarray-parallel mode enabled (SARP-style policies) a refreshing bank
still accepts activates to subarrays other than the one being refreshed,
under the scaled tFAW/tRRD constraints.  The device picks the subarray a
refresh lands in from its per-bank refresh counters (ref_sa, ref_row).  A
real controller keeps a shadow copy of those counters to steer accesses to
idle subarrays; here the controller reads the engine's counters directly,
which is equivalent because they advance deterministically with each REF
the controller itself issues.
"""

import heapq
from dataclasses import dataclass

from .errors import SimulationError
from .timing import DramGeometry, TimingParams

NEG = -(1 << 30)
BLOCKED = 1 << 60   # waiting on a state change, not on time

ACT = "ACT"
PRE = "PRE"
RD = "RD"
WR = "WR"
REFAB = "REFab"
REFPB = "REFpb"


def advance_refresh_counters(sa: int, local_row: int, rows: int,
                             geometry: DramGeometry) -> tuple[int, int]:
    """Advance a bank's (refresh-subarray, local-row) counter pair by
    `rows`, carrying into the subarray counter modulo the subarray count."""
    local_row += rows
    rps = geometry.rows_per_subarray
    if local_row >= rps:
        sa = (sa + local_row // rps) % geometry.subarrays_per_bank
        local_row %= rps
    return sa, local_row


@dataclass(frozen=True)
class DramCommand:
    kind: str
    channel: int
    rank: int
    bank: int = 0
    subarray: int = 0
    row: int = 0
    column: int = 0


class _Bank:
    __slots__ = (
        "open_row", "act_ready", "rw_ready", "pre_ready", "refresh_end",
        "refresh_subarray", "ref_sa", "ref_row", "last_act", "last_pre",
    )

    def __init__(self):
        self.open_row = None
        self.act_ready = 0
        self.rw_ready = 0
        self.pre_ready = 0
        self.refresh_end = NEG
        self.refresh_subarray = 0   # valid while refresh_end > now
        self.ref_sa = 0             # device refresh-subarray counter
        self.ref_row = 0            # device local-row counter
        self.last_act = NEG
        self.last_pre = NEG


class _Rank:
    __slots__ = ("last_act", "act_window", "win_idx", "refresh_until",
                 "busy_units", "busy_since", "busy_cycles")

    def __init__(self):
        self.last_act = NEG
        self.act_window = [NEG, NEG, NEG, NEG]
        self.win_idx = 0            # next overwrite slot == oldest entry
        self.refresh_until = NEG    # refreshes in a rank never overlap
        self.busy_units = 0         # open rows + refreshing banks
        self.busy_since = 0
        self.busy_cycles = 0


class TimingEngine:
    """Tracks one channel's DRAM state and answers command legality."""

    def __init__(self, geometry: DramGeometry, timing: TimingParams,
                 channel_index: int = 0, sarp_enabled: bool = False):
        self.geometry = geometry
        self.channel_index = channel_index
        self.sarp_enabled = sarp_enabled
        self.n_ranks = geometry.ranks_per_channel
        self.n_banks = geometry.banks_per_rank
        self.rows_per_sub = geometry.rows_per_subarray
        self.banks = [_Bank() for _ in range(self.n_ranks * self.n_banks)]
        self.ranks = [_Rank() for _ in range(self.n_ranks)]
        self.last_rd = NEG
        self.last_wr = NEG
        self._end_heap = []         # (end_cycle, rank_index, n_banks)
        self.next_end = 1 << 62
        self.cmd_log = None         # list of tuples when tracing enabled
        self.set_timing(timing)
        self.reset_stats(0)

    def set_timing(self, timing: TimingParams) -> None:
        self.timing = timing
        self.tRCD = timing.tRCD
        self.tRP = timing.tRP
        self.tCL = timing.tCL
        self.tCWL = timing.tCWL
        self.tRAS = timing.tRAS
        self.tRC = timing.tRC
        self.tRRD = timing.tRRD
        self.tFAW = timing.tFAW
        self.tWTR = timing.tWTR
        self.tRTW = timing.tRTW
        self.tBURST = timing.tBURST
        self.tRFCab = timing.tRFCab
        self.tRFCpb = timing.tRFCpb
        self.tFAW_ref = timing.tFAW_ref
        self.tRRD_ref = timing.tRRD_ref
        self.rows_per_ref = timing.rows_per_ref

    def reset_stats(self, now: int) -> None:
        self.n_act = 0
        self.n_pre = 0
        self.n_rd = 0
        self.n_wr = 0
        self.n_refab = 0
        self.n_refpb = 0
        self.refab_cycles = 0
        self.refpb_cycles = 0
        for r in self.ranks:
            r.busy_cycles = 0
            r.busy_since = now

    def enable_cmd_log(self) -> None:
        self.cmd_log = []

    # -- busy-time accounting (rank active vs precharged standby) --

    def _busy_inc(self, rank: _Rank, now: int, units: int = 1) -> None:
        if rank.busy_units == 0:
            rank.busy_since = now
        rank.busy_units += units

    def _busy_dec(self, rank: _Rank, now: int, units: int = 1) -> None:
        rank.busy_units -= units
        if rank.busy_units == 0:
            rank.busy_cycles += now - rank.busy_since

    def busy_cycles_at(self, now: int) -> int:
        total = 0
        for r in self.ranks:
            total += r.busy_cycles
            if r.busy_units > 0:
                total += now - r.busy_since
        return total

    def advance(self, now: int) -> None:
        """Retire refresh occupancy that ended at or before `now`."""
        heap = self._end_heap
        while heap and heap[0][0] <= now:
            end, ri, n = heapq.heappop(heap)
            self._busy_dec(self.ranks[ri], end, n)
        self.next_end = heap[0][0] if heap else 1 << 62

    # -- granular legality checks (hot path) --
    #
    # Each *_ready_at method returns the earliest cycle the command could
    # issue given the current state: a value <= now means issuable now;
    # BLOCKED means the command waits on a state change (a precharge or
    # refresh completion), not on time.  Ready times computed while a
    # refresh holds the rank use the scaled tRRD/tFAW and remain valid
    # until the refresh-end event forces a re-evaluation.

    def act_ready_at(self, ri: int, bi: int, row: int, now: int) -> int:
        bank = self.banks[ri * self.n_banks + bi]
        if bank.refresh_end > now:
            if not self.sarp_enabled:
                t = bank.refresh_end
            elif bank.open_row is not None:
                return BLOCKED
            elif row // self.rows_per_sub == bank.refresh_subarray:
                t = bank.refresh_end
            else:
                t = 0
        elif bank.open_row is not None:
            return BLOCKED
        else:
            t = 0
        if bank.act_ready > t:
            t = bank.act_ready
        rank = self.ranks[ri]
        if rank.refresh_until > now:
            trrd, tfaw = self.tRRD_ref, self.tFAW_ref
        else:
            trrd, tfaw = self.tRRD, self.tFAW
        v = rank.last_act + trrd
        if v > t:
            t = v
        v = rank.act_window[rank.win_idx] + tfaw
        if v > t:
            t = v
        return t

    def rw_floor(self, is_write: bool) -> int:
        """The channel data-bus term of rw_ready_at: no RD (or WR) to any
        bank of this channel can issue before this cycle."""
        if is_write:
            t = self.last_wr + self.tBURST
            v = self.last_rd + self.tRTW
        else:
            t = self.last_rd + self.tBURST
            v = self.last_wr + self.tCWL + self.tBURST + self.tWTR
        return v if v > t else t

    def rw_ready_at(self, ri: int, bi: int, row: int, now: int, is_write: bool) -> int:
        bank = self.banks[ri * self.n_banks + bi]
        if bank.open_row != row:
            return BLOCKED
        t = bank.rw_ready
        if bank.refresh_end > now and not self.sarp_enabled:
            if bank.refresh_end > t:
                t = bank.refresh_end
        v = self.rw_floor(is_write)
        return v if v > t else t

    def pre_ready_at(self, ri: int, bi: int) -> int:
        bank = self.banks[ri * self.n_banks + bi]
        if bank.open_row is None:
            return BLOCKED
        return bank.pre_ready

    def refpb_ready_at(self, ri: int, bi: int, now: int) -> int:
        rank = self.ranks[ri]
        bank = self.banks[ri * self.n_banks + bi]
        if bank.open_row is not None:
            if not self.sarp_enabled:
                return BLOCKED
            if bank.open_row // self.rows_per_sub == bank.ref_sa:
                return BLOCKED
        t = rank.refresh_until if rank.refresh_until > now else 0
        if bank.act_ready > t:
            t = bank.act_ready
        v = rank.last_act + self.tRRD
        return v if v > t else t

    def refab_ready_at(self, ri: int, now: int) -> int:
        rank = self.ranks[ri]
        t = rank.refresh_until if rank.refresh_until > now else 0
        base = ri * self.n_banks
        for bank in self.banks[base:base + self.n_banks]:
            if bank.open_row is not None:
                return BLOCKED
            if bank.act_ready > t:
                t = bank.act_ready
        v = rank.last_act + self.tRRD
        return v if v > t else t

    # -- granular state transitions (caller must have checked legality) --

    def issue_act(self, ri: int, bi: int, row: int, now: int) -> None:
        bank = self.banks[ri * self.n_banks + bi]
        bank.open_row = row
        bank.last_act = now
        bank.rw_ready = now + self.tRCD
        bank.pre_ready = now + self.tRAS
        if bank.act_ready < now + self.tRC:
            bank.act_ready = now + self.tRC
        rank = self.ranks[ri]
        rank.last_act = now
        rank.act_window[rank.win_idx] = now
        rank.win_idx = (rank.win_idx + 1) & 3
        self._busy_inc(rank, now)
        self.n_act += 1
        if self.cmd_log is not None:
            self.cmd_log.append((now, ACT, self.channel_index, ri, bi,
                                 row // self.rows_per_sub, row, 0))

    def issue_pre(self, ri: int, bi: int, now: int) -> None:
        bank = self.banks[ri * self.n_banks + bi]
        bank.open_row = None
        bank.last_pre = now
        if bank.act_ready < now + self.tRP:
            bank.act_ready = now + self.tRP
        self._busy_dec(self.ranks[ri], now)
        self.n_pre += 1
        if self.cmd_log is not None:
            self.cmd_log.append((now, PRE, self.channel_index, ri, bi, 0, 0, 0))

    def issue_rd(self, ri: int, bi: int, column: int, now: int) -> int:
        """Returns the cycle the read data is available."""
        bank = self.banks[ri * self.n_banks + bi]
        done = now + self.tCL + self.tBURST
        if bank.pre_ready < done:
            bank.pre_ready = done
        self.last_rd = now
        self.n_rd += 1
        if self.cmd_log is not None:
            row = bank.open_row
            self.cmd_log.append((now, RD, self.channel_index, ri, bi,
                                 row // self.rows_per_sub, row, column))
        return done

    def issue_wr(self, ri: int, bi: int, column: int, now: int) -> None:
        bank = self.banks[ri * self.n_banks + bi]
        done = now + self.tCWL + self.tBURST
        if bank.pre_ready < done:
            bank.pre_ready = done
        self.last_wr = now
        self.n_wr += 1
        if self.cmd_log is not None:
            row = bank.open_row
            self.cmd_log.append((now, WR, self.channel_index, ri, bi,
                                 row // self.rows_per_sub, row, column))

    def issue_refpb(self, ri: int, bi: int, now: int,
                    cycles: int | None = None, rows: int | None = None) -> None:
        cycles = self.tRFCpb if cycles is None else cycles
        rows = self.rows_per_ref if rows is None else rows
        bank = self.banks[ri * self.n_banks + bi]
        end = now + cycles
        bank.refresh_end = end
        bank.refresh_subarray = bank.ref_sa
        bank.ref_sa, bank.ref_row = advance_refresh_counters(
            bank.ref_sa, bank.ref_row, rows, self.geometry)
        rank = self.ranks[ri]
        rank.refresh_until = end
        self._busy_inc(rank, now)
        heapq.heappush(self._end_heap, (end, ri, 1))
        if end < self.next_end:
            self.next_end = end
        self.n_refpb += 1
        self.refpb_cycles += cycles
        if self.cmd_log is not None:
            self.cmd_log.append((now, REFPB, self.channel_index, ri, bi,
                                 bank.refresh_subarray, 0, 0))

    def issue_refab(self, ri: int, now: int,
                    cycles: int | None = None, rows: int | None = None) -> None:
        cycles = self.tRFCab if cycles is None else cycles
        rows = self.rows_per_ref if rows is None else rows
        end = now + cycles
        base = ri * self.n_banks
        sa = self.banks[base].ref_sa
        for bank in self.banks[base:base + self.n_banks]:
            bank.refresh_end = end
            bank.refresh_subarray = bank.ref_sa
            bank.ref_sa, bank.ref_row = advance_refresh_counters(
                bank.ref_sa, bank.ref_row, rows, self.geometry)
        rank = self.ranks[ri]
        rank.refresh_until = end
        self._busy_inc(rank, now, self.n_banks)
        heapq.heappush(self._end_heap, (end, ri, self.n_banks))
        if end < self.next_end:
            self.next_end = end
        self.n_refab += 1
        self.refab_cycles += cycles
        if self.cmd_log is not None:
            self.cmd_log.append((now, REFAB, self.channel_index, ri, 0, sa, 0, 0))

    # -- DramCommand entry point --

    def ready_at(self, cmd: DramCommand, now: int) -> int:
        """The *_ready_at answer for one command."""
        kind = cmd.kind
        if kind == ACT:
            return self.act_ready_at(cmd.rank, cmd.bank, cmd.row, now)
        if kind == PRE:
            return self.pre_ready_at(cmd.rank, cmd.bank)
        if kind in (RD, WR):
            return self.rw_ready_at(cmd.rank, cmd.bank, cmd.row, now, kind == WR)
        if kind == REFPB:
            return self.refpb_ready_at(cmd.rank, cmd.bank, now)
        return self.refab_ready_at(cmd.rank, now)

    def issue(self, cmd: DramCommand, now: int) -> int | None:
        """Apply a command; returns the data-return cycle for reads."""
        ready = self.ready_at(cmd, now)
        if ready > now:
            raise SimulationError(
                f"illegal {cmd.kind} at cycle {now}: ready at "
                f"{'a state change' if ready == BLOCKED else ready}")
        self.advance(now)
        kind = cmd.kind
        if kind == ACT:
            self.issue_act(cmd.rank, cmd.bank, cmd.row, now)
        elif kind == PRE:
            self.issue_pre(cmd.rank, cmd.bank, now)
        elif kind == RD:
            return self.issue_rd(cmd.rank, cmd.bank, cmd.column, now)
        elif kind == WR:
            self.issue_wr(cmd.rank, cmd.bank, cmd.column, now)
        elif kind == REFPB:
            self.issue_refpb(cmd.rank, cmd.bank, now)
        else:
            self.issue_refab(cmd.rank, now)
        return None

    # -- introspection helpers --

    def bank_state(self, ri: int, bi: int) -> _Bank:
        return self.banks[ri * self.n_banks + bi]

    def bank_refreshing(self, ri: int, bi: int, now: int) -> bool:
        return self.banks[ri * self.n_banks + bi].refresh_end > now

    def rank_refreshing(self, ri: int, now: int) -> bool:
        return self.ranks[ri].refresh_until > now
