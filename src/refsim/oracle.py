"""Stateless re-validation of a command history.

oracle_check rebuilds no engine state: each command is validated against
the raw prefix of the history (organized into per-bank/per-rank/channel
views purely for scan efficiency).  It exists to cross-check the
incremental constraint encodings in the timing engine, and to validate
command traces dumped from full runs.
"""

import bisect
from dataclasses import dataclass

from .engine import ACT, PRE, RD, WR, REFAB, REFPB, DramCommand
from .timing import DramGeometry, TimingParams


@dataclass(frozen=True)
class Violation:
    rule: str
    cycle: int
    index: int
    cmd: DramCommand

    def __str__(self):
        return f"[{self.index}] cycle {self.cycle}: {self.cmd.kind} violates {self.rule}"


def commands_from_log(log) -> list[tuple[DramCommand, int]]:
    """Convert engine cmd_log tuples into (DramCommand, cycle) pairs."""
    return [(DramCommand(kind, ch, rank, bank, sub, row, col), cycle)
            for cycle, kind, ch, rank, bank, sub, row, col in log]


class _BankView:
    __slots__ = ("events", "last_act", "last_pre", "last_rd", "last_wr", "refs")

    def __init__(self):
        self.last_act = None      # cycle of most recent ACT
        self.last_pre = None
        self.last_rd = None
        self.last_wr = None
        self.refs = []            # (issue, end, subarray)
        self.events = []          # (cycle, kind, row) of ACT/PRE for open-state

    def open_row_at(self):
        if not self.events:
            return None
        cycle, kind, row = self.events[-1]
        return row if kind == ACT else None


def oracle_check(history, geometry: DramGeometry, timing: TimingParams,
                 sarp_enabled: bool = False,
                 refab_cycles: int | None = None,
                 refpb_cycles: int | None = None) -> list[Violation]:
    """Re-validate a (cmd, cycle) history; returns every violation found.

    The history must be sorted by cycle.  At most one violation is
    reported per command (the first constraint it breaks).
    """
    refab_cycles = timing.tRFCab if refab_cycles is None else refab_cycles
    refpb_cycles = timing.tRFCpb if refpb_cycles is None else refpb_cycles
    max_ref = max(refab_cycles, refpb_cycles)
    rps = geometry.rows_per_subarray
    nb = geometry.banks_per_rank

    banks = {}
    rank_acts = {}      # rank -> list of ACT cycles
    rank_refs = {}      # rank -> list of (issue, end, bank|None, subarray)
    last_rd_ch = None
    last_wr_ch = None

    violations = []
    prev_cycle = None

    def bank_view(ri, bi):
        key = ri * nb + bi
        v = banks.get(key)
        if v is None:
            v = banks[key] = _BankView()
        return v

    def rank_refreshing_at(ri, t):
        for issue, end, _, _ in reversed(rank_refs.get(ri, ())):
            if issue <= t < end:
                return True
            if issue + max_ref <= t:
                break
        return False

    def bank_ref_at(v: _BankView, t):
        for issue, end, sub in reversed(v.refs):
            if issue <= t < end:
                return sub
            if issue + max_ref <= t:
                break
        return None

    for index, (cmd, t) in enumerate(history):
        if prev_cycle is not None and t < prev_cycle:
            raise ValueError("history must be sorted by cycle")
        prev_cycle = t
        kind = cmd.kind
        ri = cmd.rank
        rule = None

        if kind == ACT:
            v = bank_view(ri, cmd.bank)
            open_row = v.open_row_at()
            ref_sub = bank_ref_at(v, t)
            if open_row is not None:
                rule = "act.bank-busy"
            elif ref_sub is not None:
                if not sarp_enabled:
                    rule = "act.bank-refreshing"
                elif cmd.row // rps == ref_sub:
                    rule = "act.subarray-conflict"
            if rule is None and v.last_pre is not None and t < v.last_pre + timing.tRP:
                rule = "act.tRP"
            if rule is None and v.last_act is not None and t < v.last_act + timing.tRC:
                rule = "act.tRC"
            if rule is None:
                acts = rank_acts.get(ri, ())
                if rank_refreshing_at(ri, t):
                    trrd, tfaw = timing.tRRD_ref, timing.tFAW_ref
                else:
                    trrd, tfaw = timing.tRRD, timing.tFAW
                if acts and t < acts[-1] + trrd:
                    rule = "act.tRRD"
                elif len(acts) >= 4 and t < acts[-4] + tfaw:
                    rule = "act.tFAW"
            if rule is None:
                v.events.append((t, ACT, cmd.row))
                v.last_act = t
                rank_acts.setdefault(ri, []).append(t)
                continue

        elif kind in (RD, WR):
            v = bank_view(ri, cmd.bank)
            open_row = v.open_row_at()
            if bank_ref_at(v, t) is not None and not sarp_enabled:
                rule = "rw.bank-refreshing"
            elif open_row is None:
                rule = "rw.no-open-row"
            elif open_row != cmd.row:
                rule = "rw.row-mismatch"
            elif t < v.last_act + timing.tRCD:
                rule = "rw.tRCD"
            elif kind == RD:
                if last_rd_ch is not None and t < last_rd_ch + timing.tBURST:
                    rule = "rd.bus-burst"
                elif (last_wr_ch is not None
                      and t < last_wr_ch + timing.tCWL + timing.tBURST + timing.tWTR):
                    rule = "rd.tWTR"
            else:
                if last_wr_ch is not None and t < last_wr_ch + timing.tBURST:
                    rule = "wr.bus-burst"
                elif last_rd_ch is not None and t < last_rd_ch + timing.tRTW:
                    rule = "wr.tRTW"
            if rule is None:
                if kind == RD:
                    last_rd_ch = t
                    v.last_rd = t
                else:
                    last_wr_ch = t
                    v.last_wr = t
                continue

        elif kind == PRE:
            v = bank_view(ri, cmd.bank)
            if v.open_row_at() is None:
                rule = "pre.no-open-row"
            elif t < v.last_act + timing.tRAS:
                rule = "pre.tRAS"
            elif v.last_rd is not None and t < v.last_rd + timing.tCL + timing.tBURST:
                rule = "pre.read-burst"
            elif v.last_wr is not None and t < v.last_wr + timing.tCWL + timing.tBURST:
                rule = "pre.write-burst"
            if rule is None:
                v.events.append((t, PRE, None))
                v.last_pre = t
                continue

        elif kind == REFPB:
            v = bank_view(ri, cmd.bank)
            open_row = v.open_row_at()
            if rank_refreshing_at(ri, t):
                rule = "refpb.overlap"
            elif open_row is not None and not sarp_enabled:
                rule = "refpb.bank-not-precharged"
            elif open_row is not None and open_row // rps == cmd.subarray:
                rule = "refpb.subarray-conflict"
            elif v.last_pre is not None and t < v.last_pre + timing.tRP:
                rule = "refpb.tRP"
            elif v.last_act is not None and t < v.last_act + timing.tRC:
                rule = "refpb.tRC"
            else:
                acts = rank_acts.get(ri, ())
                if acts and t < acts[-1] + timing.tRRD:
                    rule = "refpb.tRRD"
            if rule is None:
                end = t + refpb_cycles
                v.refs.append((t, end, cmd.subarray))
                rank_refs.setdefault(ri, []).append((t, end, cmd.bank, cmd.subarray))
                continue

        elif kind == REFAB:
            if rank_refreshing_at(ri, t):
                rule = "refab.refresh-overlap"
            else:
                for bi in range(nb):
                    v = bank_view(ri, bi)
                    if v.open_row_at() is not None:
                        rule = "refab.bank-not-precharged"
                        break
                    if v.last_pre is not None and t < v.last_pre + timing.tRP:
                        rule = "refab.tRP"
                        break
                    if v.last_act is not None and t < v.last_act + timing.tRC:
                        rule = "refab.tRC"
                        break
                if rule is None:
                    acts = rank_acts.get(ri, ())
                    if acts and t < acts[-1] + timing.tRRD:
                        rule = "refab.tRRD"
            if rule is None:
                end = t + refab_cycles
                for bi in range(nb):
                    bank_view(ri, bi).refs.append((t, end, cmd.subarray))
                rank_refs.setdefault(ri, []).append((t, end, None, cmd.subarray))
                continue

        else:
            rule = "unknown-kind"

        violations.append(Violation(rule, t, index, cmd))

    return violations
