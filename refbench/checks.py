"""Checks that a refsim run's outputs have the properties the method
guarantees.

Every check raises CheckFailure with a reason.  None of them compares
against a stored copy of earlier output: each tests a property that holds
for any correct run (a refresh schedule within its credit band, a legal
command history, a complete refresh log) or recomputes a figure from the
run's own records.
"""

import csv

from refsim.engine import REFAB, REFPB
from refsim.oracle import commands_from_log, oracle_check

# DDR allows a refresh to be postponed or pulled in by at most eight
# commands; refsim's credit bound is the same band.
CREDIT_BAND = 8
# IPC of a 3-wide core can be neither zero nor above its issue width.
MAX_IPC = 3.0


class CheckFailure(Exception):
    """An output lacks a property that every correct run has."""


def check_retention_report(report) -> None:
    """retention_audit found nothing: no stale row, no starved bank and no
    refresh later than 8 x tREFIab after its nominal cycle."""
    if report.violations:
        first = report.violations[0]
        raise CheckFailure(
            f"retention audit: {len(report.violations)} violations; first "
            f"{first.kind} rank {first.rank} bank {first.bank}: {first.detail}")


def check_refresh_band(scopes, cycles: int, period: int) -> None:
    """Each refresh scope got its nominal share within the credit band.

    `scopes` maps every scope (a rank for all-bank policies, a bank for
    per-bank ones) to its refresh amount in nominal commands, so a scope
    that never refreshed must be present with 0.  A run of `cycles` owes
    cycles / period commands per scope; a correct scheduler is at most
    CREDIT_BAND commands ahead or behind, plus one for the slot boundary
    the run ends in.
    """
    nominal = cycles / period
    for scope, amount in sorted(scopes.items()):
        if abs(amount - nominal) > CREDIT_BAND + 1:
            raise CheckFailure(
                f"scope {scope}: {amount:g} refreshes in {cycles} cycles, "
                f"nominal {nominal:.1f} +/- {CREDIT_BAND + 1}")


def refresh_scopes(records, per_bank: bool, ranks: int, banks: int,
                   rows_per_ref: int) -> dict:
    """Refresh amount per scope of one channel, in nominal commands.

    A command that covers fewer rows than the nominal one (the fine modes
    of adaptive refresh) counts as that fraction of a command.  `records`
    yields (rank, bank, rows).
    """
    if per_bank:
        scopes = {(r, b): 0.0 for r in range(ranks) for b in range(banks)}
    else:
        scopes = {(r,): 0.0 for r in range(ranks)}
    for rank, bank, rows in records:
        key = (rank, bank) if per_bank else (rank,)
        if key not in scopes:
            raise CheckFailure(f"refresh to unknown scope {key}")
        scopes[key] += rows / rows_per_ref
    return scopes


def check_credits(credits) -> None:
    """Every out-of-order refresh credit stays within +/-8."""
    for where, credit in credits:
        if not -CREDIT_BAND <= credit <= CREDIT_BAND:
            raise CheckFailure(f"refresh credit {credit} at {where} outside "
                               f"+/-{CREDIT_BAND}")


def check_log_complete(log_cycles, warmup: int, counted: int) -> None:
    """The refresh log holds every refresh the engines counted.

    The engines count commands issued in the measured window, which starts
    at cycle `warmup`; the log spans the whole run.
    """
    logged = sum(1 for cycle in log_cycles if cycle >= warmup)
    if logged != counted:
        raise CheckFailure(f"refresh log has {logged} measured-window "
                           f"records, the engines counted {counted}")


def check_ipc(values, what: str) -> None:
    for label, ipc in values:
        if not 0.0 < ipc <= MAX_IPC:
            raise CheckFailure(f"{what} IPC of {label} is {ipc}, "
                               f"outside (0, {MAX_IPC:g}]")


def check_ws_ordering(ws, better_than) -> None:
    """Each (better, worse) pair of cells is ordered by weighted speedup.

    `ws` maps a cell to its weighted speedup."""
    for better, worse in better_than:
        if not ws[better] > ws[worse]:
            raise CheckFailure(f"WS of {better} ({ws[better]:.4f}) is not "
                               f"above WS of {worse} ({ws[worse]:.4f})")


def read_cmd_trace(path: str) -> list[tuple]:
    """Parse a --dump-cmd-trace file into engine command-log tuples."""
    entries = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 8:
                raise CheckFailure(f"{path}:{lineno}: expected 8 fields")
            cycle, kind, *rest = fields
            try:
                entries.append((int(cycle), kind, *map(int, rest)))
            except ValueError:
                raise CheckFailure(f"{path}:{lineno}: bad number") from None
    return entries


def check_cmd_trace(entries, channels: int, geometry, timing,
                    sarp: bool) -> int:
    """Every channel's command history passes the stateless oracle.

    Returns the number of commands checked."""
    per_channel = [[] for _ in range(channels)]
    for entry in entries:
        ch = entry[2]
        if not 0 <= ch < channels:
            raise CheckFailure(f"command for channel {ch}: {entry}")
        per_channel[ch].append(entry)
    for ch, log in enumerate(per_channel):
        violations = oracle_check(commands_from_log(log), geometry, timing,
                                  sarp_enabled=sarp)
        if violations:
            raise CheckFailure(f"oracle: channel {ch} has {len(violations)} "
                               f"violations; first {violations[0]}")
    return len(entries)


def read_refresh_log(path: str) -> list[tuple]:
    """Parse a --dump-refresh-log file into (cycle, kind, rank, bank)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["cycle", "kind", "rank", "bank"]:
            raise CheckFailure(f"{path}: unexpected header {header}")
        return [(int(row[0]), row[1], int(row[2]), int(row[3]))
                for row in reader]


def check_log_matches_trace(entries, log_rows, channels: int) -> None:
    """The refresh commands of a command trace are the refresh log's rows.

    The log lists channel 0's records, then channel 1's, each in issue
    order, and writes bank -1 for all-bank commands."""
    expected = []
    for ch in range(channels):
        for cycle, kind, c, rank, bank, *_ in entries:
            if c == ch and kind in (REFAB, REFPB):
                expected.append((cycle, kind, rank,
                                 -1 if kind == REFAB else bank))
    if expected != log_rows:
        diff = next((i for i, (a, b) in enumerate(zip(expected, log_rows))
                     if a != b), min(len(expected), len(log_rows)))
        raise CheckFailure(
            f"refresh log ({len(log_rows)} rows) differs from the command "
            f"trace's refresh commands ({len(expected)}) at row {diff}")


def check_same_run(fast, slow) -> None:
    """An event-skipping run and a cycle-by-cycle run agree exactly.

    Each argument is (command logs, SimStats, refresh-log tuples)."""
    names = ("command log", "SimStats", "refresh log")
    for name, a, b in zip(names, fast, slow):
        if a != b:
            raise CheckFailure(f"event skipping changed the {name}")
