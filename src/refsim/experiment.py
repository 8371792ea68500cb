"""Sweep orchestration: (policy x density) cells, automatic solo runs for
weighted speedup, per-cell retention audits, and deterministic CSV output.

Cells are independent; with jobs > 1 they run in separate processes, each
cell writing its own audits and dump files, and the rows are merged back
in sweep order, so parallel output is byte-equal to serial output.
"""

import csv
import io
from dataclasses import replace
from functools import partial

from .config import SimConfig
from .errors import AuditError, ConfigError
from .metrics import energy_accumulate, harmonic_speedup, max_slowdown, weighted_speedup
from .refresh import retention_audit
from .simulation import Simulation
from .timing import policy_row

CSV_COLUMNS = (
    "policy", "density_gbit", "workload", "seed", "ws", "hs", "max_slowdown",
    "energy_per_access_pj", "refresh_count", "postponed", "pulled_in",
    "forced", "subarray_conflicts", "avg_read_latency_cycles",
)

SOLO_COLUMNS = ("density_gbit", "core", "workload", "seed", "alone_ipc")

REFRESH_LOG_COLUMNS = ("cycle", "kind", "rank", "bank", "credit_after", "category")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def audit_refresh_logs(sim: Simulation, config: SimConfig) -> int:
    """Retention-audit every channel's refresh log; returns max lateness."""
    if policy_row(config.policy).scope is None:
        return 0
    worst = 0
    for ch, log in enumerate(sim.refresh_logs()):
        report = retention_audit(log, config.geometry, sim.timing, sim.now)
        if not report.ok:
            first = report.violations[0]
            raise AuditError(
                f"retention audit failed on channel {ch} "
                f"({len(report.violations)} violations; first: {first.kind} "
                f"rank {first.rank} bank {first.bank}: {first.detail})")
        worst = max(worst, report.max_lateness)
    slack = 8 * sim.timing.tREFIab
    if worst > slack:
        raise AuditError(f"refresh lateness {worst} exceeds {slack}")
    return worst


def run_cell(config: SimConfig, solo_cache: dict | None = None,
             enable_cmd_log: bool = False):
    """One (policy, density, workload) measurement plus its solo runs.

    Returns (row_dict, solo_rows, sim).  Weighted/harmonic speedups are
    normalized against each core re-simulated alone on the refresh-free
    system at the same density, so cross-policy WS differences reflect
    shared-run behavior rather than denominator shifts.
    """
    if solo_cache is None:
        solo_cache = {}
    sim = Simulation(config, enable_cmd_log=enable_cmd_log)
    stats = sim.run()
    audit_refresh_logs(sim, config)
    shared_ipc = [stats.ipc(i) for i in range(len(sim.cores))]

    solo_config = replace(config, policy="noref")
    alone_ipc = []
    solo_rows = []
    for core_index in range(config.cores):
        spec = config.workload_for(core_index)
        key = (config.density, core_index, spec.key())
        if key not in solo_cache:
            solo_sim = Simulation(solo_config, core_indices=[core_index])
            solo_cache[key] = solo_sim.run().ipc(0)
        alone_ipc.append(solo_cache[key])
        solo_rows.append({
            "density_gbit": config.density, "core": core_index,
            "workload": spec.label(), "seed": config.seed,
            "alone_ipc": solo_cache[key],
        })

    energy = energy_accumulate(stats, config.currents, sim.timing)
    accesses = stats.completed_reads + stats.completed_writes
    counts = stats.refresh_counts
    row = {
        "policy": config.policy,
        "density_gbit": config.density,
        "workload": config.workload_label(),
        "seed": config.seed,
        "ws": weighted_speedup(shared_ipc, alone_ipc),
        "hs": harmonic_speedup(shared_ipc, alone_ipc),
        "max_slowdown": max_slowdown(shared_ipc, alone_ipc),
        "energy_per_access_pj": energy.energy_per_access_pj(accesses),
        "refresh_count": stats.refresh_total,
        "postponed": counts["postponed"],
        "pulled_in": counts["pulled"],
        "forced": counts["forced"],
        "subarray_conflicts": stats.subarray_conflicts,
        "avg_read_latency_cycles": stats.avg_read_latency,
    }
    return row, solo_rows, sim


def _cell_task(cell: SimConfig, solo_cache: dict, multi: bool,
               dump_refresh_log: str | None, dump_cmd_trace: str | None,
               dump_latency_hist: str | None):
    """One sweep cell with its audits and dump files; runs in a worker
    process when the sweep has several jobs."""
    row, solos, sim = run_cell(cell, solo_cache,
                               enable_cmd_log=bool(dump_cmd_trace))
    if dump_refresh_log:
        _dump_refresh_log(sim, cell, dump_refresh_log, multi)
    if dump_cmd_trace:
        _audit_command_logs(sim, cell)
        _dump_cmd_trace(sim, cell, dump_cmd_trace, multi)
    if dump_latency_hist:
        _dump_latency_hist(sim, cell, dump_latency_hist, multi)
    return row, solos


def run_experiment(config: SimConfig, policies=None, densities=None,
                   jobs: int = 1, dump_refresh_log: str | None = None,
                   dump_cmd_trace: str | None = None,
                   dump_latency_hist: str | None = None):
    """Run the sweep; returns (rows, solo_rows) in deterministic order."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    policies = list(policies) if policies else [config.policy]
    densities = list(densities) if densities else [config.density]
    cells = [replace(config, policy=p, density=d)
             for p in policies for d in densities]
    # solo runs are policy-independent: cells run in one process share
    # them; a pool sends each batch of cells its own copy of the cache
    task = partial(_cell_task, solo_cache={}, multi=len(cells) > 1,
                   dump_refresh_log=dump_refresh_log,
                   dump_cmd_trace=dump_cmd_trace,
                   dump_latency_hist=dump_latency_hist)

    if jobs > 1 and len(cells) > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(task, cells)
    else:
        results = map(task, cells)

    rows = []
    solo_rows = []
    seen_solo = set()
    for row, solos in results:
        rows.append(row)
        for solo in solos:
            key = (solo["density_gbit"], solo["core"])
            if key not in seen_solo:
                seen_solo.add(key)
                solo_rows.append(solo)
    solo_rows.sort(key=lambda r: (r["density_gbit"], r["core"]))
    return rows, solo_rows


def _audit_command_logs(sim: Simulation, cell: SimConfig) -> None:
    from .oracle import commands_from_log, oracle_check
    if cell.policy == "ar":
        return   # refresh extents vary per command; checked per fixed mode in tests
    sarp = policy_row(cell.policy).sarp
    for ch, log in enumerate(sim.command_logs()):
        violations = oracle_check(commands_from_log(log), cell.geometry,
                                  sim.timing, sarp_enabled=sarp)
        if violations:
            raise AuditError(
                f"command-history audit failed on channel {ch}: "
                f"{len(violations)} violations; first: {violations[0]}")


def _cell_path(path: str, cell: SimConfig, multi: bool) -> str:
    if not multi:
        return path
    return f"{path}.{cell.policy}-{cell.density}"


def _dump_refresh_log(sim: Simulation, cell: SimConfig, path: str, multi: bool):
    with open(_cell_path(path, cell, multi), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REFRESH_LOG_COLUMNS)
        for ch_log in sim.refresh_logs():
            for rec in ch_log:
                writer.writerow((rec.cycle, rec.kind, rec.rank, rec.bank,
                                 rec.credit_after, rec.category))


def _dump_cmd_trace(sim: Simulation, cell: SimConfig, path: str, multi: bool):
    merged = []
    for log in sim.command_logs():
        if log:
            merged.extend(log)
    merged.sort(key=lambda entry: (entry[0], entry[2]))
    with open(_cell_path(path, cell, multi), "w") as fh:
        for entry in merged:
            fh.write("%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n" % entry)


def _dump_latency_hist(sim: Simulation, cell: SimConfig, path: str, multi: bool):
    hist = {}
    for ctrl in sim.controllers:
        for latency, count in ctrl.stats.read_latency_hist.items():
            hist[latency] = hist.get(latency, 0) + count
    with open(_cell_path(path, cell, multi), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("latency_cycles", "count"))
        for latency in sorted(hist):
            writer.writerow((latency, hist[latency]))


def rows_to_csv(rows, columns=CSV_COLUMNS) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return out.getvalue()
