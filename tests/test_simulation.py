import pytest

from refsim import refresh
from refsim.config import SimConfig, WorkloadSpec
from refsim.engine import REFAB, REFPB
from refsim.oracle import commands_from_log, oracle_check
from refsim.simulation import Simulation, build_timing
from refsim.timing import FGR_RATE, POLICIES, POLICY_KINDS, DramGeometry, derive_timing


def small_config(policy="ab", **over):
    fields = dict(
        policy=policy, density=32, cores=2, seed=3,
        geometry=DramGeometry(channels=1, ranks_per_channel=2),
        warmup_cycles=1000, measured_cycles=30000,
        default_workload=WorkloadSpec(kind="random", footprint=32 << 20,
                                      read_fraction=0.6, intensity=10.0))
    fields.update(over)
    return SimConfig(**fields)


def run(policy, always_scan=False, seed=3, cmd_log=False, **over):
    sim = Simulation(small_config(policy, seed=seed, **over),
                     enable_cmd_log=cmd_log)
    for ctrl in sim.controllers:
        ctrl.always_scan = always_scan
    stats = sim.run()
    return sim, stats


def signature(sim, stats):
    return (stats.core_instructions, stats.n_act, stats.n_pre, stats.n_rd,
            stats.n_wr, stats.n_refab, stats.n_refpb, stats.completed_reads,
            stats.read_latency_total, stats.refresh_counts,
            [(r.cycle, r.kind, r.rank, r.bank, r.category)
             for r in sim.refresh_logs()[0]])


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_event_skip_equals_cycle_by_cycle(policy):
    """The ready-time skip must be behaviorally invisible."""
    a = signature(*run(policy, always_scan=False))
    b = signature(*run(policy, always_scan=True))
    assert a == b


def test_elastic_event_wake_equals_cycle_by_cycle():
    """Read-only demand leaves the ranks idle between requests, so elastic
    releases refreshes from idle gaps (postponed) as well as at its backlog
    cap (forced); its event-driven wake must match a policy call per cycle."""
    workload = WorkloadSpec(kind="random", footprint=32 << 20,
                            read_fraction=1.0, intensity=40.0)
    runs = [run("elastic", always_scan=scan, default_workload=workload)
            for scan in (False, True)]
    assert signature(*runs[0]) == signature(*runs[1])
    categories = {r.category for r in runs[0][0].refresh_logs()[0]}
    assert {"postponed", "forced"} <= categories


@pytest.mark.parametrize("always_scan", (False, True))
def test_always_scan_is_cycle_by_cycle(always_scan):
    """always_scan, set after the Simulation is built, gives a policy call
    and a scheduling pass on every cycle; without it both follow events."""
    cycles = 3000
    sim = Simulation(small_config("elastic", warmup_cycles=0,
                                  measured_cycles=cycles))
    policy_calls, passes = [], []
    ctrl, = sim.controllers
    ctrl.always_scan = always_scan
    on_cycle, full_pass = ctrl.policy.on_cycle, ctrl._full_pass
    ctrl.policy.on_cycle = lambda now, c: (policy_calls.append(now),
                                           on_cycle(now, c))
    ctrl._full_pass = lambda now: (passes.append(now), full_pass(now))[1]
    sim.run()
    if always_scan:
        assert policy_calls == passes == list(range(cycles))
    else:
        assert len(policy_calls) < cycles and len(passes) < cycles


@pytest.mark.parametrize("policy", ("ab", "darp", "dsarp"))
def test_same_seed_bit_identical(policy):
    assert signature(*run(policy, seed=11)) == signature(*run(policy, seed=11))


def test_different_seed_differs():
    assert signature(*run("darp", seed=1)) != signature(*run("darp", seed=2))


@pytest.mark.parametrize("policy,sarp", [("pb", False), ("dsarp", True),
                                         ("ab", False), ("sarp-ab", True)])
def test_full_run_command_history_is_legal(policy, sarp):
    cfg = small_config(policy, measured_cycles=20000)
    sim = Simulation(cfg, enable_cmd_log=True)
    stats = sim.run()
    assert stats.n_act > 0
    timing = sim.timing
    for engine in sim.engines:
        history = commands_from_log(engine.cmd_log)
        violations = oracle_check(history, cfg.geometry, timing,
                                  sarp_enabled=sarp)
        assert violations == []


def test_adaptive_refresh_switches_modes_under_light_load():
    cfg = small_config("ar", measured_cycles=60000,
                       default_workload=WorkloadSpec(kind="random",
                                                     footprint=32 << 20,
                                                     read_fraction=0.6,
                                                     intensity=300.0))
    sim = Simulation(cfg)
    sim.run()
    rows = {rec.rows for log in sim.refresh_logs() for rec in log}
    assert len(rows) == 2, "adaptive policy never used its fine-grained mode"


def test_fgr_variants_change_refresh_cadence():
    _, base = run("ab")
    _, fgr4 = run("fgr4x")
    assert fgr4.n_refab > 3 * base.n_refab
    assert fgr4.refab_cycles < 4 * base.refab_cycles  # tRFC shrinks per command


def test_sarp_reduces_read_latency_vs_baseline():
    _, pb = run("pb")
    _, sarp_pb = run("sarp-pb")
    assert sarp_pb.sarp_parallel_accesses > 0
    assert sarp_pb.avg_read_latency < pb.avg_read_latency


def test_shadow_counters_track_device_over_full_runs():
    """A controller can shadow the device's refresh counters from the REFs
    it issues: after a full run each bank's counters are what the rows in
    its refresh log add up to."""
    for policy in ("sarp-pb", "dsarp", "sarp-ab"):
        sim, _ = run(policy)
        geo = sim.config.geometry
        rps = geo.rows_per_subarray
        for ctrl, log in zip(sim.controllers, sim.refresh_logs()):
            rows = {}
            for rec in log:
                banks = range(geo.banks_per_rank) if rec.kind == REFAB else (rec.bank,)
                for bi in banks:
                    rows[rec.rank, bi] = rows.get((rec.rank, bi), 0) + rec.rows
            assert len(rows) == geo.ranks_per_channel * geo.banks_per_rank
            for (ri, bi), n in rows.items():
                bank = ctrl.engine.bank_state(ri, bi)
                assert (bank.ref_sa, bank.ref_row) == \
                    ((n // rps) % geo.subarrays_per_bank, n % rps)


def test_ipc_ceiling_and_bounded_latency():
    for policy in ("noref", "dsarp"):
        sim, stats = run(policy)
        assert all(stats.ipc(i) <= 3.0 for i in range(len(sim.cores)))
        assert stats.read_latency_hist
        assert max(stats.read_latency_hist) < 10 ** 6


def test_build_timing_uses_fgr_variant():
    cfg = small_config("fgr2x")
    timing = build_timing(cfg)
    base = build_timing(small_config("ab"))
    assert timing.tREFIab == base.tREFIab // 2
    assert timing.tRFCab < base.tRFCab


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_simulation_follows_policy_registry(policy):
    """A policy's registry row decides its refresh scope, SARP mode, FGR
    interval and scheduler class."""
    row = POLICIES[policy]
    cfg = small_config(policy)
    sim = Simulation(cfg)
    sim.run()
    kinds = {rec.kind for log in sim.refresh_logs() for rec in log}
    assert kinds == {"ab": {REFAB}, "pb": {REFPB}, None: set()}[row.scope]
    assert [eng.sarp_enabled for eng in sim.engines] == [row.sarp]
    base = derive_timing(cfg.profile(), cfg.geometry, cfg.raw_timings,
                         cfg.currents, policy)
    assert sim.timing.tREFIab == base.tREFIab // FGR_RATE[row.fgr]
    scheduler = getattr(refresh, row.scheduler)
    assert type(refresh.make_policy(policy, cfg.geometry, sim.timing)) is scheduler
    assert all(type(ctrl.policy) is scheduler for ctrl in sim.controllers)
