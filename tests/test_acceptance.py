"""Acceptance suite: every exit criterion as a test, at its stated
tolerance.  The conftest hook prints one PASS/FAIL line per criterion."""

import random

import pytest

from refsim.config import SimConfig, WorkloadSpec
from refsim.engine import REFAB, REFPB, TimingEngine, advance_refresh_counters
from refsim.experiment import rows_to_csv, run_cell, run_experiment
from refsim.oracle import oracle_check
from refsim.refresh import retention_audit
from refsim.simulation import Simulation, build_timing
from refsim.timing import (
    CurrentParams,
    DensityProfile,
    DramGeometry,
    POLICIES,
    POLICY_KINDS,
    RawTimings,
    derive_timing,
    fgr_worst_case_inflation,
    power_overhead_faw,
)

from helpers import planted_fault_histories, random_stimulus

CRITERIA = {
    1: "FGR worst-case refresh-latency arithmetic",
    2: "activation-window power-overhead arithmetic",
    3: "per-bank refresh serialization identity",
    4: "refresh integrity audit over 20M-cycle runs",
    5: "timing-engine/oracle equivalence",
    6: "refresh-credit bound and conservation fuzz",
    7: "directional weighted-speedup reproduction",
    8: "subarray conflict statistics",
    9: "sweep determinism",
}

TABLE1_GEO = DramGeometry()


def table1_timing(density=32, mode="ab"):
    return derive_timing(DensityProfile.for_density(density), TABLE1_GEO,
                         RawTimings(), CurrentParams(), mode)


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_fgr_arithmetic():
    base = table1_timing(32)
    assert base.tRFCab_ns == 890.0
    assert fgr_worst_case_inflation(base, "2x") == pytest.approx(1.48, abs=0.01)
    assert fgr_worst_case_inflation(base, "4x") == pytest.approx(2.45, abs=0.01)


# -- criterion 2 ------------------------------------------------------------

def test_criterion_2_power_overhead():
    i_act, i_ref_ab = 100.0, 440.0
    assert power_overhead_faw(i_act, i_ref_ab) == pytest.approx(2.1, abs=1e-9)
    assert power_overhead_faw(i_act, i_ref_ab / 8) == pytest.approx(1.138, abs=0.005)


# -- criterion 3 ------------------------------------------------------------

@pytest.mark.parametrize("density", (8, 16, 32))
def test_criterion_3_serialization_identity(density):
    t = table1_timing(density)
    ratio = TABLE1_GEO.banks_per_rank * t.tRFCpb_ns / t.tRFCab_ns
    assert ratio == pytest.approx(3.478, abs=0.01)


# -- criterion 4 ------------------------------------------------------------

AUDIT_CYCLES = 20_000_000
ADVERSARIAL = ("darp", "dsarp")
REFRESH_POLICIES = tuple(k for k, row in POLICIES.items() if row.scope)


def audit_config(policy):
    if policy in ADVERSARIAL:
        workload = WorkloadSpec(kind="random", footprint=64 << 20,
                                read_fraction=0.2, intensity=12.0)
        cores = 2
    else:
        workload = WorkloadSpec(kind="random", footprint=64 << 20,
                                read_fraction=0.6, intensity=100.0)
        cores = 1
    return SimConfig(policy=policy, density=32, cores=cores, seed=2,
                     geometry=DramGeometry(channels=1, ranks_per_channel=1),
                     warmup_cycles=0, measured_cycles=AUDIT_CYCLES,
                     default_workload=workload)


@pytest.mark.parametrize("policy", REFRESH_POLICIES)
def test_criterion_4_refresh_integrity(policy):
    cfg = audit_config(policy)
    sim = Simulation(cfg)
    stats = sim.run()
    assert stats.refresh_total > 0
    base_slack = 8 * table1_timing(32).tREFIab
    for log in sim.refresh_logs():
        report = retention_audit(log, cfg.geometry, sim.timing, sim.now)
        assert report.violations == []
        assert report.max_lateness <= base_slack


# -- criterion 5 ------------------------------------------------------------

ORACLE_COMMANDS = 100_000


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_criterion_5_oracle_equivalence(policy):
    geo = DramGeometry(channels=1, ranks_per_channel=2, rows_per_bank=1024)
    cfg = SimConfig(policy=policy, density=32, geometry=geo, cores=1,
                    measured_cycles=1)
    timing = build_timing(cfg)
    row = POLICIES[policy]
    sarp = row.sarp
    refresh_kind = {"ab": REFAB, "pb": REFPB, None: None}[row.scope]
    engine = TimingEngine(geo, timing, sarp_enabled=sarp)
    history = random_stimulus(engine, random.Random(17), ORACLE_COMMANDS,
                              refresh_kind)
    assert len(history) == ORACLE_COMMANDS
    if refresh_kind == REFAB:
        assert sum(cmd.kind == REFAB for cmd, _ in history) >= 10
    violations = oracle_check(history, geo, timing, sarp_enabled=sarp)
    assert violations == []


def test_criterion_5_planted_faults():
    from helpers import planted_fault_timing, small_geometry
    cases = planted_fault_histories()
    assert len(cases) == 19
    for name, rule, cmds, sarp in cases:
        violations = oracle_check(cmds, small_geometry(), planted_fault_timing(),
                                  sarp_enabled=sarp)
        assert violations, f"planted fault not caught: {name}"
        assert violations[0].rule == rule


# -- criterion 6 ------------------------------------------------------------

def test_criterion_6_credit_fuzz():
    from helpers import small_geometry, small_timing
    from test_refresh import FakeCtrl
    geo = small_geometry()          # 2 ranks x 8 banks
    nb = geo.banks_per_rank
    trefi_pb = 4
    timing = small_timing(tREFIpb=trefi_pb, tRFCpb=2, tRFCab=3, tREFIab=32,
                          rows_per_ref=1)
    ctrl = FakeCtrl(geo, timing, "darp", seed=23)
    pol = ctrl.policy
    rng = random.Random(41)
    issued_seen = [[0] * nb for _ in range(2)]
    boundaries = 0
    t = 0
    log_len = 0
    while boundaries < 1_000_000:
        t += 1
        if rng.random() < 0.25:
            ctrl.demand[rng.randrange(2)][rng.randrange(nb)] = \
                rng.choice((0, 0, 1, 5))
        ctrl.writeback_active = rng.random() < 0.25
        ctrl.step(t)
        if rng.random() < 0.5:
            pol.opportunistic(t, ctrl)
        for rec in ctrl.log[log_len:]:
            issued_seen[rec.rank][rec.bank] += 1
        log_len = len(ctrl.log)
        if t % trefi_pb == 0:
            slots = t // trefi_pb            # boundaries at k*tREFIpb
            boundaries += 2                  # one per rank this cycle
            full, rem = divmod(slots, nb)
            for ri in range(2):
                for b in range(nb):
                    scheduled = full + (1 if b < rem else 0)
                    credit = pol.credit(ri, b)
                    assert -8 <= credit <= 8
                    assert credit == issued_seen[ri][b] - scheduled
    assert sum(map(sum, issued_seen)) > 0


# -- criterion 7 ------------------------------------------------------------

SWEEP_POLICIES = ("noref", "ab", "pb", "dsarp", "fgr4x")
SWEEP_DENSITIES = (8, 16, 32)


def sweep_config(policy, density):
    # 8-core memory-intensive mix, random-access dominant (6 random + 2
    # streaming cores), 2 channels, evaluated-system defaults elsewhere.
    workloads = {i: WorkloadSpec(kind="stream", footprint=8 << 20, stride=64)
                 for i in (3, 7)}
    return SimConfig(policy=policy, density=density, cores=8, seed=1,
                     warmup_cycles=15_000, measured_cycles=150_000,
                     workloads=workloads,
                     default_workload=WorkloadSpec(kind="random",
                                                   footprint=64 << 20,
                                                   read_fraction=0.7,
                                                   intensity=8.0))


@pytest.fixture(scope="session")
def sweep_ws():
    cache = {}
    ws = {}
    for policy in SWEEP_POLICIES:
        for density in SWEEP_DENSITIES:
            row, _, _ = run_cell(sweep_config(policy, density), cache)
            ws[(policy, density)] = row["ws"]
    return ws


def test_criterion_7a_ideal_upper_bound(sweep_ws):
    for policy in SWEEP_POLICIES:
        for density in SWEEP_DENSITIES:
            assert sweep_ws[("noref", density)] >= sweep_ws[(policy, density)]


def test_criterion_7b_policy_ordering(sweep_ws):
    for density in (16, 32):
        assert (sweep_ws[("dsarp", density)] > sweep_ws[("pb", density)]
                > sweep_ws[("ab", density)])


def test_criterion_7c_all_bank_loss_grows_with_density(sweep_ws):
    losses = [1 - sweep_ws[("ab", d)] / sweep_ws[("noref", d)]
              for d in SWEEP_DENSITIES]
    assert losses[0] < losses[1] < losses[2]


def test_criterion_7d_dsarp_recovers_most_of_the_gap(sweep_ws):
    gap = sweep_ws[("noref", 32)] - sweep_ws[("ab", 32)]
    assert gap > 0
    recovered = sweep_ws[("dsarp", 32)] - sweep_ws[("ab", 32)]
    assert recovered / gap >= 0.60


def test_criterion_7e_fgr4x_below_all_bank(sweep_ws):
    assert sweep_ws[("fgr4x", 32)] < sweep_ws[("ab", 32)]


# -- criterion 8 ------------------------------------------------------------

@pytest.mark.parametrize("subarrays,expected", [(8, 1 / 8), (16, 1 / 16)])
def test_criterion_8_subarray_conflict_frequency(subarrays, expected):
    geo = DramGeometry(subarrays_per_bank=subarrays)
    rng = random.Random(29)
    sa, local_row = 0, 0
    conflicts = 0
    samples = 150_000
    for i in range(samples):
        if i % 9 == 0:
            sa, local_row = advance_refresh_counters(sa, local_row, 8, geo)
        if rng.randrange(geo.rows_per_bank) // geo.rows_per_subarray == sa:
            conflicts += 1
    assert conflicts / samples == pytest.approx(expected, abs=0.02)


# -- criterion 9 ------------------------------------------------------------

def test_criterion_9_sweep_determinism():
    def one_sweep():
        cfg = SimConfig(policy="ab", density=32, cores=2, seed=77,
                        geometry=DramGeometry(channels=1, ranks_per_channel=1),
                        warmup_cycles=1_000, measured_cycles=12_000,
                        default_workload=WorkloadSpec(kind="random",
                                                      footprint=16 << 20,
                                                      read_fraction=0.6,
                                                      intensity=8.0))
        rows, solos = run_experiment(cfg, policies=list(POLICY_KINDS),
                                     densities=[32])
        return (rows_to_csv(rows)
                + rows_to_csv(solos, ("density_gbit", "core", "workload",
                                      "seed", "alone_ipc")))
    first = one_sweep()
    second = one_sweep()
    assert first.encode() == second.encode()
    assert len(first.splitlines()) == len(POLICY_KINDS) + 2 + 2
