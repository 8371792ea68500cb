"""DRAM organization and derivation of timing/current parameters.

All timing constraints are kept in integer controller cycles; the raw
nanosecond datasheet values live in RawTimings and are converted once at
setup.  Refresh-latency fields additionally keep their nanosecond values
because the fine-granularity-refresh variants are derived in the ns domain
before re-rounding.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError

# Refresh commands per retention window (JEDEC-style 8K slots).
REFRESH_SLOTS = 8192
# All-bank to per-bank refresh latency ratio.
PER_BANK_TRFC_RATIO = 2.3

# Default per-density all-bank refresh latencies (ns).
DENSITY_TRFC_NS = {8: 350.0, 16: 530.0, 32: 890.0}

# Fine-granularity refresh: tRFC shrinks by these divisors while the
# refresh rate rises 2x/4x.
FGR_TRFC_DIVISOR = {"1x": 1.0, "2x": 1.35, "4x": 1.63}
FGR_RATE = {"1x": 1, "2x": 2, "4x": 4}


@dataclass(frozen=True)
class Policy:
    """One refresh policy: the refresh.py scheduler class it runs, the
    scope of its refresh commands ("ab" all-bank, "pb" per-bank, None for
    no refresh), whether subarray-level refresh-access parallelism is on,
    and its fine-granularity refresh mode."""
    scheduler: str
    scope: str | None
    sarp: bool = False
    fgr: str = "1x"


POLICIES = {
    "ab": Policy("AllBankPolicy", "ab"),
    "pb": Policy("PerBankRoundRobinPolicy", "pb"),
    "elastic": Policy("ElasticAllBankPolicy", "ab"),
    "darp": Policy("OutOfOrderPerBankPolicy", "pb"),
    "sarp-ab": Policy("AllBankPolicy", "ab", sarp=True),
    "sarp-pb": Policy("PerBankRoundRobinPolicy", "pb", sarp=True),
    "dsarp": Policy("OutOfOrderPerBankPolicy", "pb", sarp=True),
    "fgr2x": Policy("AllBankPolicy", "ab", fgr="2x"),
    "fgr4x": Policy("AllBankPolicy", "ab", fgr="4x"),
    "ar": Policy("AdaptiveRefreshPolicy", "ab"),
    "noref": Policy("RefreshPolicy", None),
}
# Views of the registry.
POLICY_KINDS = tuple(POLICIES)
PER_BANK_POLICIES = frozenset(k for k, p in POLICIES.items() if p.scope == "pb")
SARP_POLICIES = frozenset(k for k, p in POLICIES.items() if p.sarp)


def policy_row(kind: str) -> Policy:
    """The registry row of a policy kind; ConfigError for an unknown one."""
    if kind not in POLICIES:
        raise ConfigError(
            f"invalid value for key 'policy': {kind!r} "
            f"(choose from {', '.join(POLICY_KINDS)})")
    return POLICIES[kind]


_EPS = 1e-9


def ns_to_cycles(duration_ns: float, tck_ns: float) -> int:
    """Convert a duration to controller cycles, rounding up.

    Ceiling rounding guarantees a converted constraint is never shorter
    than its nanosecond specification.
    """
    if tck_ns <= 0:
        raise ConfigError(f"tCK must be positive, got {tck_ns}")
    if duration_ns < 0:
        raise ConfigError(f"duration must be non-negative, got {duration_ns}")
    return math.ceil(duration_ns / tck_ns - _EPS)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DramGeometry:
    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    subarrays_per_bank: int = 8
    rows_per_bank: int = 65536
    columns_per_row: int = 128
    cacheline_bytes: int = 64

    def __post_init__(self):
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "subarrays_per_bank", "rows_per_bank", "columns_per_row",
                     "cacheline_bytes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"geometry field {name} must be >= 1")
        for name in ("banks_per_rank", "subarrays_per_bank", "rows_per_bank"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigError(f"geometry field {name} must be a power of two")
        if self.rows_per_bank % self.subarrays_per_bank != 0:
            raise ConfigError("rows_per_bank must be divisible by subarrays_per_bank")

    @property
    def rows_per_subarray(self) -> int:
        return self.rows_per_bank // self.subarrays_per_bank


@dataclass(frozen=True)
class RawTimings:
    """DDR3-1333-class datasheet values in nanoseconds (config-overridable)."""
    tCK_ns: float = 1.5
    tRCD_ns: float = 13.5
    tRP_ns: float = 13.5
    tCL_ns: float = 13.5
    tCWL_ns: float = 10.5
    tRAS_ns: float = 36.0
    tRRD_ns: float = 6.0
    tFAW_ns: float = 30.0
    tWTR_ns: float = 7.5
    tRTW_ns: float | None = None   # derived from tCL/tBURST/tCWL when absent
    tBURST_cycles: int = 4


@dataclass(frozen=True)
class CurrentParams:
    """Current draws (mA) and supply voltage for the energy model.

    Defaults are an arbitrary-scale set chosen so that the activation-window
    overhead comes out at 2.1x for all-bank refresh and 13.8% for per-bank
    refresh; real IDD values are config inputs.
    """
    i_act: float = 100.0
    i_ref_ab: float = 440.0
    i_ref_pb: float = 55.0
    i_bg_active: float = 45.0
    i_bg_precharged: float = 25.0
    i_rd: float = 90.0
    i_wr: float = 95.0
    vdd: float = 1.5

    def __post_init__(self):
        for name in ("i_act", "i_ref_ab", "i_ref_pb", "i_bg_active",
                     "i_bg_precharged", "i_rd", "i_wr", "vdd"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"current field {name} must be positive")
        if self.i_ref_pb > self.i_ref_ab:
            raise ConfigError("i_ref_pb must not exceed i_ref_ab")


@dataclass(frozen=True)
class DensityProfile:
    density_gbit: int
    tRFCab_ns: float
    retention_ms: float = 32.0

    @classmethod
    def for_density(cls, density_gbit: int, retention_ms: float = 32.0) -> "DensityProfile":
        if density_gbit not in DENSITY_TRFC_NS:
            raise ConfigError(
                f"unknown density {density_gbit} Gb (supported: "
                f"{sorted(DENSITY_TRFC_NS)})")
        return cls(density_gbit, DENSITY_TRFC_NS[density_gbit], retention_ms)


@dataclass(frozen=True)
class TimingParams:
    """All DRAM timing constraints in integer controller cycles.

    tFAW_ref/tRRD_ref are the scaled activate constraints enforced while a
    refresh overlaps the rank.  The *_ns mirror fields keep the unrounded
    refresh latencies/intervals for FGR derivation and reporting.
    """
    tCK_ns: float
    tRCD: int
    tRP: int
    tCL: int
    tCWL: int
    tRAS: int
    tRC: int
    tRRD: int
    tFAW: int
    tWTR: int
    tRTW: int
    tBURST: int
    tRFCab: int
    tRFCpb: int
    tREFIab: int
    tREFIpb: int
    tFAW_ref: int
    tRRD_ref: int
    tRFCab_ns: float
    tRFCpb_ns: float
    tREFIab_ns: float
    retention_ms: float
    rows_per_ref: int

    def __post_init__(self):
        for name in ("tRCD", "tRP", "tCL", "tCWL", "tRAS", "tRC", "tRRD",
                     "tFAW", "tWTR", "tRTW", "tBURST", "tRFCab", "tRFCpb",
                     "tREFIab", "tREFIpb", "tFAW_ref", "tRRD_ref", "rows_per_ref"):
            if getattr(self, name) < 1:
                raise ConfigError(f"timing field {name} must be >= 1 cycle")
        if self.tFAW < self.tRRD:
            raise ConfigError("tFAW must be >= tRRD")
        if self.tFAW_ref < self.tFAW or self.tRRD_ref < self.tRRD:
            raise ConfigError("refresh-scaled tFAW/tRRD must not be below base values")
        if self.tRFCpb >= self.tRFCab:
            raise ConfigError("tRFCpb must be < tRFCab")
        if self.tREFIpb > self.tREFIab:
            raise ConfigError("tREFIpb must be <= tREFIab")

    @property
    def retention_cycles(self) -> int:
        return int(self.retention_ms * 1e6 / self.tCK_ns)


def power_overhead_faw(i_act: float, i_ref: float) -> float:
    """Activation-rate overhead of running a refresh inside a four-activate
    window: (4*i_act + i_ref) / (4*i_act)."""
    if i_act <= 0:
        raise ConfigError(f"i_act must be positive, got {i_act}")
    if i_ref < 0:
        raise ConfigError(f"i_ref must be non-negative, got {i_ref}")
    return (4.0 * i_act + i_ref) / (4.0 * i_act)


def rows_per_refresh(geometry: DramGeometry, retention_ms: float, trefi_ab_ns: float) -> int:
    """Rows covered by one refresh command so the whole bank is swept once
    per retention window.  Uses the unrounded interval to avoid inflating
    the count through cycle quantization."""
    if retention_ms <= 0 or trefi_ab_ns <= 0:
        raise ConfigError("retention and refresh interval must be positive")
    ratio = geometry.rows_per_bank * trefi_ab_ns / (retention_ms * 1e6)
    return max(1, math.ceil(ratio - _EPS))


def refresh_current_for_mode(currents: CurrentParams, refresh_mode: str) -> float:
    """Refresh current draw relevant to a policy kind (0 for no-refresh)."""
    scope = policy_row(refresh_mode).scope
    if scope is None:
        return 0.0
    return currents.i_ref_pb if scope == "pb" else currents.i_ref_ab


def derive_timing(profile: DensityProfile, geometry: DramGeometry,
                  base: RawTimings, currents: CurrentParams,
                  refresh_mode: str = "ab") -> TimingParams:
    """Build the full cycle-domain timing set for one density/policy pair."""
    tck = base.tCK_ns
    trfc_ab_ns = profile.tRFCab_ns
    trfc_pb_ns = trfc_ab_ns / PER_BANK_TRFC_RATIO
    trefi_ab_ns = profile.retention_ms * 1e6 / REFRESH_SLOTS

    trefi_ab = ns_to_cycles(trefi_ab_ns, tck)
    # Per-bank commands are spaced tREFIab/banks apart; integer floor keeps
    # the per-bank period at or below tREFIab so refreshes never fall behind.
    trefi_pb = max(1, trefi_ab // geometry.banks_per_rank)

    overhead = power_overhead_faw(
        currents.i_act, refresh_current_for_mode(currents, refresh_mode))
    tfaw = ns_to_cycles(base.tFAW_ns, tck)
    trrd = ns_to_cycles(base.tRRD_ns, tck)

    tcl = ns_to_cycles(base.tCL_ns, tck)
    tcwl = ns_to_cycles(base.tCWL_ns, tck)
    tburst = base.tBURST_cycles
    if base.tRTW_ns is not None:
        trtw = ns_to_cycles(base.tRTW_ns, tck)
    else:
        trtw = max(1, tcl + tburst + 2 - tcwl)

    return TimingParams(
        tCK_ns=tck,
        tRCD=ns_to_cycles(base.tRCD_ns, tck),
        tRP=ns_to_cycles(base.tRP_ns, tck),
        tCL=tcl,
        tCWL=tcwl,
        tRAS=ns_to_cycles(base.tRAS_ns, tck),
        tRC=ns_to_cycles(base.tRAS_ns + base.tRP_ns, tck),
        tRRD=trrd,
        tFAW=tfaw,
        tWTR=ns_to_cycles(base.tWTR_ns, tck),
        tRTW=trtw,
        tBURST=tburst,
        tRFCab=ns_to_cycles(trfc_ab_ns, tck),
        tRFCpb=ns_to_cycles(trfc_pb_ns, tck),
        tREFIab=trefi_ab,
        tREFIpb=trefi_pb,
        tFAW_ref=max(tfaw, ns_to_cycles(base.tFAW_ns * overhead, tck)),
        tRRD_ref=max(trrd, ns_to_cycles(base.tRRD_ns * overhead, tck)),
        tRFCab_ns=trfc_ab_ns,
        tRFCpb_ns=trfc_pb_ns,
        tREFIab_ns=trefi_ab_ns,
        retention_ms=profile.retention_ms,
        rows_per_ref=rows_per_refresh(geometry, profile.retention_ms, trefi_ab_ns),
    )


def fgr_timing(base: TimingParams, mode: str) -> TimingParams:
    """Fine-granularity variant of an all-bank timing set.

    2x/4x modes raise the refresh rate while tRFC shrinks by only
    1.35x/1.63x.  The interval is divided in the cycle domain with floor
    (an early refresh is always retention-safe); the latency is re-derived
    from nanoseconds with ceiling.
    """
    if mode not in FGR_RATE:
        raise ConfigError(f"unknown FGR mode {mode!r} (use 1x/2x/4x)")
    if mode == "1x":
        return base
    rate = FGR_RATE[mode]
    divisor = FGR_TRFC_DIVISOR[mode]
    trfc_ns = base.tRFCab_ns / divisor
    return TimingParams(
        tCK_ns=base.tCK_ns,
        tRCD=base.tRCD, tRP=base.tRP, tCL=base.tCL, tCWL=base.tCWL,
        tRAS=base.tRAS, tRC=base.tRC, tRRD=base.tRRD, tFAW=base.tFAW,
        tWTR=base.tWTR, tRTW=base.tRTW, tBURST=base.tBURST,
        tRFCab=ns_to_cycles(trfc_ns, base.tCK_ns),
        tRFCpb=base.tRFCpb,
        tREFIab=max(1, base.tREFIab // rate),
        tREFIpb=min(base.tREFIpb, max(1, base.tREFIab // rate)),
        tFAW_ref=base.tFAW_ref, tRRD_ref=base.tRRD_ref,
        tRFCab_ns=trfc_ns,
        tRFCpb_ns=base.tRFCpb_ns,
        tREFIab_ns=base.tREFIab_ns / rate,
        retention_ms=base.retention_ms,
        rows_per_ref=max(1, math.ceil(base.rows_per_ref / rate)),
    )


def fgr_worst_case_inflation(base: TimingParams, mode: str) -> float:
    """Worst-case refresh time per original tREFIab window, relative to the
    1x mode: rate * tRFC(mode) / tRFC(1x)."""
    variant = fgr_timing(base, mode)
    return FGR_RATE[mode] * variant.tRFCab_ns / base.tRFCab_ns
