import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from refsim.errors import ConfigError
from refsim.timing import (
    CurrentParams,
    DensityProfile,
    DramGeometry,
    RawTimings,
    derive_timing,
    fgr_timing,
    fgr_worst_case_inflation,
    ns_to_cycles,
    power_overhead_faw,
    rows_per_refresh,
)


GEO = DramGeometry()
RAW = RawTimings()
CUR = CurrentParams()


def timing_for(density=32, mode="ab", retention=32.0):
    return derive_timing(DensityProfile.for_density(density, retention), GEO, RAW, CUR, mode)


class TestNsToCycles:
    def test_rfc_8gb(self):
        assert ns_to_cycles(350, 1.5) == 234

    def test_zero_duration(self):
        assert ns_to_cycles(0, 1.5) == 0

    def test_rfc_32gb(self):
        assert ns_to_cycles(890, 1.5) == 594

    def test_exact_multiple_not_inflated(self):
        assert ns_to_cycles(36.0, 1.5) == 24
        assert ns_to_cycles(4.5, 1.5) == 3

    def test_bad_tck(self):
        with pytest.raises(ConfigError):
            ns_to_cycles(10, 0)
        with pytest.raises(ConfigError):
            ns_to_cycles(10, -1.5)

    def test_negative_duration(self):
        with pytest.raises(ConfigError):
            ns_to_cycles(-1, 1.5)


class TestPowerOverhead:
    def test_all_bank(self):
        assert power_overhead_faw(100, 440) == pytest.approx(2.1)

    def test_zero_refresh_current(self):
        assert power_overhead_faw(100, 0) == 1.0

    def test_per_bank(self):
        assert power_overhead_faw(100, 55.2) == pytest.approx(1.138)

    def test_bad_act_current(self):
        with pytest.raises(ConfigError):
            power_overhead_faw(0, 100)

    def test_paper_current_consistency(self):
        # With per-bank current at 1/8 of all-bank, the same i_act yields
        # 2.1x (all-bank) and ~1.138x (per-bank).
        i_act, i_ref_ab = 100.0, 440.0
        assert power_overhead_faw(i_act, i_ref_ab) == pytest.approx(2.1)
        assert power_overhead_faw(i_act, i_ref_ab / 8) == pytest.approx(1.138, abs=0.005)


class TestDeriveTiming:
    def test_per_bank_rfc_8gb(self):
        t = timing_for(8)
        assert t.tRFCpb_ns == pytest.approx(152.17, abs=0.01)
        assert t.tRFCpb == 102

    def test_rfc_32gb(self):
        t = timing_for(32)
        assert t.tRFCab == 594

    def test_trefi_from_retention(self):
        t = timing_for(32)
        assert t.tREFIab_ns == pytest.approx(3906.25)  # ~3.9 us
        assert t.tREFIab == 2605
        assert t.tREFIpb == t.tREFIab // GEO.banks_per_rank

    def test_retention_64ms(self):
        t = timing_for(32, retention=64.0)
        assert t.tREFIab_ns == pytest.approx(7812.5)  # ~7.8 us per-bank period

    def test_unknown_density(self):
        with pytest.raises(ConfigError):
            DensityProfile.for_density(12)

    def test_ref_scaled_windows(self):
        ab = timing_for(32, "ab")
        pb = timing_for(32, "pb")
        noref = timing_for(32, "noref")
        assert ab.tFAW_ref == ns_to_cycles(30.0 * 2.1, 1.5)
        assert pb.tFAW_ref == ns_to_cycles(30.0 * 1.1375, 1.5)
        assert noref.tFAW_ref == noref.tFAW
        assert ab.tRRD_ref >= ab.tRRD and pb.tRRD_ref >= pb.tRRD

    def test_per_bank_serialization_cost(self):
        # banks * tRFCpb ~= 3.478 * tRFCab
        t = timing_for(32)
        ratio = GEO.banks_per_rank * t.tRFCpb_ns / t.tRFCab_ns
        assert ratio == pytest.approx(3.478, abs=0.01)

    @pytest.mark.parametrize("mode", ["ab", "pb", "noref", "dsarp", "fgr4x"])
    def test_monotone_in_density(self, mode):
        fields = ("tRFCab", "tRFCpb")
        prev = None
        for density in (8, 16, 32):
            t = timing_for(density, mode)
            if prev is not None:
                for f in fields:
                    assert getattr(t, f) >= getattr(prev, f)
            prev = t

    def test_rows_per_ref_default(self):
        assert timing_for(32).rows_per_ref == 8


class TestRowsPerRefresh:
    def test_default_config(self):
        assert rows_per_refresh(GEO, 32.0, 3906.25) == 8

    def test_64ms_same_ratio(self):
        assert rows_per_refresh(GEO, 64.0, 7812.5) == 8

    def test_single_row_bank(self):
        geo = DramGeometry(rows_per_bank=1, subarrays_per_bank=1)
        assert rows_per_refresh(geo, 32.0, 3906.25) == 1


class TestFgr:
    def test_identity(self):
        t = timing_for(32)
        assert fgr_timing(t, "1x") is t
        assert fgr_timing(fgr_timing(t, "1x"), "1x") == t

    def test_4x_values(self):
        t = fgr_timing(timing_for(32), "4x")
        assert t.tRFCab_ns == pytest.approx(546.0, abs=0.1)
        assert t.tREFIab_ns == pytest.approx(976.5625)  # 3.9 us / 4
        assert t.rows_per_ref == 2

    def test_2x_values(self):
        base = timing_for(32)
        t = fgr_timing(base, "2x")
        assert t.tRFCab_ns == pytest.approx(890 / 1.35)
        assert t.tREFIab == base.tREFIab // 2
        assert t.rows_per_ref == 4

    def test_worst_case_inflation(self):
        base = timing_for(32)
        assert fgr_worst_case_inflation(base, "2x") == pytest.approx(1.48, abs=0.01)
        assert fgr_worst_case_inflation(base, "4x") == pytest.approx(2.45, abs=0.01)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            fgr_timing(timing_for(32), "8x")

    def test_only_refresh_fields_change(self):
        changed = {"tRFCab", "tREFIab", "tREFIpb", "tRFCab_ns", "tREFIab_ns",
                   "rows_per_ref"}
        base = timing_for(32)
        for mode in ("2x", "4x"):
            v = fgr_timing(base, mode)
            for f in dataclasses.fields(base):
                if f.name not in changed:
                    assert getattr(v, f.name) == getattr(base, f.name), (mode, f.name)

    def test_interval_never_lengthened(self):
        # A shorter interval is retention-safe; a longer one is not.
        base = timing_for(32)
        for mode, rate in (("2x", 2), ("4x", 4)):
            v = fgr_timing(base, mode)
            assert v.tREFIab * rate <= base.tREFIab


class TestGeometryValidation:
    def test_defaults_ok(self):
        g = DramGeometry()
        assert g.rows_per_subarray == 8192

    def test_non_pow2_banks(self):
        with pytest.raises(ConfigError):
            DramGeometry(banks_per_rank=6)

    def test_zero_channels(self):
        with pytest.raises(ConfigError):
            DramGeometry(channels=0)

    def test_rows_not_divisible(self):
        with pytest.raises(ConfigError):
            DramGeometry(rows_per_bank=16, subarrays_per_bank=32)


class TestCurrentValidation:
    def test_pb_above_ab_rejected(self):
        with pytest.raises(ConfigError):
            CurrentParams(i_ref_ab=50, i_ref_pb=60)

    def test_negative_current(self):
        with pytest.raises(ConfigError):
            CurrentParams(i_act=-1)


@given(trfc=st.floats(min_value=50, max_value=2000))
def test_derive_monotone_in_trfc(trfc):
    lo = derive_timing(DensityProfile(8, trfc), GEO, RAW, CUR, "ab")
    hi = derive_timing(DensityProfile(8, trfc * 1.5), GEO, RAW, CUR, "ab")
    assert hi.tRFCab >= lo.tRFCab
    assert hi.tRFCpb >= lo.tRFCpb


@given(ns=st.floats(min_value=0, max_value=1e7),
       tck=st.floats(min_value=0.1, max_value=10))
def test_ns_to_cycles_never_shortens(ns, tck):
    c = ns_to_cycles(ns, tck)
    assert c * tck >= ns - 1e-6 * max(1.0, ns)
    assert c >= 0
