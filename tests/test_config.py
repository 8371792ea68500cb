from dataclasses import fields

import pytest

from refsim.config import (
    SimConfig, WorkloadSpec, load_config, parse_config, parse_size, parse_workload_spec,
)
from refsim.errors import ConfigError
from refsim.timing import CurrentParams, DramGeometry, RawTimings


class TestParseSize:
    def test_suffixes(self):
        assert parse_size("64MiB") == 64 << 20
        assert parse_size("4kib") == 4096
        assert parse_size("1GiB") == 1 << 30
        assert parse_size("512") == 512


class TestWorkloadSpec:
    def test_random_spec(self):
        spec = parse_workload_spec("random footprint=8MiB read_fraction=0.9 intensity=12")
        assert spec.kind == "random"
        assert spec.footprint == 8 << 20
        assert spec.read_fraction == 0.9
        assert spec.intensity == 12.0

    def test_trace_spec(self):
        spec = parse_workload_spec("trace /tmp/a.trace")
        assert spec.kind == "trace" and spec.path == "/tmp/a.trace"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_workload_spec("bursty intensity=2")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_workload_spec("random warmth=3")


class TestParseConfig:
    def test_density_only_keeps_defaults(self):
        cfg = parse_config(["[sim]", "density = 32"])
        assert cfg.density == 32
        assert cfg.geometry.channels == 2
        assert cfg.geometry.ranks_per_channel == 2
        assert cfg.geometry.banks_per_rank == 8
        assert cfg.geometry.subarrays_per_bank == 8
        assert cfg.geometry.rows_per_bank == 65536
        assert cfg.read_queue_capacity == 64
        assert cfg.write_queue_capacity == 64
        assert cfg.low_watermark == 32
        assert cfg.high_watermark == 48
        assert cfg.cores == 8
        assert cfg.raw_timings.tCK_ns == 1.5

    def test_combined_policy_accepted(self):
        cfg = parse_config(["policy = dsarp"])
        assert cfg.policy == "dsarp"

    def test_invalid_policy_names_key(self):
        with pytest.raises(ConfigError, match="policy"):
            parse_config(["policy = banana"])

    def test_unknown_key_fails_with_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(["[sim]", "warp_speed = 9"])

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=":1:"):
            parse_config(["density = many"])

    def test_sections_and_comments(self):
        cfg = parse_config([
            "# comment",
            "[geometry]",
            "channels = 1",
            "[timing]",
            "tCK_ns = 1.25   # override",
            "[currents]",
            "i_act = 120",
            "[workload]",
            "default = stream footprint=1MiB stride=64",
            "core.2 = random intensity=4",
        ])
        assert cfg.geometry.channels == 1
        assert cfg.raw_timings.tCK_ns == 1.25
        assert cfg.currents.i_act == 120
        assert cfg.default_workload.kind == "stream"
        assert cfg.workloads[2].kind == "random"
        assert cfg.workload_for(0).kind == "stream"
        assert cfg.workload_for(2).kind == "random"

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(["[rocket]"])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.conf")

    def test_workload_label_mix(self):
        cfg = parse_config([
            "[workload]",
            "default = random",
            "core.1 = stream footprint=1MiB stride=64",
        ])
        assert cfg.workload_label().startswith("mix:")

    def test_every_field_round_trips(self):
        """A file that sets every field of each config dataclass to a
        non-default value parses back to exactly those values."""
        sections = {
            "geometry": (DramGeometry, dict(
                channels=1, ranks_per_channel=4, banks_per_rank=16,
                subarrays_per_bank=4, rows_per_bank=4096, columns_per_row=64,
                cacheline_bytes=128)),
            "timing": (RawTimings, dict(
                tCK_ns=1.25, tRCD_ns=14.25, tRP_ns=14.5, tCL_ns=14.75,
                tCWL_ns=11.25, tRAS_ns=35.25, tRRD_ns=6.5, tFAW_ns=31.5,
                tWTR_ns=8.25, tRTW_ns=9.5, tBURST_cycles=8)),
            "currents": (CurrentParams, dict(
                i_act=101.5, i_ref_ab=441.5, i_ref_pb=56.5, i_bg_active=46.5,
                i_bg_precharged=26.5, i_rd=91.5, i_wr=96.5, vdd=1.35)),
            "sim": (SimConfig, dict(
                policy="dsarp", density=16, retention_ms=64.0, cores=4,
                seed=9, warmup_cycles=10, measured_cycles=20,
                read_queue_capacity=32, write_queue_capacity=48,
                low_watermark=16, high_watermark=40)),
        }
        spec = WorkloadSpec(kind="stream", footprint=1 << 20, read_fraction=0.5,
                            intensity=3.0, stride=128, path="core1.trace",
                            scatter=False)
        spec_text = ("stream footprint=1MiB read_fraction=0.5 intensity=3 "
                     "stride=128 path=core1.trace scatter=0")
        lines = []
        for section, (_, values) in sections.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in values.items()]
        lines += ["[workload]", f"default = {spec_text}", f"core.1 = {spec_text}"]
        cfg = parse_config(lines)

        nested = {"geometry", "raw_timings", "currents", "workloads",
                  "default_workload"}
        for f in fields(WorkloadSpec):
            assert getattr(spec, f.name) != getattr(WorkloadSpec(), f.name), f.name
        assert cfg.default_workload == spec and cfg.workloads == {1: spec}
        parsed = {"geometry": cfg.geometry, "timing": cfg.raw_timings,
                  "currents": cfg.currents, "sim": cfg}
        for section, (cls, values) in sections.items():
            names = {f.name for f in fields(cls)}
            if cls is SimConfig:
                names -= nested
            assert set(values) == names, section
            default = cls()
            for key, value in values.items():
                assert getattr(default, key) != value, key
                assert getattr(parsed[section], key) == value, key
