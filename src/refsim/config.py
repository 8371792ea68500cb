"""Simulation configuration: defaults, the line-oriented config file
format, and per-core workload specifications.

File format: `key = value` lines under `[section]` headers, `#` comments.
Sections: [geometry], [timing], [currents], [sim], [workload].  Unknown
keys fail fast with their line number.  Every omitted key takes the
default evaluated-system value (DDR3-1333, 2 channels, 2 ranks/channel,
8 banks/rank, 8 subarrays/bank, 64K rows, 64/64-entry queues, watermarks
48/32, 8 cores at a 6:1 core-to-DRAM-command clock ratio).
"""

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import get_args

from .errors import ConfigError
from .timing import (
    CurrentParams, DensityProfile, DramGeometry, RawTimings, policy_row,
)

CORE_CLOCK_RATIO = 6     # 4 GHz core vs. 666.67 MHz DRAM command clock

_SIZE_SUFFIXES = {"kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30,
                  "kb": 10 ** 3, "mb": 10 ** 6, "gb": 10 ** 9}


def parse_size(text: str) -> int:
    t = text.strip().lower()
    for suffix, mult in _SIZE_SUFFIXES.items():
        if t.endswith(suffix):
            return int(float(t[: -len(suffix)]) * mult)
    return int(t, 0)


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str = "random"          # random | stream | trace
    footprint: int = 64 << 20
    read_fraction: float = 0.7
    intensity: float = 8.0
    stride: int = 64
    path: str | None = None
    scatter: bool = True          # page-scatter synthetic addresses

    def label(self) -> str:
        if self.kind == "trace":
            return f"trace:{self.path}"
        if self.kind == "stream":
            return f"stream:s{self.stride}"
        return f"random:i{self.intensity:g}:r{self.read_fraction:g}"


def parse_workload_spec(text: str) -> WorkloadSpec:
    parts = text.split()
    if not parts:
        raise ConfigError("empty workload spec")
    kind = parts[0]
    if kind not in ("random", "stream", "trace"):
        raise ConfigError(f"unknown workload kind {kind!r}")
    fields = {}
    for token in parts[1:]:
        if "=" not in token:
            if kind == "trace" and "path" not in fields:
                fields["path"] = token
                continue
            raise ConfigError(f"bad workload token {token!r}")
        key, value = token.split("=", 1)
        if key == "footprint":
            fields["footprint"] = parse_size(value)
        elif key == "read_fraction":
            fields["read_fraction"] = float(value)
        elif key == "intensity":
            fields["intensity"] = float(value)
        elif key == "stride":
            fields["stride"] = parse_size(value)
        elif key == "path":
            fields["path"] = value
        elif key == "scatter":
            fields["scatter"] = value.lower() not in ("0", "false", "no")
        else:
            raise ConfigError(f"unknown workload key {key!r}")
    if kind == "trace" and "path" not in fields:
        raise ConfigError("trace workload needs a path")
    return WorkloadSpec(kind=kind, **fields)


@dataclass
class SimConfig:
    geometry: DramGeometry = field(default_factory=DramGeometry)
    raw_timings: RawTimings = field(default_factory=RawTimings)
    currents: CurrentParams = field(default_factory=CurrentParams)
    policy: str = "ab"
    density: int = 32
    retention_ms: float = 32.0
    cores: int = 8
    seed: int = 1
    warmup_cycles: int = 1_000_000
    measured_cycles: int = 50_000_000
    read_queue_capacity: int = 64
    write_queue_capacity: int = 64
    low_watermark: int = 32
    high_watermark: int = 48
    workloads: dict = field(default_factory=dict)   # core index -> WorkloadSpec
    default_workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    def __post_init__(self):
        policy_row(self.policy)   # validates the policy
        if self.measured_cycles <= 0:
            raise ConfigError("measured_cycles must be positive")
        DensityProfile.for_density(self.density)   # validates the density

    def workload_for(self, core: int) -> WorkloadSpec:
        return self.workloads.get(core, self.default_workload)

    def profile(self) -> DensityProfile:
        return DensityProfile.for_density(self.density, self.retention_ms)

    def workload_label(self) -> str:
        specs = {self.workload_for(i) for i in range(self.cores)}
        if len(specs) > 1:
            kinds = sorted({spec.kind for spec in specs})
            if len(kinds) > 1:
                return "mix:" + "+".join(kinds)
            return f"mix:{kinds[0]}"
        return next(iter(specs)).label() if specs else self.default_workload.label()


def _keys(cls) -> dict:
    """Config keys of a dataclass: each scalar field's name -> its parser
    (an optional field parses as its non-None type)."""
    keys = {}
    for f in dataclass_fields(cls):
        tp = next((t for t in get_args(f.type) if t is not type(None)), f.type)
        if tp in (int, float, str):
            keys[f.name] = tp
    return keys


# config section -> (the SimConfig field it fills, None for SimConfig's own
# keys; the dataclass whose scalar fields are the section's keys)
_SECTIONS = {
    "geometry": ("geometry", DramGeometry),
    "timing": ("raw_timings", RawTimings),
    "currents": ("currents", CurrentParams),
    "sim": (None, SimConfig),
}
_SECTION_KEYS = {name: _keys(cls) for name, (_, cls) in _SECTIONS.items()}


def load_config(path: str) -> SimConfig:
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(lines, source=path)


def parse_config(lines, source: str = "<config>") -> SimConfig:
    section = "sim"
    values = {name: {} for name in _SECTIONS}
    workloads = {}
    default_workload = None

    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS and section != "workload":
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if section == "workload":
                if key == "default":
                    default_workload = parse_workload_spec(value)
                elif key.startswith("core."):
                    workloads[int(key[5:])] = parse_workload_spec(value)
                else:
                    raise ConfigError(f"unknown key {key!r} in [workload]")
            else:
                keys = _SECTION_KEYS[section]
                if key not in keys:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                values[section][key] = keys[key](value)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: invalid value for key {key!r}: {value!r}") from None

    kwargs = values["sim"]
    if workloads:
        kwargs["workloads"] = workloads
    if default_workload is not None:
        kwargs["default_workload"] = default_workload
    try:
        for name, (field_name, cls) in _SECTIONS.items():
            if field_name and values[name]:
                kwargs[field_name] = cls(**values[name])
        return SimConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
