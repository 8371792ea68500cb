"""Seeded inputs for the trace-audit workload.

Writes one gzip trace per core and a config file.  The same seed gives
byte-identical files (the gzip header carries no name and no time).

refsim does not page-scatter trace addresses, so the traces themselves
spread over the whole physical space.  Every draw starts at a uniformly
random cacheline; one draw in ten is a sequential run of 4-32 cachelines
(row hits on both channels), the others a single line, so about two
thirds of the records sit in runs and a third are scattered lines, and
every bank and subarray sees traffic.  About 40% of the records are
writes.
"""

import gzip
import os
import random

WRITE_FRACTION = 0.4
RUN_FRACTION = 0.1
RUN_LINES = (4, 32)
MAX_BUBBLES = 16
CACHELINE = 64


def trace_lines(rng: random.Random, records: int, address_bits: int):
    lines = (1 << address_bits) // CACHELINE
    out = []
    while len(out) < records:
        start = rng.randrange(lines)
        if rng.random() < RUN_FRACTION:
            run = rng.randint(*RUN_LINES)
        else:
            run = 1
        for i in range(min(run, records - len(out))):
            addr = ((start + i) % lines) * CACHELINE
            kind = "W" if rng.random() < WRITE_FRACTION else "R"
            out.append(f"{rng.randint(0, MAX_BUBBLES)} {addr:#x} {kind}\n")
    return out


def write_trace(path: str, seed: int, core: int, records: int,
                address_bits: int) -> None:
    rng = random.Random(seed * 1_000_003 + core)
    data = "".join(trace_lines(rng, records, address_bits)).encode()
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0,
                           compresslevel=6) as gz:
            gz.write(data)


def input_paths(directory: str, cores: int) -> tuple[str, list[str]]:
    """The config file and per-core traces that write_inputs writes."""
    return (os.path.join(directory, "sim.conf"),
            [os.path.join(directory, f"core{core}.trace.gz")
             for core in range(cores)])


def write_inputs(directory: str, seed: int, *, cores: int, records: int,
                 address_bits: int, density: int, warmup: int,
                 measured: int) -> tuple[str, list[str]]:
    """Write the config file and per-core traces; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    config, traces = input_paths(directory, cores)
    for core, path in enumerate(traces):
        write_trace(path, seed, core, records, address_bits)
    with open(config, "w") as fh:
        fh.write("[sim]\n"
                 f"density = {density}\n"
                 f"cores = {cores}\n"
                 f"seed = {seed}\n"
                 f"warmup_cycles = {warmup}\n"
                 f"measured_cycles = {measured}\n")
    return config, traces
