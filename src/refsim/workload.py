"""Request supply: trace parsing, synthetic workload generators, physical
address mapping, and a window/MSHR-limited core front end.

Trace format (UTF-8 text, gzip accepted by .gz extension):
    <bubble_count> <hex_address> <R|W>
one record per line; blank lines and '#' comments are skipped.  Bubbles are
the non-memory instructions retired before the access.  Traces are assumed
to be post-last-level-cache miss streams.
"""

import gzip
import random

from .controller import MemRequest
from .errors import ConfigError
from .timing import DramGeometry

CACHELINE = 64
CORE_ISSUE_WIDTH = 3
CORE_WINDOW = 128
CORE_MSHRS = 8


class TraceRecord:
    __slots__ = ("bubbles", "address", "is_write")

    def __init__(self, bubbles: int, address: int, is_write: bool):
        self.bubbles = bubbles
        self.address = address
        self.is_write = is_write

    def __eq__(self, other):
        return (self.bubbles, self.address, self.is_write) == \
               (other.bubbles, other.address, other.is_write)

    def __repr__(self):
        return f"TraceRecord({self.bubbles}, {self.address:#x}, {'W' if self.is_write else 'R'})"


def parse_trace(stream):
    """Yield TraceRecords from a text stream; malformed lines raise."""
    for lineno, line in enumerate(stream, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3 or parts[2] not in ("R", "W"):
            raise ConfigError(f"trace parse error at line {lineno}: {text!r}")
        try:
            bubbles = int(parts[0])
            address = int(parts[1], 16)
        except ValueError:
            raise ConfigError(f"trace parse error at line {lineno}: {text!r}") from None
        if bubbles < 0:
            raise ConfigError(f"trace parse error at line {lineno}: negative bubbles")
        yield TraceRecord(bubbles, address & ~(CACHELINE - 1), parts[2] == "W")


def open_trace(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt")
    return open(path, "r")


def synth_random(seed: int, footprint_bytes: int, read_fraction: float,
                 intensity: float, base: int = 0):
    """Uniform random cacheline accesses over a footprint.

    Bubble counts are uniform on [0, 2*intensity] so the mean non-memory
    instruction count per access equals `intensity`.  Deterministic per
    seed; yields forever.
    """
    if footprint_bytes < CACHELINE:
        raise ConfigError("footprint must hold at least one cacheline")
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigError("read_fraction must be within [0, 1]")
    rng = random.Random(seed).random
    lines = footprint_bytes // CACHELINE
    bubble_span = int(round(2 * intensity)) + 1
    while True:
        addr = base + int(rng() * lines) * CACHELINE
        is_write = rng() >= read_fraction
        yield TraceRecord(int(rng() * bubble_span), addr, is_write)


def synth_stream(seed: int, footprint_bytes: int, stride: int, base: int = 0):
    """Sequential strided reads wrapping over the footprint; maximizes row
    hits for contrast with the random generator."""
    if stride < CACHELINE:
        raise ConfigError("stride must be at least one cacheline")
    if footprint_bytes < stride:
        raise ConfigError("footprint must be at least one stride")
    pos = (seed * stride) % footprint_bytes
    pos -= pos % CACHELINE
    while True:
        yield TraceRecord(0, base + pos, False)
        pos += stride
        if pos >= footprint_bytes:
            pos -= footprint_bytes


PAGE_BITS = 12
_SCATTER_MULT = 0x9E3779B1   # odd, so page -> frame is a bijection


def scatter_pages(stream, total_address_bits: int):
    """Map dense synthetic addresses onto scattered physical frames.

    Emulates OS page placement: 4 KiB pages land pseudo-randomly (but
    deterministically and without collisions) across the whole physical
    space, so a small footprint still exercises all rows/subarrays the
    way a real resident set does.  Within-page locality is preserved.
    """
    if total_address_bits <= PAGE_BITS:
        yield from stream
        return
    frame_mask = (1 << (total_address_bits - PAGE_BITS)) - 1
    offset_mask = (1 << PAGE_BITS) - 1
    for rec in stream:
        frame = ((rec.address >> PAGE_BITS) * _SCATTER_MULT) & frame_mask
        rec.address = (frame << PAGE_BITS) | (rec.address & offset_mask)
        yield rec


class AddressMap:
    """Bit-field layout, lowest to highest:
    [cacheline offset][channel][column][bank][rank][row]."""

    def __init__(self, geometry: DramGeometry):
        for name in ("channels", "ranks_per_channel", "columns_per_row"):
            n = getattr(geometry, name)
            if n & (n - 1):
                raise ConfigError(f"address map needs power-of-two {name}, got {n}")
        self.geometry = geometry
        self.offset_bits = (geometry.cacheline_bytes - 1).bit_length()
        self.ch_bits = (geometry.channels - 1).bit_length()
        self.col_bits = (geometry.columns_per_row - 1).bit_length()
        self.bank_bits = (geometry.banks_per_rank - 1).bit_length()
        self.rank_bits = (geometry.ranks_per_channel - 1).bit_length()
        self.row_bits = (geometry.rows_per_bank - 1).bit_length()
        self.ch_shift = self.offset_bits
        self.col_shift = self.ch_shift + self.ch_bits
        self.bank_shift = self.col_shift + self.col_bits
        self.rank_shift = self.bank_shift + self.bank_bits
        self.row_shift = self.rank_shift + self.rank_bits
        self.total_bits = self.row_shift + self.row_bits

    def encode(self, channel: int, rank: int, bank: int, row: int, column: int) -> int:
        g = self.geometry
        if not (0 <= channel < g.channels and 0 <= rank < g.ranks_per_channel
                and 0 <= bank < g.banks_per_rank and 0 <= row < g.rows_per_bank
                and 0 <= column < g.columns_per_row):
            raise ConfigError("encode: field out of range")
        return ((row << self.row_shift) | (rank << self.rank_shift)
                | (bank << self.bank_shift) | (column << self.col_shift)
                | (channel << self.ch_shift))

    def decode(self, address: int) -> tuple[int, int, int, int, int]:
        """Returns (channel, rank, bank, row, column); row bits wrap."""
        g = self.geometry
        channel = (address >> self.ch_shift) & (g.channels - 1)
        column = (address >> self.col_shift) & (g.columns_per_row - 1)
        bank = (address >> self.bank_shift) & (g.banks_per_rank - 1)
        rank = (address >> self.rank_shift) & (g.ranks_per_channel - 1)
        row = (address >> self.row_shift) & (g.rows_per_bank - 1)
        return channel, rank, bank, row, column


class Core:
    """Trace-driven front end: 3-wide issue, 128-entry window, 8 MSHRs.

    Bubbles retire immediately unless an older read is still pending (the
    window fills behind it); a read holds a window slot until its data
    returns, writes are posted.  Issue stalls on a full window, exhausted
    MSHRs, or controller backpressure.  Work per call is bulk arithmetic,
    not per-instruction stepping.
    """

    def __init__(self, trace, addr_map: AddressMap, controllers,
                 clock_ratio: int, id_counter):
        self.trace = trace
        self.addr_map = addr_map
        self.controllers = controllers
        self.clock_ratio = clock_ratio
        self.id_counter = id_counter
        self.core_cycle = 0
        self.retired = 0
        self.issued_mem = 0
        self.mshr_in_flight = 0
        self.window = []            # pending read entries [done, bubbles_after]
        self.window_occ = 0
        self.cur_bubbles = 0
        self.cur_access = None      # MemRequest awaiting dispatch
        self.blocked_returns = False   # wait for a read return (mshr/window)

    def _next_record(self, now: int) -> bool:
        rec = next(self.trace, None)
        if rec is None:
            return False
        self.cur_bubbles = rec.bubbles
        ch, rank, bank, row, col = self.addr_map.decode(rec.address)
        req = MemRequest(next(self.id_counter), rec.is_write,
                         ch, rank, bank, row, col, now)
        req.core_ref = self
        self.cur_access = req
        return True

    def advance(self, dram_cycle: int) -> None:
        target = dram_cycle * self.clock_ratio
        if target <= self.core_cycle:
            return
        if self.blocked_returns:
            self.core_cycle = target
            return
        budget = (target - self.core_cycle) * CORE_ISSUE_WIDTH
        window = self.window
        while budget > 0:
            if self.cur_bubbles > 0:
                n = self.cur_bubbles if self.cur_bubbles < budget else budget
                if window:
                    slack = CORE_WINDOW - self.window_occ
                    if slack <= 0:
                        self.blocked_returns = True
                        break
                    if n > slack:
                        n = slack
                    window[-1][1] += n
                    self.window_occ += n
                else:
                    self.retired += n
                self.cur_bubbles -= n
                budget -= n
                continue
            if self.cur_access is None:
                if not self._next_record(dram_cycle):
                    break
                continue
            req = self.cur_access
            if req.is_write:
                req.arrival_cycle = dram_cycle
                if not self.controllers[req.channel].enqueue(req):
                    break  # backpressure: retry next cycle
                self.retired += 1
                self.issued_mem += 1
                budget -= 1
                self.cur_access = None
            else:
                if self.mshr_in_flight >= CORE_MSHRS:
                    self.blocked_returns = True
                    break
                if self.window_occ >= CORE_WINDOW:
                    self.blocked_returns = True
                    break
                req.arrival_cycle = dram_cycle
                if not self.controllers[req.channel].enqueue(req):
                    break
                entry = [False, 0]
                req.window_entry = entry
                window.append(entry)
                self.window_occ += 1
                self.mshr_in_flight += 1
                self.issued_mem += 1
                budget -= 1
                self.cur_access = None
        self.core_cycle = target

    def on_read_return(self, req: MemRequest) -> None:
        req.window_entry[0] = True
        self.mshr_in_flight -= 1
        window = self.window
        while window and window[0][0]:
            done, bubbles = window.pop(0)
            self.retired += 1 + bubbles
            self.window_occ -= 1 + bubbles
        self.blocked_returns = False

    def snapshot(self) -> tuple[int, int]:
        return self.retired, self.core_cycle
