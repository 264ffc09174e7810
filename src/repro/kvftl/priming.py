"""Experiment priming for the KV personality (untimed bulk fills).

The paper's setups fill large fractions of a 3.84 TB drive before each
measured phase; simulating every store would dwarf the measurement.
:func:`fast_fill` mutates the device into the state those stores would
have produced — populations, manifests, index entries, space books —
without advancing simulated time.

A block's manifest holds one ``("pr", pop_index, first_seq, seq_stride,
first_page, pages)`` run per fill, not one entry per page, so host
memory grows with the blocks written, plus the population's 8 bytes per
fill page.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CapacityLimitError, ConfigurationError, DeviceFullError
from repro.kvftl.blob import blobs_per_page, layout_blob, validate_value_size
from repro.kvftl.population import KeyScheme, PrimedPopulation
from repro.units import ceil_div


def fast_fill(
    device, count: int, value_bytes: int, scheme: Optional[KeyScheme] = None
) -> PrimedPopulation:
    """Untimed bulk fill of ``count`` pairs under a key scheme.

    State-identical to storing the pairs and draining, minus simulated
    time.  Blobs must not split (fills use small values, as in the
    paper's setups).
    """
    scheme = scheme or KeyScheme()
    if count < 1:
        raise ConfigurationError(f"fill count must be >= 1, got {count}")
    if count > 10 ** scheme.digits:
        raise ConfigurationError(
            f"fill of {count} pairs overflows {scheme.digits}-digit keys"
        )
    if scheme.prefix in device._population_of_prefix:
        raise ConfigurationError(
            f"a population with prefix {scheme.prefix!r} already exists"
        )
    validate_value_size(value_bytes)
    page_bytes = device.array.geometry.page_bytes
    layout = layout_blob(scheme.key_bytes, value_bytes, page_bytes, device.config)
    if layout.is_split:
        raise ConfigurationError("fast_fill does not support split blobs")
    if device.live_kvps + count > device.max_kvps:
        raise CapacityLimitError(
            f"fill of {count} exceeds the {device.max_kvps}-KVP limit"
        )
    if (
        device.stats.device_bytes + count * layout.footprint_bytes
        > device.user_capacity_bytes
    ):
        raise DeviceFullError("fill exceeds device capacity")

    per_page = blobs_per_page(
        scheme.key_bytes, value_bytes, page_bytes, device.config
    )
    pages_needed = ceil_div(count, per_page)
    pages_free = len(device.pool) * device.array.geometry.pages_per_block
    if pages_needed > pages_free:
        raise DeviceFullError(
            f"fill needs {pages_needed} pages, {pages_free} free"
        )
    population = PrimedPopulation(
        scheme=scheme,
        count=count,
        value_bytes=value_bytes,
        footprint_bytes=layout.footprint_bytes,
        blobs_per_page=per_page,
    )
    pop_index = device.add_population(population)

    remaining = count
    stream = device.core.write_stream
    next_slot = stream.next_slot
    prime_program = device.array.prime_program
    prime_program_run = device.array.prime_program_run
    page_blocks = population.page_blocks
    page_indices = population.page_indices
    manifests = device._manifests
    footprint = layout.footprint_bytes
    full_bytes = per_page * footprint
    width = stream.width

    def commit(block: int, first_seq: int, first_page: int, pages: int) -> None:
        # A block in rotation slot k takes every width-th fill page into
        # consecutive pages, so its pages of one fill are one arithmetic
        # run (``run_pages``): extend the block's last run when this one
        # continues it, else open a run.
        manifest = manifests.setdefault(block, [])
        if manifest and manifest[-1][:2] == ("pr", pop_index):
            _tag, _pop, seq0, _stride, page0, pages0 = manifest[-1]
            if page0 + pages0 == first_page and seq0 + pages0 * width == first_seq:
                manifest[-1] = ("pr", pop_index, seq0, width, page0, pages0 + pages)
                return
        manifest.append(("pr", pop_index, first_seq, width, first_page, pages))

    page_seq = 0
    while remaining > 0:
        # Batch whole rotation cycles of full pages: reserve one page on
        # every open block per cycle and commit each block's run at once.
        # State-identical to the per-page path — same blocks, pages,
        # manifest order, and counters — minus the per-page call overhead.
        cycles = min(stream.cycle_headroom(), (remaining // per_page) // width)
        if cycles >= 1:
            blocks_cycle = stream.reserve_cycles(cycles)
            starts = [
                prime_program_run(block, cycles, full_bytes)
                for block in blocks_cycle
            ]
            page_blocks.extend(blocks_cycle * cycles)
            page_indices.extend(
                start + cycle for cycle in range(cycles) for start in starts
            )
            # Block ``offset`` of the rotation took fill pages
            # page_seq + offset + cycle * width into pages start + cycle.
            for offset, (block, start) in enumerate(zip(blocks_cycle, starts)):
                commit(block, page_seq + offset, start, cycles)
            page_seq += cycles * width
            remaining -= cycles * width * per_page
            continue
        # Per-page path: rotation boundaries (a block about to close) and
        # the final partial page.
        blobs_here = min(per_page, remaining)
        remaining -= blobs_here
        block = next_slot()
        page = prime_program(block, blobs_here * footprint)
        page_blocks.append(block)
        page_indices.append(page)
        commit(block, page_seq, page, 1)
        page_seq += 1
    device.index.prime_entries(count)
    # One call per iterator bucket: a prefix shorter than the bucket's 4
    # bytes spreads the fill over the buckets its leading digits name.
    span = scheme.lead_span(4)
    for first in range(0, count, span):
        device.iterators.note_bulk(scheme.key_for(first), min(span, count - first))
    device.stats.app_key_bytes += count * scheme.key_bytes
    device.stats.app_value_bytes += count * value_bytes
    device.stats.device_bytes += count * layout.footprint_bytes
    device.live_kvps += count
    return population
