"""The trace generator against the generator it replaced.

``previous_generate`` below is the previous implementation of
``repro.workloads.base._generate``, kept verbatim (with its ``_hot``
and ``_geometric`` helpers) as a test-only oracle. The hoisted
generator must reproduce it reference for reference, over random specs
that reach the branches no registered workload does: hot-window
phases, a zero mean gap, a one-block reuse window, an unset shared
locality, the loop buffer, the cold stream and per-core overrides.
"""

import math
from collections import deque
from dataclasses import replace
from typing import Iterator

from hypothesis import example, given, settings, strategies as st

from repro.common.rng import substream
from repro.sim.cpu import TraceItem, TraceKind
from repro.workloads.base import (OS_REGION_BASE, OS_REGION_BLOCKS,
                                  PRIVATE_REGION_STRIDE, SHARED_REGION_BASE,
                                  STREAM_REGION_BASE, TraceGenerator,
                                  WorkloadSpec, _generate)


# -- the oracle: the previous generator, verbatim but for its name -----------

def previous_generate(spec: WorkloadSpec, core: int,
                      seed: int) -> Iterator[TraceItem]:
    rng = substream(seed, f"{spec.name}/core{core}")
    random01 = rng.random
    private_base = (core + 1) * PRIVATE_REGION_STRIDE
    private_size = max(spec.private_footprint_blocks, 1)
    shared_size = max(spec.shared_footprint_blocks, 1)
    window = spec.phase_blocks if spec.phase_blocks else private_size
    window = min(window, private_size)
    window_start = 0
    # The cold stream walks an unbounded per-core region: pure
    # compulsory traffic, disjoint across cores and workloads.
    stream_base = STREAM_REGION_BASE + (core + 1) * PRIVATE_REGION_STRIDE
    stream_pos = 0
    # The loop buffer lives in the private region above the hot set.
    loop_base = private_base + private_size
    loop_pos = rng.randrange(spec.loop_blocks) if spec.loop_blocks else 0
    exponent = max(spec.locality, 1.0)
    shared_exponent = max(spec.shared_locality or spec.locality, 1.0)
    recent = deque(maxlen=max(spec.reuse_window, 1))

    for ref in range(spec.refs_per_core):
        if spec.phase_blocks and spec.phase_period and ref and \
                ref % spec.phase_period == 0:
            window_start = (window_start + window) % private_size
        draw = random01()
        if draw < spec.os_noise:
            block = OS_REGION_BASE + int(OS_REGION_BLOCKS * random01() ** exponent)
        elif recent and random01() < spec.reuse_fraction:
            # Temporal reuse: recency-biased pick among recent blocks
            # (quadratic bias toward the most recent).
            back = int(len(recent) * random01() ** 2)
            block = recent[len(recent) - 1 - back]
        elif draw < spec.os_noise + spec.shared_fraction:
            block = SHARED_REGION_BASE + _hot(rng, shared_size, shared_exponent)
            recent.append(block)
        elif spec.loop_blocks and random01() < spec.loop_fraction:
            loop_pos += 1
            if loop_pos >= spec.loop_blocks:
                loop_pos = 0
            block = loop_base + loop_pos
        elif random01() < spec.stream_fraction:
            if random01() < spec.stream_advance:
                stream_pos += 1
            block = stream_base + stream_pos
        else:
            offset = (window_start + _hot(rng, window, exponent)) % private_size
            block = private_base + offset
            recent.append(block)
        if block >= STREAM_REGION_BASE:
            write = random01() < spec.write_fraction
        elif block >= OS_REGION_BASE:
            write = random01() < 0.05
        elif block >= SHARED_REGION_BASE:
            write = random01() < spec.shared_write_fraction
        else:
            write = random01() < spec.write_fraction
        if write:
            kind = TraceKind.STORE
        elif random01() < spec.dep_fraction:
            kind = TraceKind.DEP_LOAD
        else:
            kind = TraceKind.LOAD
        gap = _geometric(rng, spec.mean_gap)
        yield TraceItem(gap=gap, block=block, kind=kind)


def _hot(rng, size: int, exponent: float) -> int:
    """Power-law index in [0, size): index 0 is hottest."""
    return int(size * (rng.random() ** exponent))


def _geometric(rng, mean: int) -> int:
    """Cheap integer geometric-ish gap with the requested mean."""
    if mean <= 0:
        return 0
    return int(-mean * math.log(max(rng.random(), 1e-12)))


# -- random specs --------------------------------------------------------------

FRACTION = st.floats(0.0, 1.0)


@st.composite
def specs(draw, name="w"):
    return WorkloadSpec(
        name=name, family="test",
        active_cores=tuple(sorted(draw(st.sets(st.integers(0, 7),
                                               min_size=1, max_size=3)))),
        refs_per_core=draw(st.integers(0, 400)),
        private_footprint_blocks=draw(st.integers(0, 3000)),
        shared_footprint_blocks=draw(st.integers(0, 3000)),
        shared_fraction=draw(FRACTION),
        shared_write_fraction=draw(FRACTION),
        write_fraction=draw(FRACTION),
        dep_fraction=draw(FRACTION),
        mean_gap=draw(st.integers(0, 8)),
        locality=draw(st.floats(0.5, 4.0)),
        shared_locality=draw(st.none() | st.floats(0.0, 4.0)),
        reuse_fraction=draw(FRACTION),
        reuse_window=draw(st.integers(0, 256)),
        loop_blocks=draw(st.integers(0, 300)),
        loop_fraction=draw(FRACTION),
        stream_fraction=draw(FRACTION),
        stream_advance=draw(FRACTION),
        phase_blocks=draw(st.integers(0, 2000)),
        phase_period=draw(st.integers(0, 120)),
        os_noise=draw(st.floats(0.0, 0.3)),
    )


@st.composite
def specs_with_overrides(draw):
    spec = draw(specs())
    cores = draw(st.sets(st.sampled_from(spec.active_cores)))
    overrides = {core: draw(specs(name=f"w-core{core}")) for core in cores}
    return replace(spec, per_core=overrides)


def assert_same_trace(spec, core, seed):
    expected = list(previous_generate(spec, core, seed))
    got = list(_generate(spec, core, seed))
    assert got == expected
    assert all(type(item) is TraceItem for item in got)


EDGE_SPECS = [
    # Phases rotate the hot window; zero gaps draw nothing.
    WorkloadSpec(name="phased", family="test", active_cores=(0,),
                 refs_per_core=300, private_footprint_blocks=512,
                 phase_blocks=64, phase_period=50, mean_gap=0),
    # A one-block reuse window; shared skew falls back to locality.
    WorkloadSpec(name="narrow", family="test", active_cores=(0,),
                 refs_per_core=300, shared_footprint_blocks=256,
                 shared_fraction=0.4, shared_locality=None, reuse_window=1),
    # Loop buffer and cold stream.
    WorkloadSpec(name="scan", family="test", active_cores=(0,),
                 refs_per_core=300, reuse_fraction=0.1, loop_blocks=40,
                 loop_fraction=0.5, stream_fraction=0.6,
                 stream_advance=0.3),
]


@settings(max_examples=150, deadline=None)
@given(spec=specs(), core=st.integers(0, 15),
       seed=st.integers(0, 2 ** 32))
@example(spec=EDGE_SPECS[0], core=0, seed=1)
@example(spec=EDGE_SPECS[1], core=3, seed=2)
@example(spec=EDGE_SPECS[2], core=7, seed=3)
def test_generator_matches_previous_generator(spec, core, seed):
    assert_same_trace(spec, core, seed)


@settings(max_examples=40, deadline=None)
@given(spec=specs_with_overrides(), seed=st.integers(0, 2 ** 32))
def test_per_core_overrides_match_previous_generator(spec, seed):
    traces = TraceGenerator(spec, seed).traces(8)
    for core, trace in enumerate(traces):
        if core not in spec.active_cores:
            assert trace is None
            continue
        expected = previous_generate(spec.per_core.get(core, spec), core,
                                     seed)
        assert list(trace) == list(expected)


def test_edge_specs_reach_their_branches():
    """The fixed examples really exercise what they are named for."""
    phased, narrow, scan = (list(_generate(spec, 0, 1))
                            for spec in EDGE_SPECS)
    assert {item.gap for item in phased} == {0}

    def private_offsets(items):
        return [item.block - PRIVATE_REGION_STRIDE for item in items
                if item.block < SHARED_REGION_BASE]

    # The hot window moves from [0, 64) to [64, 128) at reference 50.
    assert max(private_offsets(phased[:50])) < 64
    assert max(private_offsets(phased[50:100])) >= 64
    assert any(item.block >= SHARED_REGION_BASE for item in narrow)
    assert any(a.block == b.block for a, b in zip(narrow, narrow[1:]))
    assert any(item.block >= STREAM_REGION_BASE for item in scan)
    loop_base = PRIVATE_REGION_STRIDE + EDGE_SPECS[2].private_footprint_blocks
    assert any(loop_base <= item.block < loop_base + 40 for item in scan)
