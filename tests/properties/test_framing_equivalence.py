"""The framing layer's fast paths against bit-serial references (hypothesis).

The table-driven CRC and the memoised PN stream must reproduce, bit for
bit, the one-bit-at-a-time algorithms they replaced.  Those algorithms
live on here as the oracles.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.crc import CRC16, CRC32, CRCSpec, _BitwiseCRC
from repro.utils import pn
from repro.utils.pn import STREAM_CACHE_SIZE, PNSequence


def bitwise_crc(spec: CRCSpec, bits: np.ndarray) -> int:
    """MSB-first CRC, one data bit per step."""
    mask = (1 << spec.width) - 1
    register = spec.initial & mask
    for bit in bits.tolist():
        incoming = bit ^ ((register >> (spec.width - 1)) & 1)
        register = (register << 1) & mask
        if incoming:
            register ^= spec.polynomial & mask
    return register


class ReferenceLFSR:
    """Right-shifting Fibonacci LFSR, one register step per output bit."""

    def __init__(self, seed: int, taps: tuple, width: int) -> None:
        self.width = width
        self.mask = (1 << width) - 1
        self.taps = sorted(set(taps))
        self.initial = seed & self.mask
        self.state = self.initial

    def reset(self) -> None:
        self.state = self.initial

    def next_bit(self) -> int:
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        output = self.state & 1
        self.state = ((self.state >> 1) | (feedback << (self.width - 1))) & self.mask
        return output

    def bits(self, length: int) -> np.ndarray:
        return np.array([self.next_bit() for _ in range(length)], dtype=np.uint8)


@st.composite
def lfsr_params(draw):
    width = draw(st.integers(min_value=1, max_value=24))
    taps = draw(
        st.lists(st.integers(1, width), min_size=1, max_size=min(width, 6), unique=True)
    )
    seed = draw(st.integers(min_value=1, max_value=(1 << width) - 1))
    return seed, tuple(taps), width


pn_ops = st.lists(
    st.one_of(
        st.tuples(st.just("next_bit"), st.just(0)),
        st.tuples(st.just("bits"), st.integers(0, 400)),
        st.tuples(st.just("reset"), st.just(0)),
    ),
    max_size=12,
)


class TestTableCRC:
    @given(
        engine=st.sampled_from([CRC16, CRC32]),
        length=st.integers(0, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bitwise_oracle(self, engine, length, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=length, dtype=np.uint8)
        assert engine.compute(bits) == bitwise_crc(engine.spec, bits)

    def test_every_tail_length(self):
        # Lengths 0..71 cover every remainder modulo 8 with 0 to 8 whole bytes.
        rng = np.random.default_rng(2024)
        for engine in (CRC16, CRC32):
            for length in range(72):
                bits = rng.integers(0, 2, size=length, dtype=np.uint8)
                assert engine.compute(bits) == bitwise_crc(engine.spec, bits)

    @given(
        width=st.integers(1, 40),
        polynomial=st.integers(1, 2**40),
        initial=st.integers(0, 2**40),
        length=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_spec_matches_bitwise_oracle(self, width, polynomial, initial, length, seed):
        # Widths below 8 run on the left-aligned register.
        spec = CRCSpec(width=width, polynomial=polynomial, initial=initial, name="test")
        bits = np.random.default_rng(seed).integers(0, 2, size=length, dtype=np.uint8)
        assert _BitwiseCRC(spec).compute(bits) == bitwise_crc(spec, bits)


class TestPNStream:
    @given(params=lfsr_params(), ops=pn_ops)
    @settings(max_examples=150, deadline=None)
    def test_matches_bit_serial_reference(self, params, ops):
        seed, taps, width = params
        fast = PNSequence(seed=seed, taps=taps, register_bits=width)
        ref = ReferenceLFSR(seed, taps, width)
        assert fast.state == ref.state
        for op, length in ops:
            if op == "next_bit":
                assert fast.next_bit() == ref.next_bit()
            elif op == "bits":
                assert np.array_equal(fast.bits(length), ref.bits(length))
            else:
                fast.reset()
                ref.reset()
            assert fast.state == ref.state

    def test_returned_bits_are_private_copies(self):
        first = PNSequence(seed=0x1D0F).bits(32)
        first[:] = 0
        expected = ReferenceLFSR(0x1D0F, (1, 3, 4, 6), 16).bits(32)
        assert np.array_equal(PNSequence(seed=0x1D0F).bits(32), expected)

    def test_cache_stays_bounded(self):
        seeds = range(1, 3 * STREAM_CACHE_SIZE + 1)
        for seed in seeds:
            PNSequence(seed=seed).bits(100)
            assert len(pn._streams) <= STREAM_CACHE_SIZE
        # An evicted stream is rebuilt identically.
        ref = ReferenceLFSR(1, (1, 3, 4, 6), 16)
        assert np.array_equal(PNSequence(seed=1).bits(500), ref.bits(500))

    def test_concurrent_generators_agree_with_reference(self):
        # More threads than cores, switching often, over more seeds than the
        # cache holds: growth and eviction race, and no slice may be wrong.
        seeds = list(range(1, STREAM_CACHE_SIZE + 9))
        expected = {seed: ReferenceLFSR(seed, (1, 3, 4, 6), 16).bits(700) for seed in seeds}
        mismatches = []

        def worker(offset: int) -> None:
            for round_ in range(6):
                for seed in seeds[offset::3]:
                    length = 100 + 100 * round_
                    got = PNSequence(seed=seed).bits(length)
                    if not np.array_equal(got, expected[seed][:length]):
                        mismatches.append(seed)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i % 3,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(pn._streams) <= STREAM_CACHE_SIZE
