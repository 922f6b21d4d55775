"""Marked-set oracles over computational-basis indices.

An oracle marks a subset of the ``2**n`` basis indices of an n-qubit
register; the engine turns it into a conditional phase flip. Three forms are
supported: an explicit index set, a bit-pattern mask that marks every index
whose bits are 1 at all positions set in the mask, and a prefix that marks
the first M indices (the `sweep` oracle). Each form counts its marked
states (`count`) and widens itself to n+1 qubits with the same count
(`widened`) in closed form; n <= 62, so N and every index fit in int64.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

# Basis indices per enumeration block. At 2^14 a block's int64 temporaries (the
# index range and `select`'s intermediates) are 128 KiB, which the allocator
# reuses from its heap; from 2^15 up they are mapped and page-faulted afresh on
# every pass, and smaller blocks pay more per-block overhead at large n.
_CHUNK = 1 << 14


def _check_n(n: int) -> None:
    if not 1 <= n <= 62:
        raise ValueError(f"n must be in [1, 62] (the int64 basis-index limit), got {n}")


def _check_index(x: int, n: int) -> None:
    if not 0 <= x < (1 << n):
        raise ValueError(f"basis index {x} out of range for {n} qubits")


@dataclass(frozen=True)
class ExplicitSetOracle:
    """Marks an explicit set of basis indices (stored sorted, deduplicated).

    Widening keeps the indices, so the new top-bit-1 half is unmarked."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        _check_n(self.n)
        idx = tuple(sorted({int(i) for i in self.indices}))
        for i in idx:
            _check_index(i, self.n)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_array", np.asarray(idx, dtype=np.int64))

    def select(self, xs: np.ndarray) -> np.ndarray:
        return np.isin(xs, self._array)

    def count(self) -> int:
        return len(self.indices)

    def widened(self) -> ExplicitSetOracle:
        return ExplicitSetOracle(self.n + 1, self.indices)


@dataclass(frozen=True)
class BitPatternOracle:
    """Marks every index whose bits are 1 at all positions set in ``mask``.

    Widening adds the new top bit to the mask: the marked states move into
    the top-bit-1 half and keep their number."""

    n: int
    mask: int

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} does not fit in {self.n} bits")

    def select(self, xs: np.ndarray) -> np.ndarray:
        return (xs & self.mask) == self.mask

    def count(self) -> int:
        return 1 << (self.n - self.mask.bit_count())

    def widened(self) -> BitPatternOracle:
        return BitPatternOracle(self.n + 1, self.mask | (1 << self.n))


@dataclass(frozen=True)
class PrefixOracle:
    """Marks the indices 0..stop-1, as ExplicitSetOracle(n, range(stop)) does,
    in O(1) memory. Widening keeps ``stop``, so the top-bit-1 half is unmarked."""

    n: int
    stop: int

    def __post_init__(self):
        _check_n(self.n)
        if self.stop < 0:
            raise ValueError(f"prefix stop must be >= 0, got {self.stop}")
        if self.stop > 1 << self.n:
            # The first index of range(stop) that does not fit, as the set oracle reports it.
            _check_index(1 << self.n, self.n)

    def select(self, xs: np.ndarray) -> np.ndarray:
        return xs < self.stop

    def count(self) -> int:
        return self.stop

    def widened(self) -> PrefixOracle:
        return PrefixOracle(self.n + 1, self.stop)


Oracle = Union[ExplicitSetOracle, BitPatternOracle, PrefixOracle]


def basis_chunks(n: int) -> Iterator[np.ndarray]:
    """The basis indices 0..2**n - 1, ascending, as int64 slices of at most `_CHUNK`."""
    dim = 1 << n
    for lo in range(0, dim, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, dim), dtype=np.int64)


def marked_indices(oracle: Oracle) -> np.ndarray:
    """All marked basis indices, ascending, by chunked enumeration."""
    return np.concatenate([xs[oracle.select(xs)] for xs in basis_chunks(oracle.n)])


def parse_oracle(text: str, n: int) -> Oracle:
    """Parse a textual oracle spec: ``set:3,5,12`` or ``mask:0b101100`` / ``mask:0xfff``."""
    kind, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"oracle spec {text!r} missing 'set:' or 'mask:' prefix")
    if kind == "set":
        tokens = [tok.strip() for tok in body.split(",") if tok.strip()]
        return ExplicitSetOracle(n, tuple(int(tok, 0) for tok in tokens))
    if kind == "mask":
        return BitPatternOracle(n, int(body.strip(), 0))
    raise ValueError(f"unknown oracle kind {kind!r} (expected 'set' or 'mask')")
