"""Bit-level address arithmetic for binary hypercubes.

Every node of an ``n``-cube is identified by an integer in ``[0, 2**n)``
whose binary expansion is the node address ``a_{n-1} ... a_1 a_0`` used in
the paper.  This module provides the scalar primitives (Hamming distance,
neighbor addresses, preferred/spare dimension extraction) and their
numpy-vectorized counterparts used by the experiment kernels.

The vectorized functions operate on ``numpy.uint32``/``int64`` arrays and
never allocate inside loops; callers that run sweeps should reuse the
returned buffers where possible (see ``neighbor_table``).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

__all__ = [
    "popcount",
    "hamming",
    "flip_bit",
    "get_bit",
    "unit_vector",
    "neighbors_of",
    "preferred_dimensions",
    "spare_dimensions",
    "format_address",
    "parse_address",
    "popcount_array",
    "hamming_array",
    "neighbor_table",
    "all_addresses",
]

# Maximum cube dimension supported by the vectorized kernels.  2**26 nodes
# is already ~0.5 GiB of int64 state per array; everything in the paper is
# n <= 10, so this is a generous guard rather than a real limit.
MAX_DIMENSION = 26


def popcount(x: int) -> int:
    """Number of one bits in ``x`` (the *weight* of an address)."""
    return int(x).bit_count()


def hamming(a: int, b: int) -> int:
    """Hamming distance ``H(a, b)`` between two node addresses.

    This equals the length of every optimal (Hamming-distance) path between
    the two nodes in a fault-free hypercube.
    """
    return (a ^ b).bit_count()


def flip_bit(a: int, dim: int) -> int:
    """Address of the neighbor of ``a`` along dimension ``dim``.

    The paper writes this as ``a ^ e^dim`` where ``e^dim`` is the unit
    vector with bit ``dim`` set.
    """
    return a ^ (1 << dim)


def get_bit(a: int, dim: int) -> int:
    """Bit ``dim`` of address ``a`` (0 or 1)."""
    return (a >> dim) & 1


def unit_vector(dim: int) -> int:
    """The unit address ``e^dim``: bit ``dim`` set, all others zero."""
    return 1 << dim


def neighbors_of(a: int, n: int) -> List[int]:
    """All ``n`` neighbors of node ``a`` in an ``n``-cube, dimension order.

    Index ``i`` of the result is the neighbor along dimension ``i``
    (``a ^ e^i`` in paper notation).
    """
    return [a ^ (1 << i) for i in range(n)]


def preferred_dimensions(s: int, d: int, n: int) -> List[int]:
    """Dimensions in which ``s`` and ``d`` differ, ascending.

    These are the *preferred dimensions* of a unicast from ``s`` to ``d``;
    crossing any of them strictly decreases the Hamming distance to ``d``.
    There are exactly ``H(s, d)`` of them.
    """
    diff = s ^ d
    return [i for i in range(n) if (diff >> i) & 1]


def spare_dimensions(s: int, d: int, n: int) -> List[int]:
    """Dimensions in which ``s`` and ``d`` agree, ascending.

    Crossing a *spare dimension* increases the distance to ``d`` by one;
    the suboptimal branch (condition C3) of the unicasting algorithm uses
    exactly one spare hop, giving a path of length ``H(s, d) + 2``.
    """
    diff = s ^ d
    return [i for i in range(n) if not (diff >> i) & 1]


def format_address(a: int, n: int) -> str:
    """Render ``a`` as the paper's ``n``-bit binary string, MSB first."""
    if not 0 <= a < (1 << n):
        raise ValueError(f"address {a} out of range for a {n}-cube")
    return format(a, f"0{n}b")


def parse_address(text: str) -> int:
    """Parse a binary address string such as ``'0110'`` into an int."""
    stripped = text.strip()
    if not stripped or any(c not in "01" for c in stripped):
        raise ValueError(f"not a binary address: {text!r}")
    return int(stripped, 2)


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------

def popcount_array(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for a nonnegative integer array (any shape),
    as int64."""
    x = np.asarray(x)
    if np.any(x < 0):
        raise ValueError("popcount_array requires nonnegative values")
    return np.bitwise_count(x).astype(np.int64)


def hamming_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between address arrays (broadcasting)."""
    return popcount_array(np.bitwise_xor(np.asarray(a), np.asarray(b)))


def all_addresses(n: int) -> np.ndarray:
    """All ``2**n`` node addresses of an ``n``-cube as an int64 array."""
    if not 0 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [0, {MAX_DIMENSION}], got {n}")
    return np.arange(1 << n, dtype=np.int64)


def neighbor_table(n: int) -> np.ndarray:
    """The ``(2**n, n)`` neighbor-index matrix of an ``n``-cube.

    ``table[a, i]`` is the address of ``a``'s neighbor along dimension
    ``i``.  Gathering per-neighbor state as ``state[table]`` is the
    building block of the vectorized safety-level fixed point — one fancy
    index replaces the per-node message exchange of the distributed GS
    algorithm.
    """
    addrs = all_addresses(n)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    dims = np.int64(1) << np.arange(n, dtype=np.int64)
    return np.bitwise_xor(addrs[:, None], dims[None, :])


def iter_subcube(fixed_bits: Sequence[tuple[int, int]], n: int) -> Iterator[int]:
    """Iterate addresses of the subcube where ``fixed_bits`` are pinned.

    ``fixed_bits`` is a sequence of ``(dim, value)`` pairs; all remaining
    dimensions range freely.  Used by fault-model generators that carve out
    subcube-shaped fault clusters.
    """
    pins = dict(fixed_bits)
    for dim, val in pins.items():
        if not 0 <= dim < n:
            raise ValueError(f"dimension {dim} out of range for {n}-cube")
        if val not in (0, 1):
            raise ValueError(f"pinned value must be 0/1, got {val}")
    free = [i for i in range(n) if i not in pins]
    base = sum(1 << d for d, v in pins.items() if v)
    for mask in range(1 << len(free)):
        addr = base
        for j, dim in enumerate(free):
            if (mask >> j) & 1:
                addr |= 1 << dim
        yield addr
