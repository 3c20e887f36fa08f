"""Hamming-distance and switching-activity utilities.

The paper characterises instructions by "the switching-activity, the
probability of a signal or the Hamming distance between two successive
data" — these are the corresponding primitives.
"""

from __future__ import annotations

from collections import namedtuple
from operator import and_, xor


def hamming(a, b, width=None):
    """Hamming distance between two non-negative integers.

    When *width* is given, both values are masked to it first (a bus
    only has that many wires).

    >>> hamming(0b1010, 0b0110)
    2
    """
    if width is not None:
        mask = (1 << width) - 1
        a &= mask
        b &= mask
    return bin(a ^ b).count("1")


#: What the bus-cycle arithmetic cannot write once for one cycle and
#: for a block of cycles: ``popcount`` of a non-negative value,
#: ``totals`` (each value's sum over the cycles, as Python ints) and
#: ``last`` (the last cycle's values).
Primitives = namedtuple("Primitives", "popcount totals last")

#: On one cycle: a row of Python ints and bools (a bool total adds to
#: an int counter as 0 or 1).
ROW = Primitives(int.bit_count, list, lambda row: row)


def block_primitives(np):
    """On a block of cycles: the int64 and bool columns of NumPy *np*
    (passed in, so this module does not import NumPy)."""
    return Primitives(
        lambda column: np.bitwise_count(column).astype(np.int64),
        lambda columns: [int(np.add.reduce(column)) for column in columns],
        lambda columns: columns[:, -1].tolist())


def switching(ops, cur, prev, masks):
    """The paper's ``Activity`` terms of a signal group's values *cur*
    after *prev* (one per signal, each masked to its signal's width),
    on one cycle or on a block with the primitives *ops*:
    ``(total, distances, ones)`` — the group's Hamming distance per
    cycle, and each signal's distance and ones count totalled over the
    cycles."""
    popcount = ops.popcount
    # popcount((old ^ new) & mask) and popcount(new & mask) per signal,
    # mapped so a row runs in C and a block's columns stream one by one
    distances = list(map(popcount, map(and_, map(xor, prev, cur), masks)))
    return (sum(distances), ops.totals(distances),
            ops.totals(map(popcount, map(and_, cur, masks))))


def hamming_sequence(values, width=None):
    """Pairwise Hamming distances along a value sequence.

    >>> hamming_sequence([0, 1, 3, 3])
    [1, 1, 0]
    """
    values = list(values)
    return [hamming(a, b, width=width)
            for a, b in zip(values, values[1:])]


def total_transitions(values, width=None):
    """Sum of pairwise Hamming distances along a sequence."""
    return sum(hamming_sequence(values, width=width))


def transition_density(values, width):
    """Average fraction of bus bits toggling per step.

    Returns 0 for sequences shorter than two values.
    """
    values = list(values)
    if len(values) < 2 or width <= 0:
        return 0.0
    return total_transitions(values, width=width) / (
        (len(values) - 1) * width
    )


def signal_probability(values, width):
    """Per-bit probability of observing a 1 across *values*.

    Returns a list of *width* floats (LSB first).
    """
    values = list(values)
    if not values:
        return [0.0] * width
    counts = [0] * width
    for value in values:
        for bit in range(width):
            if (value >> bit) & 1:
                counts[bit] += 1
    return [count / len(values) for count in counts]


def expected_hamming_uniform(width):
    """Expected Hamming distance between two independent uniform words.

    Each bit differs with probability ½, so the expectation is
    ``width / 2`` — the usual back-of-envelope for random data buses.
    """
    return width / 2.0
