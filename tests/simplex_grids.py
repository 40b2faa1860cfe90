"""Ordered grid enumeration shared by the tests that walk every composition."""

import itertools


def compositions(total: int, parts: int):
    """All ordered tuples of `parts` nonnegative ints summing to `total`."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield tuple(out)
