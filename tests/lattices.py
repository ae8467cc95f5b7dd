"""Lattices and a `hypothesis` strategy shared by the differential tests.

`PRODUCT` is the product of the Gödel and Łukasiewicz 3-chains, built
through `from_tables`.  Like `grid23`, its incomparable values meet above
bottom (`1|1/2` and `1/2|1` meet at `1/2|1/2`), so a sweep that takes the
order by ordinal, or a check that trusts the values a map takes to stand
for their meets, shows on it.
"""

from hypothesis import strategies as st

import latfuzz as lf


def product_lattice(left, right, name):
    """The product of two lattices, with the componentwise order and
    tensor, through `from_tables` (the residuum is derived)."""
    pairs = [(a, b) for a in left.elements() for b in right.elements()]
    ordinal = {p: i for i, p in enumerate(pairs)}
    return lf.from_tables(
        [f"{left.displays[a]}|{right.displays[b]}" for a, b in pairs],
        [[left.leq[a][c] and right.leq[b][d] for c, d in pairs]
         for a, b in pairs],
        [[ordinal[left.tensor[a][c], right.tensor[b][d]] for c, d in pairs]
         for a, b in pairs],
        name=name)


PRODUCT = product_lattice(lf.godel_chain(3), lf.lukasiewicz_chain(3),
                          "godel3xlukasiewicz3")


def with_product(lattices: dict) -> dict:
    """`lattices` (name -> lattice) and `PRODUCT` under its name."""
    return {**lattices, PRODUCT.name: PRODUCT}


def spaces(lattices: dict, min_points: int = 0, max_sets: int = 256):
    """(lattice name, number of points, seed): a name of `lattices`, a
    universe size from `min_points` up to the largest whose space holds at
    most `max_sets` sets, and a seed for the input built on it."""
    def sized(name):
        n = len(lattices[name])
        most = max(p for p in range(max_sets.bit_length() + 1)
                   if n ** p <= max_sets)
        return st.tuples(st.just(name), st.integers(min_points, most),
                         st.integers(0, 2 ** 32 - 1))
    return st.sampled_from(sorted(lattices)).flatmap(sized)
