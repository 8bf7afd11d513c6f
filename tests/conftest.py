import contextlib
import itertools

import pytest

from alcove_kl.rootsys import ModularContext, build_root_system
from alcove_kl.weylext import ExtWeylElt, LabelTable, finite_group, from_word, length, simple_reflection


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def ctx_a1(a1):
    return ModularContext(a1, 5)


@pytest.fixture(scope="session")
def ctx_a2(a2):
    return ModularContext(a2, 5)


@contextlib.contextmanager
def fresh_table(sys):
    """A cold label table for ``sys`` while the block runs, as a fresh
    process has: computers made in the block number their labels and
    form their products from scratch.  The table the rest of the session
    shares is put back after the block."""
    group = finite_group(sys)
    shared = group.table
    group.table = LabelTable(group)
    try:
        yield group.table
    finally:
        group.table = shared


def count_products(monkeypatch):
    """The list that records every group product formed from here on."""
    calls = []
    mul = ExtWeylElt.__mul__
    monkeypatch.setattr(ExtWeylElt, "__mul__", lambda a, b: calls.append((a, b)) or mul(a, b))
    return calls


def filled_entries(table):
    """The (number, generator) entries of the table's neighbour lists
    that hold a number."""
    return {(k, i) for k, nbrs in enumerate(table.nbrs) for i, n in enumerate(nbrs) if n is not None}


def dihedral_element(sys, n):
    """The W_aff element whose alcove is the interval (n, n+1) on the line."""
    word = []
    k = n
    while k > 0:
        word.append(0 if len(word) % 2 == 0 else 1)
        k -= 1
    while k < 0:
        word.append(1 if len(word) % 2 == 0 else 0)
        k += 1
    return from_word(sys, word)


def product_coset_rep(sys, x, longer):
    """The maximal (``longer``) or minimal element of W_f x by the product
    probe: step to s_i x for any finite s_i that makes it longer (or
    shorter) until none does."""
    while True:
        for i in range(1, sys.rank + 1):
            y = simple_reflection(sys, i) * x
            if (length(sys, y) > length(sys, x)) == longer:
                x = y
                break
        else:
            return x


def a2_root_partitions(nu):
    """The number of ways the A2 weight nu (fundamental-weight coordinates)
    is an N-combination n1 a1 + n2 a2 + n3 (a1 + a2) of the positive roots
    a1 = (2, -1), a2 = (-1, 2) and a1 + a2 = (1, 1), found by search.

    Each simple-root coordinate of nu is at most |nu_1| + |nu_2|, so no
    root is used more often; the first coordinate fixes n2 given n1, n3.
    """
    reach = abs(nu[0]) + abs(nu[1])
    count = 0
    for n1, n3 in itertools.product(range(reach + 1), repeat=2):
        n2 = 2 * n1 + n3 - nu[0]
        if n2 >= 0 and -n1 + 2 * n2 + n3 == nu[1]:
            count += 1
    return count
