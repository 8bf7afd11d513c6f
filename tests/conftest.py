import itertools

import pytest

from alcove_kl.rootsys import ModularContext, build_root_system
from alcove_kl.weylext import from_word


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
