import functools
import os

import pytest

from polarlines.spaces import build_space, form_values, load_space, save_space
from polarlines.schemetables import tables_for_space

_CACHE_ENV = "POLARLINES_TEST_CACHE"


class SpacePool:
    """Builds each space once per session, optionally disk-cached."""

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._spaces = {}

    def get(self, family, q):
        key = (family, q)
        if key not in self._spaces:
            path = None
            if self.cache_dir:
                path = os.path.join(self.cache_dir, f"{family}_q{q}.json")
            if path and os.path.exists(path):
                self._spaces[key] = load_space(path)
            else:
                self._spaces[key] = build_space(family, q)
                if path:
                    os.makedirs(self.cache_dir, exist_ok=True)
                    save_space(self._spaces[key], path)
        return self._spaces[key]


@pytest.fixture(scope="session")
def spaces():
    return SpacePool(cache_dir=os.environ.get(_CACHE_ENV))


@functools.lru_cache(maxsize=1)
def _past_the_cap(family, q, max_lines):
    return build_space(family, q, max_lines=max_lines)


@pytest.fixture(scope="session")
def past_the_cap():
    """build_space(family, q, max_lines), keeping the last space only, so one is alive at a time.

    These spaces are never saved: the labels sidecar would force their n x n
    relation table.
    """
    return _past_the_cap


@pytest.fixture(scope="session")
def u74():
    """U(7,4), the smallest space of the sixth family: 89,397 lines, past the default cap.

    Never saved, like the spaces of past_the_cap; it holds about 26 MiB of arrays.
    """
    return build_space("U7", 4, max_lines=100_000)


@pytest.fixture(scope="session")
def o6plus2(spaces):
    return spaces.get("O6plus", 2)


@pytest.fixture(scope="session")
def sp62(spaces):
    return spaces.get("Sp6", 2)


@pytest.fixture(scope="session")
def o6plus3(spaces):
    return spaces.get("O6plus", 3)


@pytest.fixture(scope="session")
def o8minus2(spaces):
    return spaces.get("O8minus", 2)


@pytest.fixture(scope="session")
def o73(spaces):
    return spaces.get("O7", 3)


@pytest.fixture(scope="session")
def sp63(spaces):
    return spaces.get("Sp6", 3)


@pytest.fixture(scope="session")
def u64(spaces):
    return spaces.get("U6", 4)


def tables_of(space):
    return tables_for_space(space)


def form_perp(space):
    """points x points bool: the pairs of points on which the form B vanishes.

    The tests' oracle of perpendicularity, from the form alone and not from
    the incidence.  Every point is singular, so the diagonal is True.
    """
    return form_values(space.form, space.pts_arr, space.pts_arr) == 0
