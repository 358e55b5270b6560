import random

import pytest

# the seeded draws the property checks make, shared so the tests draw alike
from gso.paperchecks import _random_connected as random_connected  # noqa: F401
from gso.paperchecks import _random_rooted as random_rooted  # noqa: F401


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
