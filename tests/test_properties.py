import pytest

from shrubs.checks import PROPERTIES

from properties import SIZES, holds


@pytest.mark.parametrize("name", PROPERTIES)
def test_property(name):
    holds(name)


def test_sizes_name_registered_properties():
    assert set(SIZES) <= set(PROPERTIES)
