"""``SessionOptions`` is frozen against every assignment: a field, the
``store`` class constant and a name it does not have alike."""

import dataclasses

import pytest

from repro.sim import SessionOptions


@pytest.mark.parametrize("name", ["snapshots", "store", "bogus"])
def test_every_assignment_raises_frozen_instance_error(name):
    opts = SessionOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(opts, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(opts, name)
    assert opts == SessionOptions()
    assert SessionOptions.store == "list"
