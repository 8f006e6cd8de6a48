"""Tests of the slot-timing constants and conversions."""

import pytest

from repro.baseband.constants import (
    SLOT_SECONDS,
    SLOT_US,
    SLOTS_PER_SECOND,
    seconds_to_us,
    us_to_seconds,
)


def test_slot_grid_matches_paper():
    # "each second is divided into 1600 time slots"
    assert SLOT_US == 625
    assert SLOTS_PER_SECOND == 1600
    assert SLOT_US * SLOTS_PER_SECOND == 1_000_000


def test_time_conversions_round_trip():
    assert us_to_seconds(seconds_to_us(0.02)) == pytest.approx(0.02)
    assert seconds_to_us(SLOT_SECONDS) == SLOT_US
