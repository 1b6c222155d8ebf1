"""The shared normalized sensor record."""

import math

import pytest

from repro.errors import ConfigError
from repro.store import Batch, Reading, ShardedStore


class TestReading:
    def test_requires_location_and_mechanism(self):
        with pytest.raises(ConfigError, match="location"):
            Reading(0.0, "", "envdb", {})
        with pytest.raises(ConfigError, match="mechanism"):
            Reading(0.0, "R00-M0-N00", "", {})

    def test_value_lookup_names_missing_field(self):
        reading = Reading(1.0, "R00-M0-N00", "envdb", {"input_power_w": 2.5})
        assert reading.value("input_power_w") == 2.5
        with pytest.raises(ConfigError, match=r"no field 'output_power_w'"):
            reading.value("output_power_w")

    def test_with_values_copies(self):
        reading = Reading(1.0, "R00-M0-N00", "envdb", {"a": 1.0})
        extended = reading.with_values(b=2.0, a=3.0)
        assert extended.values == {"a": 3.0, "b": 2.0}
        assert reading.values == {"a": 1.0}  # original untouched
        assert extended.location == reading.location

    def test_equality_is_by_value(self):
        assert Reading(1.0, "R00", "envdb", {"a": 1.0}) == \
            Reading(1.0, "R00", "envdb", {"a": 1.0})


class TestTimestampValidation:
    """A non-finite timestamp is rejected where the record is built, so
    no ingest path can take it; NaN values stay legal (dark readings)."""

    @pytest.mark.parametrize("timestamp", [float("nan"), float("inf"),
                                           float("-inf")])
    def test_non_finite_timestamp_rejected_naming_location(self, timestamp):
        with pytest.raises(ConfigError,
                           match=r"'R00-M0-N00' has non-finite timestamp"):
            Reading(timestamp, "R00-M0-N00", "envdb", {"input_power_w": 1.0})

    def test_nan_value_accepted_and_stored(self):
        store = ShardedStore(("bpm",))
        dark = Reading(2.0, "R00-M0-N00", "envdb",
                       {"input_power_w": float("nan")})
        store.ingest("bpm", Reading(1.0, "R00-M0-N00", "envdb",
                                    {"input_power_w": 1.0}))
        store.ingest_batch(Batch.of_readings([("bpm", dark)]), interval_s=1.0)
        rows = store.range("bpm", 0.0, 10.0)
        assert [r.timestamp for r in rows] == [1.0, 2.0]
        assert math.isnan(rows[1].value("input_power_w"))
