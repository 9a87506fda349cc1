"""Tests for utilities: validation, logging."""

import io

import numpy as np
import pytest

from repro.obs.logging import RunLogger
from repro.util.validation import require_in_range, require_positive, require_shape


class TestValidation:
    def test_require_positive(self):
        assert require_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            require_positive(0.0, "x")
        with pytest.raises(ValueError):
            require_positive(-2, "x")

    def test_require_shape(self):
        a = np.zeros((3, 4))
        assert require_shape(a, (3, 4), "a") is not None
        assert require_shape(a, (-1, 4), "a") is not None
        with pytest.raises(ValueError):
            require_shape(a, (4, 3), "a")
        with pytest.raises(ValueError):
            require_shape(a, (3, 4, 1), "a")

    def test_require_in_range(self):
        assert require_in_range(0.5, 0, 1, "x") == 0.5
        with pytest.raises(ValueError):
            require_in_range(2.0, 0, 1, "x")


class TestRunLogger:
    def test_records_and_prints(self):
        buf = io.StringIO()
        log = RunLogger(stream=buf)
        log.section("phase")
        log.step("doing work")
        log.done()
        out = buf.getvalue()
        assert "phase" in out
        assert "doing work" in out
        assert len(log.records) == 3

    def test_disabled_still_records(self):
        buf = io.StringIO()
        log = RunLogger(stream=buf, enabled=False)
        log.step("quiet")
        assert buf.getvalue() == ""
        assert log.records == [log.records[0]]
