"""Typed error taxonomy: codes, HTTP mapping, backward compatibility."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import FTMapService, MapRequest
from repro.api.errors import (
    ERROR_CODES,
    ApiError,
    AuthenticationError,
    DuplicateRequestError,
    InvalidRequestError,
    JobCancelledError,
    JobFailedError,
    JobNotFoundError,
    JobTimeoutError,
    QuotaExceededError,
    SchemaVersionError,
    ServiceClosedError,
    UnknownReceptorError,
    error_body,
    error_from_code,
)
from repro.api.jobs import JobHandle
from repro.api.schema import SCHEMA_VERSION, check_schema_version
from repro.mapping.ftmap import FTMapConfig
from repro.structure import synthetic_protein


class TestTaxonomy:
    def test_backward_compatible_subclassing(self):
        """Each typed error is-a the builtin its code path used to raise,
        so legacy ``except ValueError`` / ``except KeyError`` sites work."""
        assert issubclass(InvalidRequestError, ValueError)
        assert issubclass(SchemaVersionError, ValueError)
        assert issubclass(SchemaVersionError, InvalidRequestError)
        assert issubclass(UnknownReceptorError, KeyError)
        assert issubclass(JobNotFoundError, KeyError)
        assert issubclass(DuplicateRequestError, ValueError)
        assert issubclass(ServiceClosedError, RuntimeError)
        assert issubclass(JobTimeoutError, TimeoutError)
        assert issubclass(JobFailedError, RuntimeError)
        assert issubclass(JobCancelledError, RuntimeError)
        for cls in ERROR_CODES.values():
            assert issubclass(cls, ApiError)

    def test_codes_are_distinct_and_mapped(self):
        codes = [cls.code for cls in ERROR_CODES.values()]
        assert len(codes) == len(set(codes))
        assert ERROR_CODES["unknown_receptor"] is UnknownReceptorError
        assert UnknownReceptorError.http_status == 404
        assert QuotaExceededError.http_status == 429
        assert AuthenticationError.http_status == 401
        assert ServiceClosedError.http_status == 503
        assert InvalidRequestError.http_status == 400

    def test_error_body_round_trip(self):
        exc = UnknownReceptorError("no receptor deadbeef")
        body = error_body(exc)["error"]
        assert body["code"] == "unknown_receptor"
        assert body["http_status"] == 404
        assert body["message"] == "no receptor deadbeef"
        rebuilt = error_from_code(body["code"], body["message"])
        assert isinstance(rebuilt, UnknownReceptorError)
        assert rebuilt.as_message() == "no receptor deadbeef"

    def test_keyerror_message_not_mangled(self):
        """KeyError's repr-quoting must not leak into wire bodies."""
        exc = JobNotFoundError("no job with id 'x'")
        assert str(exc) != exc.as_message()  # KeyError str() adds quotes
        assert error_body(exc)["error"]["message"] == "no job with id 'x'"

    def test_unknown_exception_degrades_to_internal(self):
        body = error_body(RuntimeError("boom"))["error"]
        assert body["code"] == "internal_error"
        assert body["http_status"] == 500
        assert "boom" in body["message"]

    def test_quota_error_carries_retry_after(self):
        exc = QuotaExceededError("slow down", retry_after_s=2.5)
        assert exc.retry_after_s == 2.5
        rebuilt = error_from_code("quota_exceeded", "slow down", 2.5)
        assert isinstance(rebuilt, QuotaExceededError)
        assert rebuilt.retry_after_s == 2.5

    def test_unknown_code_becomes_base_api_error(self):
        rebuilt = error_from_code("no_such_code", "mystery")
        assert type(rebuilt) is ApiError


class TestSchemaVersioning:
    def test_current_version_accepted(self):
        assert (
            check_schema_version({"schema_version": SCHEMA_VERSION}, "X")
            == SCHEMA_VERSION
        )

    def test_previous_version_still_read(self):
        assert check_schema_version({"schema_version": 1}, "X") == 1

    def test_missing_version_is_v1_dialect(self):
        assert check_schema_version({}, "X") == 1

    def test_future_version_rejected(self):
        with pytest.raises(SchemaVersionError, match="schema_version 99"):
            check_schema_version({"schema_version": 99}, "MapRequest")

    def test_malformed_version_rejected(self):
        for bad in ("1", 1.5, True, None):
            with pytest.raises(InvalidRequestError):
                check_schema_version({"schema_version": bad}, "X")


class TestServiceTypedErrors:
    def test_unknown_receptor_is_typed(self):
        with FTMapService() as service:
            with pytest.raises(UnknownReceptorError):
                service.map("not-a-fingerprint")

    def test_closed_service_is_typed(self):
        service = FTMapService()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(MapRequest(receptor="abc"))

    def test_job_lookup_is_typed(self):
        with FTMapService() as service:
            with pytest.raises(JobNotFoundError):
                service.job("never-submitted")

    def test_constructor_validation_is_typed(self):
        with pytest.raises(InvalidRequestError, match="max_workers"):
            FTMapService(max_workers=0)
        with pytest.raises(InvalidRequestError, match="streaming"):
            FTMapService(streaming="warp")


class TestResultTimeoutContract:
    """JobHandle.result must distinguish wait-timeout from job-failure."""

    def test_wait_timeout_raises_job_timeout_error(self):
        handle = JobHandle("j")
        t0 = time.perf_counter()
        with pytest.raises(JobTimeoutError, match="still"):
            handle.result(timeout=0.05)
        assert time.perf_counter() - t0 < 5.0
        assert handle.status() == "queued"  # the job is NOT terminal

    def test_failed_job_reraises_original_even_a_timeout(self):
        """A TimeoutError raised *inside* the job must stay identifiable
        as a failure, never masquerade as the wait giving up."""
        handle = JobHandle("j")
        original = TimeoutError("the job's own timeout")
        handle._finish("failed", error=original)
        with pytest.raises(TimeoutError) as excinfo:
            handle.result(timeout=1.0)
        assert excinfo.value is original
        assert not isinstance(excinfo.value, JobTimeoutError)

    def test_real_slow_job_round_trip(self):
        protein = synthetic_protein(n_residues=30, seed=3)
        cfg = FTMapConfig(
            probe_names=("ethanol",),
            num_rotations=4,
            receptor_grid=24,
            minimize_top=1,
            minimizer_iterations=2,
        )
        with FTMapService(max_workers=1) as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            try:
                handle.result(timeout=0.0)
            except JobTimeoutError:
                pass  # legitimate: the job had no time to finish
            result = handle.result(timeout=300)
            assert result.receptor_hash

    def test_done_callback_fires_once(self):
        handle = JobHandle("j")
        calls = []
        handle.add_done_callback(lambda h: calls.append(h.status()))
        barrier = threading.Barrier(2)

        def finish():
            barrier.wait()
            handle._finish("done", result=42)

        t = threading.Thread(target=finish)
        t.start()
        barrier.wait()
        t.join()
        assert calls == ["done"]
        # Late registration on a terminal handle fires immediately.
        handle.add_done_callback(lambda h: calls.append("late"))
        assert calls == ["done", "late"]
