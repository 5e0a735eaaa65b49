"""Tests for the exception hierarchy and the top-level package API."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestExceptionHierarchy:
    def test_all_errors_derive_from_quaestor_error(self):
        error_types = [
            errors.InvalidQueryError,
            errors.UnsupportedOperationError,
            errors.DocumentNotFoundError,
            errors.DuplicateKeyError,
            errors.CollectionNotFoundError,
            errors.CapacityExceededError,
            errors.TransactionAbortedError,
            errors.StalenessBoundViolatedError,
            errors.CacheCoherenceError,
            errors.ConfigurationError,
        ]
        for error_type in error_types:
            assert issubclass(error_type, errors.QuaestorError)
            assert issubclass(error_type, Exception)

    def test_errors_carry_messages(self):
        with pytest.raises(errors.InvalidQueryError, match="bad operator"):
            raise errors.InvalidQueryError("bad operator")

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(errors.QuaestorError):
            raise errors.TransactionAbortedError("conflict")


class TestTopLevelApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_clocks_re_exported(self):
        assert repro.VirtualClock is not None
        clock = repro.VirtualClock()
        clock.advance(1.0)
        assert clock.now() == 1.0

    def test_public_subpackages_importable(self):
        import repro.benchmarks
        import repro.bloom
        import repro.caching
        import repro.client
        import repro.core
        import repro.db
        import repro.invalidb
        import repro.metrics
        import repro.rest
        import repro.simulation
        import repro.ttl
        import repro.workloads

        assert repro.core.QuaestorServer is not None
        assert repro.client.QuaestorClient is not None
        assert repro.simulation.Simulator is not None

    def test_all_lists_are_consistent(self):
        import repro.bloom
        import repro.caching
        import repro.client
        import repro.core

        for module in (repro, repro.bloom, repro.caching, repro.client, repro.core):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"
