"""Shared fixtures."""

import concurrent.futures

import pytest

from thznoma import montecarlo


@pytest.fixture()
def pool_starts(monkeypatch):
    """The max_workers of every process pool a sweep starts, in order.
    POOL_EVALS is lowered to 1, so a sweep forks a real pool from two
    chunks on and a small run takes the pooled path."""
    monkeypatch.setattr(montecarlo, "POOL_EVALS", 1)
    starts = []
    real = concurrent.futures.ProcessPoolExecutor

    def counting(max_workers):
        starts.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return starts
