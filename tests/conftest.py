"""Helpers shared by the tests of the two-CPU paths (``nn.helper``)."""
import threading

import pytest

import ssfx.nn.helper as helper_module


def usable_cpus(monkeypatch, n):
    """Make ``nn.helper.usable_cpus`` report ``n`` CPUs for the rest of the test."""
    monkeypatch.setattr(helper_module.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def helpers_started(monkeypatch):
    """Every thread started while the test runs."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    # The helper scope's executor starts its thread through ``threading.Thread``.
    monkeypatch.setattr(threading, "Thread", Recorded)
    return started
