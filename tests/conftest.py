"""Fixtures shared by several test modules."""

import pytest


@pytest.fixture
def poison(monkeypatch):
    """``poison(config)`` makes sweeps start ``config`` with a non-finite gap.

    Its first follower's control input is then NaN from the first tick on;
    every other configuration is untouched.  Returns the poisoned config.
    """
    from mixcacc import experiments

    real = experiments.scenario_for

    def poison(config):
        def scenario_for(kind, cfg, duration=None, **kwargs):
            scn = real(kind, cfg, duration, **kwargs)
            if cfg == config:
                scn.initial_gap_offsets = {1: float("nan")}
            return scn

        monkeypatch.setattr(experiments, "scenario_for", scenario_for)
        return config

    return poison


@pytest.fixture
def poisoned_config(poison):
    """The mix ``-GL``, poisoned as :func:`poison` does."""
    return poison("-GL")
