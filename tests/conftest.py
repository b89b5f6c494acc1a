"""Fixtures shared by several test modules."""

import pytest


@pytest.fixture
def poisoned_config(monkeypatch):
    """Make sweeps start the mix ``-GL`` with a non-finite gap.

    Its first follower's control input is then NaN from the first tick on;
    every other configuration is untouched.  Returns the poisoned config.
    """
    from mixcacc import experiments

    config = "-GL"
    real = experiments.scenario_for

    def scenario_for(kind, cfg, duration=None):
        scn = real(kind, cfg, duration)
        if cfg == config:
            scn.initial_gap_offsets = {1: float("nan")}
        return scn

    monkeypatch.setattr(experiments, "scenario_for", scenario_for)
    return config
