"""A sim child that hangs is killed at its deadline; the run does not wait on it."""

import os
import sys
import time

import pytest

from perfbench import sim
from perfbench.hermetic import Scratch


def test_a_hung_child_is_killed_and_fails_the_run(tmp_path, monkeypatch):
    pidfile = tmp_path / "pid"
    hang = tmp_path / "hang"
    hang.write_text(f"#!/bin/sh\necho $$ > {pidfile}\nexec sleep 60\n")
    hang.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(hang))
    monkeypatch.setattr(sim, "CHILD_GRACE", 0.5)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="hung"):
        sim._spawn("sim_comm", 0, 0.0, Scratch(tmp_path, dict(os.environ), []), smoke=False)
    assert time.monotonic() - started < 10.0
    with pytest.raises(ProcessLookupError):  # reaped, not left running
        os.kill(int(pidfile.read_text()), 0)
