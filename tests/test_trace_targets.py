"""The benchmark's tracer finds every layer it wraps.

``perfbench/tracing.py`` reports a wrap target that is missing from the
package as absent instead of failing, so without this check a rename or
deletion of a traced function would only show in a benchmark run."""

from __future__ import annotations

import os
import sys

import dirmarl.learner

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402


def test_every_trace_target_exists():
    original = dirmarl.learner.simulate_rollout
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert dirmarl.learner.simulate_rollout is not original
    finally:
        tracer.uninstall()
    assert dirmarl.learner.simulate_rollout is original
