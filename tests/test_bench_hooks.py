"""Every cavsim function that ``bench/spans.py`` (loaded by path, unmodified) patches
exists, and the dense and branch runners call the layer functions through the
module attributes it replaces: the tracer patches by name, so a rename or a
captured reference would only make its metrics read 0."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from cavsim import Scenario, branch_run, evolution, run_scenario

_spec = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)
HOOKS = [layer[:2] for layer in spans.LAYERS] + [spans.ADVANCE_HOOK, spans.RK4_HOOK]
STEP_LAYERS = ("stage_step", "dissipative_map", "branch_step")


@pytest.mark.parametrize("path, attr", HOOKS, ids=[".".join(hook) for hook in HOOKS])
def test_hook_resolves_to_callable(path, attr):
    assert callable(getattr(spans._resolve(path), attr, None)), f"cavsim.{path}.{attr}"


def test_runners_call_through_patched_layers(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in STEP_LAYERS:
        monkeypatch.setattr(evolution, name, counting(name, getattr(evolution, name)))
    sc = Scenario().variant(alpha=0.5, beta=0.5, g=0.2, q=0.2, n1=8, n2=8)
    # cavity 1 steps 10 and 30 us; the sample at 90 us is cavity 2's end: 6 steps per run
    times = [0.0, 10.0, 30.0, 90.0]
    # snapshots are made when read, so each trajectory is read while the layers are patched
    run_scenario(sc, times).states
    assert counts == {"stage_step": 6, "dissipative_map": 6}
    branch_run(sc, times).states
    assert counts == {"stage_step": 6, "dissipative_map": 6, "branch_step": 6}
