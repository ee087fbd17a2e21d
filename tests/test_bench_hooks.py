"""Every cavsim function that ``bench/spans.py`` (loaded by path, unmodified) patches
exists: the tracer patches by name, so a rename would only make its metrics read 0."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)
HOOKS = [layer[:2] for layer in spans.LAYERS] + [spans.ADVANCE_HOOK, spans.RK4_HOOK]


@pytest.mark.parametrize("path, attr", HOOKS, ids=[".".join(hook) for hook in HOOKS])
def test_hook_resolves_to_callable(path, attr):
    assert callable(getattr(spans._resolve(path), attr, None)), f"cavsim.{path}.{attr}"
