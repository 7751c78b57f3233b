"""The benchmark's trace mode wraps tvgsr attributes by name; a refactor must keep them."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_trace_wrappers_install_and_unwrap(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import measure
    from spans import Tracer

    tracer = Tracer()
    measure.install_wrappers(tracer)  # AttributeError if a wrapped attribute is gone
    patches = list(tracer._patches)
    try:
        assert patches
        assert all(getattr(module, attr) is not original for module, attr, original in patches)
    finally:
        tracer.unwrap_all()
    assert all(getattr(module, attr) is original for module, attr, original in patches)
