"""The committed bench scripts under bench/, run small."""

import importlib.util
from pathlib import Path

from hxpw.certify import STAGES

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_peaks_at_h2():
    """One record per stage plus the total, in STAGES order, from a fresh
    child; the child's ru_maxrss is a high-water mark and never falls."""
    out = _load("stages").stage_peaks(2)
    assert list(out) == [name for name, *_ in STAGES] + ["total"]
    assert all(set(rec) == {"wall_s", "ru_maxrss_mb"} for rec in out.values())
    peaks = [rec["ru_maxrss_mb"] for rec in out.values()]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert out["total"]["wall_s"] >= max(rec["wall_s"] for rec in out.values())
