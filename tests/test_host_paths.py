"""The fixture outputs with numpy's AVX-512 routines switched off.

numpy 2.x dispatches float64 log, log1p, log2, exp and power to AVX-512
(X86_V4) routines where the CPU has them, and those differ in the last bit
from its AVX2 and baseline paths on a small share of inputs. The golden
digests pin the bytes of one path only. This test traces both fixtures
again in a child process with those routines switched off through
NPY_DISABLE_CPU_FEATURES, and holds the child's trace to this process's:
the rank rows, which carry every ranking and tie, exactly, and every other
number within REL_TOL relative. Measured with numpy 2.4.6 on an x86-64 host
with AVX-512: 297 of the 3,738 trace rows differ, by at most 3.0e-15
relative, across 10 stages, and no rank row does.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
from panelrank import emit_trace, evaluate_all, parse_judgments, read_trace

SRC = Path(__file__).resolve().parent.parent / "src"
AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
REL_TOL = 1e-14
NUMBER = re.compile(r"[-+]?(?:inf|nan|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _present_avx512() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x keeps the module under numpy.core
        from numpy.core._multiarray_umath import __cpu_features__
    # numpy refuses to start when asked to disable a feature the CPU lacks
    return [name for name in AVX512 if __cpu_features__.get(name)]


def _numbers(value: str) -> list[float]:
    return [float(token) for token in NUMBER.findall(value)]


@pytest.mark.parametrize("name", ["supplier_rounds.json", "round1.json"])
def test_the_fixtures_agree_without_the_avx512_routines(tmp_path, name):
    disabled = _present_avx512()
    if not disabled:
        pytest.skip("numpy dispatches no AVX-512 routines on this host")
    path = FIXTURES / name
    out = tmp_path / "trace.csv"
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    command = [sys.executable, "-m", "panelrank", "trace", str(path), "--out", str(out)]
    result = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    theirs = read_trace(out.read_bytes())
    ours = read_trace(emit_trace(evaluate_all(parse_judgments(path.read_bytes()))))
    assert len(theirs) == len(ours)
    for mine, other in zip(ours, theirs):
        assert mine[:5] == other[:5]
        if mine.stage == "rank":
            assert mine == other
            continue
        a, b = _numbers(mine.value), _numbers(other.value)
        assert len(a) == len(b) > 0, mine
        # inf == inf, and equal finite values pass whatever their size
        assert all(x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y)) for x, y in zip(a, b)), (
            mine,
            other,
        )
