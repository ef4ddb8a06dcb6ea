"""The benchmark's tracer still finds every function it wraps.

perfbench/spans.py patches toricjac's layer functions by name; a rename
there would break ``perfbench/run.py --trace 1``, so it is caught here.
"""

import contextlib
import io
import shlex
from pathlib import Path

import toricjac.cli

ROOT = Path(__file__).resolve().parents[1]
FIND_ETA = ('find-eta --surface hirzebruch:1 --class 5,3 '
            '--poly "x1^5*x2^3 + x3^2*x4^3 + x3^5*x2^3 + x1^2*x4^3"')


def test_spans_install_traces_a_readme_command(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    argv = shlex.split(FIND_ETA)
    assert f"$ toricjac {FIND_ETA}" in (ROOT / "README.md").read_text()
    tracer = spans.Tracer()
    spans.install(tracer)
    patched = list(tracer._patches)
    assert all(getattr(owner, attr).__wrapped__ is original
               for owner, attr, original in patched)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = toricjac.cli.main(argv)
    finally:
        tracer.unpatch()
    assert code == 0 and "found: yes  (rank 5)" in out.getvalue()
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "criterion.find_rank_g_deformation", "linalg.rank",
            "linalg.reduce_vector", "jacobian.j1_piece",
            "jacobian.multiplication_matrix", "groebner.is_unit_ideal",
            "groebner.reduce_poly", "groebner.s_polynomial"} <= names
    # patched, but no library path calls the dense rref or kernel
    assert {(owner.__name__, attr) for owner, attr, _ in patched} >= {
        ("toricjac.linalg", "rref"), ("toricjac.linalg", "kernel")}
    assert not {"linalg.rref", "linalg.kernel"} & names
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
