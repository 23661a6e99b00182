"""The no-numpy fallback contract, tested for real.

numpy is an optional extra (``pip install repro[fast]``).  Without it
the engine registry must keep the same keys, ``vck`` — and ``vc`` on
programs past its kernel threshold — must silently degrade to the
shared scalar path, and verdicts must not change.  Monkeypatching
``sys.modules`` in-process is unreliable once numpy has been imported
anywhere, so this runs a fresh interpreter with numpy stubbed out of
``sys.modules`` before any repro import (the standard
``sys.modules[name] = None`` import blocker).
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

_PROBE = textwrap.dedent(
    """
    import json
    import sys

    # Block numpy before any repro import: a None entry makes every
    # `import numpy` raise ImportError, exactly like an uninstalled
    # package.
    sys.modules["numpy"] = None

    from repro.core.api import ENGINES, check, check_litmus
    from repro.core.kernels import HAVE_NUMPY
    from repro.core.vc import VectorClockChecker
    from repro.core.vck import AdaptiveVectorChecker
    from repro.model.expansion import expand
    from repro.generator.config import GeneratorConfig
    from repro.generator.generator import generate_program
    from repro.sim.machine import TsoMachine

    FIG3 = '''
        P0: S[B]#91 ; S[A]#1 ; L[A]=2
        P1: S[A]#2
        P2: S[B]#92 ; L[A]=2 ; L[B]=92
        P3: L[B]=92 ; L[B]=91
    '''

    def strip(text):
        return "\\n".join(
            line for line in text.splitlines() if "engine=" not in line
        )

    vck = check_litmus(FIG3, engine="vck")
    vc = check_litmus(FIG3, engine="vc")

    program = generate_program(
        GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=4), seed=11
    )
    trace = TsoMachine(program, seed=11).run()
    clean_vck = check(program, trace, engine="vck")
    clean_vc = check(program, trace, engine="vc")

    # Past the default engine's kernel threshold: still the scalar path.
    big_program = generate_program(
        GeneratorConfig(nprocs=8, ops_per_proc=200, shared_words=8), seed=3
    )
    big_trace = TsoMachine(big_program, seed=3).run()
    big_aprog = expand(big_trace, initial=big_program.initial)
    big_vc = check(big_program, big_trace, engine="vc")
    big_scalar = VectorClockChecker().run(big_aprog)

    def counters(result):
        stats = result.stats.to_dict()
        del stats["seconds"]
        return stats

    print(json.dumps({
        "have_numpy": HAVE_NUMPY,
        "engines": sorted(ENGINES),
        "fig3_ok": vck.ok,
        "fig3_engine": vck.engine,
        "fig3_cycle": vck.violation.cycle,
        "fig3_explains_match": strip(vck.explain()) == strip(vc.explain()),
        "clean_ok": clean_vck.ok and clean_vc.ok,
        "clean_edges_match": clean_vck.stats.edges == clean_vc.stats.edges,
        "kernel_batches": clean_vck.stats.kernel_batches,
        "big_nodes": big_aprog.n,
        "kernel_min_nodes": AdaptiveVectorChecker.kernel_min_nodes,
        "big_ok": big_vc.ok and big_scalar.ok,
        "big_engine": big_vc.engine,
        "big_kernel_batches": big_vc.stats.kernel_batches,
        "big_counters_match": counters(big_vc) == counters(big_scalar),
    }))
    """
)


def test_vck_falls_back_without_numpy():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["have_numpy"] is False
    from repro.core.api import ENGINES

    assert report["engines"] == sorted(ENGINES)
    # Fig. 3 must still fail, attributed to the vck engine, with the
    # same witness the scalar vc engine reports (the fallback *is* the
    # scalar path, so parity here is exact).
    assert report["fig3_ok"] is False
    assert report["fig3_engine"] == "vck"
    assert report["fig3_cycle"]
    assert report["fig3_explains_match"] is True
    # A clean golden run passes with identical inferred-edge counts, and
    # no kernel batches run (there are no kernels to run).
    assert report["clean_ok"] is True
    assert report["clean_edges_match"] is True
    assert report["kernel_batches"] == 0
    # The default engine on a program past its kernel threshold runs the
    # scalar loops, counter for counter, and keeps the verdict.
    assert report["big_nodes"] >= report["kernel_min_nodes"]
    assert report["big_ok"] is True
    assert report["big_engine"] == "vc"
    assert report["big_kernel_batches"] == 0
    assert report["big_counters_match"] is True


@pytest.mark.skipif(
    not any(
        os.path.exists(os.path.join(p, "numpy"))
        for p in sys.path
        if p
    )
    and "numpy" not in sys.modules,
    reason="numpy not installed; fast path covered by the fallback test",
)
def test_vck_fast_path_counts_kernel_batches():
    # Counterpart smoke check in the numpy-enabled interpreter: the fast
    # path actually runs batches (telemetry counter is non-zero).
    pytest.importorskip("numpy")
    from repro.core.api import check
    from repro.generator.config import GeneratorConfig
    from repro.generator.generator import generate_program
    from repro.sim.machine import TsoMachine

    program = generate_program(
        GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=4), seed=11
    )
    trace = TsoMachine(program, seed=11).run()
    result = check(program, trace, engine="vck")
    assert result.ok
    assert result.stats.kernel_batches > 0
