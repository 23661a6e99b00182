"""Golden pins for the Fig. 2 rule seeding and the engines built on it.

Twenty generated programs — atomics and membars in the default mix,
twelve of them run with an injected fault so that failing witnesses
are covered too — are checked under TSO, SC and PSO.  For each model the
tests pin one digest of:

* the ordered R1–R3/atomic/init edges of ``static_edges`` and the
  ordered R4/R5 edges of ``observed_edges``, rule and reason text
  included;
* the chain decomposition ``Chains.nodes``;
* per engine (``baseline``, ``closure``, ``vc``, ``vck`` with and
  without its kernel path): verdict, violation kind, every
  ``CheckStats`` counter except wall time, and ``explain()``.

The values were captured before the program-order rules, the R4/R5
reasons, the chain decomposition and the ordered edge insert each moved
to a single shared home; moving code must not move any of them.
"""

import hashlib

import pytest

from repro.core import kernels
from repro.core.api import check_execution
from repro.core.engine import observed_edges
from repro.core.policy import PSO, SC, TSO, static_edges
from repro.core.prep import Chains
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.sim.faults import (
    AtomicityHoleFault,
    StaleForwardFault,
    StoreBufferReorderFault,
)
from repro.sim.machine import TsoMachine

CONFIG = GeneratorConfig(nprocs=3, ops_per_proc=30, shared_words=3)
#: Seed ``s`` runs with ``FAULTS[s % 5]`` injected, fault-free otherwise.
FAULTS = {1: StoreBufferReorderFault, 3: AtomicityHoleFault, 4: StaleForwardFault}
SEEDS = range(20)
MODELS = {"TSO": TSO, "SC": SC, "PSO": PSO}

GOLDEN = {
    "TSO": {
        "rules": "393e9e724e47bae1",
        "chains": "ce23059e1b5493c0",
        "baseline": "0111af5417e7fbd2",
        "closure": "f401bd6f9f6e00a5",
        "vc": "0ba0d5454d364a75",
        "vck": "ce5b62c9e34ffbed",
        "vck-scalar": "e333f7c553cb080e",
    },
    "SC": {
        "rules": "35305a6804c295ab",
        "chains": "5435948f068500cb",
        "baseline": "9aaed5d795bd2383",
        "closure": "f25943917307952a",
        "vc": "3efc782d2a92af51",
        "vck": "be2af434d714e72a",
        "vck-scalar": "0edaf6282356b8ef",
    },
    "PSO": {
        "rules": "58ba075b7ab67714",
        "chains": "97d0a743a128ee0a",
        "baseline": "505ef80ec41ab8c9",
        "closure": "1b4f3124e1ad644f",
        "vc": "86289018a5559b25",
        "vck": "194231c869f1d33d",
        "vck-scalar": "d529df9413536300",
    },
}


def _runs():
    for seed in SEEDS:
        program = generate_program(CONFIG, seed=seed)
        fault = FAULTS.get(seed % 5)
        faults = [fault(rate=0.5)] if fault is not None else []
        execution = TsoMachine(program, seed=seed, faults=faults).run()
        yield program, execution


RUNS = list(_runs())


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _rule_lines(model):
    for program, execution in RUNS:
        aprog = expand(
            execution, initial=program.initial, word_names=program.word_names
        )
        yield "program"
        yield from static_edges(aprog, model)
        for u, v, reason, rule in observed_edges(aprog):
            yield u, v, rule, reason.rule, reason.render()


def _chain_lines(model):
    for program, execution in RUNS:
        aprog = expand(
            execution, initial=program.initial, word_names=program.word_names
        )
        yield Chains(aprog, model).nodes


def _engine_lines(model, engine):
    for program, execution in RUNS:
        result = check_execution(
            execution, initial=program.initial,
            word_names=program.word_names, model=model, engine=engine,
        )
        stats = result.stats.to_dict()
        del stats["seconds"]
        kind = result.violation.kind.name if result.violation else None
        yield result.ok, kind, sorted(stats.items()), result.explain()


def capture():
    """The digests this module pins, recomputed from the current code."""
    out = {}
    for name, model in MODELS.items():
        row = out[name] = {
            "rules": _digest(_rule_lines(model)),
            "chains": _digest(_chain_lines(model)),
        }
        for engine in ("baseline", "closure", "vc", "vck"):
            row[engine] = _digest(_engine_lines(model, engine))
        saved = kernels.HAVE_NUMPY
        kernels.HAVE_NUMPY = False
        try:
            row["vck-scalar"] = _digest(_engine_lines(model, "vck"))
        finally:
            kernels.HAVE_NUMPY = saved
    return out


@pytest.mark.parametrize("model", sorted(MODELS))
def test_static_and_observed_edges_are_pinned(model):
    assert _digest(_rule_lines(MODELS[model])) == GOLDEN[model]["rules"]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_chain_decomposition_is_pinned(model):
    assert _digest(_chain_lines(MODELS[model])) == GOLDEN[model]["chains"]


@pytest.mark.parametrize("engine", ["baseline", "closure", "vc", "vck"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_engine_outputs_are_pinned(model, engine):
    if engine == "vck" and not kernels.HAVE_NUMPY:
        pytest.skip("vck's kernel path needs numpy")
    expected = GOLDEN[model][engine]
    assert _digest(_engine_lines(MODELS[model], engine)) == expected


@pytest.mark.parametrize("model", sorted(MODELS))
def test_vck_scalar_fallback_is_pinned(model, monkeypatch):
    monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
    expected = GOLDEN[model]["vck-scalar"]
    assert _digest(_engine_lines(MODELS[model], "vck")) == expected
