"""The compiled backend's equivalence contract.

The :mod:`repro.jit` backend exists to be *fast*, never *different*:
for every application x switch-model pair the compiled backend must
produce a :meth:`SimStats.to_dict` bit-identical to the interpreter's.
This suite pins that contract three ways:

* the full application x model grid, fault-free (every program built
  with ``lint=True``, so only statically verified code is compiled);
* a fault-injected subset (uniform latency jitter + 1% reply loss),
  where the compiled backend must take the interpreter's slow paths —
  byte for byte — through the NACK/retry protocol;
* each grid and fault-injected cell also runs traced, where both
  backends must emit the same :class:`~repro.obs.tracer.RingTracer`
  event stream (traced runs compile a different variant, so the
  untraced cases stay);
* the committed golden fixture (``tests/data/golden_stats.json``) plus
  the :mod:`repro.check` result oracles, so the compiled backend is
  anchored to the same pre-fault baseline as the interpreter, not just
  to whatever the interpreter does today.
"""

import json
from pathlib import Path

import pytest

from repro.apps.registry import app_names
from repro.check import check_result
from repro.engine.executor import _build
from repro.engine.spec import RunSpec
from repro.faults import FaultConfig
from repro.machine import SwitchModel
from repro.obs.tracer import RingTracer
from repro.runtime.execution import make_simulator

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_stats.json").read_text()
)

APPS = app_names()
MODELS = [model.value for model in SwitchModel]

#: Fault-injected subset: three memory-intensive apps under the three
#: models whose slow paths differ most (plain load switching, the cached
#: model, and one-instruction bursts).
FAULT_APPS = ("sieve", "mp3d", "water")
FAULT_MODELS = (
    "switch-on-load",
    "switch-on-use-miss",
    "switch-every-cycle",
)


def _cells(apps, models):
    """``(app, model, traced)`` params; untraced cells keep the plain
    ``app-model`` id."""
    return [
        pytest.param(app, model, traced, id=f"{app}-{model}{suffix}")
        for app in apps
        for model in models
        for traced, suffix in ((False, ""), (True, "-traced"))
    ]


def _stats_for(spec: RunSpec, backend: str, lint: bool = True, tracer=None):
    """One in-process simulation -> checked SimulationResult."""
    app, program = _build(
        spec.app,
        spec.total_threads,
        spec.effective_code_model.value,
        spec.scale,
        lint,
    )
    result = make_simulator(
        app,
        spec.machine_config(),
        program=program,
        tracer=tracer,
        backend=backend,
    ).run()
    if app.check is not None:
        app.check(result.shared)
    return result


def _run_both(spec: RunSpec, traced: bool):
    """Run *spec* on both backends; when *traced*, also assert the full
    tracer event streams are equal."""
    tracers = [RingTracer(capacity=None) if traced else None for _ in range(2)]
    interpreted = _stats_for(spec, "interpreter", tracer=tracers[0])
    compiled = _stats_for(spec, "compiled", tracer=tracers[1])
    if traced:
        events = tracers[0].events()
        assert events, f"{spec.app}/{spec.model}: the tracer recorded nothing"
        assert events == tracers[1].events(), (
            f"{spec.app}/{spec.model}: compiled tracer stream diverges"
        )
    return interpreted, compiled


@pytest.mark.parametrize("app, model, traced", _cells(APPS, MODELS))
def test_grid_cell_is_bit_identical(app, model, traced):
    """Interpreter and compiled agree on every fault-free grid cell."""
    spec = RunSpec(app=app, model=model, processors=2, level=4, scale="tiny")
    interpreted, compiled = _run_both(spec, traced)
    assert interpreted.stats.to_dict() == compiled.stats.to_dict(), (
        f"{app}/{model}: compiled SimStats diverge from the interpreter"
    )
    assert interpreted.wall_cycles == compiled.wall_cycles


@pytest.mark.parametrize("app, model, traced", _cells(FAULT_APPS, FAULT_MODELS))
def test_fault_injected_cell_is_bit_identical(app, model, traced):
    """Jittered latency + 1% reply loss: the compiled backend must fall
    back to the interpreter's fault paths and still match exactly."""
    spec = RunSpec.create(
        app,
        model=model,
        processors=2,
        level=4,
        scale="tiny",
        faults=FaultConfig(
            latency_model="uniform", jitter=80, seed=7, loss_rate=0.01
        ),
    )
    interpreted, compiled = _run_both(spec, traced)
    assert interpreted.stats.to_dict() == compiled.stats.to_dict(), (
        f"{app}/{model}: compiled diverges under fault injection"
    )
    # The scenario must actually exercise the fault machinery, or this
    # test silently degrades into a copy of the fault-free grid.
    faulty = interpreted.stats.to_dict()
    assert faulty["replies_delayed"] > 0 or faulty["retries"] > 0


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_compiled_matches_golden_fixture(key):
    """The compiled backend reproduces the committed pre-fault golden
    numbers (the same anchor ``test_golden_baseline`` holds the
    interpreter to), and passes the result oracles."""
    app, model = key.split("/")
    entry = GOLDEN[key]
    spec = RunSpec(app=app, model=model, processors=2, level=2, scale="tiny")
    result = _stats_for(spec, "compiled")
    check_result(result, label=f"{key} (compiled)")
    assert result.wall_cycles == entry["wall_cycles"], key
    stats = result.stats.to_dict()
    mismatched = {
        name
        for name, value in entry["stats"].items()
        if stats.get(name) != value
    }
    assert not mismatched, f"{key}: compiled drift from golden in {mismatched}"
