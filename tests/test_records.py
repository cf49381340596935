"""Every record class of uqsim behaves as the dataclass it was declared as.

uqsim.records attaches __init__, __repr__, __eq__, __hash__ and a frozen
class's __setattr__ and __delattr__ as closures, where dataclasses.dataclass
compiles them from source. Each class is checked on an instance that the
library itself builds, at three qubits.
"""
import dataclasses
import importlib
import pickle

import numpy as np
import pytest

from uqsim import compiler, engine, experiments, hardware, oracle, pauli, schedule
from uqsim.errors import CompileError
from uqsim.records import record

MODULES = ("pauli", "schedule", "compiler", "hardware", "engine", "oracle", "experiments")
MUTABLE = {"StateVector", "SpectrumCache", "GroundState", "AdiabaticResult"}
OWN_REPR = {"PauliString", "Hamiltonian", "CoeffMatrix"}


@pytest.fixture(scope="module")
def examples() -> dict:
    """One instance of each record class, keyed by class name."""
    n = 3
    model = experiments.NamedModel("dipole", experiments.Geometry.chain(n), j=1.0)
    target, initial = experiments.build_model(model), experiments.nn_chain("zz", n)
    lattice = hardware.LatticeModel(n_sites=n)
    trap = hardware.TrapArrayModel(positions=((0.0,), (1.0,), (2.0,), (3.0,)))
    plan = experiments.protocol_for_model(model, lattice)
    ising = pauli.Hamiltonian.from_terms(n, [(-0.5, "ZZI"), (-0.4, "IZZ"), (0.3, "XII")])
    three_ions = hardware.TrapArrayModel(positions=trap.positions[:n])
    sched, report = compiler.trotter_schedule(ising, 1.0, 0.5, three_ions)
    config = experiments.AdiabaticConfig(initial, target, steps=4, theta1=0.1)
    path = oracle.GroundPath(initial, target)
    h1 = pauli.Hamiltonian.from_terms(n, [(1.0, "IZZ")])
    h2 = pauli.Hamiltonian.from_terms(n, [(1.0, "XXI")])
    raw = pauli.Hamiltonian.from_terms(n, [(0.8, "ZII"), (1.0, "ZZI"), (0.6, "IZZ")])
    found = [
        pauli.PauliString("XZY", 0.5), target, pauli.TermTable.of(target.terms),
        pauli.coeff_matrix(pauli.Hamiltonian.from_terms(2, [(1.0, "XX"), (0.5, "ZZ")]))[0],
        next(i for i in sched.instructions if isinstance(i, schedule.ApplyLocal)),
        next(i for i in sched.instructions if isinstance(i, schedule.RawGate)), sched,
        plan, plan.families[0], plan.families[0].gates[0], plan.families[0].sequence, report,
        compiler.homogeneous_feasibility(pauli.CoeffMatrix(np.eye(3)), 1.0),
        compiler.three_body_gate(h1, h2, 0.05), compiler.decoupling_echo(raw, 0.3),
        lattice, trap, hardware.crosstalk_report(trap, [{0, 1}, {2, 3}]),
        hardware.geometry_remap("triangular", hardware.LatticeModel(4, dims=2, shape=(2, 2))),
        hardware.beam_compensation([0.0, 1.0, 2.0], hardware.gaussian_beam(0.5), 1, 0.6),
        engine.ErrorModel(0.01, 0.02, seed=3), engine.StateVector.zero_state(n),
        oracle.SpectrumCache.from_hamiltonian(target), oracle.ground_state(target),
        model, model.geometry, config, oracle.min_gap(path, samples=5),
        experiments.adiabatic_run(config, lattice, ground_path=path),
        *experiments.error_sweep(config, lattice, [0.0], [4], 1),
    ]
    return {type(obj).__name__: obj for obj in found}


def record_classes():
    return sorted((obj for module in MODULES
                   for obj in vars(importlib.import_module(f"uqsim.{module}")).values()
                   if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                   and obj.__module__ == f"uqsim.{module}"), key=lambda cls: cls.__name__)


CLASSES = record_classes()


def values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def hashable(obj) -> bool:
    try:
        hash(values(obj))
    except TypeError:
        return False
    return True


def test_every_record_class_has_an_example(examples):
    assert len(CLASSES) == 30 and sorted(examples) == [cls.__name__ for cls in CLASSES]
    assert {cls.__name__ for cls in CLASSES if cls.__hash__ is None} == MUTABLE


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_record_copies_compares_and_hashes_by_its_fields(cls, examples):
    obj = examples[cls.__name__]
    copy = dataclasses.replace(obj)  # every field as a keyword
    assert type(copy) is cls and dataclasses.fields(copy) == dataclasses.fields(obj)
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls))
    assert list(dataclasses.asdict(obj)) == list(cls.__match_args__)
    assert cls(*values(obj)).__class__ is cls  # and every field by position
    sent = pickle.loads(pickle.dumps(obj))  # as a sweep's worker processes receive it
    assert type(sent) is cls and list(vars(sent)) == list(vars(obj)) and repr(sent) == repr(obj)
    if hashable(obj):
        assert copy == obj and not copy != obj and values(copy) == values(obj)
        assert sent == obj  # a layer compares by its matrices, not by identity
        assert obj != object() and obj.__eq__(object()) is NotImplemented
    if cls.__name__ in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    elif hashable(obj):
        assert hash(copy) == hash(obj) == hash(values(obj))  # so set orders are unchanged
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_frozen_record_refuses_assignment_and_deletion(cls, examples):
    obj = examples[cls.__name__]
    name = dataclasses.fields(cls)[0].name
    if cls.__name__ in MUTABLE:
        setattr(obj, name, getattr(obj, name))
        return
    before = getattr(obj, name)
    for change in (lambda: setattr(obj, name, None), lambda: delattr(obj, name),
                   lambda: setattr(obj, "extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change()
    assert getattr(obj, name) is before and "extra" not in vars(obj)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_record_repr_names_its_fields(cls, examples):
    obj = examples[cls.__name__]
    if cls.__name__ in OWN_REPR:  # the class body's own __repr__ wins, as with dataclasses
        assert repr(obj) == cls.__dict__["__repr__"](obj)
        return
    fields = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in dataclasses.fields(cls))
    assert repr(obj) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_record_refuses_missing_unknown_and_extra_arguments(cls, examples):
    fields = values(examples[cls.__name__])
    names = [f.name for f in dataclasses.fields(cls)]
    required = [f for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError, match=repr(required[0].name)):
            cls()
    with pytest.raises(TypeError, match="'bogus'"):
        cls(*fields, bogus=1)
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError, match=repr(names[0])):
        cls(*fields, **{names[0]: fields[0]})


def test_a_record_fills_defaults_and_calls_each_factory_afresh():
    assert hardware.LatticeModel(3) == hardware.LatticeModel(3, 1, None, "open", frozenset())
    assert hardware.LatticeModel(3).available_j == frozenset({1, 2})
    assert engine.ErrorModel() == engine.ErrorModel(0.0, 0.0, None)

    @record
    class Bag:
        items: list = dataclasses.field(default_factory=list)
        secret: str = dataclasses.field(default="hidden", repr=False)

    first, second = Bag(), Bag()
    assert first.items == [] and first.items is not second.items
    assert repr(first).endswith(".<locals>.Bag(items=[])")  # secret has repr=False
    assert Bag.__hash__ is None and first == second and Bag(["x"]) != first


def test_post_init_still_validates():
    with pytest.raises(CompileError, match="identical qubit"):
        schedule.RawGate("zz", 0.1, ((1, 1, 1.0),))
    with pytest.raises(pauli.PauliError):
        pauli.PauliString("XQ")
    with pytest.raises(pauli.PauliError):
        pauli.CoeffMatrix(np.eye(2))
    assert pauli.PauliString("XZ", 1).coeff.__class__ is float  # set through object.__setattr__


def test_a_schedule_read_back_from_its_text_equals_the_original(examples):
    sched = examples["PulseSchedule"]
    back = schedule.schedule_from_text(schedule.schedule_to_text(sched))
    assert back.instructions is not sched.instructions
    assert back == dataclasses.replace(sched, cost=None)  # the text holds no cost report


def test_equal_layers_share_a_hash():
    hom, per_qubit, layer = (pauli.LocalLayer.homogeneous, pauli.LocalLayer.inhomogeneous,
                             pauli.SingleQubitUnitary)
    u = layer.rot((0.0, 0.0, 1.0), 0.0)
    minus = layer(u.matrix * np.array([[1, -1], [-1, 1]]))  # -0.0 off the diagonal
    assert np.signbit(minus.matrix.real).any() and not np.signbit(u.matrix.real).any()
    for a, b in ((hom(u), hom(minus)), (per_qubit([u, minus]), per_qubit([minus, u]))):
        assert a == b and hash(a) == hash(b) and a is not b
    assert hom(u) != per_qubit([u, u]) and hom(u) != per_qubit([u]) and hom(u) != "layer"
    other = hom(layer.rot((1.0, 0.0, 0.0), 0.3))
    assert hom(u) != other and schedule.ApplyLocal(hom(u)) != schedule.ApplyLocal(other)
