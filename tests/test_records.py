"""Every dataclass in the package is a frozen, slotted record."""

import dataclasses
import importlib
import pkgutil

import pytest

import elid_urllc
from elid_urllc.allocators import Allocation, SolveReport, equal_allocation_energy
from elid_urllc.channel_model import Scenario, SystemConfig, VehicleLink, sample_scenario
from elid_urllc.experiments import ResultRow, SummaryRow, SweepSpec
from elid_urllc.fbl_core import ReliabilityMargin, ShortPacketParams


def _package_dataclasses():
    found = []
    for module_info in pkgutil.iter_modules(elid_urllc.__path__):
        if module_info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"elid_urllc.{module_info.name}")
        found += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__
        ]
    return found


def _example(cls):
    link = VehicleLink(0, 10.0, 1.0, 2.0)
    return {
        ShortPacketParams: lambda: ShortPacketParams(160, 100, 1.0),
        ReliabilityMargin: lambda: ReliabilityMargin(1.0, -0.8),
        SystemConfig: SystemConfig,
        VehicleLink: lambda: link,
        Scenario: lambda: Scenario(SystemConfig(), (link,), 0),
        Allocation: lambda: Allocation((1.0,), (10,)),
        SolveReport: lambda: equal_allocation_energy(sample_scenario(SystemConfig(), 2, 0)),
        SweepSpec: lambda: SweepSpec(
            "s", SystemConfig(), "n_vehicles", (2,), "symbol_sharing", ("total_energy",)
        ),
        ResultRow: lambda: ResultRow("s", 2, 0, "total_energy", 1.0, "J"),
        SummaryRow: lambda: SummaryRow("s", 2, "total_energy", 1.0, 0.0, 1, 0),
    }[cls]()


@pytest.mark.parametrize("cls", _package_dataclasses(), ids=lambda cls: cls.__name__)
def test_dataclass_is_frozen_and_slotted(cls):
    assert "__slots__" in vars(cls)
    record = _example(cls)
    assert not hasattr(record, "__dict__")
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))
    copy = dataclasses.replace(record, **{name: getattr(record, name)})
    assert copy == record and copy is not record
