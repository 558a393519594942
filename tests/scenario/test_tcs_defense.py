"""The registry's ``tcs`` defense runs on the TCS control plane."""

from repro.obs.metrics import scoped
from repro.scenario import preset
from repro.scenario.build import build
from repro.scenario.engine import PacketEngine


def test_fault_preset_crashes_devices_and_the_nms_reinstalls():
    """``reflector-under-faults`` crashes adaptive devices that restart
    wiped (Sec. 4.5); the NMS watchdog re-installs their services."""
    with scoped():
        built = build(preset("reflector-under-faults"))
        PacketEngine().run_built(built)
        assert built.injector.injected >= 1
        nmses = built.extras["tcs"].nmses
        assert sum(nms.services_reinstalled for nms in nmses) >= 1
