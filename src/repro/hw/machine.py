"""Machine assembly: bus + devices, ready to boot.

``standard_pc`` builds the configuration the driver experiments run on:
one IDE channel at the legacy addresses with a bootable master disk, plus
the busmouse so multi-device examples work.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.hw.bus import IOBus
from repro.hw.busmouse import LogitechBusmouse
from repro.hw.device import Device, StatefulSnapshotError
from repro.hw.diskimage import DiskImage
from repro.hw.ide import IdeController
from repro.hw.legacy import LegacyBoard

IDE_COMMAND_BASE = 0x1F0
IDE_CONTROL_BASE = 0x3F6
BUSMOUSE_BASE = 0x23C

#: Bus methods a shim may shadow per instance (`repro.faults.injector`).
_BUS_HOOKS = frozenset(
    ("read_port", "write_port", "bulk_read_port", "bulk_write_port")
)


@dataclass(frozen=True)
class MachineSnapshot:
    """Machine-wide checkpoint: bus trace + every stateful device.

    Disk snapshots are copy-on-write (sector payloads shared, pointer
    tables copied), so taking one per driver call during a clean boot is
    cheap; ``Machine.restore`` reinstates the exact observable machine
    state, which the boot checkpointing subsystem relies on.
    """

    bus: tuple
    ide: dict | None
    busmouse: dict | None
    disk: tuple | None
    extras: tuple


@dataclass
class Machine:
    """One simulated computer."""

    bus: IOBus
    ide: IdeController | None = None
    busmouse: LogitechBusmouse | None = None
    disk: DiskImage | None = None
    pristine_disk: DiskImage | None = None
    extra_devices: list = field(default_factory=list)
    #: ``(device, attach-time state)`` for attached devices still using
    #: the base no-op ``Device.snapshot`` — the evidence `snapshot`
    #: needs to prove they really are stateless.
    _stateless_baselines: list = field(default_factory=list)

    def attach(self, device) -> None:
        self.bus.attach(device)
        self.extra_devices.append(device)
        if type(device).snapshot is Device.snapshot:
            # The device claims statelessness by not overriding
            # snapshot(); record its attach-time (post-reset) state so
            # snapshot() can catch the claim going stale.
            self._stateless_baselines.append(
                (device, copy.deepcopy(vars(device)))
            )

    def disk_diff(self) -> list[int]:
        """LBAs where the disk now differs from its boot-time snapshot."""
        if self.disk is None or self.pristine_disk is None:
            return []
        return self.disk.differs_from(self.pristine_disk)

    def snapshot(self) -> MachineSnapshot:
        """Capture all mutable machine state (``pristine_disk`` never mutates)."""
        for device, baseline in self._stateless_baselines:
            if vars(device) != baseline:
                raise StatefulSnapshotError(
                    f"{device!r} mutated its state but still uses the "
                    "base no-op Device.snapshot — a checkpoint of this "
                    "machine would silently leak that state across "
                    "restores; implement snapshot()/restore() on "
                    f"{type(device).__name__}"
                )
        return MachineSnapshot(
            bus=self.bus.snapshot(),
            ide=self.ide.snapshot() if self.ide is not None else None,
            busmouse=(
                self.busmouse.snapshot() if self.busmouse is not None else None
            ),
            disk=self.disk.snapshot() if self.disk is not None else None,
            extras=tuple(device.snapshot() for device in self.extra_devices),
        )

    def loop_state(self) -> MachineSnapshot | None:
        """The whole machine state, for the loop watch's exact compare.

        `repro.minic.loopwatch` jumps a loop only when this value (a
        :meth:`snapshot`, compared with ``==``) repeats.  ``None`` means
        some state is outside the snapshot and the watch must disarm: a
        device still on the no-op base snapshot that changed, or bus or
        disk methods wrapped by something that is not an attached device
        (an injector armed without ``attach`` counts accesses nobody
        snapshots).
        """
        wrapped = vars(self.bus).keys() & _BUS_HOOKS or (
            self.disk is not None and "write_sector" in vars(self.disk)
        )
        if wrapped and not any(
            getattr(device, "armed_bus", None) is self.bus
            for device in self.extra_devices
        ):
            return None
        try:
            return self.snapshot()
        except StatefulSnapshotError:
            return None

    def restore(self, snapshot: MachineSnapshot) -> None:
        self.bus.restore(snapshot.bus)
        if self.ide is not None:
            self.ide.restore(snapshot.ide)
        if self.busmouse is not None and snapshot.busmouse is not None:
            self.busmouse.restore(snapshot.busmouse)
        if self.disk is not None:
            self.disk.restore(snapshot.disk)
        for device, state in zip(self.extra_devices, snapshot.extras):
            device.restore(state)


def standard_pc(
    disk: DiskImage | None = None,
    with_busmouse: bool = True,
    trace_limit: int = 0,
) -> Machine:
    """The evaluation machine: IDE master disk (+ busmouse)."""
    if disk is None:
        disk = DiskImage.bootable()
    bus = IOBus(trace_limit=trace_limit)
    bus.attach(LegacyBoard())
    ide = IdeController(
        master=disk,
        command_base=IDE_COMMAND_BASE,
        control_base=IDE_CONTROL_BASE,
    )
    bus.attach(ide)
    machine = Machine(
        bus=bus,
        ide=ide,
        disk=disk,
        pristine_disk=disk.copy(),
    )
    if with_busmouse:
        mouse = LogitechBusmouse(BUSMOUSE_BASE)
        bus.attach(mouse)
        machine.busmouse = mouse
    return machine
