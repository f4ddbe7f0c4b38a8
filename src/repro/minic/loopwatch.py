"""Loop-cycle watch: jump a provably repeating loop to its step budget.

A mutant that never leaves a polling loop is classified "Infinite loop"
only when the watchdog fires, so the reference tree walker burns the
whole step budget to get there.  Almost every such loop is an exact
cycle: after a few iterations one iteration's observable state equals
an earlier one's, and from then on the run is determined until the
budget runs out.  The compiled backends (closure, source, hybrid) call
:func:`back_edge` at the head of every loop once a boot is past its
arming point; when the state at the head repeats exactly, the watch
advances ``steps`` and ``time_us`` by whole periods to within one
period of the budget and returns, and the real loop code makes the
budget crossing itself.  The tree walker never calls it — it stays the
burn reference the identity tests compare against.

**What is compared.**  Everything the rest of the run can read, by real
equality (never by hash alone):

* the loop identity (the AST loop node);
* the activation's locals, the globals and the synthetic-address
  anchors, as one value graph: integers and strings by value, arrays
  (``CArray`` contents) and structs by content *and* aliasing — two
  states match only when the same sharing pattern maps arrays one to
  one, so pointer equality and ``address_of`` behave alike in both;
* the log length, the coverage size and the anchor count (all three
  only ever grow, so equal sizes mean equal contents);
* the machine: the interpreter's ``loop_state`` capture
  (`repro.hw.machine.Machine.loop_state` — device registers and
  buffers, disk, fault-injector counters — or a scenario bus's count
  and writes).  A capture of ``None`` means some device state is out of
  reach; the watch then disarms for the rest of the boot.

Steps and the clock are the only state allowed to differ.  Nothing a
program does reads ``steps`` except the watchdog itself, and nothing
reads ``time_us`` at all (a device model that ever reads the clock must
make its machine's ``loop_state`` return ``None``).  So equal states at
the same loop head have equal futures, shifted per cycle by the steps
and microseconds one period takes.

**Cost.**  An interpreter that is never armed pays one integer compare
per back-edge (``loop_watch_at`` is :data:`NEVER`).  Once armed, a loop
activation takes its first snapshot only after running
:data:`SETTLE_STEPS` steps, compares at most :data:`MAX_COMPARES`
times, and saves a new snapshot only at Brent's doubling points, so a
long loop that never repeats costs a bounded amount before the watch
lets it go.
"""

from __future__ import annotations

from repro.minic.ctypes import IntCType
from repro.minic.interp import NEVER, _snapshot_copy
from repro.minic.values import CArray, CPointer, CStructValue

#: Steps a loop activation runs past arming before its first snapshot:
#: healthy polling loops exit within a few iterations and never pay for
#: one.
SETTLE_STEPS = 256

#: State compares per loop activation before the watch leaves the loop
#: alone.  Brent's doubling window then still finds cycles of up to 8
#: iterations.
MAX_COMPARES = 16

_SCALARS = (int, str, bool, bytes, type(None))


class _Snapshot:
    """The loop-head state of one saved visit."""

    __slots__ = ("steps", "time_us", "sizes", "values", "machine")

    def __init__(self, steps, time_us, sizes, values, machine):
        self.steps = steps
        self.time_us = time_us
        self.sizes = sizes
        self.values = values
        self.machine = machine


class _Activation:
    """Watch state of one loop activation: Brent's tortoise and window.

    The loop head keeps one local, ``watch``, and tests ``steps >
    watch``: an integer (the arming point, the end of the settling
    stretch, or :data:`NEVER`) outside the compare window, this object
    inside it, which compares as the step count of its next wanted
    visit.
    """

    __slots__ = ("key", "next_at", "saved", "power", "lam", "compares")

    def __init__(self, key):
        self.key = key
        self.next_at = NEVER
        self.saved: _Snapshot | None = None
        self.power = 1
        self.lam = 0
        self.compares = 0

    def __lt__(self, steps: int) -> bool:  # ``steps > watch``
        return self.next_at < steps


def back_edge(rt, watch, key, frame):
    """One loop-head visit with ``rt.steps`` past ``watch``.

    ``watch`` is the loop head's local (an integer until the compare
    window opens), ``key`` the loop's AST node and ``frame`` the
    activation's locals (the closure backend's scope list, or
    :func:`source_back_edge`'s dict).  Returns the head's new
    ``watch``: :data:`NEVER` ends the watch of this activation.
    """
    steps = rt.steps
    if watch.__class__ is not _Activation:
        if watch == rt.loop_watch_at:
            # First visit past arming: let the loop settle first (the
            # head keeps comparing integers meanwhile).
            return steps + SETTLE_STEPS
        watch = _Activation(key)
    saved = watch.saved
    if saved is not None:
        watch.compares += 1
        if watch.key is key and _repeats(rt, saved, frame):
            machine = rt.loop_state()
            if machine is None:
                return _disarm(rt)
            if machine == saved.machine:
                _jump(rt, saved)
                return NEVER
        if watch.compares >= MAX_COMPARES:
            return NEVER
        watch.lam += 1
        if watch.lam < watch.power:
            watch.next_at = steps
            return watch
        watch.power *= 2
        watch.lam = 0
    machine = rt.loop_state()
    if machine is None:
        return _disarm(rt)
    memo: dict = {}
    values = (
        _snapshot_copy(frame, memo),
        _snapshot_copy(rt.globals, memo),
        _snapshot_copy(rt._address_keepalive, memo),
    )
    watch.saved = _Snapshot(steps, rt.time_us, _sizes(rt), values, machine)
    watch.next_at = steps
    return watch


def source_back_edge(rt, watch, loop: tuple, values: dict):
    """:func:`back_edge` for emitted code, which passes ``locals()``.

    ``loop`` is ``(AST node, names of the visible locals)``; a name can
    be in scope yet unbound (a declaration that was the bare arm of an
    untaken ``if``), so only bound ones enter the frame.
    """
    key, names = loop
    frame = {name: values[name] for name in names if name in values}
    return back_edge(rt, watch, key, frame)


def _disarm(rt) -> int:
    """Some device state is out of reach: no jumps for the rest of the run."""
    rt.loop_watch_at = NEVER
    return NEVER


def _sizes(rt) -> tuple:
    return (len(rt.log), len(rt.coverage), len(rt._address_keepalive))


def _repeats(rt, saved: _Snapshot, frame) -> bool:
    """Whether the interpreter state equals ``saved`` (steps, clock and
    machine aside; the machine, the costliest to capture, goes last)."""
    if _sizes(rt) != saved.sizes:
        return False
    frame_c, globals_c, anchors_c = saved.values
    fwd: dict = {}
    rev: dict = {}
    return (
        _same(frame, frame_c, fwd, rev)
        and _same(rt.globals, globals_c, fwd, rev)
        and _same(rt._address_keepalive, anchors_c, fwd, rev)
    )


def _jump(rt, saved: _Snapshot) -> None:
    """Advance whole periods, stopping within one period of the budget."""
    period = rt.steps - saved.steps
    periods = (rt.step_budget - rt.steps) // period
    if periods > 0:
        rt.steps += periods * period
        rt.time_us += periods * (rt.time_us - saved.time_us)
        rt.steps_jumped += periods * period


def _same(live, saved, fwd: dict, rev: dict) -> bool:
    """Whether a live value graph equals a saved copy, aliasing included.

    ``fwd``/``rev`` map live arrays and structs to their saved
    counterparts (by ``id``) and back; a second meeting of either side
    must pair it with the same partner, so sharing patterns must match
    one to one.
    """
    cls = live.__class__
    if cls is not saved.__class__:
        return False
    if cls in _SCALARS:
        return live == saved
    if cls is CPointer:
        return live.offset == saved.offset and _same(
            live.array, saved.array, fwd, rev
        )
    if cls is tuple or cls is list:
        return len(live) == len(saved) and all(
            _same(a, b, fwd, rev) for a, b in zip(live, saved)
        )
    if cls is dict:
        return live.keys() == saved.keys() and all(
            _same(value, saved[name], fwd, rev) for name, value in live.items()
        )
    if cls is not CArray and cls is not CStructValue:
        return False  # nothing else is provably equal
    partner = fwd.get(id(live))
    if partner is not None:
        return partner is saved
    if id(saved) in rev:
        return False
    fwd[id(live)] = saved
    rev[id(saved)] = live
    if cls is CStructValue:
        return live.struct_name == saved.struct_name and _same(
            live.fields, saved.fields, fwd, rev
        )
    if live.element != saved.element:
        return False
    if isinstance(live.element, IntCType):
        return live.values == saved.values
    return _same(live.values, saved.values, fwd, rev)
