"""Budget-burn short-circuit (`repro.minic.loopwatch`): identity sweeps.

A loop whose state repeats exactly is jumped to within one period of
the step budget on the compiled backends; the tree walker always burns
the budget for real and is the reference here.

* **mutant sweeps** — the pinned population of budget-bound C and C/Devil
  driver mutants (``goldens/budget_bound_mutants.json``).  For each
  mutant the campaign path (checkpointed ``hybrid`` resume) and cold
  ``closure`` and ``source`` boots must equal a cold ``tree`` boot on the
  whole `BootReport`, and the golden says whether the watch jumps: the C
  population's loops are all exact cycles, the C/Devil ones are timeout
  loops whose live counter runs past the budget, so they burn for real.
  Tier-1 takes one mutant per mutation site; the whole population
  (~300 mutants, minutes of tree burns) runs only when selected with
  ``-m slow``.
* **adversarial loops** — small programs whose loops must either run for
  real or jump exactly, compared with ``tree`` on steps, clock, log,
  coverage, globals, caller buffers and machine state.

Regenerate the population after an intentional driver or budget change
with::

    PYTHONPATH=src python tests/test_budget_shortcircuit.py --regen
"""

from __future__ import annotations

import functools
import json
import pickle
from pathlib import Path

import pytest

from repro.faults.injector import PERMANENT, Fault, FaultInjector
from repro.hw import standard_pc
from repro.kernel.kernel import boot
from repro.kernel.outcomes import BootOutcome, BootReport
from repro.minic import SourceFile, compile_program
from repro.minic.compile import interpreter_for
from repro.minic.ctypes import U16
from repro.minic.errors import StepBudgetExceeded
from repro.minic.values import CArray, CPointer
from repro.scenarios.campaign import ScenarioMachine

GOLDEN = Path(__file__).resolve().parent / "goldens" / "budget_bound_mutants.json"

DRIVERS = ("c", "cdevil")

COMPILED = ("closure", "source", "hybrid")


# -- the budget-bound mutant population ----------------------------------------


def _population() -> dict:
    return json.loads(GOLDEN.read_text())


def _site_of(mutant_id: str) -> str:
    return mutant_id.rsplit(":", 1)[0]


def _cases(per_site: bool) -> list:
    cases = []
    for driver, groups in _population().items():
        seen = set()
        for jumps, ids in (("jump", groups["jump"]), ("burn", groups["burn"])):
            for mutant_id in ids:
                if per_site and _site_of(mutant_id) in seen:
                    continue
                seen.add(_site_of(mutant_id))
                cases.append(pytest.param(driver, mutant_id, jumps == "jump", id=mutant_id))
    return cases


@functools.lru_cache(maxsize=None)
def _campaign(driver: str):
    """Full-population campaign state: mutants by id and the checkpointed
    driver campaign kind."""
    from repro.mutation.runner import CampaignRequest, DriverCampaign

    campaign = DriverCampaign.build(
        CampaignRequest(
            driver, boot_checkpoint=True, granularity="subcall"
        ).warm_key()
    )
    return {m.mutant_id: m for m in campaign.mutants}, campaign


def _check_mutant(driver: str, mutant_id: str, jumps: bool) -> None:
    mutants, context = _campaign(driver)
    mutant = mutants[mutant_id]
    program = context.compiler.compile_variant(mutant.apply(context.source))
    budget = context.budget

    def cold(backend: str) -> BootReport:
        return boot(
            program,
            standard_pc(with_busmouse=False),
            step_budget=budget,
            backend=backend,
        )

    reference = cold("tree")
    assert reference.outcome is BootOutcome.INFINITE_LOOP, (
        f"{mutant_id} is no longer budget-bound ({reference}); regenerate "
        "the population"
    )
    assert reference.steps_jumped == 0
    reports = {
        "closure": cold("closure"),
        "source": cold("source"),
        "hybrid (campaign path)": context.run_mutant(program, mutant),
    }
    for path, report in reports.items():
        assert report == reference, f"{path} diverged from tree on {mutant_id}"
        assert (report.steps_jumped > 0) is jumps, (
            f"{path} on {mutant_id}: steps_jumped={report.steps_jumped}"
        )
        if jumps:
            # The arming share bounds what still executes: under 10%.
            assert report.steps - report.steps_jumped < budget // 10


@pytest.mark.parametrize("driver,mutant_id,jumps", _cases(per_site=True))
def test_budget_bound_mutant_per_site(driver, mutant_id, jumps):
    _check_mutant(driver, mutant_id, jumps)


def _sweep_selected(config) -> bool:
    markexpr = config.getoption("markexpr") or ""
    return "slow" in markexpr and "not slow" not in markexpr


def pytest_generate_tests(metafunc):
    if metafunc.function.__name__ == "test_budget_bound_population":
        cases = _cases(per_site=False) if _sweep_selected(metafunc.config) else []
        metafunc.parametrize("driver,mutant_id,jumps", cases)


@pytest.mark.slow
def test_budget_bound_population(driver, mutant_id, jumps):
    """The whole population; collected only under an explicit ``-m slow``."""
    _check_mutant(driver, mutant_id, jumps)


def test_population_is_pinned_and_nonvacuous():
    population = _population()
    assert set(population) == set(DRIVERS)
    assert len(population["c"]["jump"]) > 100
    sites = {_site_of(m) for m in population["c"]["jump"]}
    assert len(sites) > 5


# -- adversarial loops ----------------------------------------------------------

BUDGET = 60_000


def _run(source, backend, machine, budget, args, arm=True):
    """Run ``main``; the comparable end state and the steps jumped."""
    program = compile_program([SourceFile("loop.c", source)])
    interp = interpreter_for(backend)(program, machine.bus, step_budget=budget)
    if arm:
        interp.arm_loop_watch(machine.loop_state)
    try:
        result = ("return", interp.call("main", *args))
    except Exception as error:  # noqa: BLE001 - the outcome is data here
        result = (type(error).__name__, str(error))
    view = {
        "result": result,
        "steps": interp.steps,
        "time_us": interp.time_us,
        "log": list(interp.log),
        "coverage": set(interp.coverage),
        "globals": interp.globals,
        "args": args,
        "machine": machine.snapshot(),
    }
    return view, interp.steps_jumped


def _no_args():
    return ()


def _assert_like_tree(
    source, machine_factory=standard_pc, budget=BUDGET, args=_no_args
):
    """Every compiled backend, armed, equals tree; returns the tree view
    and {backend: steps_jumped}.

    Device state is compared against the same backend burning unarmed:
    at a budget crossing the compiled backends' batched step accounting
    may stop just before a port read the walker still performs (an
    access nothing in a boot report can see).
    """
    reference, _ = _run(source, "tree", machine_factory(), budget, args())
    del reference["machine"]
    jumped = {}
    for backend in COMPILED:
        view, jumped[backend] = _run(
            source, backend, machine_factory(), budget, args()
        )
        burn, burned = _run(
            source, backend, machine_factory(), budget, args(), arm=False
        )
        assert burned == 0
        assert view == burn, f"armed {backend} diverged from its burn"
        del view["machine"]
        assert view == reference, f"{backend} diverged from tree"
    return reference, jumped


def test_constant_loop_jumps_exactly():
    source = "int g; void main(void) { while (1) { g = 5; } }"
    reference, jumped = _assert_like_tree(source)
    assert reference["result"][0] == "StepBudgetExceeded"
    assert reference["steps"] == BUDGET + 1
    assert all(steps > BUDGET * 3 // 4 for steps in jumped.values())


@pytest.mark.parametrize("ctype", ("int", "u8"))
def test_changing_counter_runs_for_real(ctype):
    # An int counter never repeats; a u8 one repeats only after 256
    # iterations, beyond the watch's compare window.
    source = f"void main(void) {{ {ctype} t; t = 0; while (1) {{ t--; }} }}"
    _, jumped = _assert_like_tree(source)
    assert set(jumped.values()) == {0}


def test_printk_in_loop_runs_for_real():
    source = 'void main(void) { while (1) { printk("tick\\n"); } }'
    reference, jumped = _assert_like_tree(source)
    assert len(reference["log"]) > 1000
    assert set(jumped.values()) == {0}


def test_udelay_in_loop_advances_clock_by_whole_periods():
    source = "void main(void) { while (1) { udelay(3); } }"
    reference, jumped = _assert_like_tree(source)
    assert reference["time_us"] > 3 * 1000
    assert all(steps > 0 for steps in jumped.values())


def _caller_buffer():
    return (CPointer(CArray(U16, [0, 0, 0, 0]), 0),)


@pytest.mark.parametrize(
    "statement,repeats",
    (("b[1] = 7;", True), ("b[1] = b[1] + 1;", False), ("b[2] = b[1]; b[1] = 9;", True)),
)
def test_writes_through_pointer_into_caller_array(statement, repeats):
    source = f"void main(u16 b[]) {{ while (1) {{ {statement} }} }}"
    _, jumped = _assert_like_tree(source, args=_caller_buffer)
    assert all((steps > 0) is repeats for steps in jumped.values())


@pytest.mark.parametrize(
    "callee,repeats", (("g = g + 1;", False), ("g = 5;", True))
)
def test_global_changed_by_callee(callee, repeats):
    source = (
        f"int g; void touch(void) {{ {callee} }} "
        "void main(void) { while (1) { touch(); } }"
    )
    _, jumped = _assert_like_tree(source)
    assert all((steps > 0) is repeats for steps in jumped.values())


@pytest.mark.parametrize(
    "source",
    (
        # p alternates between two equal arrays.
        "u16 a[2]; u16 b[2]; void main(void) { u16 *p; p = a; "
        "while (1) { if (p == a) { p = b; udelay(1); } else { p = a; } } }",
        # q alternates between aliasing p and a fresh (equal) array.
        "void main(void) { u16 x[2]; u16 *p; u16 *q; p = x; q = x; "
        "while (1) { u16 z[2]; "
        "if (q == p) { q = z; udelay(1); } else { q = p; } } }",
    ),
)
def test_aliasing_counts_not_just_contents(source):
    # Equal contents at every head, but the true period is two
    # iterations and only one of them spends time: a compare blind to
    # which arrays are shared would jump by one iteration's period and
    # land on the wrong clock.
    for extra in range(8):
        _, jumped = _assert_like_tree(source, budget=BUDGET + extra)
        assert all(steps > 0 for steps in jumped.values())


def test_scripted_bus_reads_run_for_real():
    source = "int g; void main(void) { while (1) { g = inb(0x1f7u) & 1; } }"
    reference, jumped = _assert_like_tree(
        source, machine_factory=lambda: ScenarioMachine(7)
    )
    assert reference["steps"] > BUDGET
    assert set(jumped.values()) == {0}


def test_scripted_bus_without_io_jumps():
    source = "void main(void) { int x; x = 1; while (1) { x = 1; } }"
    _, jumped = _assert_like_tree(source, machine_factory=lambda: ScenarioMachine(7))
    assert all(steps > 0 for steps in jumped.values())


def _injected_pc(attach: bool = True, faults=()):
    def factory():
        machine = standard_pc()
        injector = FaultInjector()
        if attach:
            machine.attach(injector)
        injector.arm(machine)
        injector.set_faults(faults)
        return machine

    return factory


def test_fault_injector_counts_keep_polling_real():
    # A stuck-busy status keeps the poll spinning; the injector's access
    # counters are machine state, so the loop never repeats.
    stuck = Fault("stuck-read", "read", 0x1F7, index=0, count=PERMANENT, value=0x80)
    source = "void main(void) { while (inb(0x1f7u) & 0x80u) { } }"
    reference, jumped = _assert_like_tree(
        source, machine_factory=_injected_pc(faults=(stuck,))
    )
    assert reference["result"][0] == "StepBudgetExceeded"
    assert set(jumped.values()) == {0}


def test_fault_window_ends_inside_armed_region():
    # BSY for 3000 status reads, then the loop exits: same exit step as tree.
    delay = Fault("status-delay", "read", 0x1F7, index=0, count=3000)
    source = "int main(void) { while (inb(0x1f7u) & 0x80u) { } return 1; }"
    reference, jumped = _assert_like_tree(
        source, machine_factory=_injected_pc(faults=(delay,))
    )
    assert reference["result"] == ("return", 1)
    assert set(jumped.values()) == {0}


def test_unattached_injector_disarms_the_watch():
    # Counters that no snapshot carries: the machine cannot be captured.
    assert _injected_pc(attach=False)().loop_state() is None
    source = "void main(void) { while (1) { } }"
    _, jumped = _assert_like_tree(source, machine_factory=_injected_pc(attach=False))
    assert set(jumped.values()) == {0}


def test_unbound_local_in_scope_does_not_break_the_watch():
    source = "void main(int c) { if (c) int y = 1; while (1) { } }"
    _, jumped = _assert_like_tree(source, args=lambda: (0,))
    assert all(steps > 0 for steps in jumped.values())


@pytest.mark.parametrize("body", ("x = 1; y = 2; z = x + y;", "x = 1; udelay(1);"))
def test_crossing_lands_mid_period(body):
    """Every phase of the period at the budget: same crossing as tree."""
    source = f"int x; int y; int z; void main(void) {{ while (1) {{ {body} }} }}"
    overshoots = set()
    for extra in range(16):
        reference, jumped = _assert_like_tree(source, budget=BUDGET + extra)
        overshoots.add(reference["steps"] - (BUDGET + extra))
        assert all(steps > 0 for steps in jumped.values())
    assert overshoots <= {1, 2}
    if "udelay" in body:
        assert overshoots == {1, 2}


def test_unarmed_interpreter_never_jumps():
    program = compile_program(
        [SourceFile("loop.c", "void main(void) { while (1) { } }")]
    )
    for backend in COMPILED:
        interp = interpreter_for(backend)(program, standard_pc().bus, step_budget=BUDGET)
        with pytest.raises(StepBudgetExceeded):
            interp.call("main")
        assert interp.steps_jumped == 0


# -- the report field -----------------------------------------------------------


def test_steps_jumped_is_telemetry_only():
    plain = BootReport(BootOutcome.INFINITE_LOOP, "x", steps=10)
    jumped = BootReport(BootOutcome.INFINITE_LOOP, "x", steps=10, steps_jumped=7)
    assert plain == jumped
    # Zero stays out of pickles, so plans and shard files keep their bytes.
    legacy = BootReport(BootOutcome.INFINITE_LOOP, "x", steps=10)
    del legacy.__dict__["steps_jumped"]
    assert pickle.dumps(plain, 4) == pickle.dumps(legacy, 4)
    assert pickle.loads(pickle.dumps(jumped, 4)).steps_jumped == 7
    assert pickle.loads(pickle.dumps(plain, 4)).steps_jumped == 0


# -- regeneration ---------------------------------------------------------------


def _regenerate() -> dict:
    """Classify every mutant on the campaign path; split the budget-bound
    ones by whether the watch jumps them."""
    from repro.diagnostics import CompileError

    population = {}
    for driver in DRIVERS:
        mutants, context = _campaign(driver)
        groups = {"jump": [], "burn": []}
        for mutant_id, mutant in mutants.items():
            try:
                program = context.compiler.compile_variant(
                    mutant.apply(context.source)
                )
            except CompileError:
                continue
            report = context.run_mutant(program, mutant)
            if report.outcome is BootOutcome.INFINITE_LOOP:
                groups["jump" if report.steps_jumped else "burn"].append(mutant_id)
        population[driver] = groups
    return population


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(_regenerate(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
