"""Where the program lives, and the host facts every report carries."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Traced runs write their spans here (ignored by git).
OUT_DIR = ROOT / ".perfbench"
#: The temporary directory of a run, so that the engine's scratch plan
#: files stay inside the checkout.
TMP_DIR = OUT_DIR / "tmp"

DEFAULT_SEED = 4136


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def ensure_program() -> None:
    """Put ``src`` on ``sys.path``, or raise if the program is absent."""
    if not (SRC / "repro" / "mutation" / "runner.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def usable_cores() -> int:
    """Cores this process may run on (affinity, not the machine total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_revision(root: Path = ROOT) -> str:
    """HEAD's commit id read from ``.git``, or ``"unknown"`` outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata(seed: int, workers_effective: int | None) -> dict:
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "seed": seed,
        "workers_effective": workers_effective,
    }
