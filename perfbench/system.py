"""Process measurements (Linux ``/proc``) and run metadata."""

from __future__ import annotations

import hashlib
import os
import platform
import re
import subprocess
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _status_kb(field: str, pid: int | str = "self") -> int:
    text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(rf"^{field}:\s+(\d+) kB", text, re.MULTILINE)
    if match is None:
        raise RuntimeError(f"/proc/{pid}/status has no {field}")
    return int(match.group(1))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) in MiB."""
    return _status_kb("VmHWM", pid) / 1024


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark at its current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def metadata(root: Path) -> dict[str, object]:
    import numpy

    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
