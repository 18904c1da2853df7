"""The machine and code a benchmark report was measured on.

The script benchmarks import it as ``hostinfo``: a script's own
directory leads ``sys.path``, and ``conftest.py`` puts it there under
pytest.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Dict, Optional


def _git(*arguments: str) -> Optional[str]:
    """The output of one git command in this checkout, or None."""
    try:
        result = subprocess.run(
            ["git", *arguments],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def host() -> Dict[str, object]:
    """CPU count, Python version, the checked-out commit (``unknown``
    outside git) and whether tracked files differ from it (``dirty``:
    the report then measured uncommitted code on top of that commit)."""
    commit = _git("rev-parse", "HEAD")
    changes = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "dirty": bool(changes),
    }
