"""The CLI as a real process, ``python -m pcrank.cli``: its stdout is the
interpreter's own text stream with its encoder, which pytest's capture
replaces in every in-process test."""

import os
import subprocess
import sys
from pathlib import Path

import pcrank

LABELS_JSON = """{"alternatives": ["\\u00e9", "a\\u0000z", "c"], "known": {"c": 1},
"matrix": [[1, 2, 1], [0.5, 1, 2], [1, 0.5, 1]]}
"""

ACCENT_CSV = "label,é,b\né,1,2\nb,1/2,1\n\nlabel,priority\nb,1\n"


def run(args, encoding: str) -> subprocess.CompletedProcess:
    """``pcrank`` with ``args`` in a child process whose stdio use ``encoding``."""
    env = {**os.environ, "PYTHONPATH": str(Path(pcrank.__file__).parents[1])}
    env["PYTHONIOENCODING"] = encoding
    return subprocess.run(
        [sys.executable, "-m", "pcrank.cli", *args], capture_output=True, env=env, check=False
    )


def test_check_listing_is_utf8_through_the_stdout_encoder(tmp_path):
    """A non-ASCII label and an escaped NUL print verbatim as UTF-8."""
    path = tmp_path / "labels.json"
    path.write_text(LABELS_JSON, encoding="utf-8")
    done = run(["check", str(path)], "utf-8")
    assert done.returncode == 1, done.stderr
    assert done.stderr == b""
    assert done.stdout.endswith("above tol 1e-09: 1\n  (é, a\0z, c): deviation 0.75\n".encode())


def test_stdout_that_cannot_encode_a_label_is_an_io_error(tmp_path):
    """One input-error line and exit 2, not a traceback with exit 1."""
    path = tmp_path / "accent.csv"
    path.write_text(ACCENT_CSV, encoding="utf-8")
    done = run(["rank", str(path)], "ascii")
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"IO_ERROR: stdout cannot encode '\\xe9'; use --output\n"
