"""The CLI as a real process, ``python -m pcrank.cli``: its stdout is the
interpreter's own text stream with its encoder, which pytest's capture
replaces in every in-process test."""

import os
import subprocess
import sys
from pathlib import Path

import pcrank

LABELS_JSON = """{"alternatives": ["\\u00e9", "b", "c"], "known": {"c": 1},
"matrix": [[1, 2, 1], [0.5, 1, 2], [1, 0.5, 1]]}
"""

ACCENT_CSV = "label,é,b\né,1,2\nb,1/2,1\n\nlabel,priority\nb,1\n"

EXAMPLE_CSV = "label,a,b,c\na,1,2,4\nb,1/2,1,?\nc,1/4,?,1\n\nlabel,priority\nc,1\n"


def run(args, encoding: str = "utf-8", stdin=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    """``pcrank`` with ``args`` in a child process whose stdio use ``encoding``
    and whose stdin is ``stdin``."""
    env = {**os.environ, "PYTHONPATH": str(Path(pcrank.__file__).parents[1])}
    env["PYTHONIOENCODING"] = encoding
    return subprocess.run(
        [sys.executable, "-m", "pcrank.cli", *args], capture_output=True, env=env, check=False,
        stdin=stdin,
    )


def test_check_listing_is_utf8_through_the_stdout_encoder(tmp_path):
    """A non-ASCII label prints verbatim as UTF-8."""
    path = tmp_path / "labels.json"
    path.write_text(LABELS_JSON, encoding="utf-8")
    done = run(["check", str(path)], "utf-8")
    assert done.returncode == 1, done.stderr
    assert done.stderr == b""
    assert done.stdout.endswith("above tol 1e-09: 1\n  (é, b, c): deviation 0.75\n".encode())


def test_stdout_that_cannot_encode_a_label_is_an_io_error(tmp_path):
    """One input-error line and exit 2, not a traceback with exit 1."""
    path = tmp_path / "accent.csv"
    path.write_text(ACCENT_CSV, encoding="utf-8")
    done = run(["rank", str(path)], "ascii")
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"IO_ERROR: stdout cannot encode '\\xe9'; use --output\n"


def test_known_cannot_name_the_stdin_that_is_the_input(tmp_path):
    """stdin holds one file, whether it is named ``-``, ``/dev/stdin`` or
    ``/dev/fd/0``: a usage error, not a false parse error from an empty read."""
    path = tmp_path / "example.csv"
    path.write_text(EXAMPLE_CSV, encoding="utf-8")
    for known in ["/dev/stdin", "/dev/fd/0"]:
        with path.open("rb") as stdin:
            done = run(["rank", "-", "--known", known], stdin=stdin)
        assert done.returncode == 2, done.stderr
        assert done.stdout == b""
        assert done.stderr.startswith(b"usage: pcrank") and b"--known" in done.stderr


def test_known_may_name_stdin_when_the_input_is_a_file(tmp_path):
    (tmp_path / "noknown.csv").write_text("label,a,b\na,1,4\nb,1/4,1\n", encoding="utf-8")
    (tmp_path / "known.csv").write_text("label,priority\nb,1\n", encoding="utf-8")
    with (tmp_path / "known.csv").open("rb") as stdin:
        done = run(["rank", str(tmp_path / "noknown.csv"), "--known", "/dev/stdin"], stdin=stdin)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"label,arithmetic,geometric\na,4,4\nb,1,1\n"
