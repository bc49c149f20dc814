"""The Python blocks of README.md run as written, in order, in one namespace,
and its command-line block runs under ``bash -e`` in an empty directory."""

import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import quasidiff

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
(CLI_BLOCK,) = [block for block in SH_BLOCKS if "quasidiff gen" in block]


def test_readme_python_blocks_run():
    assert len(BLOCKS) >= 2
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_readme_command_line_block_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(quasidiff.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the installed console script, as a shell function over the same entry point
    prelude = (
        f'quasidiff() {{ "{sys.executable}" -c '
        "'import sys; from quasidiff.cli import main; sys.exit(main())' \"$@\"; }\n"
    )
    run = subprocess.run(
        ["bash", "-e", "-c", prelude + CLI_BLOCK], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "results" / "completeness-result.json").exists()
