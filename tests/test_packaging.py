"""Package metadata agrees with the importable package."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import qvpn


def test_pyproject_version_matches_package_version():
    # a regex rather than tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match is not None, "pyproject.toml [project] has no version"
    assert match.group(1) == qvpn.__version__


def test_import_leaves_the_cli_and_process_machinery_unloaded():
    # every benchmark's setup_s includes `import qvpn`; the CLI (and argparse
    # with it) and multiprocessing load only when a command or a forked sweep
    # needs them
    code = ("import json, sys, qvpn; print(json.dumps(sorted(m for m in sys.modules "
            "if m in ('multiprocessing', 'argparse', 'qvpn.cli'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(qvpn.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
