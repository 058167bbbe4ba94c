"""Package metadata agrees with the importable package."""

import re
from pathlib import Path

import qvpn


def test_pyproject_version_matches_package_version():
    # a regex rather than tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match is not None, "pyproject.toml [project] has no version"
    assert match.group(1) == qvpn.__version__
