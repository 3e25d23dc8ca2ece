"""The exact output of every `bezproj tmesh` command, pinned.

For the six fixture meshes and the half-refined meshes with p = 2, 3
and n = 8, the stdout, stderr and exit code of `check-as`, `anchors`,
`local-kv --anchor k` (every anchor, and one past the last) and
`extract --element e` (every element, and one past the last) must equal
the text stored in tests/fixtures/tmesh_cli_golden.json. A mesh that is
not analysis-suitable has no elements; it is extracted at element 0.

Regenerate the file with: PYTHONPATH=src python3 tests/test_tmesh_cli_golden.py
"""

import json
import os
import sys
import tempfile

import pytest
from click.testing import CliRunner

sys.path.insert(0, os.path.dirname(__file__))

from test_tmesh import _generator  # noqa: E402

from bezproj.cli import main  # noqa: E402
from bezproj.tmesh import read_tmesh_json, write_tmesh_json  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(FIXTURES, "tmesh_cli_golden.json")
MESHES = [
    "tmesh_a", "tmesh_b", "tmesh_c", "tmesh_d", "tmesh_ext_left", "tmesh_ext_right",
    "half_refined_2_8", "half_refined_3_8",
]


def _mesh_path(name, tmp_dir):
    """The path of a mesh file; half-refined meshes are written to tmp_dir."""
    if not name.startswith("half_refined"):
        return os.path.join(FIXTURES, name + ".json")
    path = os.path.join(tmp_dir, name + ".json")
    write_tmesh_json(path, _generator(FIXTURES).half_refined(*map(int, name.split("_")[2:])))
    return path


def _commands(path):
    """The argument lists of every pinned command on one mesh file."""
    out = [["check-as"], ["anchors"]]
    n_anchors = len(read_tmesh_json(path).anchors())
    out += [["local-kv", "--anchor", str(k)] for k in range(n_anchors + 1)]
    result = CliRunner().invoke(main, ["tmesh", "check-as", "--in", path])
    n_elements = 0
    if result.exit_code == 0:
        n_elements = len(read_tmesh_json(path).bezier_elements())
    out += [["extract", "--element", str(e)] for e in range(n_elements + 1)]
    return out


def _outputs(name, tmp_dir):
    """{command line: [exit code, stdout, stderr]} for one mesh."""
    path = _mesh_path(name, tmp_dir)
    runner = CliRunner()
    out = {}
    for args in _commands(path):
        result = runner.invoke(main, ["tmesh", args[0], "--in", path, *args[1:]])
        out[" ".join(args)] = [result.exit_code, result.stdout, result.stderr]
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", MESHES)
def test_tmesh_commands_match_golden_output(golden, name, tmp_path):
    want = golden[name]
    got = _outputs(name, str(tmp_path))
    assert list(got) == list(want)
    for command, (code, stdout, stderr) in got.items():
        assert [code, stdout, stderr] == want[command], f"{name}: tmesh {command}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: _outputs(name, tmp) for name in MESHES}
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print("wrote", GOLDEN)
