"""Golden output: ``cuntz verify --format json`` must stay byte-identical.

Each file in ``tests/golden`` is the exact standard output of one verify run,
recorded before the canonical endomorphism was applied in sandwich form.
Performance refactors must reproduce it byte for byte, exit code included.
A deliberate change of output rewrites the file with the command's output.
"""

import json
from pathlib import Path

import pytest

from cuntz.cli import main

GOLDEN = Path(__file__).parent / "golden"

# std-o2 with the map's second sign flipped to +1: z(I) = I, so the
# recursive condition and the CAR relations fail with witnesses.
NEGATIVE_CONTROL = {
    "kind": "rfs", "d": 2, "p": 1, "label": "std-o2-flipped",
    "seeds": [{"d": 2, "terms": [{"coeff": "1", "create": [1], "annihilate": [2]}]}],
    "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": 1, "left": 2, "right": 2}],
    "phi": "rho",
}

# golden file stem -> (verify arguments, exit code)
CASES = {
    "std-o2-all": (["--system", "std-o2", "--suite", "all"], 0),
    "std-rfs-p2-all": (["--system", "std-rfs-p:2", "--suite", "all"], 0),
    "std-rpfs2-all-L3": (["--system", "std-rpfs:2", "--suite", "all", "--L", "3"], 0),
    "klein-L3": (["--suite", "klein", "--L", "3"], 0),
    "negative-control": (["--system", None, "--suite", "all"], 1),
}


@pytest.mark.parametrize("name", list(CASES))
def test_verify_json_is_byte_identical(name, capsys, tmp_path):
    argv, want_code = CASES[name]
    if None in argv:
        control = tmp_path / "control.json"
        control.write_text(json.dumps(NEGATIVE_CONTROL))
        argv = [str(control) if arg is None else arg for arg in argv]
    code = main(["verify", *argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == want_code
    assert out == (GOLDEN / f"{name}.jsonl").read_text()
