"""Golden output: ``cuntz verify`` and ``cuntz fock`` JSON must stay byte-identical.

Each file in ``tests/golden`` is the exact standard output of one run.  The
verify files were recorded before the canonical endomorphism was applied in
sandwich form; the fock and vacuum files before generators acted on Fock
vectors in sandwich form; the std-rpfs:3 parafermion and flipped Green
files before every sweep went through ``Report.scan``.  Refactors must
reproduce them byte for byte, exit code included.  A deliberate change of
output rewrites the file with the command's output.
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

# std-o2 with the seed's letters swapped, a = s2 s1*: still a valid system,
# but its vacuum is e_2, so A_1 e_1 = e_2 and Fock states miss their index.
SWAPPED_SEED = {
    "kind": "rfs", "d": 2, "p": 1, "label": "std-o2-swapped-seed",
    "seeds": [{"d": 2, "terms": [{"coeff": "1", "create": [2], "annihilate": [1]}]}],
    "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2}],
    "phi": "rho",
}

# std-rpfs:2 with the second map's second sign flipped to -1: component 2's
# recursive condition, the cross conditions, the Green relations and the
# trilinear relations fail with witnesses.
FLIPPED_GREEN = {
    "kind": "rpfs", "p": 2, "d": 4,
    "triads": [
        {"seed": {"d": 4, "terms": [{"coeff": "1", "create": [1], "annihilate": [2]},
                                    {"coeff": "1", "create": [3], "annihilate": [4]}]},
         "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2},
                  {"sign": 1, "left": 3, "right": 3}, {"sign": -1, "left": 4, "right": 4}],
         "phi": "rho"},
        {"seed": {"d": 4, "terms": [{"coeff": "1", "create": [1], "annihilate": [3]},
                                    {"coeff": "1", "create": [2], "annihilate": [4]}]},
         "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2},
                  {"sign": -1, "left": 3, "right": 3}, {"sign": -1, "left": 4, "right": 4}],
         "phi": "rho"},
    ],
}

# golden file stem -> (arguments, exit code).  Arguments that start with an
# option are verify arguments run with ``--format json``; otherwise the first
# argument names the command and the list is run as given.  A ``None`` system
# is NEGATIVE_CONTROL and a dict system is that JSON, each written to a file.
CASES = {
    "std-o2-all": (["--system", "std-o2", "--suite", "all"], 0),
    "std-rfs-p2-all": (["--system", "std-rfs-p:2", "--suite", "all"], 0),
    "std-rpfs2-all-L3": (["--system", "std-rpfs:2", "--suite", "all", "--L", "3"], 0),
    "klein-L3": (["--suite", "klein", "--L", "3"], 0),
    "negative-control": (["--system", None, "--suite", "all"], 1),
    "fock-std-o2-modes-1-3-16": (["fock", "--system", "std-o2", "--modes", "1,3,16",
                                  "--format", "json"], 0),
    "fock-std-rfs-p2-modes-1-2-5-9": (["fock", "--system", "std-rfs-p:2",
                                       "--modes", "1,2,5,9", "--format", "json"], 0),
    "std-o2-vacuum-N16": (["--system", "std-o2", "--suite", "vacuum", "--N", "16"], 0),
    "swapped-seed-vacuum-N4": (["--system", SWAPPED_SEED, "--suite", "vacuum",
                                "--N", "4"], 1),
    "swapped-seed-fock-1-3": (["fock", "--system", SWAPPED_SEED, "--modes", "1,3",
                               "--format", "json"], 1),
    "std-rpfs3-parafermion-L3": (["--system", "std-rpfs:3", "--suite", "parafermion",
                                  "--L", "3"], 0),
    "flipped-green-all-L3": (["--system", FLIPPED_GREEN, "--suite", "all", "--L", "3"], 1),
}


@pytest.mark.parametrize("name", list(CASES))
def test_verify_json_is_byte_identical(name, capsys, tmp_path):
    argv, want_code = CASES[name]
    argv = [_system_file(arg, tmp_path) if arg is None or isinstance(arg, dict) else arg
            for arg in argv]
    if argv[0].startswith("--"):
        argv = ["verify", *argv, "--format", "json"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == want_code
    assert out == (GOLDEN / f"{name}.jsonl").read_text()


def _system_file(spec, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(NEGATIVE_CONTROL if spec is None else spec))
    return str(path)
