"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys

import pytest

import cuntz
from cuntz import Element, Monomial, RecursiveMap, standard_rfs_p
from cuntz.cli import main
from cuntz.serialize import element_from_dict, element_to_dict, rfs_to_dict, vector_to_dict
from cuntz.representation import StateVector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, limit_bytes=None):
    """``python -m cuntz *argv`` in a fresh interpreter, importing this
    checkout's package; ``limit_bytes`` caps the child's address space."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuntz.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run([sys.executable, "-m", "cuntz", *argv], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit if limit_bytes else None)


class TestModuleEntry:
    def test_python_m_cuntz_runs_the_command(self, capsys):
        argv = ("verify", "--system", "std-o2", "--suite", "seed")
        done = run_module(*argv)
        assert done.returncode == 0
        assert done.stderr == ""
        assert (done.returncode, done.stdout) == run(capsys, *argv)[:2]


class TestEmbed:
    def test_first_generator(self, capsys):
        code, out, _ = run(capsys, "embed", "--system", "std-o2", "--n", "1")
        assert code == 0
        assert out.strip() == "s1 s2*"

    def test_second_seed_of_p2(self, capsys):
        code, out, _ = run(capsys, "embed", "--system", "std-rfs-p:2", "--n", "2")
        assert code == 0
        assert out.strip() == "s1 s3* - s2 s4*"

    def test_growth(self, capsys):
        code, out, _ = run(capsys, "embed", "--system", "std-o2", "--n", "3",
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)["terms"]) == 4

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "embed", "--system", "std-nope", "--n", "1")
        assert code == 2
        assert "system spec" in err

    def test_resource_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "embed", "--system", "std-o2", "--n", "9",
                           "--max-terms", "16")
        assert code == 3
        assert "cap" in err

    def test_parafermion_embedding(self, capsys):
        code, out, _ = run(capsys, "embed", "--system", "std-rpfs:2", "--n", "1")
        assert code == 0
        assert out.strip() == "s1 s2* + s1 s3* + s2 s4* + s3 s4*"


class TestVerify:
    def test_car_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--system", "std-o2", "--suite", "car",
                           "--N", "8")
        assert code == 0
        assert "[PASS]" in out

    def test_parafermion_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--system", "std-rpfs:2",
                         "--suite", "parafermion", "--L", "3")
        assert code == 0

    def test_klein_suite_needs_no_system(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "klein", "--L", "2")
        assert code == 0

    def test_mutated_json_fails_with_witness(self, capsys, tmp_path):
        payload = rfs_to_dict(standard_rfs_p(2))
        payload["seeds"][1]["terms"][1]["coeff"] = "1"  # drop the minus sign
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--system", str(path), "--suite", "seed",
                           "--format", "json")
        assert code == 1
        lines = [json.loads(line) for line in out.strip().splitlines()]
        failed = [line for line in lines if not line["pass"]]
        assert failed and any("witness" in line for line in failed)

    def test_jobs_option_is_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--system", "std-o2", "--suite", "seed",
                           "--jobs", "2")
        assert code == 2
        assert "--jobs" in err

    def test_unknown_suite_for_kind(self, capsys):
        code, _, err = run(capsys, "verify", "--system", "std-rpfs:2", "--suite", "car")
        assert code == 2
        assert "suite" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "car")
        assert code == 2  # car needs --system


class TestFock:
    def test_pair(self, capsys):
        code, out, _ = run(capsys, "fock", "--system", "std-o2", "--modes", "1,2")
        assert code == 0
        assert "index: 4" in out
        assert "match: yes" in out

    def test_common_to_p2(self, capsys):
        code, out, _ = run(capsys, "fock", "--system", "std-rfs-p:2", "--modes", "1,2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == "4" and payload["match"] is True

    def test_vacuum(self, capsys):
        code, out, _ = run(capsys, "fock", "--system", "std-o2", "--modes", "")
        assert code == 0
        assert "index: 1" in out

    def test_rpfs_rejected(self, capsys):
        code, _, err = run(capsys, "fock", "--system", "std-rpfs:2", "--modes", "1")
        assert code == 2
        assert "fermion" in err


class TestApply:
    @pytest.fixture
    def files(self, tmp_path):
        def element_file(element, name="x.json"):
            path = tmp_path / name
            path.write_text(json.dumps(element_to_dict(element)))
            return str(path)

        def vector_file(vector, name="v.json"):
            path = tmp_path / name
            path.write_text(json.dumps(vector_to_dict(vector)))
            return str(path)

        return element_file, vector_file

    def test_isometry_on_vacuum(self, capsys, files):
        element_file, vector_file = files
        code, out, _ = run(capsys, "apply",
                           "--element", element_file(Element.word(2, (2,), ())),
                           "--vector", vector_file(StateVector.unit(1)))
        assert code == 0
        assert out.strip() == "e_2"

    def test_seed_annihilates_vacuum(self, capsys, files):
        element_file, vector_file = files
        seed = Element.word(2, (1,), (2,))
        code, out, _ = run(capsys, "apply", "--element", element_file(seed),
                           "--vector", vector_file(StateVector.unit(1)),
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"terms": []}

    def test_seed_lowers_e2(self, capsys, files):
        element_file, vector_file = files
        seed = Element.word(2, (1,), (2,))
        code, out, _ = run(capsys, "apply", "--element", element_file(seed),
                           "--vector", vector_file(StateVector.unit(2)))
        assert code == 0
        assert out.strip() == "e_1"

    def test_schema_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "apply", "--element", str(bad), "--vector", str(bad))
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize("index", ["7" * 5000, "\u00b2"], ids=["5000-digits", "superscript"])
    def test_malformed_vector_index_exits_2(self, capsys, files, tmp_path, index):
        element_file, _ = files
        vector = tmp_path / "v.json"
        vector.write_text(json.dumps({"terms": [{"index": index, "coeff": "1"}]}))
        code, _, err = run(capsys, "apply", "--element", element_file(Element.word(2, (1,), ())),
                           "--vector", str(vector))
        assert code == 2
        assert "'index'" in err
        assert "Traceback" not in err


class TestNormalFormAndEndo:
    def test_normal_form(self, capsys, tmp_path):
        # s1 s1* + s2 s2* - I collapses to zero
        el = Element(2, {Monomial((1,), (1,)): 1, Monomial((2,), (2,)): 1,
                         Monomial((), ()): -1})
        path = tmp_path / "x.json"
        path.write_text(json.dumps(element_to_dict(el)))
        code, out, _ = run(capsys, "normal-form", "--element", str(path))
        assert code == 0
        assert out.strip() == "0"

    def test_endo_apply_rho(self, capsys, tmp_path):
        el = Element.word(2, (1,), (2,))
        path = tmp_path / "x.json"
        path.write_text(json.dumps(element_to_dict(el)))
        code, out, _ = run(capsys, "endo-apply", "--endo", "rho", "--element", str(path))
        assert code == 0
        assert out.strip() == "s1 s1 s2* s1* + s2 s1 s2* s2*"

    @pytest.mark.parametrize("d, words", [(10**30, 1), (3000, 29)], ids=["d-1e30", "d-3000"])
    def test_endo_apply_rho_counts_before_building(self, tmp_path, d, words):
        # rho gives d words per term: 10^30, or 3000 x 29^2 = 2,523,000.  In
        # a 1.5 GB address space, so that building them fails fast.
        el = Element(d, {((a,), (b,)): 1 for a in range(1, words + 1)
                         for b in range(1, words + 1)})
        path = tmp_path / "x.json"
        path.write_text(json.dumps(element_to_dict(el)))
        done = run_module("endo-apply", "--endo", "rho", "--element", str(path),
                          limit_bytes=3 << 29)
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.strip() == (f"resource cap: terms count {d * words * words} "
                                       "exceeds cap 500000 in endo-apply")

    def test_endo_apply_rho_counts_the_identity_word_once(self, capsys, monkeypatch, tmp_path):
        # I + s1 s2*: rho keeps I and gives 2 words for s1 s2*, 3 in all.
        el = Element(2, {((), ()): 1, ((1,), (2,)): 1})
        path = tmp_path / "x.json"
        path.write_text(json.dumps(element_to_dict(el)))
        argv = ("endo-apply", "--endo", "rho", "--element", str(path))
        monkeypatch.setenv("CUNTZ_MAX_TERMS", "2")
        code, _, err = run(capsys, *argv)
        assert (code, err.strip()) == (3, "resource cap: terms count 3 exceeds cap 2 in endo-apply")
        monkeypatch.setenv("CUNTZ_MAX_TERMS", "3")
        code, _, err = run(capsys, *argv)
        assert code == 3 and err.endswith("in normal_form\n")  # past the count

    def test_endo_apply_phi1_charge_mixing(self, capsys, tmp_path):
        el = Element.word(2, (1,), (2,))
        path = tmp_path / "x.json"
        path.write_text(json.dumps(element_to_dict(el)))
        code, out, _ = run(capsys, "endo-apply", "--endo", "phi1",
                           "--element", str(path), "--format", "json")
        assert code == 0
        terms = json.loads(out)["terms"]
        excesses = {len(t["create"]) - len(t["annihilate"]) for t in terms}
        assert excesses == {-2, -1}

    def test_unknown_endo(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(element_to_dict(Element.word(2, (1,), ()))))
        code, _, err = run(capsys, "endo-apply", "--endo", "zeta9", "--element", str(path))
        assert code == 2


def _isometry_images(d):
    return [element_to_dict(Element.word(d, (i,), ())) for i in range(1, d + 1)]


_SEED = element_to_dict(Element.word(2, (1,), (2,)))
_RFS = {"kind": "rfs", "d": 2, "p": 1, "seeds": [_SEED], "phi": "rho",
        "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2}]}


def _with_sandwich(key, value):
    return {**_RFS, "zeta": [{**_RFS["zeta"][0], key: value}, _RFS["zeta"][1]]}


# Each case: argv, with {name} standing for a file written from files[name]
# (a string is written as it is, anything else as JSON).
MALFORMED = {
    "embed-n-0": (("embed", "--system", "std-o2", "--n", "0"), {}),
    "fock-modes-not-integers": (("fock", "--system", "std-o2", "--modes", "1,x"), {}),
    "fock-mode-0": (("fock", "--system", "std-o2", "--modes", "0"), {}),
    "missing-element-file": (("normal-form", "--element", "{absent}"), {}),
    "system-invalid-json": (("verify", "--system", "{system}", "--suite", "seed"),
                            {"system": "{not json"}),
    "endo-invalid-json": (("endo-apply", "--endo", "{endo}", "--element", "{x}"),
                          {"endo": "{not json", "x": _SEED}),
    "endo-no-images": (("endo-apply", "--endo", "{endo}", "--element", "{x}"),
                       {"endo": {"images": []}, "x": _SEED}),
    "endo-mixed-d": (("endo-apply", "--endo", "{endo}", "--element", "{x}"),
                     {"endo": {"images": _isometry_images(2)[:1] + _isometry_images(3)[1:2]},
                      "x": _SEED}),
    "endo-other-d": (("endo-apply", "--endo", "{endo}", "--element", "{x}"),
                     {"endo": {"images": _isometry_images(3)}, "x": _SEED}),
    "kind-xyz": (("verify", "--system", "{system}", "--suite", "seed"),
                 {"system": {**_RFS, "kind": "xyz"}}),
    "bool-letter": (("normal-form", "--element", "{x}"),
                    {"x": {"d": 2, "terms": [
                        {"coeff": "1", "create": [True, 2], "annihilate": [1]},
                        {"coeff": "1", "create": [1, 2], "annihilate": [1]}]}}),
    "bool-d": (("normal-form", "--element", "{x}"), {"x": {**_SEED, "d": True}}),
    "bool-sign": (("embed", "--system", "{system}", "--n", "2"),
                  {"system": _with_sandwich("sign", True)}),
    "bool-left": (("embed", "--system", "{system}", "--n", "2"),
                  {"system": _with_sandwich("left", True)}),
    "bool-p": (("embed", "--system", "{system}", "--n", "2"), {"system": {**_RFS, "p": True}}),
}

# Every kind of input file, as the file {bad} of a command.
FILE_ARGS = {
    "system": (("verify", "--system", "{bad}", "--suite", "seed"), {}),
    "element": (("normal-form", "--element", "{bad}"), {}),
    "endo": (("endo-apply", "--endo", "{bad}", "--element", "{x}"), {"x": _SEED}),
    "vector": (("apply", "--element", "{x}", "--vector", "{bad}"), {"x": _SEED}),
}
# Text the JSON reader refuses: nesting deeper than the recursion limit, and
# an integer with more digits than the interpreter converts.
UNREADABLE_TEXT = {
    "deep-nesting": "[" * 200_000 + "]" * 200_000,
    "5000-digit-d": '{"d": ' + "9" * 5000 + "}",
}
MALFORMED.update({
    f"{kind}-{name}": (argv, {**files, "bad": payload})
    for kind, (argv, files) in FILE_ARGS.items() for name, payload in UNREADABLE_TEXT.items()
})


class TestMalformedInput:
    """Malformed flags and files exit 2 with one ``error:`` line, no traceback."""

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_exits_2(self, capsys, tmp_path, case):
        argv, files = MALFORMED[case]
        paths = {"absent": str(tmp_path / "absent.json")}
        for name, payload in files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
            paths[name] = str(path)
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestUnreadableFile:
    """A file that is not UTF-8 text, or not a file at all, exits 2 like
    malformed JSON, whichever kind of input it is given as."""

    @pytest.mark.parametrize("payload", ["bytes", "directory"])
    @pytest.mark.parametrize("kind", list(FILE_ARGS))
    def test_exits_2(self, capsys, tmp_path, kind, payload):
        argv, files = FILE_ARGS[kind]
        bad = tmp_path / "bad.json"
        if payload == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe{")
        paths = {"bad": str(bad)}
        for name, obj in files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj))
            paths[name] = str(path)
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""
        reason = "cannot read" if payload == "directory" else "invalid JSON in"
        assert err.startswith(f"error: {reason} {bad}: ") and err.count("\n") == 1


class TestRoundTrip:
    def test_embedded_json_reparses_equal(self, capsys, tmp_path):
        code, out, _ = run(capsys, "embed", "--system", "std-rfs-p:2", "--n", "4",
                           "--format", "json")
        assert code == 0
        from cuntz.serialize import element_from_dict

        el = element_from_dict(json.loads(out))
        reference = standard_rfs_p(2).generator(4).normal_form()
        assert el == reference


class TestTermCapInput:
    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_env_exits_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("CUNTZ_MAX_TERMS", raw)
        code, out, err = run(capsys, "embed", "--system", "std-o2", "--n", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "CUNTZ_MAX_TERMS" in err

    def test_env_cap_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("CUNTZ_MAX_TERMS", "16")
        code, _, err = run(capsys, "embed", "--system", "std-o2", "--n", "9")
        assert code == 3
        assert "cap 16" in err

    def test_normal_form_raising_over_cap_exits_3(self, capsys, monkeypatch, tmp_path):
        # I + s1^8 (s1^8)* in O_4: raising I to length 8 would form 4^8 words.
        el = Element(4, {Monomial((), ()): 1, Monomial((1,) * 8, (1,) * 8): 1})
        path = tmp_path / "x.json"
        path.write_text(json.dumps(element_to_dict(el)))
        monkeypatch.setenv("CUNTZ_MAX_TERMS", "1000")
        code, out, err = run(capsys, "normal-form", "--element", str(path))
        assert code == 3
        assert out == ""
        assert "65537" in err and "cap 1000" in err and "normal_form" in err

    def test_exponent_coefficient_exits_2(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"d": 2, "terms": [
            {"coeff": "1e5000", "create": [1], "annihilate": [2]}]}))
        code, out, err = run(capsys, "normal-form", "--element", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "bad coefficient '1e5000'" in err

    @pytest.mark.parametrize("raw", ["0", "-5", "abc"])
    def test_non_positive_flag_exits_2(self, capsys, raw):
        code, out, err = run(capsys, "embed", "--system", "std-o2", "--n", "1",
                             "--max-terms", raw)
        assert code == 2
        assert out == ""
        assert "--max-terms" in err and "positive" in err


class TestLargeModes:
    """Fock and vacuum act in sandwich form, so deep modes answer exactly."""

    def test_fock_mode_2000(self, capsys):
        code, out, _ = run(capsys, "fock", "--system", "std-o2", "--modes", "1,2000",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == str(2 + 2**1999)
        assert payload["match"] is True

    def test_car_N_30(self, capsys):
        # Generator 30 has 2^29 words, but one term as a tensor.
        code, out, err = run(capsys, "verify", "--system", "std-o2", "--suite", "car",
                             "--N", "30", "--format", "json")
        assert code == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        assert [line["params"] for line in lines] == [{"N": 30, "pairs": 465}] * 2
        assert all(line["pass"] for line in lines)

    def test_embed_still_grows_words(self, capsys):
        code, out, err = run(capsys, "embed", "--system", "std-o2", "--n", "30")
        assert code == 3
        assert out == ""
        assert err.strip() == (
            "resource cap: terms count 524288 exceeds cap 500000 in generator")

    def test_vacuum_N_300(self, capsys):
        code, out, _ = run(capsys, "verify", "--system", "std-o2", "--suite", "vacuum",
                           "--N", "300")
        assert code == 0
        assert '[PASS] vacuum.annihilation {"N": 300}' in out

    @pytest.mark.parametrize("suite", ["vacuum", "spectrum"])
    def test_parafermion_L_8_expands_no_generator(self, capsys, suite):
        # Generator 8 of std-rpfs:3 has 12 * 8^7 words, far past a cap of 1000.
        code, out, err = run(capsys, "verify", "--system", "std-rpfs:3", "--suite", suite,
                             "--L", "8", "--max-terms", "1000")
        assert code == 0, err
        assert out.endswith("checks passed\n")

    def test_unprintable_index_exits_3(self, capsys):
        # 2^19999 has more decimal digits than Python converts by default.
        code, out, err = run(capsys, "fock", "--system", "std-o2", "--modes", "20000")
        assert code == 3
        assert out == ""
        assert "index digits" in err and "in fock" in err


class TestMaxTermsFlag:
    """``--max-terms`` bounds what ``$CUNTZ_MAX_TERMS`` bounds, for one command."""

    CAR = ("verify", "--system", "std-o2", "--suite", "car", "--N", "1")

    def test_flag_caps_normal_form(self, capsys):
        # The seed relations are decided by normal forms.
        code, out, err = run(capsys, "verify", "--system", "std-o2", "--suite", "seed",
                             "--max-terms", "1")
        assert code == 3
        assert out == ""
        assert "cap 1 in normal_form" in err

    def test_flag_caps_tensor_products(self, capsys):
        # CAR runs on tensors: {A_1, A_1*} = e11 + e22 has two terms.  verify
        # does not validate a built-in system, so no normal form runs first.
        code, out, err = run(capsys, *self.CAR, "--max-terms", "1")
        assert code == 3
        assert out == ""
        assert err.strip() == "resource cap: terms count 2 exceeds cap 1 in tensor"

    def test_flag_matches_env(self, capsys, monkeypatch):
        code_flag, _, err_flag = run(capsys, *self.CAR, "--max-terms", "1")
        monkeypatch.setenv("CUNTZ_MAX_TERMS", "1")
        code_env, _, err_env = run(capsys, *self.CAR)
        assert (code_flag, err_flag) == (code_env, err_env)

    def test_flag_does_not_leak_into_next_call(self, capsys):
        run(capsys, *self.CAR, "--max-terms", "1")
        code, out, _ = run(capsys, *self.CAR)
        assert code == 0
        assert "[PASS]" in out


class TestLoadValidation:
    """verify loads built-in and JSON systems unvalidated; embed and fock validate."""

    @pytest.mark.parametrize("spec", ["std-o2", "std-rfs-p:3", "std-rpfs:3"])
    def test_verify_does_not_validate_builtins(self, capsys, monkeypatch, spec):
        from cuntz import parafermion, rfs

        def refuse(system):
            raise AssertionError("a built-in system was validated")

        monkeypatch.setattr(rfs, "validate_system", refuse)
        monkeypatch.setattr(parafermion, "validate_green_system", refuse)
        code, _, _ = run(capsys, "verify", "--system", spec, "--suite", "seed")
        assert code == 0

    @pytest.mark.parametrize("command", [("embed", "--n", "1"), ("fock", "--modes", "1")])
    def test_embed_and_fock_validate_builtins(self, capsys, monkeypatch, command):
        from cuntz import rfs

        seen = []
        validate = rfs.validate_system
        monkeypatch.setattr(rfs, "validate_system", lambda s: seen.append(s) or validate(s))
        code, _, _ = run(capsys, command[0], "--system", "std-o2", *command[1:])
        assert code == 0
        assert len(seen) == 1

    @pytest.mark.parametrize("kind", ["rfs", "rpfs"])
    def test_phi_images_not_a_list_exits_2(self, capsys, tmp_path, kind):
        seed = element_to_dict(Element.word(2, (1,), (2,)))
        zeta = [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2}]
        phi = {"images": 5}
        if kind == "rfs":
            payload = {"kind": "rfs", "d": 2, "seeds": [seed], "zeta": zeta, "phi": phi}
        else:
            payload = {"kind": "rpfs", "d": 2,
                       "triads": [{"seed": seed, "zeta": zeta, "phi": phi}]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "--system", str(path), "--suite", "seed")
        assert code == 2
        assert out == ""
        assert err.strip() == 'error: \'phi\' must be "rho" or {"images": [..]}'


class TestSweepBudget:
    """A sweep longer than the term cap exits 3 before its first predicate."""

    @pytest.mark.parametrize("system, check", [
        ("std-rfs-p:3", "normalization.sampled"),
        ("std-rpfs:3", "green-normalization.sampled"),
    ])
    def test_depth_4_pair_sweep(self, capsys, system, check):
        code, out, err = run(capsys, "verify", "--system", system,
                             "--suite", "normalization", "--depth", "4")
        assert code == 3
        assert out == ""
        assert err.strip() == ("resource cap: candidates count 516971169 exceeds cap "
                               f"500000 in sweep {check}")

    def test_scan_refuses_a_long_candidate_list(self, capsys):
        # car.anticommute at N=4 scans 10 pairs.
        code, out, err = run(capsys, "verify", "--system", "std-o2", "--suite", "car",
                             "--N", "4", "--max-terms", "9")
        assert code == 3
        assert "candidates count 10 exceeds cap 9 in sweep car.anticommute" in err

    @pytest.mark.parametrize("argv, message", [
        (("--system", "std-o2", "--suite", "recursive", "--depth", "12",
          "--max-terms", "90000"), "candidates count 98305 exceeds cap 90000 in sweep "
                                   "recursive.sampled"),
        (("--system", "std-o2", "--suite", "normalization", "--depth", "3",
          "--max-terms", "1000"), "candidates count 2401 exceeds cap 1000 in sweep "
                                  "normalization.sampled"),
        (("--system", "std-rpfs:2", "--suite", "recursive", "--depth", "3",
          "--max-terms", "100"), "candidates count 313 exceeds cap 100 in sweep "
                                 "green-recursive.sampled"),
        (("--system", "std-o2", "--suite", "car", "--N", "100", "--max-terms", "4000"),
         "candidates count 5050 exceeds cap 4000 in sweep car.anticommute"),
        (("--system", "std-rpfs:3", "--suite", "green", "--L", "5", "--max-terms", "40"),
         "candidates count 45 exceeds cap 40 in sweep green.anticommute"),
        (("--system", "std-rpfs:3", "--suite", "trilinear", "--L", "6",
          "--max-terms", "100"), "candidates count 216 exceeds cap 100 in sweep "
                                 "trilinear.number-action"),
        (("--suite", "klein", "--depth", "3", "--max-terms", "300"),
         "candidates count 939 exceeds cap 300 in sweep klein.map1"),
    ])
    def test_counted_before_words_or_operands_are_built(self, capsys, monkeypatch, argv,
                                                        message):
        # The closed-form count is refused before any sweep image or tensor
        # generator exists, with the message the scan itself would give.
        from cuntz import rfs

        calls = []
        apply = RecursiveMap.apply
        monkeypatch.setattr(RecursiveMap, "apply",
                            lambda z, x: calls.append("apply") or apply(z, x))
        monkeypatch.setattr(rfs, "sandwich_power",
                            lambda *args: calls.append("sandwich_power"))
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert err.strip() == f"resource cap: {message}"
        assert calls == []

    def test_huge_alphabet_exits_3_without_listing_words(self, capsys, tmp_path):
        # d = 10^30 letters: the sweep's word count is refused by its closed
        # form; listing the words would not fit in memory.
        d = 10**30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "kind": "rfs", "d": d, "p": 1, "seeds": [{"d": d, "terms": []}],
            "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2}],
            "phi": "rho"}))
        code, out, err = run(capsys, "verify", "--system", str(path), "--suite", "all")
        assert code == 3
        assert out == ""
        assert err.strip() == (f"resource cap: candidates count {1 + 2 * d + 3 * d * d} "
                               "exceeds cap 500000 in sweep recursive.sampled")
        # embed and fock validate: the zero seed fails its seed conditions,
        # and no word list is built, since the recursive certificate holds.
        for command in (("embed", "--n", "1"), ("fock", "--modes", "1")):
            code, out, err = run(capsys, command[0], "--system", str(path), *command[1:])
            assert code == 1
            assert err.startswith("invalid system: 2/6 checks failed; first: seed.mixed")


    def test_huge_alphabet_vacuum_stays_small(self, tmp_path):
        # d = 10^30: the generator's digit table holds only the letters the
        # map reads, so the vacuum check runs in a 1.5 GB address space.
        d = 10**30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "kind": "rfs", "d": d, "p": 1, "seeds": [{"d": d, "terms": []}],
            "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2}],
            "phi": "rho"}))
        done = run_module("verify", "--system", str(path), "--suite", "vacuum", "--N", "3",
                          limit_bytes=3 << 29)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout.startswith("[PASS] vacuum.annihilation")

    def test_huge_alphabet_car_exits_3(self, tmp_path):
        # d = 10^30 with the seed s1 s2*: {A_1, A_1*} - I pads a one-site
        # key with I, an identity of 10^30 entries, which the cap refuses.
        d = 10**30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "kind": "rfs", "d": d, "p": 1,
            "seeds": [element_to_dict(Element.word(d, (1,), (2,)))],
            "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2}],
            "phi": "rho"}))
        done = run_module("verify", "--system", str(path), "--suite", "car", "--N", "2",
                          limit_bytes=3 << 29)
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.strip() == (f"resource cap: identity entries count {d} "
                                       "exceeds cap 500000 in tensor")


class TestHugeCounts:
    """A count too long to print, or to take the length of, exits 3 with one
    ``resource cap:`` line; a count that prints is shown in full."""

    @pytest.mark.parametrize("argv, message", [
        (("--system", "std-o2", "--suite", "car", "--N", "9" * 2500),
         "candidates count of 5000 digits exceeds cap 500000 in sweep car.anticommute"),
        (("--system", "std-rpfs:3", "--suite", "trilinear", "--L", "9" * 2500),
         "candidates count of 7500 digits exceeds cap 500000 in sweep trilinear.comm-comm"),
        (("--system", "std-o2", "--suite", "recursive", "--depth", "30000"),
         "candidates count of 9036 digits exceeds cap 500000 in sweep recursive.sampled"),
        (("--system", "std-o2", "--suite", "recursive", "--depth", str(10**30)),
         "candidates count of more than 999999999999999999 digits exceeds cap 500000 in "
         "sweep recursive.sampled"),
        (("--system", "std-rpfs:3", "--suite", "spectrum", "--L", "9" * 30),
         f"candidates count {'9' * 30} exceeds cap 500000 in sweep spectrum.polynomial"),
        (("--system", "std-rpfs:3", "--suite", "vacuum", "--L", "9" * 30),
         f"candidates count {'9' * 30} exceeds cap 500000 in sweep pf-vacuum.annihilation"),
        (("--system", "std-o2", "--suite", "vacuum", "--N", "9" * 30),
         f"candidates count {'9' * 30} exceeds cap 500000 in sweep vacuum.annihilation"),
    ], ids=["car-N", "trilinear-L", "depth-30000", "depth-1e30", "spectrum-L", "pf-vacuum-L",
            "vacuum-N"])
    def test_exits_3(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert err == f"resource cap: {message}\n"

    @pytest.mark.parametrize("system, message", [
        ("std-o2", "candidates count of 301030005 digits exceeds cap 500000 in sweep "
                   "recursive.sampled"),
        ("std-rfs-p:3", "candidates count of 903089997 digits exceeds cap 500000 in sweep "
                        "recursive.sampled"),
    ])
    def test_depth_1e9_counts_no_integer_of_that_size(self, system, message):
        # The word count has some 10^8 digits: it is refused from its closed
        # form without forming it, in a 1.5 GB address space.
        done = run_module("verify", "--system", system, "--suite", "recursive",
                          "--depth", str(10**9), limit_bytes=3 << 29)
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr == f"resource cap: {message}\n"


class TestDeepMemos:
    """The generator and word-image memos fill in a loop, so a deep request
    costs no recursion depth."""

    def test_far_generator_exits_3(self, capsys):
        # Generator 1100 lies far past the cap; the memo fills level by level
        # until the cap refuses level 12.
        code, out, err = run(capsys, "embed", "--system", "std-o2", "--n", "1100",
                             "--max-terms", "2000")
        assert code == 3
        assert out == ""
        assert err == "resource cap: terms count 2048 exceeds cap 2000 in generator\n"

    def test_generator_past_the_cap_is_refused_before_any_level(self):
        # 10^12 levels are refused at once, not built or searched level by level.
        done = run_module("embed", "--system", "std-o2", "--n", str(10**12))
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr == ("resource cap: levels count 1000000000000 exceeds cap 500000 "
                               "in generator\n")

    @pytest.mark.parametrize("endo, letter", [("phi2", 1), ("phi1", 2)])
    def test_1500_letter_word(self, capsys, tmp_path, endo, letter):
        word = Element.word(2, (letter,) * 1500, ())
        path = tmp_path / "x.json"
        path.write_text(json.dumps(element_to_dict(word)))
        code, out, err = run(capsys, "endo-apply", "--endo", endo, "--element", str(path),
                             "--format", "json")
        assert code == 0, err
        image = getattr(cuntz, endo)().images[letter - 1]
        expected = Element.word(2, (), ())
        for _ in range(1500):
            expected = expected * image
        assert element_from_dict(json.loads(out)).equals(expected)


class TestRangeFlags:
    @pytest.mark.parametrize("raw", ["-3", "0", "x"])
    def test_bad_N_exits_2(self, capsys, raw):
        code, out, err = run(capsys, "verify", "--system", "std-o2", "--suite", "vacuum",
                             "--N", raw)
        assert code == 2
        assert out == ""
        assert "--N" in err and "positive" in err

    @pytest.mark.parametrize("raw", ["-2", "0"])
    def test_bad_L_exits_2(self, capsys, raw):
        code, out, err = run(capsys, "verify", "--suite", "klein", "--L", raw)
        assert code == 2
        assert out == ""
        assert "--L" in err and "positive" in err

    def test_negative_depth_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--system", "std-o2", "--suite", "recursive",
                             "--depth", "-1")
        assert code == 2
        assert out == ""
        assert "--depth" in err and "non-negative" in err

    def test_zero_depth_is_accepted(self, capsys):
        code, _, _ = run(capsys, "verify", "--system", "std-o2", "--suite", "recursive",
                         "--depth", "0")
        assert code == 0
