"""Command-line interface: outputs, exit codes, determinism."""

import json

import pytest

from cuntz import Element, Monomial, standard_rfs_p
from cuntz.cli import main
from cuntz.serialize import element_to_dict, rfs_to_dict, vector_to_dict
from cuntz.representation import StateVector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_vacuum_N_300(self, capsys):
        code, out, _ = run(capsys, "verify", "--system", "std-o2", "--suite", "vacuum",
                           "--N", "300")
        assert code == 0
        assert '[PASS] vacuum.annihilation {"N": 300}' in out

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
        code, out, err = run(capsys, *self.CAR, "--max-terms", "1")
        assert code == 3
        assert out == ""
        assert "cap 1 in normal_form" in err

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
