"""JSON schemas: round trips, determinism, schema rejection."""

import json
from fractions import Fraction

import pytest

from cuntz import Element, Monomial, SchemaError, StateVector, rho
from sampling import random_element
from cuntz.serialize import (
    element_from_dict,
    element_to_dict,
    endomorphism_from_spec,
    green_from_dict,
    green_to_dict,
    rfs_from_dict,
    rfs_to_dict,
    system_from_dict,
    system_from_spec,
    system_to_dict,
    vector_from_dict,
    vector_to_dict,
)


class TestElementSchema:
    def test_round_trip(self, rng):
        for _ in range(25):
            x = random_element(rng, 3)
            assert element_from_dict(element_to_dict(x)) == x

    def test_shape(self):
        x = Element(2, {Monomial((1,), (2,)): Fraction(-3, 2)})
        payload = element_to_dict(x)
        assert payload == {"d": 2, "terms": [
            {"coeff": "-3/2", "create": [1], "annihilate": [2]}]}

    def test_deterministic_order(self):
        x = Element(4, {Monomial((2,), (4,)): -1, Monomial((1,), (3,)): 1})
        payload = json.dumps(element_to_dict(x))
        assert payload.index('"create": [1]') < payload.index('"create": [2]')

    @pytest.mark.parametrize("payload", [
        {"terms": []},                                     # missing d
        {"d": "2", "terms": []},                           # d not an int
        {"d": 2, "terms": [{"coeff": 1, "create": [], "annihilate": []}]},
        {"d": 2, "terms": [{"coeff": "x", "create": [], "annihilate": []}]},
        {"d": 2, "terms": [{"coeff": "1", "create": [3], "annihilate": []}]},
        {"d": 2, "terms": [{"coeff": "1/0", "create": [], "annihilate": []}]},
    ])
    def test_rejects_malformed(self, payload):
        with pytest.raises(SchemaError):
            element_from_dict(payload)

    def test_integral_coefficients_load_as_ints(self):
        terms = [{"coeff": raw, "create": [i], "annihilate": []}
                 for i, raw in enumerate(["-3", "+2", "6/3", "1/2"], start=1)]
        x = element_from_dict({"d": 4, "terms": terms})
        assert x.terms == {Monomial((1,), ()): -3, Monomial((2,), ()): 2,
                           Monomial((3,), ()): 2, Monomial((4,), ()): Fraction(1, 2)}
        assert [type(c) for c in x.terms.values()] == [int, int, int, Fraction]

    @pytest.mark.parametrize("raw", ["1e5000", "1.5", " 1", "1/2 ", "\u0661", "1/-2"])
    def test_rejects_coefficient_outside_the_grammar(self, raw):
        # Only ASCII digits, an optional sign and one '/': "1e100000000" would
        # otherwise build a 100-million-digit integer.
        with pytest.raises(SchemaError, match="bad coefficient"):
            element_from_dict({"d": 2, "terms": [
                {"coeff": raw, "create": [], "annihilate": []}]})

    def test_rejects_coefficient_beyond_conversion_limit(self):
        with pytest.raises(SchemaError, match="bad coefficient"):
            element_from_dict({"d": 2, "terms": [
                {"coeff": "7" * 5000, "create": [], "annihilate": []}]})


class TestVectorSchema:
    def test_round_trip(self):
        v = StateVector({1: Fraction(1, 2), 2**80: -2})
        assert vector_from_dict(vector_to_dict(v)) == v

    def test_arbitrary_precision_as_strings(self):
        payload = vector_to_dict(StateVector({2**100: 1}))
        assert payload["terms"][0]["index"] == str(2**100)

    def test_rejects_integer_index(self):
        with pytest.raises(SchemaError):
            vector_from_dict({"terms": [{"index": 3, "coeff": "1"}]})

    def test_rejects_index_beyond_conversion_limit(self):
        with pytest.raises(SchemaError, match="5000 digits"):
            vector_from_dict({"terms": [{"index": "7" * 5000, "coeff": "1"}]})

    def test_rejects_non_ascii_digits(self):
        with pytest.raises(SchemaError, match="decimal string"):
            vector_from_dict({"terms": [{"index": "\u00b2", "coeff": "1"}]})


class TestSystemSchema:
    def test_rfs_round_trip(self, rfs2):
        payload = rfs_to_dict(rfs2)
        assert payload["phi"] == "rho"
        clone = rfs_from_dict(payload)
        assert clone.seeds == rfs2.seeds
        assert clone.zeta.terms == rfs2.zeta.terms

    def test_image_form_rho_is_written_as_rho(self, std_o2):
        payload = rfs_to_dict(std_o2)
        payload["phi"] = {"images": [element_to_dict(g) for g in rho(2).images]}
        clone = rfs_from_dict(payload)
        assert not clone.phi.is_canonical
        assert rfs_to_dict(clone)["phi"] == "rho"

    def test_green_round_trip(self, rpfs2):
        clone = green_from_dict(green_to_dict(rpfs2))
        assert clone.seeds == rpfs2.seeds

    def test_kind_detection(self, rfs2, rpfs2):
        assert system_from_dict(rfs_to_dict(rfs2)).p == 2
        assert system_from_dict(green_to_dict(rpfs2)).p == 2

    def test_invalid_system_rejected_when_validating(self, rfs2):
        payload = rfs_to_dict(rfs2)
        payload["seeds"][0]["terms"][0]["coeff"] = "-1"  # break a seed sign
        from cuntz import SystemValidationError

        with pytest.raises(SystemValidationError):
            rfs_from_dict(payload)
        # but loading without validation hands the system to the suites
        system = rfs_from_dict(payload, validate=False)
        from cuntz import verify_seed_condition

        assert not verify_seed_condition(system).ok

    def test_large_rho_system_loads_without_rho_images(self, monkeypatch):
        # phi "rho" on d = 3000 letters: loading and validating must not derive
        # rho's 3000 generator images (each a 3000-term element).
        from cuntz import SystemValidationError, endomorphisms
        from cuntz.endomorphisms import is_rho

        def refuse(x):
            raise AssertionError("a rho image was built")

        monkeypatch.setattr(endomorphisms, "canonical_endomorphism", refuse)
        payload = {
            "kind": "rfs", "d": 3000, "p": 1,
            "seeds": [{"d": 3000, "terms": [{"coeff": "1", "create": [1], "annihilate": [2]}]}],
            "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2}],
            "phi": "rho",
        }
        with pytest.raises(SystemValidationError) as err:
            system_from_dict(payload)
        failed = {line.check for line in err.value.report.failures()}
        assert "normalization.certificate" in failed
        system = system_from_dict(payload, validate=False)
        assert is_rho(system.phi)
        assert system_to_dict(system)["phi"] == "rho"


class TestSystemSpecs:
    def test_builtins(self):
        assert system_from_spec("std-o2").label == "std-o2"
        assert system_from_spec("std-rfs-p:2").p == 2
        assert system_from_spec("std-rpfs:2").p == 2

    def test_file_loading(self, tmp_path, rfs2):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(rfs_to_dict(rfs2)))
        assert system_from_spec(str(path)).p == 2

    def test_unknown_spec(self):
        with pytest.raises(SchemaError):
            system_from_spec("std-nope")
        with pytest.raises(SchemaError):
            system_from_spec("no/such/file.json")

    def test_bad_order(self):
        with pytest.raises(SchemaError):
            system_from_spec("std-rfs-p:x")


class TestEndomorphismSpecs:
    def test_builtins(self):
        assert endomorphism_from_spec("rho", 4).d == 4
        assert endomorphism_from_spec("phi1", 2).d == 2

    def test_phi_builtins_are_o2_only(self):
        with pytest.raises(SchemaError):
            endomorphism_from_spec("phi1", 4)

    def test_json_file(self, tmp_path):
        from cuntz import rho
        from cuntz.serialize import element_to_dict

        payload = {"images": [element_to_dict(img) for img in rho(2).images]}
        path = tmp_path / "endo.json"
        path.write_text(json.dumps(payload))
        assert endomorphism_from_spec(str(path), 2).d == 2

    def test_invalid_images_rejected(self, tmp_path):
        from cuntz import EndomorphismValidationError, isometry

        payload = {"images": [element_to_dict(isometry(2, 1))] * 2}
        path = tmp_path / "endo.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(EndomorphismValidationError):
            endomorphism_from_spec(str(path), 2)
