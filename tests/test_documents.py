import json
import math

import numpy as np
import pytest

from matfrob import (
    Abs,
    Exp,
    JordanSpec,
    Monomial,
    Polynomial,
    PrincipalRoot,
    ScaledSum,
)
from matfrob.documents import (
    DocumentFormatError,
    ExpressionError,
    dump_document,
    is_matrix_document,
    is_spec_document,
    load_document,
    matrix_document,
    parse_function_expression,
    parse_matrix_document,
    parse_spec_document,
    spec_document,
)

from helpers import NEGATE, full_catalogue


class TestMatrixDocuments:
    def test_round_trip_preserves_every_bit(self, tmp_path):
        a = np.array([[1.0 / 3.0, math.sqrt(2.0)], [-1e-17, 2.0]])
        path = tmp_path / "m.json"
        dump_document(matrix_document("probe", a), path)
        name, back = parse_matrix_document(load_document(path))
        assert name == "probe"
        assert np.array_equal(back, a)

    def test_defaults_and_detection(self):
        doc = {"rows": [[1.0]]}
        assert is_matrix_document(doc)
        assert not is_spec_document(doc)
        name, a = parse_matrix_document(doc)
        assert name == "matrix"
        assert a.shape == (1, 1)

    def test_rectangular_allowed_here(self):
        # squareness is the caller's concern, shape consistency is ours
        _, a = parse_matrix_document({"rows": [[1, 2, 3], [4, 5, 6]]})
        assert a.shape == (2, 3)

    def test_ragged_rejected(self):
        with pytest.raises(DocumentFormatError, match="entries"):
            parse_matrix_document({"rows": [[1, 2], [3]]})

    def test_non_numeric_rejected(self):
        with pytest.raises(DocumentFormatError, match="number"):
            parse_matrix_document({"rows": [[1, "x"]]})
        with pytest.raises(DocumentFormatError, match="number"):
            parse_matrix_document({"rows": [[True]]})

    def test_first_bad_entry_named(self):
        with pytest.raises(DocumentFormatError) as exc:
            parse_matrix_document({"rows": [[1, 2], [3, None], ["x", 4]]})
        assert str(exc.value) == "rows[1]: expected a number, got None"
        with pytest.raises(DocumentFormatError, match=r"rows\[0\]: .*\[1\]"):
            parse_matrix_document({"rows": [[1, [1]]]})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, tmp_path, literal):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1, 2, 3], [4, 5, %s]]}' % literal)
        with pytest.raises(DocumentFormatError) as exc:
            parse_matrix_document(load_document(path))
        assert str(exc.value) == (
            f"rows[1][2]: expected a finite number, got {float(literal)!r}"
        )

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(DocumentFormatError, match=r"rows\[0\]\[1\]: .*finite"):
            parse_matrix_document({"rows": [[1, -(10**400)]]})

    def test_float_subclass_entries_accepted(self):
        _, a = parse_matrix_document({"rows": [[np.float64(0.5), 2]]})
        assert a.tolist() == [[0.5, 2.0]]

    def test_empty_rejected(self):
        with pytest.raises(DocumentFormatError):
            parse_matrix_document({"rows": []})
        with pytest.raises(DocumentFormatError):
            parse_matrix_document({"rows": [[]]})
        with pytest.raises(DocumentFormatError):
            parse_matrix_document({})

    def test_bad_json_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rows": [[1, ]]}')
        with pytest.raises(DocumentFormatError, match="line 1"):
            load_document(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentFormatError, match="cannot read"):
            load_document(tmp_path / "absent.json")

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(DocumentFormatError, match="object"):
            load_document(path)


class TestSpecDocuments:
    def test_round_trip(self, tmp_path):
        spec = JordanSpec(
            real_blocks=((2.5, 1), (1.0 / 3.0, 2)),
            complex_blocks=((0.5 + math.sqrt(3.0) * 1j, 1),),
        )
        t = np.array([[1.0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                      [0, 0, 0, 1, 0], [0.25, 0, 0, 0, 1.0]])
        path = tmp_path / "s.json"
        dump_document(spec_document(spec, t, name="planted"), path)
        doc = load_document(path)
        assert is_spec_document(doc)
        name, back, t_back = parse_spec_document(doc)
        assert name == "planted"
        assert back == spec
        assert np.array_equal(t_back, t)

    def test_transform_optional(self):
        name, spec, t = parse_spec_document({"real_blocks": [{"lambda": 2.0}]})
        assert name == "synthesized"
        assert spec.real_blocks == ((2.0, 1),)
        assert t is None

    def test_lower_half_representative_rejected(self):
        doc = {"complex_blocks": [{"re": 1.0, "im": -1.0, "size": 1}]}
        with pytest.raises(DocumentFormatError, match="positive"):
            parse_spec_document(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"real_blocks": [{"lambda": "V"}]}, "real_blocks[0].lambda"),
            ({"complex_blocks": [{"re": "V", "im": 1.0}]}, "complex_blocks[0].re"),
            ({"complex_blocks": [{"re": 1.0, "im": "V"}]}, "complex_blocks[0].im"),
            (
                {"real_blocks": [{"lambda": 1.0}], "transform": [["V"]]},
                "rows[0][0]",
            ),
        ],
    )
    def test_non_finite_rejected(self, value, doc, where):
        text = json.dumps(doc).replace('"V"', json.dumps(value))
        with pytest.raises(DocumentFormatError) as exc:
            parse_spec_document(json.loads(text))
        assert str(exc.value).startswith(f"{where}: expected a finite number")

    def test_real_axis_pair_rejected(self):
        doc = {"complex_blocks": [{"re": 1.0, "im": 0.0, "size": 1}]}
        with pytest.raises(DocumentFormatError, match="positive"):
            parse_spec_document(doc)

    def test_bad_sizes_rejected(self):
        with pytest.raises(DocumentFormatError, match="size"):
            parse_spec_document({"real_blocks": [{"lambda": 1.0, "size": 0}]})
        with pytest.raises(DocumentFormatError, match="size"):
            parse_spec_document({"real_blocks": [{"lambda": 1.0, "size": 1.5}]})

    def test_missing_lambda_rejected(self):
        with pytest.raises(DocumentFormatError, match="lambda"):
            parse_spec_document({"real_blocks": [{"size": 2}]})

    def test_transform_dimension_checked(self):
        doc = {
            "real_blocks": [{"lambda": 1.0}, {"lambda": 2.0}],
            "transform": [[1.0]],
        }
        with pytest.raises(DocumentFormatError, match="dimension"):
            parse_spec_document(doc)
        doc["transform"] = [[1.0, 0.0]]
        with pytest.raises(DocumentFormatError, match="square"):
            parse_spec_document(doc)

    def test_empty_spec_rejected(self):
        with pytest.raises(DocumentFormatError):
            parse_spec_document({"real_blocks": [], "complex_blocks": []})


class TestExpressionParsing:
    def test_single_atoms(self):
        assert parse_function_expression("exp") == Exp()
        assert parse_function_expression("abs") == Abs()
        assert parse_function_expression("pow:3") == Monomial(3)
        assert parse_function_expression("root:3") == PrincipalRoot(3)
        assert parse_function_expression("poly:1,0,2") == Polynomial((1.0, 0.0, 2.0))

    def test_weighted_sum(self):
        got = parse_function_expression("0.5*exp + poly:1,2")
        assert got == ScaledSum(((0.5, Exp()), (1.0, Polynomial((1.0, 2.0)))))

    def test_negative_weight(self):
        got = parse_function_expression("-1*pow:1")
        assert got == ScaledSum(((-1.0, Monomial(1)),))

    def test_scientific_notation_weight(self):
        got = parse_function_expression("2e+1*exp")
        assert got == ScaledSum(((20.0, Exp()),))

    def test_scientific_notation_coefficient(self):
        got = parse_function_expression("poly:1e+2,3")
        assert got == Polynomial((100.0, 3.0))

    def test_whitespace_tolerated(self):
        got = parse_function_expression("  0.5 * exp +  pow:2 ")
        assert got == ScaledSum(((0.5, Exp()), (1.0, Monomial(2))))

    def test_unit_weight_unwraps(self):
        assert parse_function_expression("1*exp") == Exp()

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "pow:x", "pow:", "root:1", "root:0", "poly:", "poly:1,x",
         "sin", "exp + + exp", "q*exp", "pow:2.5"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ExpressionError):
            parse_function_expression(bad)

    def test_format_parse_round_trip(self):
        for f in full_catalogue() + [NEGATE, Polynomial((1 / 3, -2.0, 1e-17))]:
            text = f.describe()
            assert parse_function_expression(text) == f
