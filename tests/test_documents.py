import json
import math
import tracemalloc

import numpy as np
import pytest

from matfrob import (
    Abs,
    Exp,
    JordanSpec,
    MatFrobError,
    Monomial,
    Polynomial,
    PrincipalRoot,
    ScaledSum,
)
from matfrob.documents import (
    dump_document,
    is_matrix_document,
    is_spec_document,
    load_document,
    matrix_document,
    parse_function_expression,
    parse_matrix_document,
    parse_spec_document,
)
from matfrob.cli import main

from helpers import NEGATE, full_catalogue, strict_json


class TestMatrixDocuments:
    def test_round_trip_preserves_every_bit(self, tmp_path):
        a = np.array([
            [1.0 / 3.0, math.sqrt(2.0), -0.0],
            [-1e-17, 2.0, 5e-324],
            [1.7976931348623157e308, 0.1 + 0.2, -1.7976931348623157e308],
        ])
        doc = matrix_document("probe", a)
        assert doc["rows"] == [[float(x) for x in row] for row in a]
        assert {type(x) for row in doc["rows"] for x in row} == {float}
        path = tmp_path / "m.json"
        dump_document(doc, path)
        name, back = parse_matrix_document(load_document(path))
        assert name == "probe"
        assert back.tobytes() == a.tobytes()  # -0.0 keeps its sign bit

        # a 1 x 1 matrix has no eigenvalue besides rho: no margin (null)
        report = tmp_path / "report.json"
        dump_document({"rows": [[0.1 + 0.2]]}, path)
        assert main(["check-pf", str(path), "--out", str(report)]) == 0
        payload = strict_json(report.read_text())["report"]
        assert payload["dominance_margin"] is None
        assert payload["rho"] == 0.1 + 0.2

    def test_defaults_and_detection(self):
        doc = {"rows": [[1.0]]}
        assert is_matrix_document(doc)
        assert not is_spec_document(doc)
        name, a = parse_matrix_document(doc)
        assert name == "matrix"
        assert a.shape == (1, 1)

    def test_non_string_name_rejected(self, tmp_path, capsys):
        doc = {"name": 5, "rows": [[1.0]]}
        with pytest.raises(MatFrobError) as exc:
            parse_matrix_document(doc)
        assert str(exc.value) == "name must be a string, got 5"
        path = tmp_path / "m.json"
        dump_document(doc, path)
        assert main(["check-pf", str(path)]) == 2
        assert capsys.readouterr().err == "error: name must be a string, got 5\n"

    def test_rectangular_allowed_here(self):
        # squareness is the caller's concern, shape consistency is ours
        _, a = parse_matrix_document({"rows": [[1, 2, 3], [4, 5, 6]]})
        assert a.shape == (2, 3)

    def test_ragged_rejected(self):
        with pytest.raises(MatFrobError, match="entries"):
            parse_matrix_document({"rows": [[1, 2], [3]]})

    def test_non_numeric_rejected(self):
        with pytest.raises(MatFrobError, match="number"):
            parse_matrix_document({"rows": [[1, "x"]]})
        with pytest.raises(MatFrobError, match="number"):
            parse_matrix_document({"rows": [[True]]})

    def test_first_bad_entry_named(self):
        with pytest.raises(MatFrobError) as exc:
            parse_matrix_document({"rows": [[1, 2], [3, None], ["x", 4]]})
        assert str(exc.value) == "rows[1]: expected a number, got None"
        with pytest.raises(MatFrobError, match=r"rows\[0\]: .*\[1\]"):
            parse_matrix_document({"rows": [[1, [1]]]})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, tmp_path, literal):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1, 2, 3], [4, 5, %s]]}' % literal)
        with pytest.raises(MatFrobError) as exc:
            parse_matrix_document(load_document(path))
        assert str(exc.value) == (
            f"rows[1][2]: expected a finite number, got {float(literal)!r}"
        )

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(MatFrobError, match=r"rows\[0\]\[1\]: .*finite"):
            parse_matrix_document({"rows": [[1, -(10**400)]]})

    def test_float_subclass_entries_accepted(self):
        _, a = parse_matrix_document({"rows": [[np.float64(0.5), 2]]})
        assert a.tolist() == [[0.5, 2.0]]

    def test_empty_rejected(self):
        with pytest.raises(MatFrobError):
            parse_matrix_document({"rows": []})
        with pytest.raises(MatFrobError):
            parse_matrix_document({"rows": [[]]})
        with pytest.raises(MatFrobError):
            parse_matrix_document({})

    def test_bad_json_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rows": [[1, ]]}')
        with pytest.raises(MatFrobError, match="line 1"):
            load_document(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatFrobError, match="cannot read"):
            load_document(tmp_path / "absent.json")

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(MatFrobError, match="object"):
            load_document(path)


class TestLoadRefusals:
    """Input load_document refuses by name, so commands exit 2 on it."""

    def test_non_utf8_named_by_path_and_offset(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(MatFrobError) as exc:
            load_document(path)
        assert str(exc.value).startswith(f"{path}: not UTF-8 text at byte offset 0")

    def test_non_utf8_offset_past_valid_prefix(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        with pytest.raises(MatFrobError, match="byte offset 13"):
            load_document(path)

    def test_utf8_names_read(self, tmp_path):
        path = tmp_path / "utf8.json"
        path.write_bytes('{"name": "caf\u00e9 \u2603", "rows": [[1]]}'.encode())
        assert load_document(path)["name"] == "caf\u00e9 \u2603"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"rows": [[1, 2], [3, 4]], "rows": [[5]]}', "rows"),
            ('{"real_blocks": [{"lambda": 2, "lambda": 3}]}', "lambda"),
            ('{"rows": [[1]], "x": {"a": {"b": 1, "b": 1}}}', "b"),
        ],
        ids=["top", "block", "nested"],
    )
    def test_duplicate_key_named(self, tmp_path, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(MatFrobError) as exc:
            load_document(path)
        assert str(exc.value) == f"{path}: duplicate key {key!r}"

    def test_same_key_in_sibling_objects_allowed(self, tmp_path):
        path = tmp_path / "blocks.json"
        path.write_text('{"real_blocks": [{"lambda": 2}, {"lambda": 1}]}')
        assert len(load_document(path)["real_blocks"]) == 2


NaN = float("nan")
# names that need escapes and non-ASCII text, the float64 extremes, and
# keys that are not strings
ODD_DOCUMENTS = [
    {},
    {"name": "q\"uote\\back\tslash\n\u00e9\u2603\U0001d400", "rows": [[1.0]]},
    {"rows": [[-0.0, 5e-324, -5e-324], [1.7976931348623157e308,
                                         -1.7976931348623157e308, 0.1 + 0.2]]},
    {"name": "s", "real_blocks": [{"lambda": 2.0, "size": 1}],
     "complex_blocks": [{"re": -0.0, "im": 5e-324}], "transform": [[1, 0], [0, 1]]},
    {"rows": [], "empty_rows": [[]], "mixed": [[1], 2], "deep": [[[1.5]], [[2]]]},
    {"report": {"rho": 2.0, "margin": None, "ok": True, "list": [1, "a"]}},
    {1: [[1.0]], None: "x", 2.5: [1], False: {"a": [None, NaN]}, "t": (1, [2])},
]


class TestDumpDocument:
    """dump_document writes row by row; its bytes are json.dumps's."""

    @pytest.mark.parametrize("doc", ODD_DOCUMENTS)
    def test_bytes_equal_one_shot_encoding(self, tmp_path, doc):
        path = tmp_path / "d.json"
        assert dump_document(doc, path) is None
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode()
        assert dump_document(doc) == json.dumps(doc)

    def test_peak_memory_is_a_row_not_the_text(self, tmp_path):
        a = np.random.default_rng(5).standard_normal((300, 300))
        doc = matrix_document("big", a)
        size = len(json.dumps(doc))
        tracemalloc.start()
        try:
            dump_document(doc, tmp_path / "big.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.json").stat().st_size == size + 1
        assert peak < 0.05 * size


class TestSpecDocuments:
    def test_round_trip(self, tmp_path):
        spec = JordanSpec(
            real_blocks=((2.5, 1), (1.0 / 3.0, 2)),
            complex_blocks=((0.5 + math.sqrt(3.0) * 1j, 1),),
        )
        t = np.array([[1.0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                      [0, 0, 0, 1, 0], [0.25, 0, 0, 0, 1.0]])
        doc = {
            "name": "planted",
            "real_blocks": [
                {"lambda": lam, "size": n} for lam, n in spec.real_blocks
            ],
            "complex_blocks": [
                {"re": lam.real, "im": lam.imag, "size": n}
                for lam, n in spec.complex_blocks
            ],
            "transform": t.tolist(),
        }
        path = tmp_path / "s.json"
        dump_document(doc, path)
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
        with pytest.raises(MatFrobError, match="positive"):
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
                "transform[0][0]",
            ),
        ],
    )
    def test_non_finite_rejected(self, value, doc, where):
        text = json.dumps(doc).replace('"V"', json.dumps(value))
        with pytest.raises(MatFrobError) as exc:
            parse_spec_document(json.loads(text))
        assert str(exc.value).startswith(f"{where}: expected a finite number")

    def test_real_axis_pair_rejected(self):
        doc = {"complex_blocks": [{"re": 1.0, "im": 0.0, "size": 1}]}
        with pytest.raises(MatFrobError, match="positive"):
            parse_spec_document(doc)

    def test_bad_sizes_rejected(self):
        with pytest.raises(MatFrobError, match="size"):
            parse_spec_document({"real_blocks": [{"lambda": 1.0, "size": 0}]})
        with pytest.raises(MatFrobError, match="size"):
            parse_spec_document({"real_blocks": [{"lambda": 1.0, "size": 1.5}]})

    def test_missing_lambda_rejected(self):
        with pytest.raises(MatFrobError, match="lambda"):
            parse_spec_document({"real_blocks": [{"size": 2}]})

    @pytest.mark.parametrize(
        "transform, message",
        [
            ([[1, "x"], [0, 1]], "transform[0]: expected a number, got 'x'"),
            ([], "transform must be a nonempty list of lists"),
            ([[1.0, 0.0], 5], "transform[1] must be a nonempty list"),
            ([[1.0, 0.0], [1.0]], "transform[1] has 1 entries, expected 2"),
        ],
    )
    def test_transform_errors_name_the_transform(self, transform, message):
        # a factored-form document has no rows field to point at
        doc = {"real_blocks": [{"lambda": 1.0}, {"lambda": 2.0}], "transform": transform}
        with pytest.raises(MatFrobError) as exc:
            parse_spec_document(doc)
        assert str(exc.value) == message

    def test_transform_dimension_checked(self):
        doc = {
            "real_blocks": [{"lambda": 1.0}, {"lambda": 2.0}],
            "transform": [[1.0]],
        }
        with pytest.raises(MatFrobError, match="dimension"):
            parse_spec_document(doc)
        doc["transform"] = [[1.0, 0.0]]
        with pytest.raises(MatFrobError, match="square"):
            parse_spec_document(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"name": ["x"], "real_blocks": [{"lambda": 1.0}]},
                "name must be a string, got ['x']",
            ),
            ({"real_blocks": {"lambda": 1.0}}, "real_blocks and complex_blocks must be lists"),
            ({"complex_blocks": "1+1j"}, "real_blocks and complex_blocks must be lists"),
            ({"real_blocks": [1.0]}, "real_blocks[0] must be an object"),
            ({"complex_blocks": [[1.0, 1.0]]}, "complex_blocks[0] must be an object"),
            (
                {"complex_blocks": [{"re": 1.0, "im": 1.0, "size": 0}]},
                "complex_blocks[0].size must be a positive integer, got 0",
            ),
            (
                {"complex_blocks": [{"re": 1.0, "im": 0.0}]},
                "complex_blocks[0] must use the representative with positive "
                "imaginary part, got im = 0.0",
            ),
            (
                {"complex_blocks": [{"re": 1.0, "im": -1.0}]},
                "complex_blocks[0] must use the representative with positive "
                "imaginary part, got im = -1.0",
            ),
        ],
    )
    def test_refusal_named(self, tmp_path, capsys, doc, message):
        with pytest.raises(MatFrobError) as exc:
            parse_spec_document(doc)
        assert str(exc.value) == message
        path = tmp_path / "s.json"
        dump_document(doc, path)
        assert main(["synthesize", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_empty_spec_rejected(self):
        with pytest.raises(MatFrobError):
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
        with pytest.raises(MatFrobError):
            parse_function_expression(bad)

    def test_empty_trailing_term_named(self):
        with pytest.raises(MatFrobError) as exc:
            parse_function_expression("exp +")
        assert str(exc.value) == "empty term in function expression 'exp +'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nan*exp", "weights must be finite, got nan"),
            ("1e400*exp + pow:1", "weights must be finite, got inf"),
            ("poly:nan,1", "coefficients must be finite, got nan"),
            ("poly:1,-inf", "coefficients must be finite, got -inf"),
        ],
    )
    def test_non_finite_parameter_named(self, text, message):
        with pytest.raises(MatFrobError, match=message):
            parse_function_expression(text)

    def test_format_parse_round_trip(self):
        for f in full_catalogue() + [NEGATE, Polynomial((1 / 3, -2.0, 1e-17))]:
            text = f.describe()
            assert parse_function_expression(text) == f
