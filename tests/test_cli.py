import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from matfrob import cli, documents, perron
from matfrob.cli import main
from matfrob.documents import dump_document, load_document, parse_matrix_document
from matfrob.jordan import RealJordanFactors

from helpers import (
    count_calls,
    count_power_products,
    count_svd_calls,
    split_double_eigenvalue_matrix,
    strict_json,
)


def write_matrix(tmp_path, rows, name="m"):
    path = tmp_path / f"{name}.json"
    dump_document({"name": name, "rows": rows}, path)
    return str(path)


def write_spec(tmp_path, doc, name="s"):
    path = tmp_path / f"{name}.json"
    dump_document(doc, path)
    return str(path)


GOLDEN = [[2.0, 1.0], [2.0, -1.0]]
GOLDEN_DOC = {"name": "golden", "rows": GOLDEN}
# symmetric with spectrum {2, -1} and Perron vector [1, 1]
PF_SPEC = {
    "name": "planted",
    "real_blocks": [{"lambda": 2.0}, {"lambda": -1.0}],
    "transform": [[1.0, 1.0], [1.0, -1.0]],
}


class TestCheckPF:
    def test_golden_holds(self, tmp_path, capsys):
        code = main(["check-pf", write_matrix(tmp_path, GOLDEN, "golden")])
        out = capsys.readouterr().out
        assert code == 0
        assert "golden" in out
        assert "2.56155281280883" in out
        assert "HOLDS" in out

    def test_swap_fails_dominance(self, tmp_path, capsys):
        code = main(["check-pf", write_matrix(tmp_path, [[0, 1], [1, 0]])])
        out = capsys.readouterr().out
        assert code == 1
        assert "DOES NOT HOLD" in out
        assert "FAIL" in out
        assert "dominates" in out

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([
            "check-pf", write_matrix(tmp_path, GOLDEN), "--out", str(report)
        ])
        capsys.readouterr()
        assert code == 0
        payload = strict_json(report.read_text())
        assert payload["report"]["overall"] is True
        assert payload["report"]["conditions"]["simple"] is True

    def test_garbage_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code = main(["check-pf", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check-pf", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_tolerance(self, tmp_path, capsys):
        code = main([
            "check-pf", write_matrix(tmp_path, GOLDEN), "--tol", "-1"
        ])
        assert code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance(self, tmp_path, capsys, tol):
        # every comparison with NaN is false, so a NaN tolerance would fail
        # all five conditions of a strong Perron-Frobenius matrix
        code = main([
            "check-pf", write_matrix(tmp_path, [[1, 1], [1, 0]]), "--tol", tol
        ])
        assert code == 2
        assert f"--tol must be finite and nonnegative, got {tol}" in (
            capsys.readouterr().err
        )


class TestCheckEvpos:
    def test_golden(self, tmp_path, capsys):
        code = main(["check-evpos", write_matrix(tmp_path, GOLDEN)])
        out = capsys.readouterr().out
        assert code == 0
        assert "eventually positive: YES" in out
        assert "power threshold: 4 (k_max = 64)" in out
        assert "DEFECT" not in out

    def test_identity(self, tmp_path, capsys):
        code = main(["check-evpos", write_matrix(tmp_path, [[1, 0], [0, 1]])])
        out = capsys.readouterr().out
        assert code == 1
        assert "eventually positive: NO" in out
        assert "power threshold: none up to k_max = 64" in out

    def test_all_ones(self, tmp_path, capsys):
        code = main(["check-evpos", write_matrix(tmp_path, [[1, 1], [1, 1]])])
        out = capsys.readouterr().out
        assert code == 0
        assert "power threshold: 1 " in out

    def test_short_horizon_flags_disagreement(self, tmp_path, capsys):
        # the third power still has a negative entry, so brute force with
        # k_max = 3 contradicts the (correct) spectral verdict
        code = main([
            "check-evpos", write_matrix(tmp_path, GOLDEN), "--kmax", "3"
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "power threshold: none up to k_max = 3" in out
        # the line names both sides: the smaller dominance margin behind the
        # spectral YES (1 on both sides of B) and the brute-force outcome
        defect = [line for line in out.splitlines() if line.startswith("DEFECT")]
        assert len(defect) == 1
        assert "eigenvalue-based verdict YES (dominance margin 1)" in defect[0]
        assert "brute-force power threshold none up to k_max = 3" in defect[0]

    def test_defect_line_gives_cluster_radius_and_nearest_eigenvalue(
        self, tmp_path, capsys, monkeypatch
    ):
        # a brute force that never finds a threshold forces the DEFECT line;
        # B = [[2, 1], [2, -1]] has ||B||_inf = 3 and ||B||_1 = 4, so both
        # sides' radius is 1e-6 * 4, and its other eigenvalue (1 - sqrt 17) / 2
        # lies sqrt 17 from rho
        import matfrob.cli

        monkeypatch.setattr(matfrob.cli, "power_threshold", lambda a, k: None)
        assert main(["check-evpos", write_matrix(tmp_path, GOLDEN)]) == 0
        out = capsys.readouterr().out
        defect = [line for line in out.splitlines() if line.startswith("DEFECT")]
        assert len(defect) == 1
        assert "rho = 2.56155281280883" in defect[0]
        assert "cluster radius 4e-06, nearest" in defect[0]
        found = re.search(
            r"nearest other eigenvalue (\S+)j at distance (\S+)\)", defect[0]
        )
        assert found is not None, defect[0]
        assert abs(complex(found[1] + "j") - (1 - 17**0.5) / 2) < 1e-10
        assert abs(float(found[2]) - 17**0.5) < 1e-5

    def test_defect_line_on_a_one_by_one_matrix(self, tmp_path, capsys, monkeypatch):
        import matfrob.cli

        monkeypatch.setattr(matfrob.cli, "power_threshold", lambda a, k: None)
        assert main(["check-evpos", write_matrix(tmp_path, [[2.0]])]) == 0
        defect = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("DEFECT")
        ]
        assert "cluster radius 2e-06, no other eigenvalue" in defect[0]

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_kmax_below_one_rejected_by_name(self, tmp_path, capsys, kmax):
        # an unusable option exits 2 with its name, before any work: exit 1
        # would read as "not eventually positive"
        code = main([
            "check-evpos", write_matrix(tmp_path, [[1, 1], [1, 0]]), "--kmax", kmax
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert f"--kmax must be at least 1, got {kmax}" in captured.err
        assert captured.out == ""

    def test_disagreement_names_failed_conditions(self, tmp_path, capsys):
        # a tolerance of 10 * ||B|| makes rho negligible on both sides, while
        # the powers still turn positive at 4
        code = main([
            "check-evpos", write_matrix(tmp_path, GOLDEN), "--tol", "10"
        ])
        out = capsys.readouterr().out
        assert code == 1
        defect = [line for line in out.splitlines() if line.startswith("DEFECT")]
        assert len(defect) == 1
        assert "eigenvalue-based verdict NO (failed: matrix rho_positive" in defect[0]
        assert "transpose rho_positive" in defect[0]
        assert "brute-force power threshold 4 (k_max = 64)" in defect[0]

    def test_negated_golden_has_no_defect(self, tmp_path, capsys):
        # only the even powers of -B are positive; neither side may call it
        # eventually positive
        negated = [[-x for x in row] for row in GOLDEN]
        code = main(["check-evpos", write_matrix(tmp_path, negated)])
        out = capsys.readouterr().out
        assert code == 1
        assert "eventually positive: NO" in out
        assert "power threshold: none up to k_max = 64" in out
        assert "DEFECT" not in out

    def test_tiny_scale_golden_has_no_defect(self, tmp_path, capsys):
        # eventual positivity is scale invariant; both routes must say so
        tiny = [[1e-150 * x for x in row] for row in GOLDEN]
        code = main(["check-evpos", write_matrix(tmp_path, tiny)])
        out = capsys.readouterr().out
        assert code == 0
        assert "eventually positive: YES" in out
        assert "power threshold: 4 (k_max = 64)" in out
        assert "DEFECT" not in out

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, literal):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1.0, 2.0], [%s, 1.0]]}' % literal)
        code = main(["check-evpos", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "rows[1][0]: expected a finite number" in captured.err


class TestOverflowingInput:
    @pytest.mark.parametrize("command", ["check-pf", "check-evpos"])
    def test_refused_by_name(self, tmp_path, capsys, command):
        path = write_matrix(tmp_path, [[1e308, 1e308], [1e308, 1e308]])
        code = main([command, path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "overflows float64" in captured.err

    @pytest.mark.parametrize("command", ["check-pf", "check-evpos"])
    def test_overflowing_column_sum_refused(self, tmp_path, capsys, command):
        # the row sums are finite; the column sum 2e308 is not, and both
        # checks read the scale max(||A||_inf, ||A||_1)
        path = write_matrix(tmp_path, [[1e308, 0.0], [1e308, 1.0]])
        code = main([command, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "column sum of the matrix overflows float64" in captured.err

    def test_distance_to_rho_beyond_float64(self, tmp_path, capsys):
        # ||A|| is finite, but -rho lies 2e308 from rho: an infinite distance
        # fails dominance, with no numpy warning
        path = write_matrix(tmp_path, [[1e308, 0.0], [0.0, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check-pf", path])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        assert "[FAIL] rho strictly dominates all other eigenvalues (margin 0)" in (
            captured.out
        )


class TestOverflowingSynthesis:
    """Factors whose A = R J R^-1 is beyond float64 exit 2 by name, with no
    numpy warning. Only synthesize forms A; the other commands refuse what
    they compute from the factors."""

    SPEC = {
        "real_blocks": [{"lambda": 1.7e308}, {"lambda": -1.7e308}],
        "transform": [[1, 1], [0, 1]],
    }

    @pytest.mark.parametrize(
        "command, err",
        [
            (["synthesize"],
             "A = R J R^-1 overflows float64; scale the eigenvalues or the "
             "transform down"),
            (["apply", "--fn", "exp"], "exp overflows float64 at (1.7e+308+0j)"),
            (["apply", "--fn", "pow:1"], "f(A) overflows float64 for f = pow:1"),
            (["verify", "--fn", "pow:1"],
             "the factored matrix lacks the strong Perron-Frobenius property "
             "(failed: eigvec_positive, strictly_dominant); the preservation "
             "comparison needs it as a baseline"),
        ],
        ids=["synthesize", "apply-exp", "apply-pow", "verify"],
    )
    def test_refused_by_name(self, tmp_path, capsys, command, err):
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command[0], write_spec(tmp_path, self.SPEC), *command[1:],
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["check-pf", "check-evpos"])
def test_factored_form_refused_by_kind(tmp_path, capsys, command):
    # as verify and synthesize refuse a matrix document by kind
    path = write_spec(tmp_path, PF_SPEC)
    code = main([command, path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {path}: {command} needs a matrix document (rows)\n"


@pytest.mark.parametrize(
    "argv, routine",
    [(["apply", "--fn", "exp"], "eig"), (["check-pf"], "eigvals"),
     (["check-evpos"], "eigvals")],
)
def test_eigenvalue_iteration_failure_exits_2(
    tmp_path, capsys, monkeypatch, argv, routine
):
    # LAPACK's LinAlgError, from the full decomposition (apply's extraction)
    # or the eigenvalues alone (the Perron checks), is a refusal by name
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    code = main([argv[0], write_matrix(tmp_path, GOLDEN), *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: eigenvalue iteration failed: Eigenvalues did not converge\n"
    )


class TestRefusalTable:
    """One refusal per kind of failure the library tells apart, pinned to its
    exact stderr line: the class a failure is raised as never shows here.
    TestApply::test_oracle_refuses_a_non_entire_function pins the
    not-entire refusal."""

    BIG = {"real_blocks": [{"lambda": 1000.0}]}
    OVERFLOW = "error: exp overflows float64 at (1000+0j)\n"
    BIG_ROWS = {"rows": [[1.4e308, 7e307], [1.4e308, -7e307]]}
    NORM_OVERFLOW = (
        "error: an absolute row or column sum of the matrix overflows float64 "
        "(norm = inf); scale the matrix down\n"
    )

    @pytest.mark.parametrize(
        "argv, doc, err",
        [
            (["check-pf"], {"rows": [[1, 2]]},
             "error: expected a square matrix, got shape (1, 2)\n"),
            (["apply", "--fn", "exp"], {"rows": [[1, 1], [0, 1]]},
             "error: eigenvalue cluster near 1+0j has multiplicity 2 but only 1 "
             "independent eigenvector(s); the matrix is defective to tolerance. "
             "Build it from explicit factors via synthesize_matrix instead.\n"),
            (["synthesize"],
             {"real_blocks": [{"lambda": 1.0}, {"lambda": 2.0}],
              "transform": [[1.0, 0.0], [0.0, 1e-9]]},
             "error: transform condition estimate 1.000e+09 exceeds 1e+08\n"),
            (["apply", "--fn", "exp"], BIG, OVERFLOW),
            (["verify", "--fn", "exp"], BIG, OVERFLOW),
            (["apply", "--fn", "root:3"], {"rows": [[-1, 0], [0, 2]]},
             "error: root:3 is not conjugate-symmetric at (-1+0j): |f^(0)(conj "
             "lam) - conj f^(0)(lam)| = 1.732e+00 (limit 1.260e-09); root:3 is "
             "not real-valued on this spectrum\n"),
            # every entry is finite, but the first row sum is not
            (["apply", "--fn", "pow:1"], BIG_ROWS, NORM_OVERFLOW),
            (["apply", "--fn", "poly:0,0.5"], BIG_ROWS, NORM_OVERFLOW),
        ],
        ids=["not-square", "defective", "ill-conditioned", "apply-overflow",
             "verify-overflow", "non-real", "norm-overflow", "norm-overflow-poly"],
    )
    def test_stderr_and_exit_code(self, tmp_path, capsys, argv, doc, err):
        code = main([argv[0], write_spec(tmp_path, doc), *argv[1:]])
        assert (code, capsys.readouterr().err) == (2, err)


def test_allocation_beyond_the_address_space_exits_2(tmp_path, capsys):
    # verify draws a 10**8 x 10**8 random transform: 8e16 bytes, beyond a
    # 47-bit address space, so the allocation fails at once
    doc = {"real_blocks": [{"lambda": 1.0, "size": 10**8}]}
    code = main(["verify", write_spec(tmp_path, doc), "--fn", "exp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ")


class TestUnreadableDocuments:
    """Text that is not UTF-8, or repeats a key, exits 2 by name."""

    def test_non_utf8(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe" + '{"rows": [[1]]}'.encode("utf-16-le"))
        code = main(["check-pf", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{path}: not UTF-8 text at byte offset 0" in captured.err

    @pytest.mark.parametrize("command", [["check-pf"], ["apply", "--fn", "exp"]])
    def test_duplicate_rows(self, tmp_path, capsys, command):
        path = tmp_path / "dup.json"
        path.write_text('{"rows": [[1, 2], [3, 4]], "rows": [[5]]}')
        code = main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "duplicate key 'rows'" in captured.err

    @pytest.mark.parametrize("command", [["check-pf"], ["verify", "--fn", "exp"]])
    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys, command):
        path = tmp_path / "long.json"
        path.write_text('{"rows": [[' + "1" * 5000 + "]]}")
        code = main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: Exceeds the limit (4300 digits) for integer "
            "string conversion: value has 5000 digits\n"
        )

    @pytest.mark.parametrize("command", [["check-pf"], ["verify", "--fn", "exp"]])
    def test_nesting_beyond_the_recursion_limit(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code = main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {path}: maximum recursion depth exceeded while decoding"
        )


class TestOverflowingFunction:
    """f values beyond float64 exit 2 with a message, never a traceback."""

    DIAG = [[800.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "fn, reason",
        [
            ("exp", "exp overflows float64 at (800+0j)"),
            ("poly:1,1e308,1e308", "f(A) overflows float64 for f = poly"),
        ],
    )
    def test_apply_on_a_matrix(self, tmp_path, capsys, fn, reason):
        code = main(["apply", write_matrix(tmp_path, self.DIAG), "--fn", fn])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert reason in captured.err

    def test_apply_on_a_spec(self, tmp_path, capsys):
        spec = {"real_blocks": [{"lambda": 2.0}, {"lambda": 1.0}]}
        code = main(["apply", write_spec(tmp_path, spec), "--fn", "pow:2000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "pow:2000 overflows float64 at (2+0j)" in captured.err

    def test_verify(self, tmp_path, capsys):
        spec = dict(PF_SPEC, real_blocks=[{"lambda": 800.0}, {"lambda": 1.0}])
        code = main(["verify", write_spec(tmp_path, spec), "--fn", "exp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "exp overflows float64 at (800+0j)" in captured.err

    def test_verify_with_overflowing_row_sum(self, tmp_path, capsys):
        # exp(709.5) is finite, but a row sum of f(A) is not: f(A) cannot
        # be judged, which is no DISAGREE
        spec = {
            "real_blocks": [{"lambda": 709.5}, {"lambda": 1.0}],
            "transform": [[1.0, 1.0], [0.01, -1.0]],
        }
        code = main(["verify", write_spec(tmp_path, spec), "--fn", "exp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "f(A) overflows float64 for f = exp" in captured.err


class TestStrictJson:
    """Reports are JSON: no eigenvalue outside rho's cluster is null, not inf."""

    @pytest.mark.parametrize(
        "argv, doc, margins",
        [
            (["check-pf"], {"rows": [[5.0]]}, 1),
            (["check-evpos"], {"rows": [[5.0]]}, 2),
            (["verify", "--fn", "exp"], {"real_blocks": [{"lambda": 2.0}]}, 2),
        ],
    )
    def test_one_by_one_report(self, tmp_path, capsys, argv, doc, margins):
        out = tmp_path / "out.json"
        path = write_spec(tmp_path, doc)
        assert main([argv[0], path, *argv[1:], "--out", str(out)]) == 0
        text = out.read_text()
        strict_json(text)
        assert text.count('"dominance_margin": null') == margins
        assert "margin inf" not in capsys.readouterr().out

    def test_cluster_named_beside_failed_simplicity(self, tmp_path, capsys):
        assert main(["check-pf", write_matrix(tmp_path, [[2, 1], [0, 2]])]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] rho is a simple eigenvalue" in out
        assert "(no eigenvalue outside rho's cluster)" in out
        assert "margin inf" not in out


class TestApply:
    def test_power_document_on_stdout(self, tmp_path, capsys):
        code = main([
            "apply", write_matrix(tmp_path, GOLDEN, "golden"), "--fn", "pow:4"
        ])
        captured = capsys.readouterr()
        assert code == 0
        doc = strict_json(captured.out)
        assert doc["name"] == "pow:4(golden)"
        np.testing.assert_allclose(doc["rows"], [[38, 9], [18, 11]], atol=1e-9)

    def test_oracle_agreement(self, tmp_path, capsys):
        code = main([
            "apply", write_matrix(tmp_path, GOLDEN), "--fn", "exp", "--oracle"
        ])
        captured = capsys.readouterr()
        assert code == 0
        strict_json(captured.out)
        line = [l for l in captured.err.splitlines() if "oracle deviation" in l]
        assert len(line) == 1
        assert float(line[0].split(":")[1]) < 1e-6

    def test_oracle_bound_is_relative(self, tmp_path, capsys):
        # pow:4 of 300 B has entries near 3e11; an absolute error of 1.5e-5
        # there is roundoff
        scaled = [[300.0 * x for x in row] for row in GOLDEN]
        code = main([
            "apply", write_matrix(tmp_path, scaled), "--fn", "pow:4", "--oracle"
        ])
        captured = capsys.readouterr()
        assert code == 0
        line = [l for l in captured.err.splitlines() if "oracle deviation" in l]
        assert len(line) == 1
        assert float(line[0].split(":")[1]) < 1e-15

    def test_oracle_still_catches_a_wrong_result(self, tmp_path, capsys, monkeypatch):
        import matfrob.cli

        original = matfrob.cli.matrix_function
        monkeypatch.setattr(
            matfrob.cli, "matrix_function", lambda *a: original(*a) * (1 + 1e-5)
        )
        scaled = [[300.0 * x for x in row] for row in GOLDEN]
        code = main([
            "apply", write_matrix(tmp_path, scaled), "--fn", "pow:4", "--oracle"
        ])
        assert code == 1
        line = [l for l in capsys.readouterr().err.splitlines() if "oracle" in l]
        assert 0.9e-5 < float(line[0].split(":")[1]) < 1.1e-5

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_oracle_fails(self, tmp_path, capsys):
        # eigenvalues 700 and 0, eigenvector basis of condition ~4e3: exp(A)
        # is finite near 1e307, but the last squaring of exp(A/2) sums
        # products near 1e310, which overflow to inf - inf = NaN. The oracle
        # is unusable, not the result: exit 2, and no numpy warning leaks
        rows = [[700700.0, -700000.0], [700700.0, -700000.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "apply", write_matrix(tmp_path, rows), "--fn", "exp", "--oracle",
            ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "power series overflowed float64" in captured.err
        assert "oracle is unusable" in captured.err
        assert "oracle deviation" not in captured.err

    @pytest.mark.parametrize(
        "rows, fn",
        [
            # the 80-term series of exp at -1000 is garbage near 1e120, and
            # at -1e7 it overflows; scaling and squaring needs neither
            ([[-1000.0, 0.0], [0.0, 1.0]], "exp"),
            ([[-1e7, 0.0], [0.0, 1.0]], "exp"),
            # 80 terms hold no x^100 term; pow:100 takes 101
            (GOLDEN, "pow:100"),
            (GOLDEN, "0.5*exp + pow:100 + poly:1,-2,0.5"),
        ],
    )
    def test_oracle_accepts_a_correct_result(self, tmp_path, capsys, rows, fn):
        code = main(["apply", write_matrix(tmp_path, rows), "--fn", fn, "--oracle"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        line = [l for l in captured.err.splitlines() if "oracle deviation" in l]
        assert len(line) == 1
        assert float(line[0].split(":")[1]) < 1e-10

    def test_oracle_deviation_is_relative_below_one(self, tmp_path, capsys, monkeypatch):
        # 2 f(A) is off by 100% at any scale, here a rotation of size 1e-20
        import matfrob.cli

        original = matfrob.cli.matrix_function
        monkeypatch.setattr(
            matfrob.cli, "matrix_function", lambda *a: 2.0 * original(*a)
        )
        rows = [[0.0, -1e-20], [1e-20, 0.0]]
        code = main(["apply", write_matrix(tmp_path, rows), "--fn", "pow:1", "--oracle"])
        assert code == 1
        line = [l for l in capsys.readouterr().err.splitlines() if "oracle" in l]
        assert float(line[0].split(":")[1]) == pytest.approx(1.0)

    def test_oracle_of_a_zero_series(self, tmp_path, capsys, monkeypatch):
        # 0/0 reads as 0; a nonzero f(A) against a zero series as inf
        import matfrob.cli

        path = write_matrix(tmp_path, GOLDEN)
        assert main(["apply", path, "--fn", "poly:0", "--oracle"]) == 0
        assert "relative oracle deviation: 0.000e+00" in capsys.readouterr().err
        monkeypatch.setattr(matfrob.cli, "matrix_function", lambda *a: np.ones((2, 2)))
        assert main(["apply", path, "--fn", "poly:0", "--oracle"]) == 1
        assert "relative oracle deviation: inf" in capsys.readouterr().err

    def test_oracle_refuses_a_non_entire_function(self, tmp_path, capsys):
        # exit 2 emits nothing: f(A) waits for the oracle, on stdout or --out
        path = write_matrix(tmp_path, [[2.0, 1.0], [1.0, 3.0]])
        out = tmp_path / "out.json"
        for extra in ([], ["--out", str(out)]):
            code = main(["apply", path, "--fn", "root:2", "--oracle", *extra])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == (
                "error: root:2 is not entire; the series oracle does not apply\n"
            )
            assert not out.exists()

    def test_neither_kind_of_document_refused(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"name": "x"})
        code = main(["apply", path, "--fn", "exp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: document is neither a matrix (rows) nor a factored "
            "form (real_blocks / complex_blocks)\n"
        )

    @pytest.mark.parametrize("size", [172, 200])
    @pytest.mark.parametrize("kind", ["real", "pair"])
    def test_block_past_171_factorial(self, tmp_path, capsys, kind, size):
        # 171! is beyond float64; f^(k)(lam) / k! is still formed
        if kind == "real":
            doc = {"real_blocks": [{"lambda": 1.0, "size": size}]}
        else:
            doc = {"complex_blocks": [{"re": 1.0, "im": 1.0, "size": size}]}
        width = size if kind == "real" else 2 * size
        doc["transform"] = np.eye(width).tolist()
        out = tmp_path / "out.json"
        path = write_spec(tmp_path, doc)
        code = main(["apply", path, "--fn", "exp", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        fa = np.array(strict_json(out.read_text())["rows"])
        assert fa.shape == (width, width) and np.isfinite(fa).all()

    def test_out_file_swaps_channels(self, tmp_path, capsys):
        out_doc = tmp_path / "result.json"
        code = main([
            "apply", write_matrix(tmp_path, GOLDEN), "--fn", "exp",
            "--oracle", "--out", str(out_doc),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "oracle deviation" in captured.out
        assert captured.err == ""
        name, fa = parse_matrix_document(load_document(out_doc))
        assert fa.shape == (2, 2)

    def test_split_semisimple_double_eigenvalue(self, tmp_path, capsys):
        a, _, _ = split_double_eigenvalue_matrix()
        code = main(["apply", write_matrix(tmp_path, a.tolist()), "--fn", "exp"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        strict_json(captured.out)

    @pytest.mark.parametrize(
        "fn, reason",
        [("root:2", "outside the domain"), ("root:3", "not real-valued")],
    )
    def test_split_double_eigenvalue_on_a_branch_cut(self, tmp_path, capsys, fn, reason):
        a, _, _ = split_double_eigenvalue_matrix(62, lam=-1.0)
        code = main(["apply", write_matrix(tmp_path, a.tolist()), "--fn", fn])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert reason in captured.err

    def test_missing_fn(self, tmp_path, capsys):
        code = main(["apply", write_matrix(tmp_path, GOLDEN)])
        assert code == 2
        assert "--fn" in capsys.readouterr().err

    def test_bad_expression(self, tmp_path, capsys):
        code = main(["apply", write_matrix(tmp_path, GOLDEN), "--fn", "sin"])
        assert code == 2
        assert "atom" in capsys.readouterr().err

    def test_defective_matrix(self, tmp_path, capsys):
        code = main([
            "apply", write_matrix(tmp_path, [[1, 1], [0, 1]]), "--fn", "exp"
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "synthesize" in err

    def test_function_undefined_on_spectrum(self, tmp_path, capsys):
        code = main([
            "apply", write_matrix(tmp_path, [[2, 0], [0, -1]]), "--fn", "root:2"
        ])
        assert code == 2

    def test_non_real_result(self, tmp_path, capsys):
        code = main([
            "apply", write_matrix(tmp_path, GOLDEN), "--fn", "root:3"
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_spec_input_is_seeded(self, tmp_path, capsys):
        spec = {"real_blocks": [{"lambda": 2.0}, {"lambda": 1.0}]}
        path = write_spec(tmp_path, spec)
        assert main(["apply", path, "--fn", "pow:1", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["apply", path, "--fn", "pow:1", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(["apply", path, "--fn", "pow:1", "--seed", "6"]) == 0
        third = capsys.readouterr().out
        assert third != first
        a = np.array(strict_json(first)["rows"])
        b = np.array(strict_json(third)["rows"])
        # similar matrices: same trace, different entries
        assert abs(np.trace(a) - np.trace(b)) < 1e-9
        assert abs(np.trace(a) - 3.0) < 1e-9


class TestSmallScale:
    """Below ||A|| = 1 no absolute threshold turns a result wrong."""

    def test_identity_function_of_a_tiny_rotation(self, tmp_path, capsys):
        # +-1e-20 i is a complex pair at its own scale, not a real double
        # eigenvalue 0 split by rounding; pow:1 gives back A
        rows = [[0.0, -1e-20], [1e-20, 0.0]]
        code = main(["apply", write_matrix(tmp_path, rows), "--fn", "pow:1"])
        assert code == 0
        got = np.array(strict_json(capsys.readouterr().out)["rows"])
        assert np.max(np.abs(got - rows)) <= 1e-12 * 1e-20

    def test_tiny_gaussian_matrix_reconstructs(self, tmp_path, capsys):
        # 1e-13 times a seeded 6x6 Gaussian has 2 complex pairs whose
        # imaginary parts are far above rounding at that scale
        a = 1e-13 * np.random.default_rng(0).standard_normal((6, 6))
        code = main(["apply", write_matrix(tmp_path, a.tolist()), "--fn", "pow:1"])
        assert code == 0
        got = np.array(strict_json(capsys.readouterr().out)["rows"])
        err = np.linalg.norm(got - a, np.inf)
        assert err <= 1e-12 * np.linalg.norm(a, np.inf)

    def test_odd_root_of_a_negative_eigenvalue(self, tmp_path, capsys):
        # imaginary dust is measured against ||f(A)||, so the non-real result
        # is refused at 1e-30 as at 1
        for scale in (1.0, 1e-30):
            spec = {"real_blocks": [{"lambda": 3 * scale}, {"lambda": -scale}]}
            code = main(["apply", write_spec(tmp_path, spec), "--fn", "root:3"])
            captured = capsys.readouterr()
            assert code == 2, scale
            assert captured.out == ""
            assert "root:3 is not real-valued on this spectrum" in captured.err


class TestVerify:
    def test_exp_preserves(self, tmp_path, capsys):
        code = main(["verify", write_spec(tmp_path, PF_SPEC), "--fn", "exp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AGREE" in out
        assert "planted" in out

    def test_negation_consistently_fails_both_sides(self, tmp_path, capsys):
        # leading '-' needs the '=' form, else argparse reads it as a flag
        code = main([
            "verify", write_spec(tmp_path, PF_SPEC), "--fn=-1*pow:1"
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "AGREE" in out
        assert "DO NOT HOLD" in out

    def test_odd_root_leaves_real_matrices(self, tmp_path, capsys):
        code = main(["verify", write_spec(tmp_path, PF_SPEC), "--fn", "root:3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "could not be formed" in out
        assert "AGREE" in out

    def test_even_root_unusable_on_negative_eigenvalue(self, tmp_path, capsys):
        code = main(["verify", write_spec(tmp_path, PF_SPEC), "--fn", "root:2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: root:2 is not usable on this spectrum: (-1+0j) is outside "
            "the domain of root:2. Choose a function defined (with enough "
            "derivatives) at every eigenvalue.\n"
        )

    @pytest.mark.parametrize(
        "doc, err",
        [
            ({"real_blocks": [{"lambda": 2.0}, {"lambda": 1.0}],
              "transform": [[1.0, 1.0], [1e-12, -1.0]]},
             "error: the comparison is unresolved at tolerance 1e-09: f(A)'s "
             "report fails on its exact spectrum and Perron vector too "
             "(failed: eigvec_positive)\n"),
            ({"real_blocks": [{"lambda": 2.0}, {"lambda": 1.999999999999}],
              "transform": [[1.0, 1.0], [1.0, -1.0]]},
             "error: the factored matrix lacks the strong Perron-Frobenius "
             "property (failed: simple); the preservation comparison needs it "
             "as a baseline\n"),
        ],
        ids=["perron-entry-1e-12", "gap-1e-12"],
    )
    def test_below_the_tolerance_is_refused(self, tmp_path, capsys, doc, err):
        # exit 2, not DISAGREE: f(A)'s report cannot resolve either input
        code = main(["verify", write_spec(tmp_path, doc), "--fn", "exp"])
        assert (code, capsys.readouterr()) == (2, ("", err))

    def test_domain_checked_once(self, tmp_path, capsys, monkeypatch):
        from matfrob import cli, funcalc

        calls = []
        original = funcalc.defined_on_spectrum

        def counting(f, spec):
            calls.append(f)
            return original(f, spec)

        monkeypatch.setattr(funcalc, "defined_on_spectrum", counting)
        monkeypatch.setattr(cli, "defined_on_spectrum", counting, raising=False)
        assert main(["verify", write_spec(tmp_path, PF_SPEC), "--fn", "exp"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_domain_named_before_the_baseline(self, tmp_path, capsys):
        # rho = 2 sits in a size-2 block, so A is no strong Perron-Frobenius
        # baseline either; f's domain is checked first, and named
        spec = {"real_blocks": [{"lambda": 2, "size": 2}]}
        assert main(["verify", write_spec(tmp_path, spec), "--fn", "abs"]) == 2
        assert capsys.readouterr().err == (
            "error: abs is not usable on this spectrum: abs has no order-1 "
            "derivative needed by a size-2 block at (2+0j). Choose a function "
            "defined (with enough derivatives) at every eigenvalue.\n"
        )

    def test_non_pf_baseline_rejected(self, tmp_path, capsys):
        spec = {
            "real_blocks": [{"lambda": 2.0}, {"lambda": 1.0}],
            "transform": [[1.0, 0.0], [0.0, 1.0]],
        }
        code = main(["verify", write_spec(tmp_path, spec), "--fn", "exp"])
        err = capsys.readouterr().err
        assert code == 2
        assert "baseline" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_spec_rejected(self, tmp_path, capsys, literal):
        path = tmp_path / "s.json"
        path.write_text('{"real_blocks": [{"lambda": %s}]}' % literal)
        assert main(["verify", str(path), "--fn", "exp"]) == 2
        assert "real_blocks[0].lambda: expected a finite number" in (
            capsys.readouterr().err
        )
        path.write_text(
            '{"real_blocks": [{"lambda": 2.0}], "transform": [[%s]]}' % literal
        )
        assert main(["synthesize", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_matrix_document_rejected(self, tmp_path, capsys):
        code = main([
            "verify", write_matrix(tmp_path, GOLDEN), "--fn", "exp"
        ])
        assert code == 2
        assert "factored-form" in capsys.readouterr().err

    def test_jordan_block_at_rho_fails_only_simplicity(self, tmp_path, capsys):
        # eig splits the defective double eigenvalue 2; the spec states it
        spec = {
            "real_blocks": [{"lambda": 2, "size": 2}, {"lambda": 1}],
            "transform": [
                [1.327, 0.72, 0.269],
                [0.898, -0.078, -0.514],
                [0.631, -1.403, 0.166],
            ],
        }
        code = main(["verify", write_spec(tmp_path, spec), "--fn", "exp"])
        err = capsys.readouterr().err
        assert code == 2
        assert "(failed: simple)" in err

    def test_tiny_spectrum_agrees(self, tmp_path, capsys):
        # f(rho) = 2.7e-11 is a positive real relative to f's values here
        spec = {"real_blocks": [{"lambda": 3e-4}, {"lambda": -1e-4}]}
        code = main(["verify", write_spec(tmp_path, spec), "--fn", "pow:3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AGREE" in out and "DISAGREE" not in out

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance(self, tmp_path, capsys, tol):
        code = main([
            "verify", write_spec(tmp_path, PF_SPEC), "--fn", "exp", "--tol", tol
        ])
        assert code == 2
        assert f"--tol must be finite and nonnegative, got {tol}" in (
            capsys.readouterr().err
        )

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = main([
            "verify", write_spec(tmp_path, PF_SPEC), "--fn", "exp",
            "--out", str(report),
        ])
        capsys.readouterr()
        assert code == 0
        payload = strict_json(report.read_text())
        assert payload["result"]["theorem_consistent"] is True


class TestSynthesize:
    def test_document_and_spectrum(self, tmp_path, capsys):
        out_doc = tmp_path / "built.json"
        spec = {
            "name": "planted",
            "real_blocks": [{"lambda": 2.0}, {"lambda": -1.0}],
        }
        code = main([
            "synthesize", write_spec(tmp_path, spec), "--seed", "7",
            "--out", str(out_doc),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "condition estimate" in captured.out
        name, a = parse_matrix_document(load_document(out_doc))
        assert name == "planted"
        w = np.sort(np.linalg.eigvals(a).real)
        np.testing.assert_allclose(w, [-1.0, 2.0], atol=1e-7)

    def test_stdout_is_a_clean_document(self, tmp_path, capsys):
        spec = {"real_blocks": [{"lambda": 1.0}], "complex_blocks": [
            {"re": 0.2, "im": 0.3, "size": 1}
        ]}
        code = main(["synthesize", write_spec(tmp_path, spec)])
        captured = capsys.readouterr()
        assert code == 0
        doc = strict_json(captured.out)
        assert np.array(doc["rows"]).shape == (3, 3)
        assert "condition estimate" in captured.err

    @pytest.mark.parametrize("command", [["synthesize"], ["verify", "--fn", "exp"]])
    def test_tiny_scale_transform_is_accepted(self, tmp_path, capsys, command):
        # cR with c = 1e-10 and R = [[1, 1], [1, -1]]: condition number 1,
        # smallest singular value 1.4e-10, and the same A as R gives
        spec = {
            "real_blocks": [{"lambda": 2.0}, {"lambda": -1.0}],
            "transform": [[1e-10, 1e-10], [1e-10, -1e-10]],
        }
        out = tmp_path / "out.json"
        code = main([command[0], write_spec(tmp_path, spec), *command[1:],
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        if command[0] == "synthesize":
            _, a = parse_matrix_document(load_document(out))
            np.testing.assert_allclose(a, [[0.5, 1.5], [1.5, 0.5]], rtol=1e-14)

    @pytest.mark.parametrize("blocks", [
        {"real_blocks": [{"lambda": 1.0, "size": 172}]},
        {"complex_blocks": [{"re": 0.5, "im": 1.0, "size": 172}]},
    ])
    def test_block_past_171_factorial(self, tmp_path, capsys, blocks):
        out = tmp_path / "out.json"
        code = main(["synthesize", write_spec(tmp_path, blocks), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        _, a = parse_matrix_document(load_document(out))
        assert np.isfinite(a).all()

    def test_condition_estimate_read_at_call_time(self, tmp_path, capsys, monkeypatch):
        # the command reads cli.condition_estimate when it runs, so a
        # patched one is the one reported
        import matfrob.cli

        monkeypatch.setattr(matfrob.cli, "condition_estimate", lambda r: 12345.0)
        spec = {"real_blocks": [{"lambda": 2.0}, {"lambda": -1.0}]}
        assert main(["synthesize", write_spec(tmp_path, spec)]) == 0
        assert capsys.readouterr().err == "transform condition estimate: 1.234500e+04\n"

    def test_rejects_lower_half_representative(self, tmp_path, capsys):
        spec = {"complex_blocks": [{"re": 1.0, "im": -2.0, "size": 1}]}
        code = main(["synthesize", write_spec(tmp_path, spec)])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_rejects_matrix_document(self, tmp_path, capsys):
        code = main(["synthesize", write_matrix(tmp_path, GOLDEN)])
        assert code == 2

    # Python's default filters, as a command line run has them
    @pytest.mark.filterwarnings("default::matfrob.jordan.IllConditionedWarning")
    @pytest.mark.parametrize("out", [False, True])
    def test_condition_warning_is_one_line(self, tmp_path, capsys, out):
        # condition 2e7 is warned of, not refused: one stderr line, with no
        # source path or source line, and the document and exit code as ever
        spec = {
            "real_blocks": [{"lambda": 2}, {"lambda": 1}],
            "transform": [[1, 1], [0, 1e-7]],
        }
        path = tmp_path / "out.json"
        argv = ["synthesize", write_spec(tmp_path, spec)]
        code = main(argv + ["--out", str(path)] if out else argv)
        captured = capsys.readouterr()
        warning = (
            "warning: transform condition estimate 2.000e+07 exceeds 1e+06; "
            "results may lose up to that many digits\n"
        )
        report = "transform condition estimate: 2.000000e+07\n"
        document = '{"name": "synthesized", "rows": [[2.0, -10000000.0], [0.0, 1.0]]}\n'
        assert code == 0
        if out:
            assert (captured.out, captured.err) == (report, warning)
            assert path.read_text() == document
        else:
            assert (captured.out, captured.err) == (document, warning + report)


class TestOptionValues:
    """An unusable option value exits 2 and names the option or the value;
    exit 1 would read as "property fails"."""

    @pytest.mark.parametrize(
        "command", [["apply", "--fn", "exp"], ["verify", "--fn", "exp"], ["synthesize"]]
    )
    def test_negative_seed_rejected_by_name(self, tmp_path, capsys, command):
        path = write_spec(tmp_path, {"real_blocks": [{"lambda": 2.0}, {"lambda": 1.0}]})
        code = main([command[0], path, *command[1:], "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--seed must be nonnegative, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "fn, value",
        [("nan*exp", "nan"), ("1e400*exp", "inf"), ("poly:nan,1", "nan"),
         ("poly:1,inf", "inf")],
    )
    @pytest.mark.parametrize("command", ["apply", "verify"])
    def test_non_finite_function_parameter_named(
        self, tmp_path, capsys, command, fn, value
    ):
        code = main([command, write_spec(tmp_path, PF_SPEC), "--fn", fn])
        err = capsys.readouterr().err
        assert code == 2
        assert f"must be finite, got {value}" in err
        assert "overflows" not in err


class TestParser:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    # every option a command's handler does not read
    @pytest.mark.parametrize(
        "command, option",
        [
            ("check-pf", ["--seed", "5"]),
            ("check-pf", ["--oracle"]),
            ("check-pf", ["--kmax", "3"]),
            ("check-pf", ["--fn", "exp"]),
            ("check-evpos", ["--seed", "5"]),
            ("check-evpos", ["--oracle"]),
            ("check-evpos", ["--fn", "exp"]),
            ("apply", ["--kmax", "3"]),
            ("verify", ["--oracle"]),
            ("verify", ["--kmax", "3"]),
            ("synthesize", ["--tol", "1e-9"]),
            ("synthesize", ["--oracle"]),
            ("synthesize", ["--kmax", "3"]),
            ("synthesize", ["--fn", "exp"]),
        ],
    )
    def test_unread_option_rejected(self, tmp_path, capsys, command, option):
        path = write_spec(tmp_path, PF_SPEC)
        with pytest.raises(SystemExit) as exc:
            main([command, path, *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, options",
        [
            ("check-pf", ["--tol", "1e-9", "--out"]),
            ("check-evpos", ["--tol", "1e-9", "--kmax", "64", "--out"]),
            ("apply",
             ["--tol", "1e-9", "--seed", "5", "--oracle", "--fn", "exp", "--out"]),
            ("verify", ["--tol", "1e-9", "--seed", "5", "--fn", "exp", "--out"]),
            ("synthesize", ["--seed", "5", "--out"]),
        ],
    )
    def test_read_options_accepted(self, tmp_path, capsys, command, options):
        doc = GOLDEN_DOC if command.startswith("check") else PF_SPEC
        path = write_spec(tmp_path, doc)
        assert main([command, path, *options, str(tmp_path / "out.json")]) == 0


class TestParserReuse:
    """main parses every call with one parser; no option leaks into the next."""

    @pytest.fixture
    def seen(self, monkeypatch):
        import matfrob.cli

        namespaces = []
        for name in ("cmd_apply", "cmd_verify"):
            original = getattr(matfrob.cli, name)

            def recording(args, _original=original):
                namespaces.append(vars(args).copy())
                return _original(args)

            monkeypatch.setattr(matfrob.cli, name, recording)
        return namespaces

    def test_oracle_flag_does_not_carry_over(self, tmp_path, capsys, seen):
        path = write_matrix(tmp_path, GOLDEN)
        assert main(["apply", path, "--fn", "exp", "--oracle"]) == 0
        assert "relative oracle deviation" in capsys.readouterr().err
        assert main(["apply", path, "--fn", "exp"]) == 0
        assert "relative oracle deviation" not in capsys.readouterr().err
        assert [ns["oracle"] for ns in seen] == [True, False]

    def test_out_path_does_not_carry_over(self, tmp_path, capsys, seen):
        path = write_spec(tmp_path, PF_SPEC)
        report = tmp_path / "p.json"
        assert main(["verify", path, "--fn", "exp", "--out", str(report)]) == 0
        report.unlink()
        assert main(["verify", path, "--fn", "exp", "--tol", "1e-8"]) == 0
        assert not report.exists()
        assert [ns["out"] for ns in seen] == [str(report), None]
        assert [ns["tol"] for ns in seen] == [1e-9, 1e-8]
        assert [ns["seed"] for ns in seen] == [0, 0]


class TestEigendecompositionCounts:
    """One LAPACK eigenvalue call per matrix that needs one. The Perron checks
    take eigenvalues only (np.linalg.eigvals) and find rho's vectors by
    bordered solves; only extraction reads eigenvectors off np.linalg.eig."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"eig": [], "eigvals": []}
        for name in calls:
            original = getattr(np.linalg, name)

            def counting(a, _original=original, _calls=calls[name]):
                _calls.append(np.shape(a))
                return _original(a)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    def test_check_evpos_decomposes_once(self, tmp_path, capsys, counted):
        assert main(["check-evpos", write_matrix(tmp_path, GOLDEN)]) == 0
        assert counted == {"eig": [], "eigvals": [(2, 2)]}

    def test_check_evpos_reads_one_spectrum_and_solves_twice(
        self, tmp_path, capsys, monkeypatch, counted
    ):
        # one spectral record serves both sides; the matrix side's vector
        # borders the transpose side's solve
        records = count_calls(monkeypatch, "_spectral_record", perron)
        checks = count_calls(monkeypatch, "strong_pf_check", perron)
        spectra = count_calls(monkeypatch, "_eigenvalues", perron)
        solves = count_calls(monkeypatch, "solve", np.linalg)
        assert main(["check-evpos", write_matrix(tmp_path, GOLDEN)]) == 0
        assert (len(records), len(checks), len(spectra), len(solves)) == (1, 0, 1, 2)
        assert counted == {"eig": [], "eigvals": [(2, 2)]}

    def test_check_pf_decomposes_once(self, tmp_path, capsys, counted):
        assert main(["check-pf", write_matrix(tmp_path, GOLDEN)]) == 0
        assert counted == {"eig": [], "eigvals": [(2, 2)]}

    def test_verify_decomposes_a_and_f_of_a(self, tmp_path, capsys, counted):
        assert main(["verify", write_spec(tmp_path, PF_SPEC), "--fn", "exp"]) == 0
        # f(A) only; A's report comes from its factors
        assert counted == {"eig": [], "eigvals": [(2, 2)]}

    def test_apply_decomposes_once(self, tmp_path, capsys, counted):
        assert main(["apply", write_matrix(tmp_path, GOLDEN), "--fn", "exp"]) == 0
        assert counted == {"eig": [(2, 2)], "eigvals": []}

    def test_non_simple_rho_falls_back_to_decompositions(
        self, tmp_path, capsys, counted
    ):
        # rho = 1 is double, so no bordered solve is tried for either vector:
        # A and A^T are decomposed
        assert main(["check-evpos", write_matrix(tmp_path, [[1, 1], [0, 1]])]) == 1
        assert counted == {"eig": [(2, 2), (2, 2)], "eigvals": [(2, 2)]}


class TestSingularValueDecompositionCounts:
    """One SVD per transform; synthesize adds its printed condition estimate."""

    @pytest.fixture
    def counted(self, monkeypatch):
        return count_svd_calls(monkeypatch)

    def test_apply_on_a_matrix(self, tmp_path, capsys, counted):
        assert main(["apply", write_matrix(tmp_path, GOLDEN), "--fn", "exp"]) == 0
        assert len(counted) == 1

    def test_verify(self, tmp_path, capsys, counted):
        assert main(["verify", write_spec(tmp_path, PF_SPEC), "--fn", "exp"]) == 0
        assert len(counted) == 1

    def test_synthesize(self, tmp_path, capsys, counted):
        assert main(["synthesize", write_spec(tmp_path, PF_SPEC)]) == 0
        assert len(counted) == 2


class TestWhereAIsFormed:
    """A = R J R^-1 is formed only where it is read: synthesize emits it and
    apply --oracle feeds it to the series. verify and a plain apply work on
    the factors alone."""

    SPEC = {
        "real_blocks": [{"lambda": 3.0}, {"lambda": 1.0}, {"lambda": -0.5}],
        "transform": [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, 0.0, -1.0]],
    }

    @pytest.mark.parametrize(
        "command, formed",
        [
            (["verify", "--fn", "exp"], 0),
            (["apply", "--fn", "exp"], 0),
            (["apply", "--fn", "exp", "--oracle"], 1),
            (["synthesize"], 1),
        ],
        ids=["verify", "apply", "apply-oracle", "synthesize"],
    )
    def test_reconstruct_calls(self, tmp_path, capsys, monkeypatch, command, formed):
        calls = count_calls(monkeypatch, "reconstruct", RealJordanFactors)
        assert main([command[0], write_spec(tmp_path, self.SPEC), *command[1:]]) == 0
        assert len(calls) == formed


class TestOneEvidencePass:
    """f's table comes from one walk of the spectrum, and its conjugate-symmetry
    test runs once, read by both sides of verify."""

    @pytest.mark.parametrize("command", ["verify", "apply"])
    def test_one_walk_and_one_conjugate_pass(
        self, tmp_path, capsys, monkeypatch, command
    ):
        from matfrob import funcalc
        from matfrob.jordan import JordanSpec

        walks = count_calls(monkeypatch, "distinct_eigenvalues", JordanSpec)
        passes = count_calls(monkeypatch, "_conjugate_defects", funcalc, perron)
        if command == "verify":
            path = write_spec(tmp_path, _positive_perron_spec(6))
        else:  # a matrix, through extraction
            path = write_matrix(tmp_path, GOLDEN)
        assert main([command, path, "--fn", "exp"]) == 0
        capsys.readouterr()
        assert (len(walks), len(passes)) == (1, 1)


def _positive_perron_spec(n):
    """Factored form of a strong Perron-Frobenius n x n matrix.

    The transform is the Householder reflection taking e1 to the positive
    unit vector ones / sqrt(n), so rho = 2 has that Perron vector on both
    sides; the other eigenvalues are a complex pair and distinct reals.
    """
    u = np.full(n, 1.0 / np.sqrt(n))
    v = np.eye(n)[0] - u
    q = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    return {
        "name": "householder",
        "real_blocks": [{"lambda": 2.0}]
        + [{"lambda": lam} for lam in np.linspace(-1.5, 1.5, n - 3).tolist()],
        "complex_blocks": [{"re": 0.3, "im": 0.5}],
        "transform": q.tolist(),
    }


class TestEmission:
    """Every document and --out report is written by json's C encoder, one
    row at a time, with the bytes of one json.dumps call."""

    def test_no_command_takes_the_python_encoder(self, tmp_path, capsys, monkeypatch):
        def python_encoder(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder reached")

        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        spec = write_spec(tmp_path, _positive_perron_spec(50))
        built = tmp_path / "built.json"
        assert main(["synthesize", spec, "--out", str(built)]) == 0
        capsys.readouterr()
        assert main(["apply", str(built), "--fn", "exp"]) == 0
        stdout_doc = strict_json(capsys.readouterr().out)
        assert np.shape(stdout_doc["rows"]) == (50, 50)
        runs = {
            "fa.json": ["apply", str(built), "--fn", "exp"],
            "verify.json": ["verify", spec, "--fn", "exp"],
            "pf.json": ["check-pf", str(built)],
            "evpos.json": ["check-evpos", str(built)],
        }
        for out, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / out)]) == 0, argv
        capsys.readouterr()
        for out in ["built.json", *runs]:
            text = (tmp_path / out).read_text()
            assert text.endswith("}\n") and text.count("\n") == 1, out
            strict_json(text)
        fa = load_document(tmp_path / "fa.json")
        assert fa["rows"] == stdout_doc["rows"]


    ODD_NAME = "q\"uote\\back\tslash \u00e9\u2603\U0001d400"

    def test_bytes_equal_one_shot_encoding(self, tmp_path, capsys, monkeypatch):
        # every dump_document call the CLI makes, with the object it dumped
        written = []

        def recording(doc, path=None):
            text = documents.dump_document(doc, path)
            written.append((json.dumps(doc), path, text))
            return text

        monkeypatch.setattr(cli, "dump_document", recording)
        extremes = [1.7976931348623157e308, 5e-324, -1.7976931348623157e308, -0.0]
        spec = write_spec(tmp_path, {
            "name": self.ODD_NAME,
            "real_blocks": [{"lambda": lam} for lam in extremes],
            "transform": np.eye(4).tolist(),
        })
        pf_spec = write_spec(tmp_path, dict(PF_SPEC, name=self.ODD_NAME), "pf")
        matrix = write_matrix(tmp_path, GOLDEN, "golden")
        argvs = [
            ["synthesize", spec],
            ["apply", matrix, "--fn", "exp"],
            ["apply", pf_spec, "--fn", "pow:2"],
            ["verify", pf_spec, "--fn", "exp"],
            ["check-pf", matrix],
            ["check-evpos", matrix],
        ]
        for k, argv in enumerate(argvs):
            out = tmp_path / f"out{k}.json"
            assert main([*argv, "--out", str(out)]) == 0, argv
            capsys.readouterr()
            assert main(argv) == 0, argv
            stdout = capsys.readouterr().out
            by_file = [w for w in written if w[1] == str(out)]
            assert len(by_file) == 1, argv
            assert out.read_bytes() == (by_file[0][0] + "\n").encode(), argv
            if argv[0] in ("synthesize", "apply"):
                # without --out the document is stdout
                assert stdout == written[-1][0] + "\n" == written[-1][2] + "\n"
            written.clear()
        built = strict_json((tmp_path / "out0.json").read_text())
        assert built["name"] == self.ODD_NAME
        assert [built["rows"][i][i] for i in range(3)] == extremes[:3]

    def test_apply_peak_memory(self, tmp_path, capsys):
        # n = 200: the parsed input is dropped before the O(n^3) work and
        # f(A) is written row by row, so the traced peak stays near a few
        # n x n arrays
        n = 200
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.uniform(-1.0, 1.0, n)) @ q.T
        path = write_matrix(tmp_path, a.tolist())
        out = tmp_path / "fa.json"
        tracemalloc.start()
        try:
            code = main(["apply", path, "--fn", "exp", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 12 * 8 * n * n


class TestReportBuiltOnlyForOut:
    """Without --out no command builds the report's dict."""

    @pytest.fixture
    def refused(self, monkeypatch):
        def refuse(self):
            raise AssertionError("to_dict called without --out")

        for cls in (
            perron.PerronReport,
            perron.EventualPositivityReport,
            perron.PreservationResult,
        ):
            monkeypatch.setattr(cls, "to_dict", refuse)

    @pytest.mark.parametrize(
        "command, write, doc, options",
        [
            ("check-pf", write_matrix, GOLDEN, []),
            ("check-evpos", write_matrix, GOLDEN, []),
            ("verify", write_spec, PF_SPEC, ["--fn", "exp"]),
        ],
        ids=["check-pf", "check-evpos", "verify"],
    )
    def test_no_out_no_dict(
        self, tmp_path, capsys, refused, command, write, doc, options
    ):
        assert main([command, write(tmp_path, doc), *options]) == 0


def _evpos_benchmark_matrix(rng, n, control):
    """An n x n matrix built as the evpos benchmark builds its inputs.

    A = R J R^-1 with R = Q diag(d), Q orthogonal with an entrywise positive
    first column, and J real diagonal with rho = 2 simple and the rest in
    0.05 ... 0.8 times rho in modulus. A control flips one entry of that
    column, so rho's right and left vectors both have a negative entry.
    """
    u = rng.uniform(0.5, 1.5, size=n)
    if control:
        u[rng.integers(n)] *= -1.0
    q, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((n, n - 1))]))
    if q[0, 0] * u[0] < 0.0:
        q[:, 0] = -q[:, 0]
    d = rng.uniform(0.6, 1.8, size=n)
    others = 2.0 * rng.uniform(0.05, 0.8, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    return ((q * d) * np.concatenate([[2.0], others])) @ (q.T / d[:, None])


class TestSquaringStartThreshold:
    """check-evpos --kmax 64 on a 30 x 30 control forms 6 products: A^2, A^4,
    ..., A^64 are all not positive, so the squares reach k_max and nothing is
    left to scan. Its planted twin has threshold s = 9: three squares reach
    A^8, A^16 is positive, and the scan forms A^9 ... A^17, 13 products where
    the plain early-stop scan forms 2s - 1 = 17."""

    @pytest.fixture
    def products(self, monkeypatch):
        return count_power_products(monkeypatch)

    def test_control(self, tmp_path, capsys, products):
        a = _evpos_benchmark_matrix(np.random.default_rng(15), 30, control=True)
        code = main(["check-evpos", write_matrix(tmp_path, a.tolist()), "--kmax", "64"])
        out = capsys.readouterr().out
        assert code == 1
        assert "eventually positive: NO" in out
        assert "power threshold: none up to k_max = 64" in out
        assert "DEFECT" not in out
        assert len(products) == 6

    def test_planted_twin(self, tmp_path, capsys, products):
        a = _evpos_benchmark_matrix(np.random.default_rng(15), 30, control=False)
        code = main(["check-evpos", write_matrix(tmp_path, a.tolist()), "--kmax", "64"])
        out = capsys.readouterr().out
        assert code == 0
        s = int(re.search(r"power threshold: (\d+) ", out).group(1))
        assert "DEFECT" not in out
        assert (s, len(products)) == (9, 13)
