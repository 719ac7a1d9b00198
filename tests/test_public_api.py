"""The names `matfrob` exports, and the README examples that use them."""

import ast
import dataclasses
import importlib
import inspect
import re
import shlex
from pathlib import Path

import matfrob

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

EXPORTED = {
    "Tolerance",
    "MatFrobError",
    "PreconditionError",
    "JordanSpec",
    "RealJordanFactors",
    "synthesize_matrix",
    "extract_diagonalizable_structure",
    "IllConditionedWarning",
    "SpectralFunction",
    "Monomial",
    "PrincipalRoot",
    "Abs",
    "Exp",
    "Polynomial",
    "ScaledSum",
    "matrix_function",
    "taylor_oracle",
    "NonRealResultError",
    "NotDefinedOnSpectrumError",
    "strong_pf_check",
    "eventually_positive_check",
    "power_threshold",
    "frobenius_check",
    "verify_preservation_theorem",
}

# not exported from the package; each still lives in its submodule
SUBMODULE_ONLY = {
    "DEFAULT_TOL": "core",
    "eigen_decompose": "core",
    "mat_inverse": "core",
    "condition_estimate": "core",
    "func_jordan_block": "jordan",
    "func_real_jordan_block": "jordan",
    "defined_on_spectrum": "funcalc",
    "PerronReport": "perron",
    "EventualPositivityReport": "perron",
    "FrobeniusVerdict": "perron",
    "PreservationResult": "perron",
}


# failures no caller told apart, folded into the class a caller catches
FOLDED = {
    "SingularMatrixError": "core",
    "DimensionMismatchError": "core",
    "SolverConvergenceError": "core",
    "DefectiveMatrixError": "jordan",
    "IllConditionedError": "jordan",
    "DomainError": "funcalc",
    "NonDifferentiableError": "funcalc",
    "ConjugateSymmetryError": "funcalc",
    "NotEntireError": "funcalc",
    "DocumentFormatError": "documents",
    "ExpressionError": "documents",
}


def _exported_subclasses(base):
    return [
        name for name in EXPORTED
        if isinstance(cls := getattr(matfrob, name), type) and issubclass(cls, base)
    ]


def test_all_is_exactly_the_exported_names():
    assert len(matfrob.__all__) == len(EXPORTED) == 24
    assert set(matfrob.__all__) == EXPORTED
    for name in matfrob.__all__:
        assert getattr(matfrob, name) is not None, name
    # warnings are Exceptions too
    assert len(_exported_subclasses(Exception)) == 5
    for name, module in FOLDED.items():
        assert not hasattr(importlib.import_module(f"matfrob.{module}"), name), name


def _caught_names():
    """Every name an except clause in src/ or scripts/ catches."""
    names = set()
    for path in [*ROOT.glob("src/matfrob/*.py"), *ROOT.glob("scripts/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(t.attr if isinstance(t, ast.Attribute) else t.id for t in types)
    return names


def test_each_exported_error_is_caught_somewhere():
    # an exported error class is worth its name only if a caller branches
    # on it; one that nothing catches belongs in the class it would fall to
    errors = set(_exported_subclasses(matfrob.MatFrobError)) - {"MatFrobError"}
    assert len(errors) == 3
    assert errors <= _caught_names()


def test_tolerance_is_one_relative_knob():
    # every threshold is relative; no absolute tolerance can be set
    from matfrob.core import mat_inverse

    fields = dataclasses.fields(matfrob.Tolerance)
    assert tuple(f.name for f in fields) == ("rel_eps",)
    for fn in (mat_inverse, matfrob.extract_diagonalizable_structure):
        assert tuple(inspect.signature(fn).parameters) == ("a",), fn.__name__


def test_no_parameter_the_code_can_work_out():
    # the oracle picks each node's series itself, and rho is the spec's
    from matfrob import cli
    from matfrob.core import DEFAULT_TOL

    assert tuple(inspect.signature(matfrob.taylor_oracle).parameters) == ("a", "f")
    params = inspect.signature(matfrob.frobenius_check).parameters
    assert tuple(params) == ("f", "spec", "tol")
    assert params["tol"].default is DEFAULT_TOL
    # one oracle, in funcalc: the CLI neither keeps its own nor names a node
    assert not hasattr(cli, "_oracle") and not hasattr(cli, "ORACLE_TERMS")
    assert not [
        v for v in vars(cli).values()
        if isinstance(v, type) and issubclass(v, matfrob.SpectralFunction)
    ]
    # no scalar comparison that no check makes
    assert not hasattr(matfrob.Tolerance, "eq")


def test_submodule_names_are_not_exported():
    for name, module in SUBMODULE_ONLY.items():
        assert not hasattr(matfrob, name), name
        assert hasattr(importlib.import_module(f"matfrob.{module}"), name), name
    assert not hasattr(matfrob, "derivative_reality_check")
    # J is f(J) at f(z) = z, laid out by reconstruct through the function
    # that lays out f(J), which writes each block into one real array
    from matfrob import jordan

    assert not hasattr(jordan, "real_jordan_block")
    assert not hasattr(jordan, "assemble_real_jordan")
    assert not hasattr(jordan, "block_diag")
    # a pair block is func_jordan_block's block in real form, with no 2x2 builder
    assert not hasattr(jordan, "rotation_block")
    # only tests read a bare Jordan block, from their helpers
    assert not hasattr(jordan, "jordan_block")
    assert len(jordan.__all__) == 7
    # conjugate symmetry is one test on f's table, inside funcalc
    from matfrob import funcalc

    assert not hasattr(funcalc, "reflection_check")
    # the domain check is the spectrum walk itself, with no result object
    assert not hasattr(funcalc, "CheckResult")
    assert len(funcalc.__all__) == 13


def test_domain_is_one_method():
    # a node answers defined_at(z); there is no domain object to build
    from matfrob import funcalc

    assert not hasattr(funcalc, "DomainDescriptor")
    assert not hasattr(matfrob.SpectralFunction, "domain")


def test_each_node_has_one_evaluation_hook():
    # order 0 is the value; series rules live in taylor_oracle, not on nodes
    nodes = [matfrob.SpectralFunction] + [
        c for c in vars(matfrob).values()
        if isinstance(c, type) and issubclass(c, matfrob.SpectralFunction)
    ]
    assert len(set(nodes)) == 7
    for node in nodes:
        assert "_derivative" in vars(node), node.__name__
        for retired in ("_eval", "_deriv", "is_entire", "taylor_coefficients"):
            assert not hasattr(node, retired), (node.__name__, retired)


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "AGREE" in capsys.readouterr().out


def test_readme_verify_line_agrees(tmp_path, capsys):
    # the factored-form document and the verify line, as the README gives them
    from matfrob.cli import main

    text = README.read_text()
    (doc,) = [b for b in re.findall(r"```json\n(.*?)```", text, re.S) if "real_blocks" in b]
    (line,) = re.findall(r"^matfrob verify planted\.json .*?(?=\s+#)", text, re.M)
    (tmp_path / "planted.json").write_text(doc)
    argv = shlex.split(line)[1:]
    argv[1] = str(tmp_path / "planted.json")
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("scalar and matrix verdicts AGREE\n")
