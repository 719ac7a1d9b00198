import runpy
from collections import Counter
from pathlib import Path

import matfrob.perron
from matfrob.jordan import RealJordanFactors

from helpers import count_calls, count_scalar_calls

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# The verdict table of the 500-trial preservation suite at seed 1. Any change
# to how spectra, blocks or verdicts are computed must leave it unchanged.
SUITE_TABLE_SEED_1 = """\
function             ran  scalar  matrix  skipped
exp                  500     500     500        0
pow:1                500     500     500        0
pow:2                500     500     500        0
pow:3                500     500     500        0
root:2               216     216     216      284
root:3               500     216     216        0
poly:0.5,1.0,0.25    500     500     500        0
-1.0*pow:1           500       0       0        0

500 trials, scalar and matrix verdicts always agreed
"""

# The stdout of power_threshold_demo.py: the paper's running 2 x 2 example
# B = [[2, 1], [2, -1]], its powers, its report, its threshold and exp(B).
DEMO_OUTPUT = """\
B =
[[ 2.  1.]
 [ 2. -1.]]

B^1 (has a nonpositive entry):
[[ 2  1]
 [ 2 -1]]
B^2 (entrywise positive):
[[6 1]
 [2 3]]
B^3 (has a nonpositive entry):
[[14  5]
 [10 -1]]
B^4 (entrywise positive):
[[38  9]
 [18 11]]
B^5 (entrywise positive):
[[94 29]
 [58  7]]

spectral radius rho = 2.56155281280883
  [pass] spectral radius is positive
  [pass] spectral radius is an eigenvalue
  [pass] eigenvector at rho is entrywise positive
  [pass] rho is a simple eigenvalue
  [pass] rho strictly dominates all other eigenvalues (margin 1)
strong Perron-Frobenius property: HOLDS

power threshold up to 64: 4

eventually positive: yes

exp(B) =
[[11.21994348  3.09138571]
 [ 6.18277141  1.94578636]]
exp(B) eventually positive: yes (power threshold 1)
"""


def test_preservation_suite_table(capsys, monkeypatch):
    records = count_calls(monkeypatch, "_spectral_record", matfrob.perron)
    formed = count_calls(monkeypatch, "reconstruct", RealJordanFactors)
    suite = runpy.run_path(str(SCRIPTS / "run_preservation_suite.py"))
    code = suite["main"](["--trials", "500", "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out == SUITE_TABLE_SEED_1
    # f's domain is checked before A's report, so the 284 skipped root:2
    # trials build none
    assert len(records) <= 7148
    # every verdict is read off the factors: A itself is never formed
    assert formed == []


def test_power_threshold_demo_output(capsys):
    demo = runpy.run_path(str(SCRIPTS / "power_threshold_demo.py"))
    demo["main"]()
    assert capsys.readouterr().out == DEMO_OUTPUT


def test_suite_evaluates_each_scalar_value_once(monkeypatch):
    # both sides of a verify read one table of f^(j)(lambda)
    calls = count_scalar_calls(monkeypatch)
    suite = runpy.run_path(str(SCRIPTS / "run_preservation_suite.py"))
    assert suite["main"](["--trials", "50", "--seed", "1"]) == 0
    per_triple = Counter(calls)
    assert per_triple and set(per_triple.values()) == {1}
