import runpy
from pathlib import Path

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


def test_preservation_suite_table(capsys):
    suite = runpy.run_path(str(SCRIPTS / "run_preservation_suite.py"))
    code = suite["main"](["--trials", "500", "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out == SUITE_TABLE_SEED_1
