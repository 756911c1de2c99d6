import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_convergence_study_writes_its_table(tmp_path):
    run = runpy.run_path(str(SCRIPTS / "convergence_study.py"))["run"]
    assert run(["--out", str(tmp_path), "--n-max", "400"]) == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["n_realizations", "100", "200", "400"]
