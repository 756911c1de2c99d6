import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_convergence_study_writes_its_table(tmp_path):
    run = runpy.run_path(str(SCRIPTS / "convergence_study.py"))["run"]
    assert run(["--out", str(tmp_path), "--n-max", "400"]) == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["n_realizations", "100", "200", "400"]


def test_mavic_study_drives_every_command(tmp_path):
    run = runpy.run_path(str(SCRIPTS / "mavic_study.py"))["run"]
    # 40 realizations are too few for the Monte Carlo thresholds: the last
    # step, validate, exits 4 after every other step has written its output
    assert run(["--out", str(tmp_path), "--n", "40"]) == 4
    for step in ("acf", "psd", "coeffs", "signal"):
        assert (tmp_path / step / "manifest.json").is_file(), step
