import json
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_mavic_study_drives_every_command(tmp_path):
    run = runpy.run_path(str(SCRIPTS / "mavic_study.py"))["run"]
    # 40 realizations are too few for the Monte Carlo thresholds: the last
    # step, validate, exits 4 after every other step has written its output
    assert run(["--out", str(tmp_path), "--n", "40"]) == 4
    for step in ("acf", "psd", "coeffs", "signal"):
        assert (tmp_path / step / "manifest.json").is_file(), step
    # the report carries the estimator's convergence table
    acf = json.loads((tmp_path / "validate" / "report.json").read_text())["acf"]
    assert acf["convergence"] == [{"n": 40, "nrmse": acf["nrmse"]}]
    assert acf["convergence_slope"] is None


def test_same_outputs_compares_trees_file_by_file(tmp_path):
    compare_trees = runpy.run_path(str(SCRIPTS / "same_outputs.py"))["compare_trees"]
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    manifest = {"tool": "swarmdoppler", "outputs": [], "created_utc": "2024-01-01T00:00:00Z"}
    for root, stamp, table in ((ours, "2024-01-01T00:00:00Z", b"1.0\n"),
                               (theirs, "2025-06-30T12:00:00Z", b"1.5\n")):
        (root / "acf").mkdir(parents=True)
        (root / "acf" / "manifest.json").write_text(
            json.dumps({**manifest, "created_utc": stamp}, indent=1))
        (root / "acf" / "acf.csv").write_bytes(b"tau,acf\n")
        (root / "acf" / "table.csv").write_bytes(table)
    (ours / "acf" / "extra.svg").write_bytes(b"<svg/>")
    (theirs / "psd").mkdir()
    (theirs / "psd" / "psd.csv").write_bytes(b"f,psd\n")
    assert compare_trees(ours, theirs) == [
        ("acf/acf.csv", "identical"),
        ("acf/extra.svg", "only in ours"),
        # only the creation stamp differs
        ("acf/manifest.json", "identical"),
        ("acf/table.csv", "different"),
        ("psd/psd.csv", "only in theirs"),
    ]
    (theirs / "acf" / "manifest.json").write_text(json.dumps({**manifest, "tool": "other"}))
    assert ("acf/manifest.json", "different") in compare_trees(ours, theirs)
