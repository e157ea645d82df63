import json

import gate


def write_run(out, cm_rows=((3, 1), (0, 4)), losses=("0.5", "0.25"), overall=7 / 8, status="ok"):
    exp = out / "exclude-attack1"
    exp.mkdir(parents=True)
    (exp / "cm.csv").write_text(
        "class,normal,attack1\n" + "".join(
            f"{name},{a},{b}\n" for name, (a, b) in zip(("normal", "attack1"), cm_rows)))
    (exp / "metrics.json").write_text(json.dumps({
        "overall_accuracy": overall, "excluded_class": "attack1",
        "attacks": {"attack1": {"tpr": 1.0, "fnr": 0.0}},
    }))
    (exp / "trace.csv").write_text(
        "epoch,loss,seconds\n" + "".join(f"{i},{v},0.1\n" for i, v in enumerate(losses, 1)))
    for name in ("cm.txt", "sweep.csv", "checkpoint.json"):
        (exp / name).write_text(name)
    (out / "summary.csv").write_text(
        "excluded_class,status,votes,overall_accuracy,new_class_tpr,reference_overall,"
        f"reference_note,error\nattack1,{status},5,{overall!r},1.0,,,\n")


def check(out, exit_code=0, floor=None):
    return gate.check_run(out, exit_code, experiments=1, test_batch_size=8, epochs=2,
                          accuracy_floor=floor)


def test_a_consistent_run_passes(tmp_path):
    write_run(tmp_path)
    result = check(tmp_path, floor=0.8)
    assert result.ok, result.problems
    assert result.overall_accuracy == 7 / 8 and result.new_class_tpr == 1.0
    assert set(result.artifact_bytes) == set(gate.ARTIFACTS)


def test_each_broken_invariant_is_reported(tmp_path):
    cases = {
        "rows": dict(cm_rows=((3, 2), (0, 4))),
        "trace/total": dict(overall=0.5),
        "non-finite": dict(losses=("0.5", "nan")),
        "epochs": dict(losses=("0.5",)),
        "not ok": dict(status="error"),
    }
    for expected, kwargs in cases.items():
        out = tmp_path / expected.replace("/", "-").replace(" ", "-")
        write_run(out, **kwargs)
        problems = check(out).problems
        assert any(expected in p for p in problems), (expected, problems)


def test_exit_code_missing_artifact_and_floor_are_reported(tmp_path):
    write_run(tmp_path)
    assert any("exit code 1" in p for p in check(tmp_path, exit_code=1).problems)
    assert any("below floor" in p for p in check(tmp_path, floor=0.9).problems)
    (tmp_path / "exclude-attack1" / "cm.txt").unlink()
    assert any("missing artifacts" in p for p in check(tmp_path).problems)


def test_fingerprint_covers_deterministic_artifacts_only(tmp_path):
    write_run(tmp_path)
    before = gate.fingerprint(tmp_path)
    assert sorted(before) == sorted(f"exclude-attack1/{n}" for n in gate.DETERMINISTIC)
    (tmp_path / "exclude-attack1" / "trace.csv").write_text("epoch,loss,seconds\n1,0.5,9.9\n")
    assert gate.fingerprint(tmp_path) == before
    (tmp_path / "exclude-attack1" / "checkpoint.json").write_text("changed")
    assert gate.fingerprint(tmp_path) != before
