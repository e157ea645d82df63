from __future__ import annotations

import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import package_env
from oneshot_ids import cli, dataset
from oneshot_ids.synthetic import write_files


@pytest.fixture(scope="module")
def synthetic_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    return write_files(directory, n_classes=4, per_class=40, n_features=6, seed=3)


def write_manifest(tmp_path, csv_path, schema_path, out, **overrides):
    settings = {
        "dataset": csv_path,
        "schema": schema_path,
        "out": out,
        "exclude": "all-attacks",
        "epochs": 3,
        "batch_size": 200,
        "minibatch": 64,
        "votes": "1,5",
        "seed": 9,
    }
    settings.update(overrides)
    path = tmp_path / "run.manifest"
    path.write_text(
        "\n".join(f"{k} = {v}" for k, v in settings.items()) + "\n", encoding="utf-8"
    )
    return path


def run_cli(*argv):
    return cli.main(list(argv))


class TestRun:
    def test_all_attacks_writes_complete_artifacts(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out)
        assert run_cli("run", "--manifest", str(manifest)) == 0
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert subdirs == ["exclude-attack1", "exclude-attack2", "exclude-attack3"]
        for sub in subdirs:
            files = sorted(p.name for p in (out / sub).iterdir())
            assert files == ["checkpoint.json", "cm.csv", "cm.txt", "metrics.json", "sweep.csv",
                             "trace.csv"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 4
        assert summary[0].startswith("excluded_class,status,")

    def test_missing_dataset_exits_2_without_artifacts(self, synthetic_files, tmp_path):
        _, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, tmp_path / "nope.csv", schema_path, out)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key", ["dataset", "schema", "manifest"])
    def test_input_path_that_is_a_directory_exits_2_naming_it(
        self, synthetic_files, tmp_path, capsys, key
    ):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        settings = {"dataset": csv_path, "schema": schema_path, "out": out, key: tmp_path}
        argv = [part for k, v in settings.items() for part in (f"--{k}", str(v))]
        assert run_cli("run", *argv) == 2
        assert capsys.readouterr().err == f"error: {key}: {tmp_path} is a directory, not a file\n"
        assert not out.exists()

    @pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_loading(
        self, synthetic_files, tmp_path, capsys, monkeypatch, under
    ):
        csv_path, schema_path = synthetic_files
        blocking = tmp_path / "file"
        blocking.write_text("kept\n")
        out = blocking.joinpath(*under)

        def no_load(*args):
            raise AssertionError("the dataset was loaded")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        manifest = write_manifest(tmp_path, csv_path, schema_path, out)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        assert capsys.readouterr().err == (
            f"error: out: cannot make directory {out}: {blocking} is not a directory\n"
        )
        assert blocking.read_text() == "kept\n"

    def test_all_attacks_without_an_attack_class_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "benign.csv"
        csv_path.write_text("1.0,normal\n2.0,normal\n3.0,normal\n")
        schema_path = tmp_path / "benign.schema"
        schema_path.write_text("column x numeric\ncolumn label label\nnormal normal\n")
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        assert capsys.readouterr().err == (
            "error: exclude: all-attacks finds no attack class among the dataset's classes "
            "['normal']\n"
        )
        assert not out.exists()

    def test_dataset_that_is_not_utf8_exits_2_without_artifacts(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(
            b"1.0,normal\n2.0,normal\n3.0,Web Attack \x96 Brute Force\n4.0,normal\n"
        )
        schema_path = tmp_path / "data.schema"
        schema_path.write_text("column x numeric\ncolumn label label\nnormal normal\n")
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv_path}: line 3: byte 0x96 at column 16 is not UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings, tail, column",
        [("schema", b"map Web\x96 a\n", 8), ("manifest", b"# caf\xe9\n", 6)],
        ids=["schema", "manifest"],
    )
    def test_settings_file_that_is_not_utf8_exits_2_without_artifacts(
        self, synthetic_files, tmp_path, capsys, settings, tail, column
    ):
        csv_path, schema_path = synthetic_files
        schema = tmp_path / "data.schema"
        schema.write_bytes(schema_path.read_bytes())
        out = tmp_path / "out"
        files = {"schema": schema, "manifest": write_manifest(tmp_path, csv_path, schema, out)}
        bad = files[settings]
        bad.write_bytes(bad.read_bytes() + tail)
        line = len(bad.read_bytes().splitlines())
        assert run_cli("run", "--manifest", str(files["manifest"])) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line {line}: byte 0x{tail[column - 1]:02x} at column {column} "
            "is not UTF-8\n"
        )
        assert not out.exists()

    def test_schema_without_a_feature_column_exits_2_naming_it(
        self, synthetic_files, tmp_path, capsys
    ):
        csv_path, _ = synthetic_files
        schema = tmp_path / "labels.schema"
        schema.write_text("column label label\nnormal normal\n", encoding="utf-8")
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema, out)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        assert capsys.readouterr().err == (
            f"error: {schema}: schema declares no numeric or categorical column\n"
        )
        assert not out.exists()

    def test_missing_required_key_exits_2(self, synthetic_files, tmp_path, capsys):
        csv_path, schema_path = synthetic_files
        manifest = tmp_path / "broken.manifest"
        manifest.write_text(f"dataset = {csv_path}\nschema = {schema_path}\n")
        assert run_cli("run", "--manifest", str(manifest)) == 2
        assert "out" in capsys.readouterr().err

    def test_unknown_excluded_class_exits_2(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        manifest = write_manifest(
            tmp_path, csv_path, schema_path, tmp_path / "out", exclude="attack9"
        )
        assert run_cli("run", "--manifest", str(manifest)) == 2

    def test_repeated_excluded_class_exits_2_before_training(
        self, synthetic_files, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(cli, "run_training", never)
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out)
        argv = ("run", "--manifest", str(manifest), "--exclude", "attack1", "--exclude", "attack1")
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "'attack1' and 'attack1'" in err and str(out / "exclude-attack1") in err
        assert not out.exists()

    def test_class_names_sharing_a_directory_exit_2_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(cli, "run_training", never)
        names = ("normal", "DoS Hulk", "dos_hulk")
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("".join(f"{i}.0,{names[i % 3]}\n" for i in range(30)))
        schema_path = tmp_path / "data.schema"
        schema_path.write_text("column x numeric\ncolumn label label\nnormal normal\n")
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        err = capsys.readouterr().err
        assert "'DoS Hulk' and 'dos_hulk'" in err and str(out / "exclude-dos-hulk") in err
        assert not out.exists()

    @pytest.mark.parametrize("normal", ["", "normal benign\n"], ids=["undeclared", "no-rows"])
    def test_missing_benign_class_exits_2_before_anything_runs(
        self, synthetic_files, tmp_path, capsys, normal
    ):
        csv_path, schema_path = synthetic_files
        lines = schema_path.read_text().splitlines(keepends=True)
        schema = tmp_path / "altered.schema"
        schema.write_text("".join(ln for ln in lines if not ln.startswith("normal ")) + normal)
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema, out)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "benign" in err
        assert not out.exists()

    def test_schema_without_normal_exits_2_before_the_dataset_is_read(
        self, synthetic_files, tmp_path, capsys, monkeypatch
    ):
        loaded = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: loaded.append(args))
        csv_path, schema_path = synthetic_files
        lines = schema_path.read_text().splitlines(keepends=True)
        schema = tmp_path / "altered.schema"
        schema.write_text("".join(ln for ln in lines if not ln.startswith("normal ")))
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema, out)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        assert capsys.readouterr().err == (
            f"error: {schema}: schema does not designate the benign class "
            "(missing 'normal' directive)\n"
        )
        assert loaded == []
        assert not out.exists()

    def test_byte_identical_reruns(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        outs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            manifest = write_manifest(
                tmp_path, csv_path, schema_path, out, exclude="attack1"
            )
            assert run_cli("run", "--manifest", str(manifest)) == 0
            outs.append(out / "exclude-attack1")
        for artifact in ("cm.csv", "metrics.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_float32_matrix_gives_the_float64_matrix_artifacts(
        self, synthetic_files, tmp_path, monkeypatch
    ):
        # every step and embedding rounds its rows to float32, so storing
        # them rounded changes no artifact
        csv_path, schema_path = synthetic_files
        outs = []
        for dtype in (np.float32, np.float64):
            monkeypatch.setattr(dataset, "COMPUTE_DTYPE", dtype)
            out = tmp_path / np.dtype(dtype).name
            manifest = write_manifest(tmp_path, csv_path, schema_path, out, epochs=5)
            assert run_cli("run", "--manifest", str(manifest)) == 0
            outs.append(out)
        for sub in ("exclude-attack1", "exclude-attack2", "exclude-attack3"):
            for artifact in ("metrics.json", "sweep.csv", "cm.csv", "checkpoint.json"):
                float32, float64 = (out / sub / artifact for out in outs)
                assert float32.read_bytes() == float64.read_bytes(), (sub, artifact)

    def test_flags_override_manifest(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, exclude="attack1")
        assert run_cli("run", "--manifest", str(manifest), "--epochs", "2") == 0
        trace = (out / "exclude-attack1" / "trace.csv").read_text().splitlines()
        assert len(trace) == 3  # header + 2 epochs

    def test_summary_matches_recomputation_from_stored_cm(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out)
        assert run_cli("run", "--manifest", str(manifest)) == 0
        for line in (out / "summary.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            name, accuracy = cells[0], float(cells[3])
            table = np.loadtxt(out / f"exclude-{name}" / "cm.csv", delimiter=",", dtype=str)
            counts = table[1:, 1:].astype(np.int64)
            assert np.trace(counts) / counts.sum() == pytest.approx(accuracy, abs=1e-12)
            payload = json.loads((out / f"exclude-{name}" / "metrics.json").read_text())
            assert payload["overall_accuracy"] == pytest.approx(accuracy, abs=1e-12)
            assert payload["votes"] == 5

    def test_metrics_command_is_gone(self, capsys):
        # a run's rates are in metrics.json (the designated j) and sweep.csv (every j)
        with pytest.raises(SystemExit) as info:
            run_cli("metrics", "cm.csv", "--exclude", "DoS")
        assert info.value.code == 2
        assert "invalid choice: 'metrics'" in capsys.readouterr().err

    def test_partial_failure_exit_code(self, synthetic_files, tmp_path, monkeypatch):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out)
        real = cli.run_experiment

        def flaky(manifest_, raw, excluded_name, seed, out_dir):
            if excluded_name == "attack2":
                raise RuntimeError("boom")
            return real(manifest_, raw, excluded_name, seed, out_dir)

        monkeypatch.setattr(cli, "run_experiment", flaky)
        assert run_cli("run", "--manifest", str(manifest)) == 1
        rows = (out / "summary.csv").read_text().splitlines()
        failed = [r for r in rows if "error" in r and "boom" in r]
        assert len(failed) == 1
        assert not (out / "exclude-attack2" / "cm.csv").exists()

    def test_error_text_is_written_as_is(self, synthetic_files, tmp_path, monkeypatch):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, exclude="attack1")

        def failing(*args):
            raise ValueError('bad "x", y')

        monkeypatch.setattr(cli, "run_training", failing)
        assert run_cli("run", "--manifest", str(manifest)) == 1
        with (out / "summary.csv").open(newline="", encoding="utf-8") as fh:
            assert [row["error"] for row in csv.DictReader(fh)] == ['bad "x", y']

    def test_class_names_with_a_comma_or_quote_read_back(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(
            csv_path.read_text(encoding="utf-8")
            .replace(",attack1\n", ',"dos, hulk"\n')
            .replace(",attack2\n", ',"ftp ""patator"""\n'),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, renamed, schema_path, out)
        assert run_cli("run", "--manifest", str(manifest), "--exclude", "dos, hulk") == 0

        def table(path):
            with path.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert [len(row) for row in rows] == [len(rows[0])] * len(rows), path.name
            return rows

        names = ["normal", "attack3", "dos, hulk", 'ftp "patator"']
        cm = table(out / "exclude-dos--hulk" / "cm.csv")
        assert cm[0] == ["class", *names]
        assert [row[0] for row in cm[1:]] == names
        assert len(table(out / "exclude-dos--hulk" / "sweep.csv")) == 3
        summary = table(out / "summary.csv")
        assert [dict(zip(summary[0], row))["excluded_class"] for row in summary[1:]] == ["dos, hulk"]

    def test_batch_dump_flag(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, exclude="attack1")
        assert run_cli("run", "--manifest", str(manifest), "--dump-batch") == 0
        pairs = (out / "exclude-attack1" / "pairs.txt").read_text().splitlines()
        assert pairs[0] == "left_idx,right_idx,target"
        assert len(pairs) == 201

    def test_batch_dump_keeps_every_fresh_batch(self, synthetic_files, tmp_path, monkeypatch):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, exclude="attack1",
                                  batch_size=60, minibatch=30)
        argv = ("run", "--manifest", str(manifest), "--dump-batch", "--fresh-batch")
        batches = []
        real = cli.run_training

        def recording(split, cfg, on_epoch):
            def both(epoch, model, loss, batch):
                if batch is not None:
                    batches.append(batch)
                on_epoch(epoch, model, loss, batch)
            return real(split, cfg, both)

        monkeypatch.setattr(cli, "run_training", recording)
        assert run_cli(*argv) == 0
        path = out / "exclude-attack1" / "pairs.txt"
        want = ["left_idx,right_idx,target"] + [
            f"{left},{right},{'similar' if similar else 'dissimilar'}"
            for batch in batches
            for left, right, similar in zip(batch.left_idx, batch.right_idx, batch.similar)
        ]
        assert len(batches) == 3 and len(want) == 181
        assert path.read_text().splitlines() == want
        # a rerun into the same directory starts the file again
        assert run_cli(*argv) == 0
        assert path.read_text().splitlines() == want


class TestReferenceLabels:
    def test_nsl_kdd_reference_shown(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        csv_path = tmp_path / "flows.csv"
        with csv_path.open("w") as fh:
            for i in range(120):
                cls = ("Normal", "DoS", "Probe")[i % 3]
                fh.write(f"{rng.random():.4f},{rng.random():.4f},{cls}\n")
        schema_path = tmp_path / "nslkdd-flows.schema"
        schema_path.write_text(
            "column a numeric\ncolumn b numeric\ncolumn label label\nnormal Normal\n"
        )
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path, csv_path, schema_path, out, exclude="DoS", batch_size=60, minibatch=30
        )
        assert run_cli("run", "--manifest", str(manifest)) == 0
        stdout = capsys.readouterr().out
        assert "77.99" in stdout
        assert "non-reproducible-spec-exact" in stdout
        summary = (out / "summary.csv").read_text()
        assert "77.99" in summary
        assert cli.REFERENCE_NOTE in summary

    @pytest.mark.parametrize("reference, name, published", [
        ("cicids2017", "DoS Hulk", 80.81),
        ("cicids2017", "DoS Slowloris", 81.07),
        ("cicids2017", "ftp-brute_force", 82.50),
        ("cicids2017", "DoS", None),
        ("cicids2017", "d", None),
        ("nsl-kdd", " U2R ", 77.04),
        ("nsl-kdd", "u", None),
        ("nsl-kdd", "dos2", None),
        ("kddcup99", "Probe", 72.23),
        (None, "DoS", None),
    ])
    def test_reference_matches_whole_normalised_names(self, reference, name, published):
        assert cli._reference_overall(reference, name) == published

    def test_no_reference_for_unrecognised_schema(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, exclude="attack1")
        assert run_cli("run", "--manifest", str(manifest)) == 0
        assert cli.REFERENCE_NOTE not in (out / "summary.csv").read_text()


def summary_rows(out):
    return list(csv.DictReader((out / "summary.csv").read_text(encoding="utf-8").splitlines()))


class TestSeedList:
    DETERMINISTIC = ("metrics.json", "sweep.csv", "cm.csv", "checkpoint.json")

    def test_each_seed_writes_what_a_run_of_that_seed_alone_writes(
        self, synthetic_files, tmp_path
    ):
        csv_path, schema_path = synthetic_files
        manifest = write_manifest(tmp_path, csv_path, schema_path, tmp_path / "out", epochs=2)
        assert run_cli("run", "--manifest", str(manifest), "--seed", "3,4") == 0
        subdirs = sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir())
        assert subdirs == [
            f"exclude-attack{c}-seed-{seed}" for c in (1, 2, 3) for seed in (3, 4)
        ]
        rows = summary_rows(tmp_path / "out")
        assert [(r["excluded_class"], r["seed"]) for r in rows] == [
            (f"attack{c}", seed) for c in (1, 2, 3) for seed in ("3", "4")
        ]
        for seed in (3, 4):
            alone = tmp_path / f"alone{seed}"
            assert run_cli(
                "run", "--manifest", str(manifest), "--seed", str(seed), "--out", str(alone)
            ) == 0
            assert [r["seed"] for r in summary_rows(alone)] == [str(seed)] * 3
            for c in (1, 2, 3):
                for artifact in self.DETERMINISTIC:
                    got = tmp_path / "out" / f"exclude-attack{c}-seed-{seed}" / artifact
                    want = alone / f"exclude-attack{c}" / artifact
                    assert got.read_bytes() == want.read_bytes(), (seed, c, artifact)

    def test_spread_line_matches_the_summary_rows(self, synthetic_files, tmp_path, capsys):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path, csv_path, schema_path, out, exclude="attack1", epochs=2
        )
        assert run_cli("run", "--manifest", str(manifest), "--seed", "3,4,5") == 0
        printed = capsys.readouterr().out.splitlines()
        rows = summary_rows(out)
        parts = []
        for key, title in (("overall_accuracy", "overall accuracy"),
                           ("new_class_tpr", "new-class TPR")):
            values = [float(r[key]) for r in rows]
            parts.append(
                f"{title} mean {100.0 * sum(values) / 3:.2f}% "
                f"min {100.0 * min(values):.2f}% max {100.0 * max(values):.2f}%"
            )
        assert printed[-1] == "attack1: 3 of 3 seeds: " + "; ".join(parts)
        assert printed[0].startswith("attack1 seed 3: overall accuracy ")

    @pytest.mark.parametrize("seeds", ["7,7", "-1", "3,-1"])
    def test_repeated_or_negative_seed_exits_2_before_loading(
        self, synthetic_files, tmp_path, capsys, monkeypatch, seeds
    ):
        def never(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_dataset", never)
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, seed=seeds)
        assert run_cli("run", "--manifest", str(manifest)) == 2
        assert capsys.readouterr().err.startswith("error: seed: ")
        assert run_cli("run", "--manifest", str(manifest), "--seed", seeds) == 2
        assert capsys.readouterr().err.startswith("error: seed: ")
        assert not out.exists()

    def test_failing_seed_records_an_error_row_per_seed(self, synthetic_files, tmp_path, capsys):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, exclude="attack1")
        code = run_cli("run", "--manifest", str(manifest), "--seed", "1,2", "--test-batch-size", "3")
        assert code == 1
        error = "test_batch_size 3 too small for 4 classes"
        assert capsys.readouterr().out.splitlines() == [
            f"attack1 seed 1: failed: {error}", f"attack1 seed 2: failed: {error}",
        ]
        rows = summary_rows(out)
        assert [(r["status"], r["error"], r["seed"]) for r in rows] == [
            ("error", error, "1"), ("error", error, "2"),
        ]

    def test_seed_report_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("seed-report", "--seeds", "1,2")
        assert info.value.code == 2
        assert "invalid choice: 'seed-report'" in capsys.readouterr().err


def tree_bytes(root, skip=("trace.csv",)):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file() and path.name not in skip
    }


@pytest.mark.skipif(sys.platform != "linux", reason="lanes fork only where sched_getaffinity and prctl exist")
class TestLanes:
    """`run` splits its grid into one lane per usable CPU; the tests fake at
    most two CPUs, so no test starts more than one worker."""

    GRID = ("--exclude", "attack1", "--exclude", "attack2", "--seed", "3,4")

    @pytest.fixture
    def argv(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        manifest = write_manifest(tmp_path, csv_path, schema_path, tmp_path / "unused", epochs=2)
        return ("run", "--manifest", str(manifest), *self.GRID)

    @staticmethod
    def recording_pids(monkeypatch):
        """Patch `run_experiment` to note each experiment's process id in a
        file beside the run's output directory (a worker's memory does not
        come back); return a reader of the ids a run's experiments ran in."""
        real = cli.run_experiment

        def noting(manifest, raw, name, seed, out_dir):
            pids = out_dir.parent.with_name(out_dir.parent.name + ".pids")
            pids.mkdir(exist_ok=True)
            (pids / out_dir.name).write_text(str(os.getpid()))
            return real(manifest, raw, name, seed, out_dir)

        monkeypatch.setattr(cli, "run_experiment", noting)
        return lambda out: {p.read_text() for p in out.with_name(out.name + ".pids").iterdir()}

    def test_output_does_not_depend_on_the_lane_count(self, argv, tmp_path, monkeypatch, capsys):
        pids_of = self.recording_pids(monkeypatch)
        outs, printed, pids = [], [], []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"lanes{len(cpus)}"
            assert run_cli(*argv, "--out", str(out)) == 0
            outs.append(tree_bytes(out))
            printed.append(capsys.readouterr().out)
            pids.append(pids_of(out))
        assert len(pids[0]) == 1 and len(pids[1]) == 2   # the second run did fork
        assert list(outs[0]) == [
            f"exclude-attack{c}-seed-{seed}/{name}"
            for c in (1, 2) for seed in (3, 4)
            for name in sorted(("cm.csv", "cm.txt", "checkpoint.json", "metrics.json", "sweep.csv"))
        ] + ["summary.csv"]
        assert outs[0] == outs[1]
        assert printed[0] == printed[1]
        assert len(printed[0].splitlines()) == 6   # 4 experiments, 2 spread lines

    def test_each_line_reaches_a_stdout_file_once(self, argv, tmp_path, monkeypatch, capsys):
        # a worker that inherited unwritten buffered output would write it again
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = tmp_path / "stdout.txt"
        with path.open("w", encoding="utf-8") as fh:
            monkeypatch.setattr(sys, "stdout", fh)
            print("before the run")
            assert run_cli(*argv, "--out", str(tmp_path / "out")) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "before the run"
        assert len(lines) == 7 and len(set(lines)) == 7
        assert [line.split(":")[0] for line in lines[1:]] == [
            "attack1 seed 3", "attack1 seed 4", "attack1", "attack2 seed 3", "attack2 seed 4", "attack2",
        ]

    def test_a_lane_that_dies_fails_its_experiments(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()
        real = cli.run_experiment

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(cli, "run_experiment", dying)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert multiprocessing.active_children() == []
        error = "lane 1 worker ended (exit status 3) before this experiment finished"
        rows = summary_rows(out)
        assert [(r["excluded_class"], r["seed"], r["status"], r["error"]) for r in rows] == [
            ("attack1", "3", "ok", ""), ("attack1", "4", "error", error),
            ("attack2", "3", "ok", ""), ("attack2", "4", "error", error),
        ]
        printed = capsys.readouterr().out.splitlines()
        assert printed[1] == f"attack1 seed 4: failed: {error}"
        assert printed[2].startswith("attack1: 1 of 2 seeds: ")

    def test_interrupt_stops_every_lane(self, argv, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv, "--out", str(tmp_path / "out"))
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 30

    def test_a_lane_ends_with_the_run_process(self, synthetic_files, tmp_path):
        # the run process is killed outright, so no cleanup of its own runs
        csv_path, schema_path = synthetic_files
        script = f"""
import os, sys, time
from oneshot_ids import cli
os.sched_getaffinity = lambda pid: {{0, 1}}
parent = os.getpid()
def stalled(manifest, raw, name, seed, out_dir):
    if os.getpid() != parent:   # renamed into place, so never read half written
        (out_dir.parent / "worker.tmp").write_text(str(os.getpid()))
        os.replace(out_dir.parent / "worker.tmp", out_dir.parent / "worker.pid")
    time.sleep(60)
cli.run_experiment = stalled
cli.main(sys.argv[1:])
"""
        out = tmp_path / "out"
        proc = subprocess.Popen([
            sys.executable, "-c", script, "run", "--dataset", str(csv_path),
            "--schema", str(schema_path), "--out", str(out), *self.GRID,
        ], env=package_env(dict(os.environ)))
        try:
            deadline = time.monotonic() + 30
            while not (out / "worker.pid").exists() and time.monotonic() < deadline:
                assert proc.poll() is None, f"the run process ended with status {proc.returncode}"
                time.sleep(0.05)
            worker = int((out / "worker.pid").read_text())
        finally:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 10
        while running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(worker)

    def test_lane_count(self, monkeypatch):
        # nothing is started here, so a large CPU set is safe to fake
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert [cli._lane_count(n) for n in (1, 3, 8, 20)] == [1, 3, 8, 8]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._lane_count(20) == 1

    def test_one_lane_without_a_cpu_set(self, argv, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        pids_of = self.recording_pids(monkeypatch)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert pids_of(out) == {str(os.getpid())}


def running(pid: int) -> bool:
    """Whether `pid` names a live process (an unreaped zombie is not one)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    return not stat.exists() or stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"


class TestSynthCommand:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        from oneshot_ids.dataset import load_dataset, load_schema

        out = tmp_path / "synth"
        code = run_cli(
            "synth", "--out", str(out), "--classes", "3",
            "--per-class", "10", "--features", "4", "--seed", "2",
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        raw = load_dataset(printed[0], load_schema(printed[1]))
        assert len(raw) == 30
        assert raw.class_names == ("normal", "attack1", "attack2")

    @pytest.mark.parametrize(
        "flags, message",
        [(("--seed", "-1"), "seed must be at least 0, got -1"),
         (("--classes", "1"), "n_classes must be at least 2, got 1"),
         (("--per-class", "0"), "per_class must be at least 1, got 0")],
    )
    def test_bad_layout_exits_2_naming_the_argument(self, tmp_path, capsys, flags, message):
        out = tmp_path / "synth"
        assert run_cli("synth", "--out", str(out), *flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, under):
        blocking = tmp_path / "file"
        blocking.write_text("kept\n")
        out = blocking.joinpath(*under)
        assert run_cli("synth", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: out: cannot make directory {out}: {blocking} is not a directory\n"
        )
        assert blocking.read_text() == "kept\n"

    def test_flags_not_given_take_the_layout_defaults(self, tmp_path, capsys):
        assert run_cli("synth", "--out", str(tmp_path / "flags"), "--per-class", "4") == 0
        write_files(tmp_path / "direct", per_class=4)
        for name in ("synthetic.csv", "synthetic.schema"):
            assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()

    def test_end_to_end_with_run(self, tmp_path):
        out = tmp_path / "synth"
        assert run_cli("synth", "--out", str(out), "--classes", "3",
                       "--per-class", "30", "--features", "4") == 0
        assert run_cli(
            "run", "--dataset", str(out / "synthetic.csv"),
            "--schema", str(out / "synthetic.schema"), "--out", str(tmp_path / "res"),
            "--exclude", "attack1", "--epochs", "2", "--batch-size", "100",
            "--minibatch", "50", "--votes", "5", "--seed", "0",
        ) == 0
        assert (tmp_path / "res" / "summary.csv").exists()

    def test_invalid_geometry_exits_2(self, tmp_path, capsys):
        assert run_cli("synth", "--out", str(tmp_path), "--features", "1") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--per-class", "0"), "per_class"),
            (("--per-class", "-3"), "per_class"),
            (("--separation", "nan"), "separation"),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_bad_size_or_separation_exits_2_without_files(self, tmp_path, capsys, flags, name):
        out = tmp_path / "synth"
        assert run_cli("synth", "--out", str(out), *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be")
        assert not out.exists()


def build(tmp_path, synthetic_files, *flags, **overrides):
    """ExperimentManifest from a written manifest file plus `flags`."""
    csv_path, schema_path = synthetic_files
    path = write_manifest(tmp_path, csv_path, schema_path, tmp_path / "out", **overrides)
    args = cli.build_parser().parse_args(["run", "--manifest", str(path), *flags])
    return cli.build_manifest(args)


class TestManifestParsing:
    @pytest.mark.parametrize(
        "flags, read",
        [
            (("--momentum", "0"), lambda cfg: cfg.momentum),
            (("--lambda", "0"), lambda cfg: cfg.loss.l2),
        ],
        ids=["momentum", "lambda"],
    )
    def test_explicit_zero_kept(self, synthetic_files, tmp_path, flags, read):
        assert read(build(tmp_path, synthetic_files, *flags).training) == 0.0

    def test_zero_margin_rejected(self, synthetic_files, tmp_path):
        with pytest.raises(cli.ManifestError, match="margin > 0"):
            build(tmp_path, synthetic_files, "--margin", "0")

    def test_unknown_key_names_key_and_line(self, synthetic_files, tmp_path):
        # the setting is 'epochs'
        with pytest.raises(cli.ManifestError, match=r"run\.manifest:10: unknown setting 'epoch'"):
            build(tmp_path, synthetic_files, epoch=5)

    def test_repeated_key_names_key_and_both_lines(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        path = write_manifest(tmp_path, csv_path, schema_path, tmp_path / "out", epochs=5)
        path.write_text(path.read_text(encoding="utf-8") + "epochs = 7\n", encoding="utf-8")
        args = cli.build_parser().parse_args(["run", "--manifest", str(path)])
        expected = r"run\.manifest:10: setting 'epochs' repeated \(first set on line 5\)"
        with pytest.raises(cli.ManifestError, match=expected):
            cli.build_manifest(args)

    @pytest.mark.parametrize(
        "key, read",
        [
            ("fresh_batch", lambda manifest: manifest.training.fresh_batch_per_epoch),
            ("dump_batch", lambda manifest: manifest.dump_batch),
        ],
        ids=["fresh_batch", "dump_batch"],
    )
    def test_boolean_settings(self, synthetic_files, tmp_path, key, read):
        assert read(build(tmp_path, synthetic_files, **{key: "true"})) is True
        assert read(build(tmp_path, synthetic_files, **{key: "false"})) is False
        for text in ("True", "yes", "1"):
            with pytest.raises(cli.ManifestError, match=f"{key}: expected true or false"):
                build(tmp_path, synthetic_files, **{key: text})

    def test_bad_votes_value(self, synthetic_files, tmp_path, capsys):
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, votes="1;5")
        assert run_cli("run", "--manifest", str(manifest)) == 2
        # empty, non-positive or repeated j values stop the run before training
        for votes in (",", "0,5", "-1", "5,5"):
            assert run_cli("run", "--manifest", str(manifest), "--votes", votes) == 2
            assert "votes" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags, keys",
        [
            (("--lr", "nan"), "lr"),
            (("--lambda", "-1"), "lambda"),
            (("--lambda", "nan"), "lambda"),
            (("--arch", "8,-1,4"), "arch"),
            (("--activation", "softplus"), "activation"),
            (("--epochs", "0"), "epochs"),
            (("--test-batch-size", "0"), "test_batch_size"),
            (("--momentum", "1"), "momentum"),
            (("--margin", "0"), "margin"),
            (("--margin", "inf"), "margin"),
            (("--loss", "hinge"), "loss"),
            (("--minibatch", "500", "--batch-size", "200"), "minibatch, batch_size"),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_rejected_config_value_names_its_keys(self, synthetic_files, tmp_path, flags, keys):
        with pytest.raises(cli.ManifestError) as info:
            build(tmp_path, synthetic_files, *flags)
        assert str(info.value).startswith(f"{keys}: ")

    def test_unknown_reference_rejected(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        manifest = write_manifest(
            tmp_path, csv_path, schema_path, tmp_path / "out", reference="unsw"
        )
        assert run_cli("run", "--manifest", str(manifest)) == 2

    @pytest.mark.parametrize(
        "line", ["out runs/lr=0.1", "out = runs/lr=0.1", "out=runs/lr=0.1", "out\truns/lr=0.1"]
    )
    def test_key_ends_at_the_first_equals_or_blank(self, synthetic_files, tmp_path, line):
        path = manifest_without(tmp_path, synthetic_files, "out")
        path.write_text(path.read_text() + line + "\n")
        manifest = cli.build_manifest(cli.build_parser().parse_args(["run", "--manifest", str(path)]))
        assert manifest.out == Path("runs/lr=0.1")

    def test_malformed_manifest_line(self, tmp_path):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("dataset\n")
        assert run_cli("run", "--manifest", str(manifest)) == 2

    def test_byte_that_is_not_utf8_names_file_line_byte_and_column(self, tmp_path):
        # a bare "\r" ends line 1: lines end at "\n", "\r\n" or "\r"
        path = tmp_path / "run.manifest"
        path.write_bytes(b"# settings\repochs = 3\r\nout o\x96\n")
        args = cli.build_parser().parse_args(["run", "--manifest", str(path)])
        expected = r"run\.manifest: line 3: byte 0x96 at column 6 is not UTF-8"
        with pytest.raises(cli.ManifestError, match=expected):
            cli.build_manifest(args)

    def test_byte_order_mark_skipped(self, synthetic_files, tmp_path):
        csv_path, schema_path = synthetic_files
        path = write_manifest(tmp_path, csv_path, schema_path, tmp_path / "out")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        args = cli.build_parser().parse_args(["run", "--manifest", str(path)])
        assert cli.build_manifest(args).dataset == Path(csv_path)   # the file's first setting

    def test_missing_manifest_file(self, tmp_path):
        assert run_cli("run", "--manifest", str(tmp_path / "none.manifest")) == 2


class TestEarlyRejection:
    @pytest.mark.parametrize(
        "flags, line, message",
        [
            ((), {"activation": "softplus"}, r"'linear', 'relu', 'sigmoid', 'tanh'"),
            (("--arch", "8,-1,4"), {}, "positive"),
        ],
        ids=["activation-line", "arch-flag"],
    )
    def test_bad_layers_exit_2_before_loading(
        self, synthetic_files, tmp_path, capsys, monkeypatch, flags, line, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_dataset", never)
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, **line)
        assert run_cli("run", "--manifest", str(manifest), *flags) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_small_test_batch_fails_before_training(self, synthetic_files, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(cli, "run_training", never)
        csv_path, schema_path = synthetic_files
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, csv_path, schema_path, out, exclude="attack1")
        assert run_cli("run", "--manifest", str(manifest), "--test-batch-size", "3") == 1
        summary = (out / "summary.csv").read_text()
        assert "test_batch_size 3 too small for 4 classes" in summary


# One valid value per setting, each unlike the value `write_manifest` or the
# defaults give it, and one malformed value where a setting has one.
PARITY_VALUES = {
    "dataset": "copy.csv", "schema": "copy.schema", "out": "elsewhere",
    "exclude": "attack2", "votes": "1,10", "reference": "nsl-kdd", "dump_batch": "true",
    "epochs": "4", "batch_size": "300", "test_batch_size": "40", "minibatch": "32",
    "fresh_batch": "true", "arch": "8,4", "activation": "tanh", "lr": "0.05",
    "momentum": "0.5", "seed": "4", "loss": "regularized-log", "margin": "2.5",
    "lambda": "0.001",
}
MALFORMED_VALUES = {
    "dataset": "nope.csv", "schema": "nope.schema", "exclude": "attack9", "votes": "1;5",
    "reference": "unsw", "dump_batch": "yes", "epochs": "x", "batch_size": "x",
    "test_batch_size": "1.5", "minibatch": "x", "fresh_batch": "1", "arch": "8,a",
    "activation": "softplus", "lr": "fast", "momentum": "x", "seed": "x", "loss": "hinge",
    "margin": "x", "lambda": "x",
}


def copy_inputs(tmp_path, synthetic_files):
    """The inputs again as copy.csv and copy.schema, for PARITY_VALUES."""
    csv_path, schema_path = synthetic_files
    (tmp_path / "copy.csv").write_bytes(csv_path.read_bytes())
    (tmp_path / "copy.schema").write_bytes(schema_path.read_bytes())


def manifest_without(tmp_path, synthetic_files, key, **lines):
    """A manifest file holding `lines` and every base setting but `key`."""
    csv_path, schema_path = synthetic_files
    path = write_manifest(tmp_path, csv_path, schema_path, tmp_path / "out")
    kept = [ln for ln in path.read_text().splitlines() if ln.split(" = ")[0] != key]
    path = path.with_name("with.manifest" if lines else "without.manifest")
    path.write_text("\n".join(kept + [f"{k} = {v}" for k, v in lines.items()]) + "\n")
    return path


SWITCHES = ("dump_batch", "fresh_batch")   # flags that take no value and mean "true"


def as_flag(key, value):
    flag = "--" + key.replace("_", "-")
    return [flag] if key in SWITCHES else [flag, value]


class TestFlagManifestParity:
    def test_every_setting_has_values(self):
        assert set(PARITY_VALUES) == set(cli._SETTINGS)
        assert set(MALFORMED_VALUES) == set(cli._SETTINGS) - {"out"}  # any path will do
        # a config error names its fields, which must map back to one key each
        assert len({name for _, name, _, _ in cli._SETTINGS.values()}) == len(cli._SETTINGS)

    @pytest.mark.parametrize("key", sorted(PARITY_VALUES))
    def test_flag_and_line_build_the_same_manifest(
        self, synthetic_files, tmp_path, monkeypatch, key
    ):
        monkeypatch.chdir(tmp_path)
        copy_inputs(tmp_path, synthetic_files)
        value = PARITY_VALUES[key]
        path = manifest_without(tmp_path, synthetic_files, key)
        by_flag = cli.build_manifest(
            cli.build_parser().parse_args(["run", "--manifest", str(path), *as_flag(key, value)])
        )
        path = manifest_without(tmp_path, synthetic_files, key, **{key: value})
        by_line = cli.build_manifest(cli.build_parser().parse_args(["run", "--manifest", str(path)]))
        assert by_flag == by_line
        assert by_flag != build(tmp_path, synthetic_files)

    @pytest.mark.parametrize("key", sorted(MALFORMED_VALUES))
    def test_malformed_value_exits_2_naming_the_key(
        self, synthetic_files, tmp_path, capsys, monkeypatch, key
    ):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        value = MALFORMED_VALUES[key]
        routes = [["--manifest", str(manifest_without(tmp_path, synthetic_files, key, **{key: value}))]]
        if key not in SWITCHES:
            path = manifest_without(tmp_path, synthetic_files, key)
            routes.append(["--manifest", str(path), *as_flag(key, value)])
        for argv in routes:
            assert run_cli("run", *argv) == 2
            assert key in capsys.readouterr().err
            assert not out.exists()

    def test_repeated_exclude_flags_are_not_split(self, synthetic_files, tmp_path):
        manifest = build(tmp_path, synthetic_files, "--exclude", "a,b", "--exclude", "c")
        assert manifest.exclude == ["a,b", "c"]
        assert build(tmp_path, synthetic_files, exclude="a, b").exclude == ["a", "b"]


def test_readme_manifest_example(synthetic_files, tmp_path):
    csv_path, schema_path = synthetic_files
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```")[1::2] if b.lstrip().startswith("dataset"))
    text = (
        block.replace("demo/data/synthetic.csv", str(csv_path))
        .replace("demo/data/synthetic.schema", str(schema_path))
        .replace("demo/results", str(tmp_path / "results"))
    )
    path = tmp_path / "run.manifest"
    path.write_text(text, encoding="utf-8")
    manifest = cli.build_manifest(cli.build_parser().parse_args(["run", "--manifest", str(path)]))
    assert manifest.dataset == csv_path and manifest.schema == schema_path
    assert manifest.exclude == [cli.ALL_ATTACKS]
    assert manifest.votes == (1, 5, 10, 15, 20, 25, 30)
    assert (manifest.training.n_epochs, manifest.seeds) == (200, (11,))
