"""Command-line experiment runner.

Subcommands::

    oneshot-ids run    leave-one-attack-out experiments end to end
    oneshot-ids synth  write a synthetic Gaussian-cluster dataset

`run` settings come from a flat key-value manifest file and/or flags
(flags win). `run` trains one experiment per (excluded class, seed), where
`seed` is a comma-separated list. Each experiment writes cm.csv, cm.txt,
metrics.json, sweep.csv, trace.csv and checkpoint.json into its own
subdirectory, exclude-<class> with one seed and exclude-<class>-seed-<n>
with several, and a top-level summary.csv has one row per experiment.
With several seeds, a line after each class gives the mean, min and max of
its overall accuracy and new-class TPR.

The experiments run in one lane per CPU the process may use (at most one
per experiment): this process and forked workers. The artifacts, the
summary and the printed lines do not depend on the lane count, and
`taskset -c 0` gives one lane.

Exit codes: 0 all experiments succeeded, 1 partial failures, 2 invalid
manifest or arguments.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dataset import (DatasetError, SchemaError, attack_index, directive_lines, load_dataset,
                      load_schema, prepare_experiment, write_csv)
from .evaluator import (DEFAULT_VOTE_SWEEP, _checked_votes, _instances_per_class, sweep_to_csv,
                        vote_sweep)
from .network import ConfigError, LossConfig, save_model
from .trainer import TrainingConfig, run_training

# Published j=5 overall accuracies (percent) for the benchmark datasets,
# keyed by the attack class excluded from training. Shown for orientation
# only: the originating study does not publish its network architecture,
# so these numbers cannot be reproduced exactly.
REFERENCE_NOTE = "non-reproducible-spec-exact (reference architecture unpublished)"
REFERENCE_OVERALL = {
    "nsl-kdd": {"dos": 77.99, "probe": 75.31, "r2l": 80.16, "u2r": 77.04},
    "kddcup99": {"dos": 76.67, "probe": 72.23, "r2l": 74.20, "u2r": 75.72},
    "cicids2017": {
        "dos (hulk)": 80.81,
        "dos (slowloris)": 81.07,
        "ftp brute force": 82.50,
        "ssh brute force": 81.28,
    },
}
_SCHEMA_HINTS = (("nsl", "nsl-kdd"), ("kdd", "kddcup99"), ("cicids", "cicids2017"))


class ManifestError(ValueError):
    pass


ALL_ATTACKS = "all-attacks"


@dataclass
class ExperimentManifest:
    dataset: Path
    schema: Path
    out: Path
    exclude: list[str] = field(default_factory=lambda: [ALL_ATTACKS])
    votes: tuple[int, ...] = DEFAULT_VOTE_SWEEP
    # one experiment per seed, each on `training` with its seed replaced
    seeds: tuple[int, ...] = field(default_factory=lambda: (TrainingConfig.seed,))
    training: TrainingConfig = field(default_factory=TrainingConfig)
    reference: str | None = None
    dump_batch: bool = False


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds = _parse_ints(text)
    if min(seeds) < 0:
        raise ValueError(f"expected non-negative integers, got {text!r}")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"repeated seed in {text!r}; each seed writes its own directory")
    return seeds


def _existing_file(text: str) -> Path:
    path = Path(text)
    if not path.exists():
        raise ValueError(f"file {text} not found")
    if path.is_dir():
        raise ValueError(f"{text} is a directory, not a file")
    return path


def _output_dir(text: str) -> Path:
    """`text` as a path, once neither it nor a parent of it is an existing
    non-directory, so that making the directory cannot meet a file."""
    path = Path(text)
    blocking = next((p for p in (path, *path.parents) if p.exists() and not p.is_dir()), None)
    if blocking is not None:
        raise ValueError(f"cannot make directory {text}: {blocking} is not a directory")
    return path


def _parse_exclude(value: str | list[str]) -> list[str]:
    """A manifest line is comma-separated; each --exclude flag is one class."""
    if isinstance(value, str):
        value = [v.strip() for v in value.split(",") if v.strip()]
    if not value:
        raise ValueError("need at least one excluded class")
    return list(value)


def _parse_reference(text: str) -> str:
    if text not in REFERENCE_OVERALL:
        raise ValueError(f"unknown reference {text!r}; have {sorted(REFERENCE_OVERALL)}")
    return text


# Every `run` setting: manifest key -> (config, field, parser, help), where
# config names the dataclass holding the field. The flag is --<key> with "-"
# for "_" and hands its raw string to the same parser as the manifest line;
# a boolean's flag takes no value and means "true". A setting given by
# neither keeps its dataclass default.
_SETTINGS = {
    "dataset": ("manifest", "dataset", _existing_file, "dataset CSV path"),
    "schema": ("manifest", "schema", _existing_file, "schema descriptor path"),
    "out": ("manifest", "out", _output_dir, "output directory"),
    "exclude": ("manifest", "exclude", _parse_exclude,
                f"attack class to exclude (repeatable, or {ALL_ATTACKS!r})"),
    "votes": ("manifest", "votes", lambda v: _checked_votes(_parse_ints(v)),
              "comma-separated j values, e.g. 1,5,10"),
    "reference": ("manifest", "reference", _parse_reference,
                  "attach published benchmark accuracies to the summary"),
    "dump_batch": ("manifest", "dump_batch", _parse_bool,
                   "write each training pair batch to pairs.txt for audit"),
    "epochs": ("training", "n_epochs", int, "training epochs"),
    "batch_size": ("training", "train_batch_size", int, "pairs per training batch"),
    "test_batch_size": ("training", "test_batch_size", int, "instances classified per j"),
    "minibatch": ("training", "minibatch_size", int, "pairs per optimizer step"),
    "fresh_batch": ("training", "fresh_batch_per_epoch", _parse_bool,
                    "regenerate the pair batch every epoch"),
    "arch": ("training", "architecture", _parse_ints,
             "comma-separated widths: hidden layers then embedding"),
    "activation": ("training", "activation", str, "hidden-layer activation"),
    "lr": ("training", "learning_rate", float, "learning rate"),
    "momentum": ("training", "momentum", float, "momentum coefficient"),
    "seed": ("manifest", "seeds", _parse_seeds,
             "comma-separated seeds; one experiment per class and seed"),
    "loss": ("loss", "kind", lambda v: v.replace("-", "_"), "contrastive or regularized-log"),
    "margin": ("loss", "margin", float, "contrastive loss margin"),
    "lambda": ("loss", "l2", float, "L2 coefficient for regularized-log"),
}


# A manifest line: the key ends at the first "=" or blank, and one "="
# between key and value is dropped, so a value may hold "=" in either form
_MANIFEST_LINE = re.compile(r"([^=\s]*)\s*=?\s*(.*)")


def _parse_manifest_file(text: str) -> dict[str, str]:
    path = _parsed("manifest", _existing_file, text)
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in directive_lines(path, ManifestError):
        key, value = _MANIFEST_LINE.match(line).groups()
        key = key.replace("-", "_")
        if not key or not value:
            raise ManifestError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key not in _SETTINGS:
            raise ManifestError(f"{path}:{lineno}: unknown setting {key!r}")
        if key in first_line:
            raise ManifestError(
                f"{path}:{lineno}: setting {key!r} repeated (first set on line {first_line[key]})"
            )
        values[key] = value
        first_line[key] = lineno
    return values


def _parsed(key: str, parse, value):
    try:
        return parse(value)
    except ValueError as exc:
        raise ManifestError(f"{key}: {exc}") from None


def build_manifest(args: argparse.Namespace) -> ExperimentManifest:
    """Merge manifest file values and CLI flags (flags override); each value
    goes through its setting's parser, and an error names the key."""
    values = _parse_manifest_file(args.manifest) if args.manifest else {}
    configs: dict[str, dict] = {"manifest": {}, "training": {}, "loss": {}}
    for key, (config, name, parse, _) in _SETTINGS.items():
        value = getattr(args, key)
        if value is None:
            value = values.get(key)
        if value is not None:
            configs[config][name] = _parsed(key, parse, value)

    fields = configs["manifest"]
    for key in ("dataset", "schema", "out"):
        if key not in fields:
            raise ManifestError(f"missing required setting {key!r}")
    try:
        training = TrainingConfig(loss=LossConfig(**configs["loss"]), **configs["training"])
    except ConfigError as exc:   # no field name is in two configs, so the map is one-to-one
        keys = {name: key for key, (_, name, _, _) in _SETTINGS.items()}
        raise ManifestError(f"{', '.join(keys[f] for f in exc.fields)}: {exc}") from None
    if "reference" not in fields:   # the first hint in the schema's file name, if any
        stem = fields["schema"].stem.lower()
        fields["reference"] = next((ref for hint, ref in _SCHEMA_HINTS if hint in stem), None)
    return ExperimentManifest(training=training, **fields)


def _reference_overall(reference: str | None, class_name: str) -> float | None:
    if reference is None:
        return None
    table = {_reference_key(key): value for key, value in REFERENCE_OVERALL[reference].items()}
    return table.get(_reference_key(class_name))


def _reference_key(name: str) -> str:
    """`name` in lower case, each run of other than letters and digits one
    space: "DoS Hulk" and "dos (hulk)" are one class, "DoS" and "u" none."""
    return re.sub(r"[\W_]+", " ", name.lower()).strip()


def _slug(name: str) -> str:
    return "exclude-" + "".join(ch if ch.isalnum() else "-" for ch in name.lower()).strip("-")


def _report_j(votes: tuple[int, ...]) -> int:
    return 5 if 5 in votes else votes[0]


def _resolve_excluded(manifest: ExperimentManifest, raw) -> list[str]:
    """The classes to withhold, each with its own output directory."""
    names = manifest.exclude
    if names == [ALL_ATTACKS]:
        names = list(raw.class_names[1:])
        if not names:
            raise ManifestError(f"exclude: {ALL_ATTACKS} finds no attack class among the "
                                f"dataset's classes {list(raw.class_names)}")
    for name in names:
        _parsed("exclude", lambda n: attack_index(raw.class_names, n), name)
    slugs = [_slug(name) for name in names]
    for k, slug in enumerate(slugs):
        if slug in slugs[:k]:
            first = names[slugs.index(slug)]
            raise ManifestError(
                f"exclude: classes {first!r} and {names[k]!r} would both write {manifest.out / slug}"
            )
    return names


def run_experiment(
    manifest: ExperimentManifest, raw, excluded_name: str, seed: int, out_dir: Path
) -> dict:
    """One leave-one-attack-out experiment; returns its summary row.

    Its three stages are called through this module's globals so that a
    wrapper set on `cli.<stage>` (as the benchmark tracer does) sees them.
    """
    cfg = replace(manifest.training, seed=seed)
    on_epoch = None
    if manifest.dump_batch:   # epoch 0's batch starts pairs.txt, a later fresh one appends
        out_dir.mkdir(parents=True, exist_ok=True)
        on_epoch = lambda e, _m, _l, b: b and b.dump(out_dir / "pairs.txt", append=e > 0)  # noqa: E731
    split = prepare_experiment(raw, excluded_name, seed)
    _instances_per_class(split, cfg.test_batch_size)   # fail before training, not after
    model, trace = run_training(split, cfg, on_epoch)
    rows = vote_sweep(model, split, cfg.test_batch_size, manifest.votes, seed=seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    report_j = _report_j(manifest.votes)
    designated = next(r for r in rows if r.report.votes == report_j)
    designated.cm.to_csv(out_dir / "cm.csv")
    (out_dir / "cm.txt").write_text(designated.cm.to_text(), encoding="utf-8")
    designated.report.to_json(out_dir / "metrics.json")
    sweep_to_csv(rows, out_dir / "sweep.csv")
    trace.to_csv(out_dir / "trace.csv")
    save_model(model, out_dir / "checkpoint.json")
    return {
        "excluded_class": excluded_name,
        "status": "ok",
        "votes": report_j,
        "overall_accuracy": designated.report.overall_accuracy,
        "new_class_tpr": designated.report.new_class_tpr,
        "error": "",
    }


def cmd_run(args: argparse.Namespace) -> int:
    try:
        manifest = build_manifest(args)
        schema = load_schema(manifest.schema)
        raw = load_dataset(manifest.dataset, schema)
        excluded_names = _resolve_excluded(manifest, raw)
    except (ManifestError, SchemaError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    manifest.out.mkdir(parents=True, exist_ok=True)
    grid = [(name, seed) for name in excluded_names for seed in manifest.seeds]
    summary_rows = _run_grid(manifest, raw, grid)
    _write_summary(manifest.out / "summary.csv", summary_rows)
    failures = sum(1 for r in summary_rows if r["status"] != "ok")
    return 1 if failures else 0


def _lane_count(experiments: int) -> int:
    """One lane per CPU this process may run on, at most one per experiment."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else max(1, min(experiments, len(affinity(0))))


def _run_grid(manifest: ExperimentManifest, raw, grid: list[tuple[str, int]]) -> list[dict]:
    """Run every (class, seed) experiment of `grid`; return their summary rows
    in grid order.

    With k lanes, this process runs grid[0::k] and forked workers run
    grid[1::k] ... grid[k-1::k], sharing `raw` copy-on-write and sending
    back one row per experiment. Each experiment writes only its own
    directory, so the artifacts do not depend on k. A summary line is
    printed once its row and every earlier one are in.
    """
    several = len(manifest.seeds) > 1

    def row_of(i: int, error: str | None = None) -> dict:
        """Run experiment i for its row, or, given `error`, the row of it failed unrun."""
        name, seed = grid[i]
        if error is None:
            out_dir = manifest.out / (f"{_slug(name)}-seed-{seed}" if several else _slug(name))
            try:
                row = run_experiment(manifest, raw, name, seed, out_dir)
            except Exception as exc:  # keep going with the remaining experiments
                error = str(exc)
        if error is not None:
            row = {
                "excluded_class": name,
                "status": "error",
                "votes": _report_j(manifest.votes),
                "overall_accuracy": "",
                "new_class_tpr": "",
                "error": error,
            }
        row["reference_overall"] = _reference_overall(manifest.reference, name)
        row["reference_note"] = REFERENCE_NOTE if row["reference_overall"] is not None else ""
        row["seed"] = seed
        return row

    rows: list[dict | None] = [None] * len(grid)
    printed = 0

    def print_ready() -> None:
        nonlocal printed
        while printed < len(grid) and rows[printed] is not None:
            name, seed = grid[printed]
            _print_summary_row(rows[printed], f"{name} seed {seed}" if several else name)
            printed += 1
            if several and printed % len(manifest.seeds) == 0:
                _print_spread(name, rows[printed - len(manifest.seeds):printed])

    lanes = _lane_count(len(grid))
    workers = _fork_lanes(lanes, len(grid), row_of) if lanes > 1 else {}
    try:
        for i in range(0, len(grid), lanes):
            rows[i] = row_of(i)
            _receive(workers, rows, lanes, row_of, block=False)
            print_ready()
        while workers:
            _receive(workers, rows, lanes, row_of, block=True)
            print_ready()
    finally:
        for reader, (worker, _) in workers.items():   # left only when the run is cut short
            worker.terminate()
            worker.join()
            reader.close()
    return rows


def _fork_lanes(lanes: int, experiments: int, row_of) -> dict:
    """Fork lanes 1 ... lanes-1; map each one's pipe to (process, lane)."""
    import multiprocessing   # only a run of several lanes needs it

    # a fork context's start() flushes stdout and stderr first, so no
    # worker writes out a copy of output the parent has buffered
    context = multiprocessing.get_context("fork")
    workers = {}
    for lane in range(1, lanes):
        reader, writer = context.Pipe(duplex=False)
        worker = context.Process(
            target=_lane_main, args=(writer, os.getpid(), row_of, range(lane, experiments, lanes))
        )
        worker.start()
        writer.close()   # so the pipe reads as ended once the worker has gone
        workers[reader] = (worker, lane)
    return workers


_PR_SET_PDEATHSIG = 1


def _lane_main(writer, parent: int, row_of, indices: range) -> None:
    """A forked lane: send (index, row) for each experiment in `indices`."""
    import ctypes

    # the kernel kills this worker when the run process ends, however it ends
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:   # it ended before the prctl took effect
        os._exit(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # on Ctrl-C the run process stops the lanes
    for i in indices:
        writer.send((i, row_of(i)))
    writer.close()


def _receive(workers: dict, rows: list, lanes: int, row_of, block: bool) -> None:
    """Take in every row the lanes have sent (waiting for one if `block`).
    A lane that has ended is joined, and each experiment it did not finish
    gets an error row naming how it ended."""
    if not workers:   # one lane: nothing to wait for, and no import
        return
    from multiprocessing.connection import wait

    timeout = None if block else 0
    while ready := wait(list(workers), timeout):
        timeout = 0
        for reader in ready:
            try:
                i, row = reader.recv()
            except EOFError:
                worker, lane = workers.pop(reader)
                reader.close()
                worker.join()
                code = worker.exitcode
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                for i in range(lane, len(rows), lanes):
                    if rows[i] is None:
                        rows[i] = row_of(i, f"lane {lane} worker ended ({how}) "
                                            "before this experiment finished")
            else:
                rows[i] = row


def _print_summary_row(row: dict, label: str) -> None:
    if row["status"] != "ok":
        print(f"{label}: failed: {row['error']}")
        return
    line = (
        f"{label}: overall accuracy {100.0 * row['overall_accuracy']:.2f}% "
        f"(new-class TPR {100.0 * row['new_class_tpr']:.2f}%, j={row['votes']})"
    )
    if row.get("reference_overall") is not None:
        line += f" | published {row['reference_overall']:.2f}% [{REFERENCE_NOTE}]"
    print(line)


def _print_spread(name: str, rows: list[dict]) -> None:
    """Mean, min and max over the seeds of one class that succeeded."""
    ok = [row for row in rows if row["status"] == "ok"]
    if not ok:
        return
    parts = []
    for key, title in (("overall_accuracy", "overall accuracy"), ("new_class_tpr", "new-class TPR")):
        values = [row[key] for row in ok]
        parts.append(
            f"{title} mean {100.0 * sum(values) / len(values):.2f}% "
            f"min {100.0 * min(values):.2f}% max {100.0 * max(values):.2f}%"
        )
    print(f"{name}: {len(ok)} of {len(rows)} seeds: " + "; ".join(parts))


def _write_summary(path: Path, rows: list[dict]) -> None:
    columns = (
        "excluded_class", "status", "votes", "overall_accuracy",
        "new_class_tpr", "reference_overall", "reference_note", "error", "seed",
    )
    write_csv(path, [columns, *([row[column] for column in columns] for row in rows)])


def cmd_synth(args: argparse.Namespace) -> int:
    from .synthetic import write_files

    # a flag not given is not in `args`, so `gaussian_clusters` supplies its value
    layout = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    try:
        csv_path, schema_path = write_files(_parsed("out", _output_dir, args.out), **layout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(csv_path)
    print(schema_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneshot-ids",
        description="Leave-one-attack-out twin-network experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="train and evaluate every configured experiment")
    p_run.add_argument("--manifest", help="key-value manifest file; flags override it")
    for key, (_, _, parse, help_text) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _parse_bool:
            p_run.add_argument(flag, dest=key, action="store_const", const="true", help=help_text)
        else:
            action = "append" if key == "exclude" else "store"
            p_run.add_argument(flag, dest=key, action=action, help=help_text)
    p_run.set_defaults(func=cmd_run)

    p_synth = subs.add_parser(
        "synth", help="write a synthetic Gaussian-cluster dataset", argument_default=argparse.SUPPRESS
    )
    p_synth.add_argument("--out", required=True, help="directory for synthetic.csv + synthetic.schema")
    p_synth.add_argument("--classes", type=int, dest="n_classes")
    p_synth.add_argument("--per-class", type=int, dest="per_class")
    p_synth.add_argument("--features", type=int, dest="n_features")
    p_synth.add_argument("--separation", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
