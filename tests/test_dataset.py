from __future__ import annotations

import csv
import warnings
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneshot_ids import dataset
from oneshot_ids.dataset import (
    CATEGORICAL,
    IGNORE,
    LABEL,
    NUMERIC,
    Column,
    DatasetError,
    RawDataset,
    Schema,
    SchemaError,
    attack_index,
    bundled_schema_path,
    encode,
    fit_encoder,
    load_dataset,
    load_schema,
    prepare_experiment,
)
from oneshot_ids.synthetic import make_raw


def two_feature_schema(normal="normal"):
    return Schema(
        (Column("x", NUMERIC), Column("y", NUMERIC), Column("label", LABEL)),
        normal_label=normal,
    )


def row_classes(raw):
    """Each row's class name, read back from the inventory and the codes."""
    return np.array(raw.class_names)[raw.codes]


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_three_row_fixture(self, tmp_path):
        path = write_csv(tmp_path, "1.0,2.0,normal\n3.0,4.0,attack\n5.0,6.0,normal\n")
        raw = load_dataset(path, two_feature_schema())
        assert len(raw) == 3
        assert raw.class_names == ("normal", "attack")
        assert [values[1] for values in raw.columns] == [3.0, 4.0]
        assert raw.codes.tolist() == [0, 1, 0]

    def test_empty_file_errors(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(DatasetError, match="no records"):
            load_dataset(path, two_feature_schema())

    def test_header_only_file_errors(self, tmp_path):
        path = write_csv(tmp_path, "x,y,label\n")
        with pytest.raises(DatasetError, match="no records"):
            load_dataset(path, two_feature_schema())

    def test_header_line_skipped(self, tmp_path):
        path = write_csv(tmp_path, "x,y,label\n1.0,2.0,normal\n3,4,attack\n")
        raw = load_dataset(path, two_feature_schema())
        assert len(raw) == 2

    def test_header_of_column_names_skipped_without_numeric_column(self, tmp_path):
        schema = Schema((Column("proto", CATEGORICAL), Column("label", LABEL)), normal_label="normal")
        path = write_csv(tmp_path, " proto , label\ntcp,normal\nproto,label\n")
        raw = load_dataset(path, schema)
        assert row_classes(raw).tolist() == ["normal", "label"]  # only line 1 can be a header
        assert raw.columns[0].tolist() == ["tcp", "proto"]

    def test_byte_order_mark_skipped_before_a_headerless_first_row(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one
        path = write_csv(tmp_path, "\ufeff1.0,2.0,normal\n3.0,4.0,attack\n")
        raw = load_dataset(path, two_feature_schema())
        assert row_classes(raw).tolist() == ["normal", "attack"]
        assert raw.columns[0].tolist() == [1.0, 3.0]

    def test_byte_order_mark_skipped_before_a_header_without_numeric_column(self, tmp_path):
        schema = Schema((Column("proto", CATEGORICAL), Column("label", LABEL)), normal_label="normal")
        path = write_csv(tmp_path, "\ufeffproto,label\ntcp,normal\n")
        raw = load_dataset(path, schema)
        assert row_classes(raw).tolist() == ["normal"]
        assert raw.columns[0].tolist() == ["tcp"]

    def test_wrong_arity_names_row(self, tmp_path):
        path = write_csv(tmp_path, "1.0,2.0,normal\n3.0,attack\n")
        with pytest.raises(DatasetError, match="row 2.*expected 3 fields, got 2"):
            load_dataset(path, two_feature_schema())

    def test_unparsable_numeric_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "1.0,2.0,normal\n3.0,oops,attack\n")
        with pytest.raises(DatasetError, match="row 2.*'y'.*'oops'"):
            load_dataset(path, two_feature_schema())

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "nan"])
    def test_non_finite_cell_names_file_row_column_and_value(self, tmp_path, cell):
        path = write_csv(tmp_path, f"1.0,2.0,normal\n3.0,{cell},attack\n")
        expected = rf"data\.csv: row 2: column 'y': '{cell}' is not a finite number"
        with pytest.raises(DatasetError, match=expected):
            load_dataset(path, two_feature_schema())

    @pytest.mark.parametrize("block_rows", [1, 4096])
    def test_byte_that_is_not_utf8_names_file_line_and_byte(
        self, tmp_path, monkeypatch, block_rows
    ):
        # CICIDS2017's labels hold the cp1252 dash 0x96, which is not UTF-8
        path = tmp_path / "data.csv"
        path.write_bytes(
            b"1.0,2.0,normal\n3.0,4.0,normal\n5.0,6.0,Web Attack \x96 Brute Force\n7.0,8.0,normal\n"
        )
        monkeypatch.setattr(dataset, "_LOAD_BLOCK_ROWS", block_rows)
        expected = r"data\.csv: line 3: byte 0x96 at column 20 is not UTF-8"
        with pytest.raises(DatasetError, match=expected):
            load_dataset(path, two_feature_schema())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nope.csv", two_feature_schema())

    def test_unknown_label_accepted(self, tmp_path):
        schema = Schema(
            (Column("x", NUMERIC), Column("label", LABEL)),
            normal_label="normal",
            label_map={"n": "normal"},
        )
        path = write_csv(tmp_path, "1,n\n2,weird\n3,n\n")
        raw = load_dataset(path, schema)
        assert raw.class_names == ("normal", "weird")

    def test_label_mapping_counts(self, tmp_path):
        schema = Schema(
            (Column("x", NUMERIC), Column("label", LABEL)),
            normal_label="Normal",
            label_map={"normal.": "Normal", "smurf.": "DoS", "neptune.": "DoS"},
        )
        path = write_csv(tmp_path, "1,normal.\n2,smurf.\n3,neptune.\n4,smurf.\n")
        raw = load_dataset(path, schema)
        assert raw.class_names == ("Normal", "DoS")
        assert raw.codes.tolist() == [0, 1, 1, 1]

    def test_row_order_preserved(self, tmp_path):
        path = write_csv(tmp_path, "\n".join(f"{i},0,normal" for i in range(20)) + "\n")
        raw = load_dataset(path, two_feature_schema())
        assert raw.columns[0].tolist() == [float(i) for i in range(20)]

    @pytest.mark.parametrize("block_rows", [1, 3])
    @pytest.mark.parametrize("numeric", [True, False], ids=["mixed", "no-numeric"])
    def test_block_boundaries_change_nothing(self, tmp_path, monkeypatch, block_rows, numeric):
        # category widths grow across blocks, so the blocks' str dtypes
        # differ and must widen when joined
        columns = [Column("proto", CATEGORICAL), Column("label", LABEL)]
        if numeric:
            columns = [Column("x", NUMERIC), *columns, Column("y", NUMERIC)]
        schema = Schema(tuple(columns), normal_label="normal")
        lines = []
        for i in range(10):
            cells = {"proto": "p" * (1 + i), "label": "normal" if i % 2 else "attack" + "k" * i}
            lines.append(",".join(cells.get(c.name, f"{i}.5") for c in columns))
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        whole = load_dataset(path, schema)
        monkeypatch.setattr(dataset, "_LOAD_BLOCK_ROWS", block_rows)
        blocked = load_dataset(path, schema)
        assert len(blocked.columns) == len(whole.columns)
        for got, expected in zip((*blocked.columns, blocked.codes), (*whole.columns, whole.codes)):
            assert got.dtype == expected.dtype and got.flags.c_contiguous
            assert np.array_equal(got, expected)
        assert blocked.class_names == whole.class_names
        if numeric:
            path.write_text(path.read_text().replace("8.5", "oops"), encoding="utf-8")
            with pytest.raises(DatasetError, match="row 9: column 'x': 'oops'"):
                load_dataset(path, schema)


def read_both_ways(path, schema, block_rows=3):
    """`load_dataset`'s result, or its `DatasetError` message, read with the C
    reader in blocks of `block_rows` lines, then by the row path alone."""
    outcomes = []
    for c_block, rows in ((dataset._c_block, block_rows), (lambda lines, schema: None, 10**9)):
        with mock.patch.object(dataset, "_c_block", c_block), \
                mock.patch.object(dataset, "_LOAD_BLOCK_ROWS", rows):
            try:
                outcomes.append(load_dataset(path, schema))
            except DatasetError as exc:
                outcomes.append(str(exc))
    return outcomes


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got.columns) == len(want.columns)
    for a, b in zip((*got.columns, got.codes), (*want.columns, want.codes)):
        assert a.dtype == b.dtype and a.flags.c_contiguous and b.flags.c_contiguous
        assert np.array_equal(a, b)
    assert got.class_names == want.class_names


MIXED = Schema(
    (Column("x", NUMERIC), Column("proto", CATEGORICAL), Column("skip", IGNORE),
     Column("label", LABEL), Column("y", NUMERIC)),
    normal_label="normal",
)
CLEAN_ROWS = [f"{i}.5,p{i % 3},z,{'normal' if i % 2 else 'attack'},{-i}" for i in range(8)]


def mixed_file(*, line=None, at=4, end="\n", last_end="\n", header=None):
    """CLEAN_ROWS in a MIXED file, row `at` (0-based) replaced by `line`."""
    rows = list(CLEAN_ROWS)
    if line is not None:
        rows[at] = line
    if header is not None:
        rows.insert(0, header)
    return end.join(rows) + last_end


class TestReaderPaths:
    """The C reader against the row path, the reference: both give the same
    dataset or both raise the same error."""

    @pytest.mark.parametrize("text", [
        mixed_file(),
        mixed_file(end="\r\n", last_end="\r\n"),
        mixed_file(last_end=""),
        mixed_file(line="", at=5),
        mixed_file(line="   ", at=5),
        mixed_file(line=" 4.5 , p1 ,z, normal , -4 "),
        mixed_file(line='4.5,"p1",z,"normal",-4'),
        mixed_file(line='4.5,"p,1",z,normal,-4'),
        mixed_file(line='4.5,p"1,z,normal,-4'),
        mixed_file(line="1_000,p1,z,normal,-4"),
        mixed_file(line="4.5,#p1,z,#normal,-4"),
        mixed_file(line="4.5,p1\x1c,z,normal\x1d,-4"),
        mixed_file(header="x,proto,skip,label,y"),
        mixed_file(header=" x , proto ,skip,label,y"),
        mixed_file(header="a,b,c,d,e"),
        mixed_file(header="1,b,c,normal,2"),
        mixed_file(line="x,proto,skip,label,y", at=0),
    ])
    def test_same_dataset(self, tmp_path, text):
        got, want = read_both_ways(write_csv(tmp_path, text), MIXED)
        assert not isinstance(want, str), want
        assert_same_outcome(got, want)

    @pytest.mark.parametrize(
        "cell", ["inf", "-inf", "nan", "1e400", "Infinity", "oops", "", "\x1c4", "4 4"]
    )
    def test_same_error_naming_the_line_in_a_later_block(self, tmp_path, cell):
        # row 5 is the second line of the second 3-line block after line 1
        path = write_csv(tmp_path, mixed_file(line=f"4.5,p1,z,normal,{cell}"))
        got, want = read_both_ways(path, MIXED)
        assert want == f"{path}: row 5: column 'y': {cell!r} is not a finite number"
        assert got == want

    @pytest.mark.parametrize("label", ["", "  "])
    @pytest.mark.parametrize("at", [0, 4], ids=["line-1", "later-block"])
    def test_same_error_for_an_empty_label_naming_its_row(self, tmp_path, label, at):
        path = write_csv(tmp_path, mixed_file(line=f"4.5,p1,z,{label},-4", at=at))
        got, want = read_both_ways(path, MIXED)
        assert want == f"{path}: row {at + 1}: column 'label': empty label"
        assert got == want

    @pytest.mark.parametrize("line, fields", [
        ("4.5,p1,normal", 3),
        ("4.5,p1,normal,z,w", 5),
        ('4.5,"p,1",normal', 3),
        ("", None),
        ("   ", None),
    ])
    def test_same_error_for_a_row_without_one_field_per_column(self, tmp_path, line, fields):
        # the unread column comes last, so the C reader would take a short
        # row that lacks only it
        schema = Schema(
            (Column("x", NUMERIC), Column("proto", CATEGORICAL), Column("label", LABEL),
             Column("skip", IGNORE)),
            normal_label="normal",
        )
        rows = [f"{i}.5,p{i},{'normal' if i % 2 else 'attack'},z" for i in range(8)]
        rows[4] = line
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        got, want = read_both_ways(path, schema)
        assert_same_outcome(got, want)
        if fields is not None:
            assert want == f"{path}: row 5: expected 4 fields, got {fields}"
        else:
            assert len(want) == 7

    def test_field_over_the_csv_limit_names_its_row(self, tmp_path):
        # the quote on row 6 sends the block of rows 5-7 to the row path
        rows = list(CLEAN_ROWS)
        rows[4] = f"4.5,{'p' * (csv.field_size_limit() + 1)},z,normal,-4"
        rows[5] = '5.5,"p2",z,attack,-5'
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        got, want = read_both_ways(path, MIXED)
        assert want == (
            f"{path}: row 5: field larger than field limit ({csv.field_size_limit()})"
        )
        assert got == want

    @pytest.mark.parametrize("limit", [None, 40], ids=["default-limit", "lowered-limit"])
    def test_field_over_the_csv_limit_names_its_row_in_a_block_without_a_quote(
        self, tmp_path, limit
    ):
        # the C reader would read rows 5-7 if it ignored the limit
        default = csv.field_size_limit()
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            limit = csv.field_size_limit()
            path = write_csv(tmp_path, mixed_file(line=f"4.5,{'p' * (limit + 1)},z,normal,-4"))
            got, want = read_both_ways(path, MIXED)
        finally:
            csv.field_size_limit(default)
        assert want == f"{path}: row 5: field larger than field limit ({limit})"
        assert got == want

    def test_no_numeric_column_and_label_map(self, tmp_path):
        schema = Schema(
            (Column("proto", CATEGORICAL), Column("label", LABEL)),
            normal_label="normal",
            label_map={"n": "normal", "smurf.": "dos", "neptune.": "dos"},
        )
        text = "proto,label\n" + "".join(
            f"p{i % 4},{('n', 'smurf.', 'neptune.', 'other')[i % 4]}\n" for i in range(11)
        )
        got, want = read_both_ways(write_csv(tmp_path, text), schema)
        assert_same_outcome(got, want)
        assert got.class_names == ("normal", "dos", "other")

    def test_one_column_schema(self, tmp_path):
        # a label alone is no schema; the smallest one, a feature and a label,
        # has a comma on every record line to tell a blank line by
        with pytest.raises(SchemaError, match="no numeric or categorical column"):
            Schema((Column("label", LABEL),), normal_label="normal")
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="normal")
        path = write_csv(tmp_path, "x,label\n1,normal\n  \n2,attack\n\n3,normal\n")
        got, want = read_both_ways(path, schema)
        assert_same_outcome(got, want)
        assert row_classes(got).tolist() == ["normal", "attack", "normal"]

    def test_quoted_line_break_carries_a_record_into_the_next_block(self, tmp_path):
        # the record starts on line 4, the last of the block of lines 2-4
        text = mixed_file(line='4.5,"p\n1",z,normal,-4', at=3)
        got, want = read_both_ways(write_csv(tmp_path, text), MIXED)
        assert_same_outcome(got, want)
        assert got.columns[1][3] == "p\n1" and len(got) == 8
        # rows are csv records: the record on lines 4-5 is row 4, so line 7 is row 6
        text = text.replace("5.5", "oops")
        got, want = read_both_ways(write_csv(tmp_path, text), MIXED)
        assert got == want and "row 6: column 'x': 'oops'" in want

    def test_clean_blocks_skip_the_row_path(self, tmp_path, monkeypatch):
        read = []
        row_block = dataset._row_block

        def recording(path, schema, reader, n_lines, lineno):
            read.append((n_lines, lineno))
            return row_block(path, schema, reader, n_lines, lineno)

        monkeypatch.setattr(dataset, "_row_block", recording)
        monkeypatch.setattr(dataset, "_LOAD_BLOCK_ROWS", 3)
        path = write_csv(tmp_path, mixed_file(line="4.5,p1,z,normal,1_000", at=4))
        assert load_dataset(path, MIXED).columns[2][4] == 1000.0
        assert read == [(1, 0), (3, 4)]   # line 1, then the block holding row 5

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_generated_files(self, tmp_path_factory, data):
        # a schema holds a feature column and the label column, anywhere
        kinds = data.draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL, IGNORE]), max_size=3))
        feature = data.draw(st.sampled_from([NUMERIC, CATEGORICAL]))
        kinds.insert(data.draw(st.integers(0, len(kinds))), feature)
        kinds.insert(data.draw(st.integers(0, len(kinds))), LABEL)
        label_map = data.draw(st.sampled_from([{}, {"n": "normal", "x": "attack"}]))
        schema = Schema(
            tuple(Column(f"c{i}", kind) for i, kind in enumerate(kinds)),
            normal_label="normal", label_map=label_map,
        )
        cells = {
            NUMERIC: ["0", "1.5", "-2", "1e3", " 7 ", ".25", "3", "12"] * 3
            + ["1_000", "inf", "nan", "1e400", "x", "", '"4"', "\x1c5"],
            CATEGORICAL: ["tcp", " udp ", "icmp", "#c", "a b"] * 3 + ['"q"', '"a,b"', 'a"b', "", "\x1d"],
            IGNORE: ["z", "0", '"i,j"', ""],
            LABEL: ["normal", "attack", " normal ", "n", "x", "#y"] * 3 + ['"normal"', "", "\x1e"],
        }
        lines = []
        if data.draw(st.booleans()):
            lines.append(",".join(f" {c.name}" for c in schema.columns))
        for _ in range(data.draw(st.integers(0, 10))):
            row = [data.draw(st.sampled_from(cells[kind])) for kind in kinds]
            lines.append(",".join(row) + data.draw(st.sampled_from([""] * 12 + [",x"])))
        for _ in range(data.draw(st.integers(0, 2))):
            odd = data.draw(st.sampled_from(["", "  ", ",", "normal", "1,normal"]))
            lines.insert(data.draw(st.integers(0, len(lines))), odd)
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = end.join(lines) + data.draw(st.sampled_from([end, ""]))
        path = tmp_path_factory.mktemp("generated") / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got, want = read_both_ways(path, schema, block_rows=data.draw(st.integers(1, 4)))
        assert_same_outcome(got, want)


class TestSchema:
    def test_requires_exactly_one_label(self):
        with pytest.raises(SchemaError, match="exactly one label"):
            Schema((Column("x", NUMERIC),), normal_label="normal")
        with pytest.raises(SchemaError, match="exactly one label"):
            Schema((Column("a", LABEL), Column("b", LABEL)), normal_label="normal")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("column x numeric\nnormal normal\n", "must declare exactly one label column, found 0"),
            ("column label label\nnormal normal\n", "declares no numeric or categorical column"),
            ("column x ignore\ncolumn label label\n", "declares no numeric or categorical column"),
            ("column x numeric\ncolumn label label\n",
             "does not designate the benign class (missing 'normal' directive)"),
        ],
        ids=["no-label", "label-only", "ignored-only", "no-normal"],
    )
    def test_schema_level_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "s.schema"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            load_schema(path)
        assert str(info.value) == f"{path}: schema {message}"

    def test_parse_directives(self, tmp_path):
        path = tmp_path / "s.schema"
        path.write_text(
            "# comment\n"
            "column size numeric\n"
            "column proto categorical tcp|udp\n"
            "column label label\n"
            "normal benign\n"
            "map dos_hulk dos\n",
            encoding="utf-8",
        )
        schema = load_schema(path)
        assert schema.normal_label == "benign"
        assert schema.columns[1].values == ("tcp", "udp")
        assert schema.map_label("dos_hulk") == "dos"
        assert schema.map_label("other") == "other"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("column x numeric a|b\n", ":1: column 'x': only categorical columns take values"),
            ("column x\n", ":1: expected 'column <name> <kind> [values]'"),
            ("column x categorical a b\n", ":1: expected 'column <name> <kind> [values]'"),
            ("normal normal\n", ": schema must declare exactly one label column, found 0"),
            ("normal a\nnormal b\n", ":2: 'normal' repeated (first set on line 1)"),
            ("map x a\nnormal a\nmap x b\n", ":3: 'map x' repeated (first set on line 1)"),
        ],
        ids=["values-on-numeric", "two-fields", "five-fields", "normal-only", "normal-repeated",
             "map-repeated"],
    )
    def test_directive_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "s.schema"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            load_schema(path)
        assert str(info.value) == f"{path}{message}"

    def test_parse_rejects_junk(self, tmp_path):
        path = tmp_path / "s.schema"
        path.write_text("column x numeric\nwhatever\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="unrecognised directive"):
            load_schema(path)

    @pytest.mark.parametrize(
        "values, problem",
        [("tcp|udp|tcp", "duplicated category value 'tcp'"), ("tcp||udp", "empty category value")],
        ids=["duplicated", "empty"],
    )
    def test_category_values_distinct_and_nonempty(self, tmp_path, values, problem):
        path = tmp_path / "s.schema"
        path.write_text(
            f"column size numeric\ncolumn proto categorical {values}\ncolumn label label\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=rf"s\.schema:2: column 'proto': {problem}"):
            load_schema(path)

    def test_byte_that_is_not_utf8_names_file_line_byte_and_column(self, tmp_path):
        # a bare "\r" ends line 1: lines end at "\n", "\r\n" or "\r"
        path = tmp_path / "s.schema"
        path.write_bytes(b"column x numeric\rcolumn label label\r\nmap Web\x96 a\n")
        expected = r"s\.schema: line 3: byte 0x96 at column 8 is not UTF-8"
        with pytest.raises(SchemaError, match=expected):
            load_schema(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "s.schema"
        path.write_bytes(b"\xef\xbb\xbfcolumn x numeric\ncolumn label label\nnormal normal\n")
        assert [c.name for c in load_schema(path).columns] == ["x", "label"]

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            Column("x", "float")

    @pytest.mark.parametrize(
        "name,n_columns,n_categorical",
        [("kddcup99", 42, 3), ("nslkdd", 43, 3), ("cicids2017", 32, 0)],
    )
    def test_bundled_schemas_parse(self, name, n_columns, n_categorical):
        schema = load_schema(bundled_schema_path(name))
        assert len(schema.columns) == n_columns
        assert sum(1 for c in schema.columns if c.kind == CATEGORICAL) == n_categorical
        assert schema.normal_label == "Normal"

    def test_bundled_kdd_maps_cover_attack_families(self):
        schema = load_schema(bundled_schema_path("kddcup99"))
        assert schema.map_label("smurf.") == "DoS"
        assert schema.map_label("satan.") == "Probe"
        assert schema.map_label("warezclient.") == "R2L"
        assert schema.map_label("rootkit.") == "U2R"
        assert sorted(set(schema.label_map.values())) == ["DoS", "Normal", "Probe", "R2L", "U2R"]

    def test_unknown_bundled_schema(self):
        with pytest.raises(SchemaError, match="no bundled schema"):
            bundled_schema_path("unsw")


class TestWriteCsv:
    def test_cells_with_a_comma_quote_or_line_break_read_back(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [["plain", "a,b", 'say "hi"', "cr\rbreak", "lf\nbreak"], ["", "x", "y", 0.1, 7]]
        dataset.write_csv(path, rows[:1])
        dataset.write_csv(path, rows[1:], append=True)
        assert path.read_bytes() == (
            b'plain,"a,b","say ""hi""","cr\rbreak","lf\nbreak"\n,x,y,0.1,7\n'
        )
        with path.open(newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [rows[0], ["", "x", "y", "0.1", "7"]]


def kdd_like_fixture(tmp_path, n_rows=100):
    """42-column layout: 38 numerics + 3 categoricals with declared sizes
    3/66/11, so the encoded width is 38 + 80 = 118 regardless of which
    category values the rows happen to use."""
    services = [f"svc{i:02d}" for i in range(66)]
    flags = [f"FL{i}" for i in range(11)]
    columns = [Column("duration", NUMERIC), Column("protocol", CATEGORICAL, ("icmp", "tcp", "udp"))]
    columns += [Column("service", CATEGORICAL, tuple(services)), Column("flag", CATEGORICAL, tuple(flags))]
    columns += [Column(f"n{i}", NUMERIC) for i in range(37)]
    columns += [Column("label", LABEL)]
    schema = Schema(tuple(columns), normal_label="normal")
    rng = np.random.default_rng(0)
    lines = []
    for i in range(n_rows):
        fields = [str(rng.integers(0, 500))]
        fields.append(["icmp", "tcp", "udp"][i % 3])
        fields.append(services[i % 5])
        fields.append(flags[i % 4])
        fields += [f"{rng.random():.4f}" for _ in range(37)]
        fields.append("normal" if i % 2 else "attack")
        lines.append(",".join(fields))
    path = write_csv(tmp_path, "\n".join(lines) + "\n", name="kddlike.csv")
    return load_dataset(path, schema)


def encode_one(encoder, *values):
    """Encoded vector of a single row given as one value per feature column."""
    return encoder.transform([np.array([v]) for v in values])[0]


def reference_transform(encoder, columns):
    """The per-cell loop that `Encoder.transform` replaced, kept as its reference."""

    def transform_row(row):
        out = np.zeros(encoder.width)
        offset = 0
        for value, col in zip(row, encoder.columns):
            if col.kind == NUMERIC:
                if col.hi > col.lo:
                    out[offset] = min(max((value - col.lo) / (col.hi - col.lo), 0.0), 1.0)
                # constant feature encodes as 0.0
                offset += 1
            else:
                try:
                    out[offset + col.values.index(value)] = 1.0
                except ValueError:
                    pass  # unseen category: all-zeros group
                offset += len(col.values)
        return out

    return np.vstack([transform_row(row) for row in zip(*(c.tolist() for c in columns))])


class TestEncoder:
    def test_minmax_midpoint(self):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="n")
        raw = RawDataset(schema, [[2.0, 4.0, 6.0]], ["n", "a", "n"])
        enc = fit_encoder(raw, [0, 1, 2])
        assert enc.columns[0].lo == 2.0
        assert enc.columns[0].hi == 6.0
        assert encode_one(enc, 4.0)[0] == pytest.approx(0.5)

    def test_constant_feature_encodes_zero(self):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="n")
        raw = RawDataset(schema, [[3.0, 3.0]], ["n", "a"])
        enc = fit_encoder(raw, [0, 1])
        assert encode_one(enc, 3.0)[0] == 0.0
        assert encode_one(enc, 99.0)[0] == 0.0

    def test_learned_vocab_and_unseen_value(self):
        schema = Schema((Column("c", CATEGORICAL), Column("label", LABEL)), normal_label="n")
        raw = RawDataset(schema, [["b", "a", "c", "d"]], ["n", "a", "n", "a"])
        enc = fit_encoder(raw, [0, 1, 2])
        assert enc.columns[0].values == ("a", "b", "c")  # sorted, fit rows only
        # hand-derived one-hot transforms
        assert encode_one(enc, "a").tolist() == [1.0, 0.0, 0.0]
        assert encode_one(enc, "b").tolist() == [0.0, 1.0, 0.0]
        # held-out row with the unfitted value encodes to an all-zeros group
        assert encode_one(enc, "d").tolist() == [0.0, 0.0, 0.0]

    def test_fit_ignores_rows_outside_fit_set(self):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="n")
        raw = RawDataset(schema, [[1.0, 2.0, 100.0]], ["n", "a", "n"])
        enc = fit_encoder(raw, [0, 1])
        assert enc.columns[0].hi == 2.0

    def test_fit_requires_rows(self):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="n")
        raw = RawDataset(schema, [[1.0]], ["n"])
        with pytest.raises(DatasetError, match="fit_rows is empty"):
            fit_encoder(raw, [])

    def test_range_wider_than_float64_names_the_column(self):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="n")
        raw = RawDataset(schema, [[-1e308, 1e308]], ["n", "a"])
        with pytest.raises(DatasetError, match=r"^column 'x': fitted range -1e\+308 to 1e\+308 "):
            fit_encoder(raw, [0, 1])

    @pytest.mark.parametrize(
        "fitted, far, expected",
        [((1e308, 1.7e308), -1e308, 0.0), ((0.0, 1e-300), 1e10, 1.0)],
        ids=["subtract", "divide"],
    )
    def test_cell_overflowing_its_scale_clamps_without_warning(self, fitted, far, expected):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="n")
        raw = RawDataset(schema, [[*fitted, far]], ["n", "a", "n"])
        enc = fit_encoder(raw, [0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = encode(raw, enc).matrix
        assert matrix[:, 0].tolist() == [0.0, 1.0, expected]

    def test_out_of_range_clamped(self):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="n")
        raw = RawDataset(schema, [[0.0, 10.0]], ["n", "a"])
        enc = fit_encoder(raw, [0, 1])
        assert encode_one(enc, 20.0)[0] == 1.0
        assert encode_one(enc, -5.0)[0] == 0.0

    @pytest.mark.parametrize("vocabulary", ["declared", "learned"])
    def test_transform_matches_per_cell_reference(self, tmp_path, vocabulary):
        raw = kdd_like_fixture(tmp_path, n_rows=100)
        if vocabulary == "learned":
            columns = tuple(Column(c.name, c.kind) for c in raw.schema.columns)
            raw = RawDataset(Schema(columns, normal_label="normal"), raw.columns, row_classes(raw))
        fit_rows = np.arange(0, 100, 5)  # every fit row has service svc00
        raw.columns[5][fit_rows] = 0.25  # constant over the fit rows only
        enc = fit_encoder(raw, fit_rows)
        expected = reference_transform(enc, raw.columns)
        # scaled in float64, rounded once when stored
        got = enc.transform(raw.columns)
        assert got.dtype == dataset.COMPUTE_DTYPE
        assert np.array_equal(got, expected.astype(dataset.COMPUTE_DTYPE))
        # the fit subset makes the reference meet every special case
        numeric = [(c, v) for c, v in zip(enc.columns, raw.columns) if c.kind == NUMERIC]
        assert any(c.hi == c.lo for c, _ in numeric)
        assert any(np.any((v < c.lo) | (v > c.hi)) for c, v in numeric)
        if vocabulary == "learned":
            stop = sum(c.width for c in enc.columns[:3])
            assert np.any(expected[:, stop - enc.columns[2].width:stop].sum(axis=1) == 0.0)

    def test_transform_unsorted_declared_vocabulary(self):
        # unseen values sort before, between and after the declared levels
        schema = Schema(
            (Column("proto", CATEGORICAL, ("udp", "icmp", "tcp")), Column("label", LABEL)),
            normal_label="n",
        )
        values = ["tcp", "aaa", "udp", "sctp", "icmp", "zzz", "udp"]
        raw = RawDataset(schema, [values], ["n"] * len(values))
        enc = fit_encoder(raw, range(len(values)))
        got = enc.transform(raw.columns)
        assert np.array_equal(got, reference_transform(enc, raw.columns))
        assert got.sum(axis=1).tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_kdd_style_width_118(self, tmp_path):
        raw = kdd_like_fixture(tmp_path, n_rows=100)
        enc = fit_encoder(raw, range(100))
        assert enc.width == 118
        ds = encode(raw, enc)
        assert ds.matrix.shape == (100, 118)

    def test_one_hot_groups_sum_to_one(self, tmp_path):
        raw = kdd_like_fixture(tmp_path, n_rows=40)
        enc = fit_encoder(raw, range(40))
        ds = encode(raw, enc)
        stops = np.cumsum([c.width for c in enc.columns])
        for col, stop in zip(enc.columns, stops):
            if col.kind == CATEGORICAL:
                assert np.all(ds.matrix[:, stop - col.width:stop].sum(axis=1) == 1.0), col.name

    def test_encode_values_in_unit_interval(self, tmp_path):
        raw = kdd_like_fixture(tmp_path, n_rows=30)
        ds = encode(raw, fit_encoder(raw, range(30)))
        assert np.all(ds.matrix >= 0.0) and np.all(ds.matrix <= 1.0)
        assert np.all(np.isfinite(ds.matrix))

    def test_class_order_normal_first(self):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="zz_normal")
        raw = RawDataset(schema, [[1.0, 2.0, 3.0]], ["b_att", "zz_normal", "a_att"])
        assert raw.class_names == ("zz_normal", "a_att", "b_att")
        assert raw.codes.dtype == np.int64 and raw.codes.tolist() == [2, 0, 1]
        ds = encode(raw, fit_encoder(raw, [0, 1, 2]))
        assert ds.class_names == ("zz_normal", "a_att", "b_att")
        assert ds.labels.tolist() == [2, 0, 1]


class TestClassInventory:
    def test_requires_benign_designation(self):
        with pytest.raises(SchemaError, match="missing 'normal' directive"):
            Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label=None)

    def test_raw_labels_are_mapped_into_the_inventory(self):
        schema = Schema(
            (Column("x", NUMERIC), Column("label", LABEL)),
            normal_label="Normal",
            label_map={"normal.": "Normal", "smurf.": "DoS", "neptune.": "DoS", "satan.": "Probe"},
        )
        labels = ["smurf.", "normal.", "satan.", "neptune.", "Normal", "weird", "smurf."]
        raw = RawDataset(schema, [np.arange(7.0)], labels)
        assert raw.class_names == ("Normal", "DoS", "Probe", "weird")
        assert raw.codes.dtype == np.int64 and raw.codes.tolist() == [1, 0, 2, 1, 0, 3, 1]
        assert len(raw) == 7 and not hasattr(raw, "labels")

    def test_benign_class_needs_rows(self):
        with pytest.raises(DatasetError, match="benign class 'normal' has no instances"):
            RawDataset(two_feature_schema(), [[1.0, 2.0], [3.0, 4.0]], ["attack1", "attack2"])

    @pytest.mark.parametrize(
        "normal, error", [(None, SchemaError), ("benign", DatasetError)], ids=["undeclared", "no-rows"]
    )
    def test_load_rejects_missing_benign_class(self, tmp_path, normal, error):
        # an undeclared benign class is refused with the schema, before any row is read
        path = write_csv(tmp_path, "1.0,2.0,normal\n3.0,4.0,attack1\n")
        with pytest.raises(error, match="benign"):
            load_dataset(path, two_feature_schema(normal))

    def test_inventory_is_not_settable(self):
        with pytest.raises(TypeError):
            RawDataset(two_feature_schema(), [[1.0], [2.0]], ["normal"], class_names=("normal",))

    @pytest.mark.parametrize(
        "excluded, message",
        [
            ("attack9", r"unknown class 'attack9'; have \['normal', 'a', 'b'\]"),
            (3, "excluded class index 3 out of range"),
            (-1, "excluded class index -1 out of range"),
            ("normal", "cannot exclude benign class"),
            (0, "cannot exclude benign class"),
        ],
    )
    def test_attack_index_rejects(self, excluded, message):
        raw = RawDataset(two_feature_schema(), [[1.0] * 3, [2.0] * 3], ["b", "normal", "a"])
        with pytest.raises(DatasetError, match=message):
            attack_index(raw.class_names, excluded)

    @pytest.mark.parametrize("excluded", [True, False, 1.0, None],
                             ids=["true", "false", "float", "none"])
    def test_attack_index_rejects_a_value_that_is_not_a_name_or_integer(self, excluded):
        class Refused(ValueError):
            pass

        message = rf"^excluded class {excluded!r} is not a class name or index; have \['normal', 'a'\]$"
        with pytest.raises(Refused, match=message):
            attack_index(("normal", "a"), excluded, Refused)

    def test_attack_index_accepts_name_or_index(self):
        raw = RawDataset(two_feature_schema(), [[1.0] * 3, [2.0] * 3], ["b", "normal", "a"])
        assert [attack_index(raw.class_names, c) for c in ("a", "b", 1, 2)] == [1, 2, 1, 2]


class TestSplit:
    def make_raw(self, sizes: dict[str, int]):
        schema = Schema((Column("x", NUMERIC), Column("label", LABEL)), normal_label="normal")
        labels = [name for name, n in sizes.items() for _ in range(n)]
        return RawDataset(schema, [np.arange(len(labels), dtype=np.float64)], labels)

    def test_even_class_halves(self):
        raw = self.make_raw({"normal": 10, "r2l": 52, "dos": 8})
        split = prepare_experiment(raw, "dos", seed=0)
        r2l = attack_index(raw.class_names, "r2l")
        assert len(split.training_pools[r2l]) == 26
        assert len(split.testing_pools[r2l]) == 26

    def test_odd_count_extra_to_first_pool(self):
        raw = self.make_raw({"normal": 10, "a": 5, "b": 8})
        split = prepare_experiment(raw, "b", seed=0)
        a = attack_index(raw.class_names, "a")
        assert len(split.training_pools[a]) == 3
        assert len(split.testing_pools[a]) == 2

    def test_excluded_pools_halved(self):
        raw = self.make_raw({"normal": 10, "a": 9, "b": 8})
        split = prepare_experiment(raw, "a", seed=0)
        assert len(split.excluded_labelled) == 5
        assert len(split.excluded_unlabelled) == 4

    def test_deterministic(self):
        raw = self.make_raw({"normal": 30, "a": 21, "b": 17})
        s1 = prepare_experiment(raw, 1, seed=42)
        s2 = prepare_experiment(raw, 1, seed=42)
        for c in s1.training_pools:
            assert np.array_equal(s1.training_pools[c], s2.training_pools[c])
            assert np.array_equal(s1.testing_pools[c], s2.testing_pools[c])
        assert np.array_equal(s1.excluded_labelled, s2.excluded_labelled)
        assert np.array_equal(s1.excluded_unlabelled, s2.excluded_unlabelled)

    def test_partition_property(self):
        raw = self.make_raw({"normal": 13, "a": 29, "b": 6, "c": 17})
        for seed in range(5):
            split = prepare_experiment(raw, 2, seed=seed)
            ds = split.dataset
            for c in split.training_pools:
                train = set(split.training_pools[c].tolist())
                test = set(split.testing_pools[c].tolist())
                assert not train & test
                assert train | test == set(np.flatnonzero(ds.labels == c).tolist())
                assert abs(len(train) - len(test)) <= 1
            lab = set(split.excluded_labelled.tolist())
            unlab = set(split.excluded_unlabelled.tolist())
            assert not lab & unlab
            assert lab | unlab == set(np.flatnonzero(ds.labels == 2).tolist())

    def test_cannot_exclude_benign(self):
        raw = self.make_raw({"normal": 10, "a": 10, "b": 10})
        with pytest.raises(DatasetError, match="cannot exclude benign class"):
            prepare_experiment(raw, 0, seed=0)

    def test_small_class_error_names_class(self):
        raw = self.make_raw({"normal": 10, "tiny": 1, "b": 10})
        with pytest.raises(DatasetError, match="'tiny'"):
            prepare_experiment(raw, "b", seed=0)

    @pytest.mark.parametrize("size, excluded, need", [(2, "b", 4), (3, "b", 4), (1, "tiny", 2)])
    def test_too_small_class_rejected_with_count_and_need(self, size, excluded, need):
        # a retained class of 2 or 3 rows would leave a 1-row testing pool
        raw = self.make_raw({"normal": 10, "tiny": size, "b": 10})
        message = f"class 'tiny' has {size} instance\\(s\\); need at least {need}"
        with pytest.raises(DatasetError, match=message):
            prepare_experiment(raw, excluded, seed=0)
        # the rule is the split's: the same class built by hand is refused,
        # retained as a 1-row testing pool, excluded as an empty labelled pool
        split = prepare_experiment(self.make_raw({"normal": 10, "tiny": 10, "b": 10}), excluded, 0)
        tiny = attack_index(split.dataset.class_names, "tiny")
        rows = np.flatnonzero(split.dataset.labels == tiny)[:size]
        if excluded == "tiny":
            pools = {"excluded_labelled": rows[:0], "excluded_unlabelled": rows}
            short = "labelled pool has 0 of 1"
        else:
            # halved as prepare_experiment halves it: the odd row to training
            pools = {"training_pools": {**split.training_pools, tiny: rows[1:]},
                     "testing_pools": {**split.testing_pools, tiny: rows[:1]}}
            short = "testing pool has 1 of 2"
        with pytest.raises(DatasetError, match=f"{message}: its {short} row"):
            replace(split, **pools)

    def test_replace_rechecks_the_rule(self):
        raw = self.make_raw({"normal": 10, "a": 10, "b": 10})
        split = prepare_experiment(raw, "b", seed=0)
        # a class mask: training pools without one retained class still score
        masked = replace(split, training_pools={0: split.training_pools[0]})
        assert masked.training_classes == (0,)
        # a cap on the labelled examples that leaves none cannot
        with pytest.raises(DatasetError, match="class 'b' has 5 instance.*labelled pool has 0"):
            replace(split, excluded_labelled=split.excluded_labelled[:0])
        with pytest.raises(FrozenInstanceError):
            split.excluded_labelled = split.excluded_labelled[:0]

    def test_smallest_classes_accepted(self):
        raw = self.make_raw({"normal": 4, "a": 4, "tiny": 2})
        split = prepare_experiment(raw, "tiny", seed=0)
        assert [len(p) for p in split.testing_pools.values()] == [2, 2]
        assert len(split.excluded_unlabelled) == 1

    def test_out_of_range_class(self):
        raw = self.make_raw({"normal": 10, "a": 10, "b": 10})
        with pytest.raises(DatasetError, match="out of range"):
            prepare_experiment(raw, 7, seed=0)


class TestPrepareExperiment:
    def test_no_leakage_from_non_training_rows(self):
        raw = make_raw(n_classes=3, per_class=20, n_features=4, seed=5)
        split1 = prepare_experiment(raw, "attack1", seed=3)
        # mutate one testing-pool row and every excluded-class row
        victim = int(split1.testing_pools[0][0])
        excluded = np.concatenate([split1.excluded_labelled, split1.excluded_unlabelled])
        for values in raw.columns:
            values[victim] += 500.0
            values[excluded] -= 300.0
        split2 = prepare_experiment(raw, "attack1", seed=3)
        assert split1.dataset.encoder == split2.dataset.encoder

    def test_training_rows_do_affect_encoder(self):
        raw = make_raw(n_classes=3, per_class=20, n_features=4, seed=5)
        split1 = prepare_experiment(raw, "attack1", seed=3)
        victim = int(split1.training_pools[0][0])
        for values in raw.columns:
            values[victim] += 500.0
        split2 = prepare_experiment(raw, "attack1", seed=3)
        assert split1.dataset.encoder != split2.dataset.encoder

    def test_unknown_class_name(self):
        raw = make_raw(n_classes=3, per_class=10, n_features=4)
        with pytest.raises(DatasetError, match="unknown class"):
            prepare_experiment(raw, "attack9", seed=0)

    def test_deterministic(self):
        raw = make_raw(n_classes=3, per_class=10, n_features=4)
        s1 = prepare_experiment(raw, 1, seed=9)
        s2 = prepare_experiment(raw, 1, seed=9)
        assert np.array_equal(s1.dataset.matrix, s2.dataset.matrix)
        assert np.array_equal(s1.training_pools[0], s2.training_pools[0])
