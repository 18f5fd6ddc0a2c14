"""CSV loading, kind inference, the warehouse and run resolution."""

import csv
import hashlib
import json
import marshal
import os
import random
import struct
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from a4l_analytics import dataset, runner
from a4l_analytics.dataset import (
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_NUMERIC,
    Column,
    DatasetCache,
    Warehouse,
    atomic_write,
    columns_path,
    fetch_to_staging,
    load_csv,
    sha256_file,
)
from a4l_analytics.errors import DatasetError, ManifestError, UnknownDatasetError
from conftest import column_blobs, column_file_bytes, read_column_file, stored_column


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_boolean_and_numeric(self, tmp_path):
        path = write(tmp_path, "d.csv", "used_sami,sob_score\ntrue,4.2\nfalse,3.1\n")
        ds = load_csv(path)
        assert ds.row_count == 2
        assert [c.kind for c in ds.columns] == ["boolean", "numeric"]
        assert ds.column("used_sami").cells == (True, False)
        assert ds.column("sob_score").cells == (4.2, 3.1)

    def test_empty_cell_is_missing_not_zero(self, tmp_path):
        path = write(tmp_path, "d.csv", "x\n1.5\n\n2.5\n")
        # a blank line is a ragged row, use an empty field instead
        path.write_text("x,y\n1.5,a\n,b\n2.5,c\n", encoding="utf-8")
        ds = load_csv(path)
        assert ds.column("x").kind == "numeric"
        assert ds.column("x").cells == (1.5, None, 2.5)

    def test_age_bands_are_categorical(self, tmp_path):
        path = write(tmp_path, "d.csv", "age_group\n<25\n>=25\n<25\n")
        col = load_csv(path).column("age_group")
        assert col.kind == "categorical"
        assert col.cells == ("<25", ">=25", "<25")

    def test_inference_order_numeric_wins(self, tmp_path):
        path = write(tmp_path, "d.csv", "flag\n0\n1\n0\n")
        assert load_csv(path).column("flag").kind == "numeric"

    def test_yes_no_boolean(self, tmp_path):
        path = write(tmp_path, "d.csv", "flag\nYes\nno\nNO\n")
        col = load_csv(path).column("flag")
        assert col.kind == "boolean"
        assert col.cells == (True, False, False)

    def test_non_finite_literals_are_categorical(self, tmp_path):
        path = write(tmp_path, "d.csv", "x\n1.0\ninf\n")
        assert load_csv(path).column("x").kind == "categorical"

    def test_ragged_row_error_with_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,a\n1,2,3\n")
        with pytest.raises(DatasetError, match="duplicate"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        with pytest.raises(DatasetError, match="empty"):
            load_csv(path)

    def test_deterministic(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,x\n2,y\n")
        assert load_csv(path) == load_csv(path)

    def test_version_is_sha256_of_bytes(self, tmp_path):
        path = write(tmp_path, "d.csv", "a\n1\n")
        assert load_csv(path).version == sha256_file(path)

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path, "d.csv", 'name,score\n"last, first",3\n')
        ds = load_csv(path)
        assert ds.column("name").cells == ("last, first",)

    def test_crlf_bom_and_quoted_newline_kept(self, tmp_path):
        raw = '\ufeffa,note\r\n1,"two\r\nlines"\r\n'.encode("utf-8")
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        ds = load_csv(path)
        assert [c.name for c in ds.columns] == ["\ufeffa", "note"]
        assert ds.column("note").cells == ("two\r\nlines",)
        assert ds.version == hashlib.sha256(raw).hexdigest()

    def test_invalid_utf8_is_dataset_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n\xff,1\n")
        with pytest.raises(DatasetError, match="unreadable"):
            load_csv(path)

    def test_invalid_utf8_names_the_byte_in_the_file(self, tmp_path):
        # past the first 8 kB, where a chunked decoder counts from its chunk
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 3000 + b"\xff,1\n")
        assert path.stat().st_size == 12008
        with pytest.raises(DatasetError, match="in position 12004"):
            load_csv(path)


# Cell texts that sit on the edges of the kind rules: missing, non-finite
# and overflowing floats, boolean tokens that are also numbers, and
# strings float() accepts with a space, an underscore or a signed zero.
EDGE_CELLS = (
    "", "nan", "NaN", "inf", "-inf", "1e400", "TRUE", "yes",
    "0", "1", " 1", "1_0", "-0", "1.5", "abc",
)


@st.composite
def edge_tables(draw, cells=EDGE_CELLS):
    """A header and rows whose columns each draw from a few of ``cells``."""
    width = draw(st.integers(1, 4))
    alphabets = [
        draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4))
        for _ in range(width)
    ]
    rows = draw(
        st.lists(st.tuples(*(st.sampled_from(a) for a in alphabets)), max_size=8)
    )
    return [f"c{j}" for j in range(width)], rows


class TestLoadEquivalence:
    """load_csv converts each cell once; its columns equal the reference
    loader's, which infers each kind cell by cell and then converts."""

    @given(table=edge_tables())
    @example(table=(["a", "b"], []))  # header only: every column is empty
    @example(table=(["a"], [("",), ("",)]))
    @example(table=(["a", "b"], [("1", "yes"), ("0", "1_0"), ("-0", " 1")]))
    @example(table=(["a"], [("1.5",), ("1e400",)]))
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_equals_the_reference_loader(self, tmp_path, table):
        header, rows = table
        path = tmp_path / "d.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        ds = load_csv(path)
        got = [(c.name, c.kind, c.cells) for c in ds.columns]
        # repr tells -0.0 from 0.0 and 1.0 from True, which == does not
        assert repr(got) == repr(oracles.load_csv_columns(path))
        assert ds.row_count == len(rows)


# Pieces of CSV text: separators, cells of each kind, and the characters
# that only csv.reader reads (quotes, CR, NUL), plus a byte-order mark.
TEXT_PIECES = (
    ",", ",", "\n", "\n", "", "1", "2.5", "-", "nan", "true", "abc", " ",
    '"', "\r", "\0", "\ufeff",
)


def _outcome(path):
    """load_csv's columns, row count and version, or its error message,
    in the reference's form."""
    try:
        ds = load_csv(path)
    except DatasetError as exc:
        return str(exc)
    return [(c.name, c.kind, c.cells) for c in ds.columns], ds.row_count, ds.version


class TestSplitEquivalence:
    """A quote-free text is split on newlines and commas directly, any
    other text goes through csv.reader; both give what a parse of every
    text through csv.reader gives (oracles.load_csv_reference)."""

    @staticmethod
    def _same(tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        # repr tells -0.0 from 0.0 and 1.0 from True, which == does not
        assert repr(_outcome(path)) == repr(oracles.load_csv_reference(path))

    @given(text=st.lists(st.sampled_from(TEXT_PIECES), max_size=40).map("".join))
    @example(text="")
    @example(text="\n")
    @example(text="a\n\n1\n")  # a blank line is a row of no field, even for one column
    @example(text="a,b\n1,2\n\n")
    @example(text="a,b\n1,2\n3,4")  # no final newline
    @example(text="a,b\n")  # header only
    @example(text="a,b,\n1,2,\n")  # a trailing comma is an empty column name
    @example(text="a,b\n1,2,\n")
    @example(text="\ufeffa,b\n1,x\n")
    @example(text="a,b\n1,\0\n")
    @settings(
        max_examples=800,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_equals_a_parse_through_csv_reader(self, tmp_path, text):
        self._same(tmp_path, text)

    def test_nul_follows_the_running_csv_module(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,\0\n")
        if sys.version_info < (3, 11):
            with pytest.raises(DatasetError, match="unreadable CSV: line contains NUL"):
                load_csv(path)
        else:
            assert load_csv(path).column("b").cells == ("\0",)

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n" + "x" * 11 + ",1\n",  # a field beyond the limit
            "a,b\n" + "x" * 6 + "," + "y" * 6 + "\n",  # only the line is
            "a,b\n1," + "y" * 10 + "\n",  # a field at the limit
        ],
    )
    def test_line_longer_than_the_field_limit(self, tmp_path, text):
        limit = csv.field_size_limit(10)
        try:
            self._same(tmp_path, text)
            outcome = _outcome(tmp_path / "d.csv")
        finally:
            csv.field_size_limit(limit)
        if "x" * 11 in text:
            assert outcome.endswith("unreadable CSV: field larger than field limit (10)")
        else:
            assert not isinstance(outcome, str)

    def test_quote_free_text_never_reaches_csv_reader(self, tmp_path, monkeypatch):
        path = write(tmp_path, "d.csv", "used,score,note\ntrue,1.5,a b\nfalse,,\n")
        expected = oracles.load_csv_reference(path)

        def forbidden(*args, **kwargs):
            raise AssertionError("csv.reader was called")

        monkeypatch.setattr(csv, "reader", forbidden)
        assert repr(_outcome(path)) == repr(expected)

    @pytest.mark.parametrize("text", ['a,b\n"x, y",1\n', "a,b\r\n1,2\r\n", "a,b\n1,\0\n"])
    def test_quotes_cr_and_nul_go_through_csv_reader(self, tmp_path, monkeypatch, text):
        path = write(tmp_path, "d.csv", text)
        calls = []
        reader = csv.reader

        def counting(*args, **kwargs):
            calls.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(csv, "reader", counting)
        self._same(tmp_path, text)
        assert len(calls) == 2  # load_csv's, and the reference's


class TestDatasetCache:
    def test_same_key_parses_once(self, tmp_path, parses):
        path = write(tmp_path, "d.csv", "a\n1\n")
        cache = DatasetCache()
        first = cache.get("d", "v1", path)
        assert cache.get("d", "v1", path) is first
        assert parses == ["d"]

    def test_new_version_parses_again(self, tmp_path, parses):
        path = write(tmp_path, "d.csv", "a\n1\n")
        cache = DatasetCache()
        cache.get("d", "v1", path)
        path.write_text("a\n2\n", encoding="utf-8")
        assert cache.get("d", "v2", path).column("a").cells == (2.0,)
        assert parses == ["d", "d"]

    def test_release_drops_the_named_datasets(self, tmp_path, parses):
        cache = DatasetCache()
        cache.get("d", "v1", write(tmp_path, "d.csv", "a\n1\n"))
        cache.get("e", "v1", write(tmp_path, "e.csv", "b\n1\n"))
        cache.release(["d"])
        cache.get("e", "v1", tmp_path / "e.csv")
        cache.get("d", "v1", tmp_path / "d.csv")
        assert parses == ["d", "e", "d"]

    def test_release_drops_every_version_of_a_name(self, tmp_path, parses):
        path = write(tmp_path, "d.csv", "a\n1\n")
        cache = DatasetCache()
        cache.get("d", "v1", path)
        cache.get("d", "v2", path)
        cache.release(["d", "unknown"])
        cache.get("d", "v1", path)
        cache.get("d", "v2", path)
        assert parses == ["d", "d", "d", "d"]

    def test_release_writes_a_dropped_version_before_it_is_freed(self, tmp_path, parses):
        d, e = write(tmp_path, "d.csv", "a\n1\n"), write(tmp_path, "e.csv", "b\n1\n")
        sha_d, sha_e = sha256_file(d), sha256_file(e)
        entry = {"dependent": "a"}
        entries = {
            ("get_descriptives", "g", "a", "two_sided", 0.05): (entry, runner.entry_text(entry))
        }
        cache = DatasetCache()
        cache.get("d", sha_d, d).views[dataset.ENTRIES] = dict(entries)
        cache.get("e", sha_e, e)
        assert not columns_path(d, sha_d).exists()
        cache.release(["d"])
        assert columns_path(d, sha_d).exists() and not columns_path(e, sha_e).exists()
        with DatasetCache() as other:
            assert other.get("d", sha_d, d).views[dataset.ENTRIES] == entries
        cache.close()
        assert columns_path(e, sha_e).exists()
        assert parses == ["d", "e"]
        # closing again is harmless, and the closed cache loads from the file
        cache.close()
        cache.get("e", sha_e, e)
        assert parses == ["d", "e"]


def _columns(ds):
    # repr tells -0.0 from 0.0 and 1.0 from True, which == does not
    return repr([(c.name, c.kind, c.cells) for c in ds.columns])


def _loaded(name, sha, path):
    """The dataset a cache of its own loads, written back as the cache
    closes, as one command's cache is."""
    with DatasetCache() as cache:
        return cache.get(name, sha, path)


# Signed zeros, boolean tokens in mixed case, missing cells, and cells
# that turn a numeric or boolean column categorical.
COLUMN_FILE_CELLS = (
    "", "0.0", "-0.0", "-0", "2.5", "1e300", "true", "FALSE", "Yes", "nO",
    "1", "0", "abc", "inf",
)


class TestColumnFile:
    """After the first parse of a version its columns are loaded from
    columns/<sha256>.marshal, equal to what a parse gives."""

    def _primed(self, tmp_path, text="used,score\ntrue,1.5\nfalse,-0.0\n,\n"):
        path = write(tmp_path, "d.csv", text)
        sha = sha256_file(path)
        _loaded("d", sha, path)
        return path, sha, columns_path(path, sha)

    @given(table=edge_tables(COLUMN_FILE_CELLS))
    @example(table=(["a", "b"], []))  # header only
    @example(table=(["a", "b"], [("-0.0", "TRUE"), ("0.0", "no"), ("", "")]))
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_load_equals_the_parse(self, tmp_path, parses, table):
        header, rows = table
        path = tmp_path / "d.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        sha = sha256_file(path)
        parsed = _loaded("d", sha, path)
        parses.clear()
        loaded = _loaded("d", sha, path)
        assert parses == []
        assert _columns(loaded) == _columns(parsed) == _columns(load_csv(path))
        assert (loaded.name, loaded.version, loaded.row_count) == ("d", sha, len(rows))

    def test_first_parse_writes_the_file(self, tmp_path, parses):
        path, sha, target = self._primed(tmp_path)
        assert parses == ["d"]
        assert [p.name for p in target.parent.iterdir()] == [f"{sha}.marshal"]

    def test_loaded_version_is_the_key(self, tmp_path, parses):
        path, sha, _ = self._primed(tmp_path)
        ds = _loaded("e", sha, path)
        assert parses == ["d"]
        assert (ds.name, ds.version) == ("e", sha)

    @pytest.mark.parametrize(
        "spoil",
        [
            "truncated",
            "foreign_tag",
            "other_format",
            "format_1",
            "format_2",
            "format_3",
            "row_count_disagrees",
            "unknown_kind",
            "random_bytes",
            "empty",
        ],
    )
    def test_bad_file_falls_back_to_one_parse_and_is_rewritten(
        self, tmp_path, parses, spoil
    ):
        path, sha, target = self._primed(tmp_path)
        data = target.read_bytes()
        tag, row_count, columns, entries_tag, entries, labels = read_column_file(data)
        rest = (entries_tag, entries, labels)
        target.write_bytes(
            {
                "truncated": data[: len(data) // 2],
                "foreign_tag": column_file_bytes(
                    ("a4l-columns", 2, (2, 7)), row_count, columns, *rest
                ),
                # the same tag but for its format number: older typing rules
                "other_format": column_file_bytes(
                    (tag[0], tag[1] + 1, *tag[2:]), row_count, columns, *rest
                ),
                # the layout of format 1: no result entries
                "format_1": marshal.dumps(((tag[0], 1, *tag[2:]), row_count, columns)),
                # the layout of format 2: each column's cells decoded in place
                "format_2": marshal.dumps(
                    ((tag[0], 2, *tag[2:]), row_count, columns, entries_tag, entries)
                ),
                # the layout of format 3: each column's blob checked at
                # load, the entries in place with no text
                "format_3": marshal.dumps(
                    (
                        (tag[0], 3, *tag[2:]),
                        row_count,
                        marshal.loads(data)[2],
                        entries_tag,
                        entries,
                    )
                ),
                "row_count_disagrees": column_file_bytes(tag, row_count + 1, columns, *rest),
                "unknown_kind": column_file_bytes(
                    tag, row_count, (("a", "text", (None,) * row_count),), *rest
                ),
                "random_bytes": random.Random(7).randbytes(len(data)),
                "empty": b"",
            }[spoil]
        )
        parses.clear()
        ds = _loaded("d", sha, path)
        assert parses == ["d"]
        assert _columns(ds) == _columns(load_csv(path))
        _loaded("d", sha, path)
        assert parses == ["d"]  # the rewritten file serves the next load

    @staticmethod
    def _flip(target, **cells):
        """In the column file ``target``, flip the lowest mantissa bit of
        the float ``cells[name]`` inside the blob of each column named."""
        data = bytearray(target.read_bytes())
        blobs = column_blobs(bytes(data))
        for name, cell in cells.items():
            blob = blobs[name]
            data[data.index(blob) + blob.index(struct.pack("<d", cell))] ^= 1
        target.write_bytes(bytes(data))

    def test_flipped_bit_in_a_numeric_blob_is_parsed_once_and_rewritten(
        self, tmp_path, parses
    ):
        text = "used,score,extra\ntrue,1.5,2.5\nfalse,-0.0,3.5\n,,\n"
        path, sha, target = self._primed(tmp_path, text)
        self._flip(target, score=1.5, extra=2.5)
        parses.clear()
        with DatasetCache() as cache:
            ds = cache.get("d", sha, path)
            # the load checks no column's blob, and an intact one decodes
            assert ds.column("used").cells == (True, False, None)
            assert parses == []
            # the flip is found at the column's first read
            assert ds.column("score").cells == (1.5, -0.0, None)
            assert parses == ["d"]
            assert ds.column("extra").cells == (2.5, 3.5, None)
            assert parses == ["d"]  # one parse serves every failed column
            assert _columns(ds) == _columns(load_csv(path))
        cells = read_column_file(target.read_bytes())[2]
        assert repr(cells) == repr(tuple((c.name, c.kind, c.cells) for c in ds.columns))
        _loaded("d", sha, path)
        assert parses == ["d"]  # the rewritten file serves the next load

    def test_unread_flipped_blob_is_written_back_as_it_was(self, tmp_path, parses):
        text = "used,score,extra\ntrue,1.5,2.5\nfalse,-0.0,3.5\n,,\n"
        path, sha, target = self._primed(tmp_path, text)
        self._flip(target, score=1.5, extra=2.5)
        flipped = column_blobs(target.read_bytes())["extra"]
        with DatasetCache() as cache:
            cache.get("d", sha, path).column("score").cells
        # the rewrite keeps extra's blob with its old crc32, so the
        # flip is still found when the column is read
        assert column_blobs(target.read_bytes())["extra"] == flipped
        parses.clear()
        with DatasetCache() as cache:
            assert cache.get("d", sha, path).column("extra").cells == (2.5, 3.5, None)
        assert parses == ["d"]

    def test_flipped_blob_of_a_changed_csv_raises(self, tmp_path, parses):
        path, sha, target = self._primed(tmp_path)
        self._flip(target, score=1.5)
        path.write_text("used,score\ntrue,9.5\n", encoding="utf-8")
        with DatasetCache() as cache:
            ds = cache.get("d", sha, path)
            with pytest.raises(DatasetError, match=f"stored column of version {sha} failed"):
                ds.column("score").cells

    def test_row_count_disagreeing_with_the_decoded_cells_raises_on_first_read(self):
        col = stored_column("a", KIND_NUMERIC, (1.0, None), row_count=3)
        with pytest.raises(DatasetError, match="column 'a': stored cells are not 3 cells"):
            col.cells

    def test_unwritable_columns_still_load(self, tmp_path, parses, monkeypatch):
        def failing_write(target, data):
            raise OSError("read-only warehouse")

        monkeypatch.setattr(dataset, "atomic_write", failing_write)
        path = write(tmp_path, "d.csv", "a\n1\n")
        sha = sha256_file(path)
        for _ in range(2):
            assert _loaded("d", sha, path).column("a").cells == (1.0,)
        assert parses == ["d", "d"]

    def test_bytes_other_than_the_key_write_nothing(self, tmp_path, parses):
        # the CSV was replaced after the manifest named its sha256
        path = write(tmp_path, "d.csv", "a\n1\n")
        sha = sha256_file(path)
        path.write_text("a\n2\n", encoding="utf-8")
        ds = _loaded("d", sha, path)
        assert ds.version == sha256_file(path) != sha
        assert not columns_path(path, sha).parent.exists()



def _rendered_cell_by_cell(col):
    """``Column.rendered`` as it was first defined, one cell at a time."""
    out = []
    for c in col.cells:
        if c is None:
            out.append(None)
        elif col.kind == KIND_BOOLEAN:
            out.append("true" if c else "false")
        else:
            out.append(str(c))
    return out


# A kind and cells of that kind, as load_csv types them.
KIND_AND_CELLS = st.one_of(
    st.tuples(
        st.just(KIND_NUMERIC),
        st.lists(st.none() | st.floats(allow_nan=False, allow_infinity=False)),
    ),
    st.tuples(st.just(KIND_BOOLEAN), st.lists(st.none() | st.booleans())),
    st.tuples(st.just(KIND_CATEGORICAL), st.lists(st.none() | st.text(min_size=1))),
)


class TestColumn:
    @given(kind_and_cells=KIND_AND_CELLS)
    @settings(max_examples=300, deadline=None)
    def test_rendered_equals_the_cell_by_cell_definition(self, kind_and_cells):
        kind, cells = kind_and_cells
        built = Column("c", kind, tuple(cells))
        stored = stored_column("c", kind, cells)
        assert built.rendered() == _rendered_cell_by_cell(built)
        assert stored.rendered() == _rendered_cell_by_cell(built)

    def test_stored_column_equals_and_reprs_as_its_cells(self):
        built = Column("c", KIND_NUMERIC, (1.5, None, -0.0))
        stored = stored_column("c", KIND_NUMERIC, built.cells)
        assert stored == built and hash(stored) == hash(built)
        assert repr(stored) == repr(built) == (
            "Column(name='c', kind='numeric', cells=(1.5, None, -0.0))"
        )
        assert stored != Column("c", KIND_NUMERIC, (1.5, None, 0.5))


class TestWarehouse:
    def _prime(self, root, name, text):
        wh = Warehouse(root)
        wh.dir.mkdir(parents=True, exist_ok=True)
        target = wh.dataset_path(name)
        target.write_text(text, encoding="utf-8")
        wh.write_manifest(
            {
                name: {
                    "sha256": sha256_file(target),
                    "bytes": target.stat().st_size,
                    "updated": "2026-01-01T00:00:00+00:00",
                }
            }
        )
        return wh

    def test_manifest_round_trip(self, tmp_path):
        wh = self._prime(tmp_path, "d", "a\n1\n")
        manifest = wh.manifest()
        assert "d" in manifest
        assert set(manifest["d"]) == {"sha256", "bytes", "updated"}

    def test_missing_manifest_is_empty(self, tmp_path):
        assert Warehouse(tmp_path).manifest() == {}

    def test_corrupt_manifest(self, tmp_path):
        wh = Warehouse(tmp_path)
        wh.dir.mkdir(parents=True)
        wh.manifest_path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ManifestError):
            wh.manifest()

    @pytest.mark.parametrize(
        "entry",
        [
            "oops",
            None,
            ["0" * 64, 1],
            {"bytes": 1},
            {"sha256": None, "bytes": 1},
            {"sha256": "../../escape", "bytes": 1},
            {"sha256": "A" * 64, "bytes": 1},
            {"sha256": "0" * 64},
            {"sha256": "0" * 64, "bytes": "1"},
            {"sha256": "0" * 64, "bytes": 1.0},
            {"sha256": "0" * 64, "bytes": True},
        ],
    )
    def test_malformed_entry_names_itself(self, tmp_path, entry):
        wh = self._prime(tmp_path, "d", "a\n1\n")
        entries = wh.manifest()
        entries["bad"] = entry
        wh.manifest_path.write_text(json.dumps(entries), encoding="utf-8")
        with pytest.raises(ManifestError, match="manifest.json: entry 'bad' must be"):
            wh.manifest()

    def test_column_catalog(self, tmp_path):
        wh = self._prime(tmp_path, "d", "used,score\ntrue,1.5\nfalse,2.5\n")
        catalog = wh.column_catalog(DatasetCache(), wh.manifest())
        assert catalog == {"d": {"used": "boolean", "score": "numeric"}}

    def test_column_catalog_parses_only_what_is_looked_up(self, tmp_path, parses):
        wh = self._prime(tmp_path, "d", "used,score\ntrue,1.5\nfalse,2.5\n")
        manifest = wh.manifest()
        broken = wh.dataset_path("broken")
        broken.write_text("a,b\n1\n", encoding="utf-8")
        manifest["broken"] = dict(manifest["d"], sha256=sha256_file(broken))
        wh.write_manifest(manifest)

        catalog = wh.column_catalog(DatasetCache(), wh.manifest())
        assert sorted(catalog) == ["broken", "d"]
        assert "broken" in catalog and "ghost" not in catalog
        assert parses == []
        assert catalog["d"] == {"used": "boolean", "score": "numeric"}
        assert catalog["d"]["score"] == "numeric"
        assert parses == ["d"]
        with pytest.raises(DatasetError, match="ragged"):
            catalog["broken"]


class TestStaging:
    def _warehouse(self, tmp_path):
        wh = Warehouse(tmp_path)
        wh.dir.mkdir(parents=True, exist_ok=True)
        entries = {}
        for name, text in (("one", "a\n1\n"), ("two", "b\n2\n")):
            target = wh.dataset_path(name)
            target.write_text(text, encoding="utf-8")
            entries[name] = {
                "sha256": sha256_file(target),
                "bytes": target.stat().st_size,
                "updated": "2026-01-01T00:00:00+00:00",
            }
        wh.write_manifest(entries)
        return wh

    def test_resolves_to_warehouse_files(self, tmp_path):
        wh = self._warehouse(tmp_path)
        manifest = wh.manifest()
        run = fetch_to_staging(["one", "two"], wh, manifest)
        assert run.staged == {"one": wh.dataset_path("one"), "two": wh.dataset_path("two")}
        for name, path in run.staged.items():
            assert run.versions[name] == manifest[name]["sha256"] == sha256_file(path)

    def test_empty_request(self, tmp_path):
        wh = self._warehouse(tmp_path)
        assert fetch_to_staging([], wh, wh.manifest()).staged == {}

    def test_unknown_name_is_internal_error(self, tmp_path):
        wh = self._warehouse(tmp_path)
        with pytest.raises(UnknownDatasetError):
            fetch_to_staging(["ghost"], wh, wh.manifest())

    def test_missing_count_preserved(self, tmp_path):
        wh = Warehouse(tmp_path)
        wh.dir.mkdir(parents=True, exist_ok=True)
        text = "x\n1\n\n2\n\n3\n".replace("\n\n", "\n,\n")  # keep simple: one col
        target = wh.dataset_path("gaps")
        target.write_text("x,y\n1,a\n,b\n2,c\n,d\n", encoding="utf-8")
        wh.write_manifest(
            {
                "gaps": {
                    "sha256": sha256_file(target),
                    "bytes": target.stat().st_size,
                    "updated": "2026-01-01T00:00:00+00:00",
                }
            }
        )
        before = load_csv(target, name="gaps")
        missing_before = sum(1 for c in before.column("x").cells if c is None)
        run = fetch_to_staging(["gaps"], wh, wh.manifest())
        after = load_csv(run.staged["gaps"], name="gaps")
        missing_after = sum(1 for c in after.column("x").cells if c is None)
        assert missing_before == missing_after == 2


class TestManifestAtomicity:
    def test_write_replaces_atomically(self, tmp_path):
        wh = Warehouse(tmp_path)
        wh.write_manifest({"a": {"sha256": "0" * 64, "bytes": 1, "updated": "t"}})
        wh.write_manifest({"b": {"sha256": "1" * 64, "bytes": 2, "updated": "t"}})
        data = json.loads(wh.manifest_path.read_text(encoding="utf-8"))
        assert list(data) == ["b"]
        leftovers = list(wh.dir.glob(".manifest-*"))
        assert leftovers == []

    def test_failed_replace_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old\n")

        def failing_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write(target, b"new\n")
        assert target.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
