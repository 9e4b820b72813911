"""Command-line contract: outputs, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    Point,
    net_value,
    reference_csv,
    reference_json,
    reference_read_dataset_csv,
    run_chunks_inline,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sparseact import (
    SparseNet,
    cli,
    gamma_gated_net,
    rademacher_lab,
    selfcheck,
    tabulate,
    verify_sparsity,
    wht,
)
from sparseact.cli import (
    _columns_to_csv,
    _columns_to_json,
    _read_dataset_csv,
    build_parser,
    run,
)
from sparseact.config import REL_TOL_EXACT
from sparseact.constructions import random_junta, random_net
from sparseact.texts import _BLOCK

DATA = Path(__file__).parent / "data"


def write_net(tmp_path, name="net.json"):
    net = SparseNet(
        n=3,
        s=2,
        k=1,
        u=np.array([1.0, -0.5]),
        w=np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]]),
        b=np.array([1.0, 1.0]),
    )
    path = tmp_path / name
    path.write_text(net.to_json())
    return net, path


class TestConstruct:
    def test_junta_output_parses(self, tmp_path):
        out = tmp_path / "out.json"
        rc = run(
            [
                "construct", "--kind", "junta", "--n", "4",
                "--relevant", "1,2", "--table", "1,-1,-1,1", "--out", str(out),
            ]
        )
        assert rc == 0
        net = SparseNet.from_json(out.read_text())
        assert net.n == 4 and net.s == 4 and net.k == 1

    def test_parity_and_index(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["construct", "--kind", "parity", "--m", "2", "--subset", "1,2",
                    "--out", str(out)]) == 0
        assert SparseNet.from_json(out.read_text()).n == 4
        assert run(["construct", "--kind", "index", "--bits", "2",
                    "--out", str(out)]) == 0
        assert SparseNet.from_json(out.read_text()).n == 6

    def test_gamma_seeded(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["construct", "--kind", "gamma", "--gate-bits", "2",
                "--payload-dim", "3", "--seed", "9"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_table_and_seed_is_error(self, tmp_path):
        rc = run(["construct", "--kind", "junta", "--n", "3", "--relevant", "1"])
        assert rc == 2


class TestTransform:
    def test_matches_library_transform(self, tmp_path):
        net, path = write_net(tmp_path)
        out = tmp_path / "spec.csv"
        assert run(["transform", "--net", str(path), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        spec = wht(tabulate(net, net.n))
        assert len(rows) == 8
        for row in rows:
            assert float(row["coefficient"]) == spec.coeffs[int(row["bitmask"])]


class TestSensitivity:
    def test_exact_rows(self, tmp_path):
        net, path = write_net(tmp_path)
        out = tmp_path / "sens.csv"
        assert run(["sensitivity", "--net", str(path), "--rho", "0.5",
                    "--out", str(out)]) == 0
        with open(out) as fh:
            rows = {(r["quantity"], r["rho"]): r for r in csv.DictReader(fh)}
        exact = rows[("avg_sensitivity_exact", "")]
        spectral = rows[("avg_sensitivity_spectral", "")]
        assert float(exact["value"]) == pytest.approx(float(spectral["value"]), rel=1e-9)
        assert ("noise_sensitivity_exact", "0.5") in rows

    def test_trials_need_seed(self, tmp_path):
        _, path = write_net(tmp_path)
        assert run(["sensitivity", "--net", str(path), "--rho", "0.5",
                    "--trials", "100"]) == 2


class TestRecordedTables:
    """Transform and sensitivity tables of a junta and an index net, byte for
    byte as recorded (sha256).  Both nets have dyadic weights, so no digit of
    a transform or exact row may move.  The ``noise_sensitivity_mc`` rows pin
    the random stream as well: they were recorded with the byte alias-table
    flips of ``hypercube.flip_sampler``, each within 4 standard errors of its
    exact row."""

    RECORDED = json.loads((DATA / "dense_tables.sha256.json").read_text())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [["transform"],
         ["sensitivity", "--rho", "0.3,0.6,0.9", "--trials", "4096", "--seed", "5"]],
        ids=["transform", "sensitivity"],
    )
    @pytest.mark.parametrize("net", ["junta14", "index3"])
    def test_bytes_match_recorded(self, tmp_path, capsys, net, argv, fmt):
        args = [argv[0], "--net", str(DATA / f"{net}.json"), "--format", fmt] + argv[1:]
        assert run(args) == 0
        stdout = capsys.readouterr().out.encode()
        assert run(args + ["--out", str(tmp_path / "table")]) == 0
        assert (tmp_path / "table").read_bytes() == stdout
        assert hashlib.sha256(stdout).hexdigest() == self.RECORDED[f"{net} {argv[0]} {fmt}"]


class TestRecordedConstructs:
    """Index nets (b = 1..10) and seeded gate/payload nets, byte for byte as
    recorded (sha256) from the loop-built address patterns."""

    RECORDED = json.loads((DATA / "construct_bytes.sha256.json").read_text())

    @staticmethod
    def argv(key):
        kind, *fields = key.split()
        argv = ["construct", "--kind", kind]
        for field in fields:
            name, _, value = field.partition("=")
            argv += ["--" + name, value]
        return argv

    @pytest.mark.parametrize("key", sorted(RECORDED))
    def test_bytes_match_recorded(self, capsys, key):
        assert run(self.argv(key)) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == self.RECORDED[key]


_TEXT = st.text(
    alphabet=st.sampled_from(list("ab, \"\n\r%é€") + ["\u2028", "\x00"]), max_size=4
)
_FLOATS = (
    st.floats()
    | st.integers(0, (1 << 64) - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
    | st.sampled_from([-0.0, 1e-300, 1e300])
)
_CELLS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.booleans(),
    _FLOATS,
    st.just(""),
    _TEXT,
    st.none(),
    st.lists(st.integers(-2, 2) | _FLOATS, max_size=2),
)


@st.composite
def _tables(draw):
    """(header, columns): all-float, all-int, mixed and range columns of equal
    height."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width, unique=True))
    height = draw(st.integers(0, 6))
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from([_FLOATS, st.integers(), _CELLS, None]))
        if kind is None:
            start = draw(st.integers(-(1 << 64), 1 << 64))
            step = draw(st.integers(-(1 << 62), 1 << 62).filter(bool))
            columns.append(range(start, start + height * step, step))
        else:
            columns.append(draw(st.lists(kind, min_size=height, max_size=height)))
    return header, columns


def _as_arrays(columns):
    """The table with every all-float column as a float64 array and every
    all-int column that fits int64 as an int64 array; ranges stay ranges."""
    out = []
    for column in columns:
        kinds = set(map(type, column))
        if kinds <= {float} and not isinstance(column, range):
            column = np.array(column, dtype=np.float64)
        elif kinds == {int} and all(-(1 << 63) <= v < 1 << 63 for v in column):
            column = column if isinstance(column, range) else np.array(column, dtype=np.int64)
        out.append(column)
    return out


def _rows(columns):
    """The table's rows of Python values."""
    columns = [column.tolist() if isinstance(column, np.ndarray) else column
               for column in columns]
    return [list(row) for row in zip(*columns)]


def _text_or_error(write, header, table):
    try:
        return write(header, table)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestTableWriters:
    """Column-wise writers against the row-by-row csv.writer and json.dumps."""

    @settings(max_examples=300, deadline=None)
    @given(table=_tables())
    @example(table=(["a"], [[""]]))
    @example(table=(["x", "y"], [[], []]))
    @example(table=(["x", "y"], [[1.0, float("inf")], [float("nan"), 2.0]]))
    @example(table=(["x", "y"], [[1.0, 2.0], ["", float("-inf")]]))
    @example(table=(["x", "y"], [
        [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 1e16, 9999999999999998.0,
         9007199254741000.0, 2.9802322387695312e-08],
        [0, -1, (1 << 63) - 1, -(1 << 63), 1 << 63, 10**18, 7, 8, 9],
    ]))
    @example(table=(["i", "x"], [range(-3, 2**64, 2**61), [0.1, 0.0, -0.0, 1e300, 1e-300,
                                                            float("nan"), 2.0, 3.0, 4.0]]))
    # ranges at and past the int64 limits; string cells with NUL and non-ASCII
    @example(table=(["i"], [range(-(1 << 63), -(1 << 63) + 5)]))
    @example(table=(["i", "x"], [range((1 << 63) - 1, (1 << 63) - 16, -3), [0.5] * 5]))
    @example(table=(["i", "x"], [range(-(1 << 63) - 1, -(1 << 63) + 3), [1e300] * 4]))
    @example(table=(["i"], [range((1 << 63) - 3, (1 << 63) + 2)]))
    @example(table=(["i", "x"], [range(-(1 << 63), 1 << 63, 1 << 61), [-0.0] * 8]))
    @example(table=(["a"], [["", "é", "a\0", "\0b", "x,y", 'q"', "\u2028", "z" * 40]]))
    @example(table=(["a", "b"], [range(3), ["é", "a\0", ""]]))
    def test_same_bytes_and_errors(self, table):
        header, columns = table
        rows = [list(row) for row in zip(*columns)]
        want_csv = _text_or_error(reference_csv, header, rows)
        want_json = _text_or_error(reference_json, header, rows)
        for table_columns in (columns, [list(column) for column in columns],
                              _as_arrays(columns)):
            assert _text_or_error(_columns_to_csv, header, table_columns) == want_csv
            assert _text_or_error(_columns_to_json, header, table_columns) == want_json

    @pytest.mark.parametrize(
        "write, message",
        [(_columns_to_csv, "non-finite result inf"),
         (_columns_to_json, "Out of range float values are not JSON compliant: inf")],
    )
    def test_first_non_finite_cell_in_row_order(self, write, message):
        with pytest.raises(ValueError) as exc:
            write(["x", "y"], [[1.0, float("nan")], [float("inf"), 2.0]])
        assert str(exc.value) == message

    def test_object_array_column_keeps_every_cell(self):
        # an array's cells are typed one by one unless its dtype fixes them
        columns = [np.array([1, "x"], dtype=object), [1, 2]]
        rows = [[1, 1], ["x", 2]]
        assert _columns_to_csv(["a", "b"], columns) == reference_csv(["a", "b"], rows)
        assert _columns_to_json(["a", "b"], columns) == reference_json(["a", "b"], rows)

    def test_spectrum_table_memory(self):
        # 2^18 rows: the row texts and their join peaked at 7.2x the CSV and
        # 3.9x the JSON; one buffer of at most the widest rows, then its text
        for write in (_columns_to_csv, _columns_to_json):
            coeffs = np.random.default_rng(18).standard_normal(1 << 18)
            tracemalloc.start()
            try:
                text = write(["bitmask", "coefficient"], [range(1 << 18), coeffs])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * len(text)

    @pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_rows_across_blocks(self, rows):
        # an all-zero block, a block of -0.0 and a block with no zero; a
        # range column, and a per-cell column with non-ASCII and NUL cells
        rng = np.random.default_rng(rows)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        values[:_BLOCK] = 0.0
        values[_BLOCK : 2 * _BLOCK : 2] = -0.0
        cells = [["é", "a\0b", "", "\0", 7, None, 2.5, "日本"][i % 8] for i in range(rows)]
        columns = [range(rows, -rows, -2), values, cells, np.zeros(rows) - 0.0]
        header = ["i", "x", "note", "z"]
        assert _columns_to_csv(header, columns) == reference_csv(header, _rows(columns))
        assert _columns_to_json(header, columns) == reference_json(header, _rows(columns))



class TestBlasThreadCount:
    """stdout of the dense commands does not depend on how many threads
    OpenBLAS runs, which splits long dot products between them."""

    # both tables of one net, printed by one process
    SCRIPT = (
        "import sys; from sparseact.cli import run; "
        "run(['transform', '--net', sys.argv[1]]); "
        "run(['sensitivity', '--net', sys.argv[1], '--rho', '0.5'])"
    )

    def test_same_bytes_at_one_and_two_threads(self, tmp_path):
        path = tmp_path / "net18.json"
        path.write_text(random_net(np.random.default_rng(18), 18, 8).to_json())
        src = str(Path(__file__).parents[1] / "src")
        stdouts = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(path)],
                env=env, capture_output=True, check=True,
            )
            stdouts.append(proc.stdout)
        assert stdouts[0] == stdouts[1]
        assert stdouts[0].count(b"\n") == (1 << 18) + 1 + 4


class TestBoundsTable:
    def test_row_matches_module(self, tmp_path):
        from sparseact import ClassParams, avg_sensitivity_bound

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"n": 8, "s": 4, "k": 1, "W": 1.5, "B": 2.0, "m": 100,
             "eps": 0.1, "delta": 0.05, "rho": 0.5, "measured_as": 3.25}
        ]))
        out = tmp_path / "bounds.csv"
        assert run(["bounds-table", "--grid", str(grid), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        want = avg_sensitivity_bound(ClassParams(n=8, s=4, k=1, W=1.5, B=2.0))
        assert float(row["avg_sensitivity_bound"]) == want
        assert float(row["measured_as"]) == 3.25

    def test_missing_fields_leave_blanks(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n": 4, "s": 4, "W": 1.0, "B": 1.0}]))
        out = tmp_path / "bounds.csv"
        assert run(["bounds-table", "--grid", str(grid), "--out", str(out)]) == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        assert row["rademacher_theorem"] == ""
        assert row["sample_complexity_main"] == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blanks_outside_each_formulas_domain(self, tmp_path, capsys, fmt):
        from sparseact import bounds

        records = [
            {"n": 6, "s": 3, "W": 1.0, "B": 1.0, "rho": 1.0, "m": 1, "eps": 0.3},
            {"n": 6, "s": 3, "W": 1.0, "B": 1.0, "rho": 0.5, "m": 2, "eps": 0.3, "delta": 0.1},
        ]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(records))
        assert run(["bounds-table", "--grid", str(grid), "--format", fmt]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        p = bounds.ClassParams(**records[1])
        full = {
            "avg_sensitivity_bound": bounds.avg_sensitivity_bound(p),
            "noise_sensitivity_bound": bounds.noise_sensitivity_bound(p),
            "degree_for_error": bounds.degree_for_error(p),
            "rademacher_theorem": bounds.rademacher_bound(p),
            "rademacher_conjecture": bounds.rademacher_conjecture(p),
            "sample_complexity_main": bounds.sample_complexity_general(p)[0],
            "sample_complexity_list": bounds.sample_complexity_general(p)[1],
        }
        # the records share n, s, W, B and eps; rho = 1, m = 1 and eps without
        # delta leave the other formulas' cells blank in the first
        blank = {"noise_sensitivity_bound", "rademacher_theorem", "rademacher_conjecture",
                 "sample_complexity_main", "sample_complexity_list"}
        first = {key: "" if key in blank else value for key, value in full.items()}
        for row, want in zip(rows, [first, full]):
            got = {key: row[key] for key in want}
            if fmt == "csv":
                got = {key: text if text == "" else float(text) for key, text in got.items()}
            assert got == want
        assert rows[0]["rho"] == (1.0 if fmt == "json" else "1.0")
        assert rows[0]["m"] == (1 if fmt == "json" else "1")


class TestLearnCommands:
    def test_learn_dlist_full_cube_in_grid_target(self, tmp_path):
        _, path = write_net(tmp_path)
        out = tmp_path / "list.json"
        rc = run(["learn-dlist", "--net", str(path), "--full-cube",
                  "--s", "2", "--grid-m", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["loss"]["mse"] <= 1e-12  # max residual <= tol
        assert payload["loss"]["count"] == 8
        assert payload["list"]["default"] == 0.0

    @pytest.mark.parametrize(
        "args, recorded",
        [
            (["--net", "dlist_junta6.json", "--full-cube", "--s", "8", "--grid-m", "2"],
             "dlist_junta6.out"),
            (["--data", "dlist_rows.csv", "--s", "4", "--grid-m", "2"],
             "dlist_rows.out"),
        ],
        ids=["full-cube-junta", "csv"],
    )
    def test_learn_dlist_bytes_match_recorded(self, capsys, args, recorded):
        # the .out files were written by the gate-by-gate learner, before
        # the edge-step screen; the screen must not change a byte
        args = [str(DATA / a) if a.startswith("dlist_") else a for a in args]
        assert run(["learn-dlist"] + args) == 0
        assert capsys.readouterr().out.encode() == (DATA / recorded).read_bytes()

    def test_learn_dlist_inconsistent_csv(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n1,1,0.0\n1,1,1.0\n")
        assert run(["learn-dlist", "--data", str(data), "--s", "1",
                    "--grid-m", "1"]) == 2

    def test_learn_low_degree_generated(self, tmp_path):
        _, path = write_net(tmp_path)
        out = tmp_path / "model.json"
        rc = run(["learn-low-degree", "--net", str(path), "--samples", "500",
                  "--holdout", "200", "--seed", "3", "--degree", "3",
                  "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["train_loss"]["mse"] < 1e-6
        assert payload["holdout_loss"]["mse"] < 1e-6

    def test_learn_low_degree_csv_round_trip(self, tmp_path):
        data = tmp_path / "data.csv"
        rows = ["x1,x2,x3,y"]
        net, _ = write_net(tmp_path)
        for u in range(8):
            x = Point(3, u)
            rows.append(",".join(str(s) for s in x.signs()) + f",{net_value(net, u)!r}")
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "model.json"
        assert run(["learn-low-degree", "--data", str(data), "--degree", "3",
                    "--ridge", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["train_loss"]["mse"] < 1e-12

    def test_learn_low_degree_wide_csv(self, tmp_path):
        # 30 sign columns: past the exhaustive cap of 24, within packed int64
        n = 30
        X = np.random.default_rng(30).choice([-1, 1], size=(200, n))
        y = 0.5 + X[:, 3] - 2.0 * X[:, n - 1]
        data = tmp_path / "wide.csv"
        lines = [",".join(f"x{i}" for i in range(1, n + 1)) + ",y"]
        lines += [",".join(map(str, row)) + f",{float(v)!r}" for row, v in zip(X, y)]
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "model.json"
        assert run(["learn-low-degree", "--data", str(data), "--degree", "1",
                    "--ridge", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["train_loss"] == {"mse": pytest.approx(0.0, abs=1e-12), "count": 200}
        coeffs = {tuple(t["T"]): t["c"] for t in payload["model"]["coeffs"]}
        assert coeffs[(4,)] == pytest.approx(1.0) and coeffs[(n,)] == pytest.approx(-2.0)


class TestRademacherCommand:
    def test_csv_columns_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rademacher", "--n", "5", "--s", "4", "--pool-count", "3",
                "--m-grid", "8,16", "--trials", "500", "--seed", "21"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["m"]) for r in rows] == [8, 16]
        assert all(float(r["bound"]) > 0 for r in rows)


class TestRecordedRademacher:
    """``rademacher`` tables as recorded.  Exact rows were recorded before
    exact mode moved to the whole-cube kernel and may move only within
    REL_TOL_EXACT.  The Monte-Carlo run spans 2 chunks; its bytes were
    re-recorded when per-chunk moments merged in chunk order replaced one
    pass over all samples, and every number must stay within 1e-15 relative
    of the rows recorded from that one pass (``rademacher_mc_rows.json``)."""

    ARGS = ["rademacher", "--n", "6", "--s", "4", "--pool-count", "4",
            "--trials", "20000", "--seed", "3"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mc_bytes_match_recorded(self, capsys, fmt):
        recorded = json.loads((DATA / "rademacher_tables.sha256.json").read_text())
        args = self.ARGS + ["--mode", "mc", "--m-grid", "8,32", "--format", fmt]
        assert run(args) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == recorded[f"mc {fmt}"]
        if fmt == "csv":
            reader = csv.DictReader(io.StringIO(stdout))
            rows = [{k: float(v) for k, v in r.items()} for r in reader]
        else:
            rows = json.loads(stdout)
        one_pass = json.loads((DATA / "rademacher_mc_rows.json").read_text())
        assert len(rows) == len(one_pass) == 2
        for row, want in zip(rows, one_pass):
            assert row.keys() == want.keys()
            for key, value in want.items():
                assert abs(row[key] - value) <= 1e-15 * abs(value), key

    def test_exact_rows_match_recorded(self, capsys):
        recorded = json.loads((DATA / "rademacher_exact_rows.json").read_text())
        args = self.ARGS + ["--mode", "exact", "--m-grid", "4,8,12,16", "--format", "json"]
        assert run(args) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["m"] for r in rows] == [r["m"] for r in recorded] == [4, 8, 12, 16]
        for row, want in zip(rows, recorded):
            assert row["stderr"] == 0.0
            assert row["bound"] == want["bound"]
            for key in ("estimate", "ratio"):
                assert abs(row[key] - want[key]) <= REL_TOL_EXACT * abs(want[key])

    def test_exact_past_the_cap_is_runtime_failure(self, capsys):
        args = self.ARGS + ["--mode", "exact", "--m-grid", "25"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        rc = run(["verify", "--all", "--n-max", "6", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("n_max", ["1", "2"])
    def test_smallest_cubes(self, capsys, n_max):
        assert run(["verify", "--n-max", n_max]) == 0
        assert capsys.readouterr().out.count("PASS") == 10

    RECORDED = json.loads((DATA / "verify_outputs.json").read_text())

    @pytest.mark.parametrize("n_max", sorted(RECORDED, key=int))
    def test_bytes_match_recorded(self, capsys, n_max):
        assert run(["verify", "--n-max", n_max]) == 0
        assert capsys.readouterr().out == self.RECORDED[n_max]

    def test_gamma_gate_failure_names_the_witness_index(self, capsys, monkeypatch):
        # a tiny gamma lets several units fire on the same input
        built = []

        def tiny_gamma(b, q, gamma, table):
            built.append(gamma_gated_net(b, q, 1e-3, table))
            return built[-1]

        monkeypatch.setattr(selfcheck, "gamma_gated_net", tiny_gamma)
        assert run(["verify", "--n-max", "5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        fail = [line for line in lines if line.startswith("FAIL")]
        assert len(fail) == 1 and fail[0].startswith("FAIL gamma_gate_sparsity: ")
        active, index = fail[0].split(": ")[1].split(" units active at index ")
        want = verify_sparsity(built[0], 1, "exhaustive")
        assert int(active) == want.max_active > 1
        assert int(index) == want.violating_input.index


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["transform", "--bogus"]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_capacity_is_runtime_failure(self, tmp_path):
        rc = run([
            "construct", "--kind", "junta", "--n", "24",
            "--relevant", ",".join(str(i) for i in range(1, 22)), "--seed", "1",
        ])
        assert rc == 1

    def test_missing_file_is_runtime_failure(self, tmp_path):
        assert run(["transform", "--net", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize(
        "n, command, rc, message",
        [
            (26, "full-cube", 1, "tabulation needs n <= 20, got 26"),
            (62, "full-cube", 1, "tabulation needs n <= 20, got 62"),
            (63, "samples", 2, "dimension must be in [1, 62], got 63"),
            (70, "samples", 2, "dimension must be in [1, 62], got 70"),
        ],
    )
    def test_caps_checked_before_any_point_exists(self, tmp_path, capsys, n, command,
                                                  rc, message):
        # neither the 2^n index range of the whole cube nor a sample is built
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"n": n, "s": 1, "k": 1, "u": [1.0],
                                    "w": [[1.0] * n], "b": [0.0]}))
        argv = {
            "full-cube": ["learn-dlist", "--full-cube", "--s", "2", "--grid-m", "1"],
            "samples": ["learn-low-degree", "--samples", "50", "--seed", "1", "--degree", "1"],
        }[command]
        assert run(argv + ["--net", str(path)]) == rc
        assert capsys.readouterr().err == f"error: {message}\n"


class TestThreadDeterminism:
    def test_sensitivity_threads(self, tmp_path):
        _, path = write_net(tmp_path)
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"sens{threads}.csv"
            assert run(["sensitivity", "--net", str(path), "--rho", "0.4,0.8",
                        "--trials", "40000", "--seed", "12",
                        "--threads", threads, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rademacher_threads(self, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"rad{threads}.csv"
            assert run(["rademacher", "--n", "5", "--s", "4", "--pool-count", "3",
                        "--m-grid", "8", "--trials", "40000", "--seed", "2",
                        "--threads", threads, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# subcommands that read a net JSON, with the arguments each needs besides --net
_NET_COMMANDS = [
    ["transform"],
    ["sensitivity", "--rho", "0.5", "--trials", "64", "--seed", "1"],
    ["learn-low-degree", "--samples", "16", "--seed", "1", "--degree", "1"],
    ["learn-dlist", "--full-cube", "--s", "2", "--grid-m", "1"],
]


class TestBadInput:
    """Malformed inputs end in one error line and exit 2, never a traceback."""

    def assert_one_error_line(self, capsys, rc):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_short_dataset_row(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n1,1,0.5\n1,-1\n")
        rc = run(["learn-low-degree", "--data", str(data), "--degree", "1"])
        self.assert_one_error_line(capsys, rc)

    @pytest.mark.parametrize("command", ["transform", "sensitivity"])
    def test_net_json_missing_key(self, tmp_path, capsys, command):
        _, path = write_net(tmp_path)
        payload = json.loads(path.read_text())
        del payload["b"]
        path.write_text(json.dumps(payload))
        self.assert_one_error_line(capsys, run([command, "--net", str(path)]))

    @pytest.mark.parametrize("command", ["transform", "bounds-table"])
    def test_deeply_nested_json(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        flag = {"transform": "--net", "bounds-table": "--grid"}[command]
        self.assert_one_error_line(capsys, run([command, flag, str(path)]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, net",
        [
            (["transform"], {"u": [1.5e308], "w": [[0, 0]], "b": [-1]}),
            (["transform", "--format", "json"], {"u": [1.5e308], "w": [[0, 0]], "b": [-1]}),
            (["sensitivity", "--rho", "0.5"], {"u": [1e200], "w": [[1, 1]], "b": [0]}),
            (["sensitivity", "--rho", "0.5", "--trials", "40000", "--seed", "1",
              "--threads", "2"], {"u": [1e200], "w": [[1, 1]], "b": [0]}),
        ],
        ids=["transform", "transform-json", "sensitivity", "sensitivity-mc"],
    )
    def test_non_finite_result(self, tmp_path, capsys, command, net):
        # no inf/nan row reaches stdout, and no numpy warning reaches stderr
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"n": 2, "s": 1, "k": 1, **net}))
        rc = run([command[0], "--net", str(path)] + command[1:])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, net, data",
        [
            (["learn-low-degree", "--samples", "20", "--seed", "1", "--degree", "1"],
             {"n": 2, "s": 1, "k": 1, "u": [1e200], "w": [[1, 1]], "b": [0]}, None),
            (["learn-low-degree", "--degree", "0"], None,
             "x1,x2,y\n1,1,1e200\n1,-1,0\n-1,1,0\n-1,-1,0\n"),
            (["learn-dlist", "--s", "1", "--grid-m", "1", "--tol", "1e300"], None,
             "x1,x2,y\n1,1,1e200\n1,-1,0\n-1,1,0\n-1,-1,0\n"),
        ],
        ids=["low-degree-net", "low-degree-csv", "dlist-csv"],
    )
    def test_learner_non_finite_loss(self, tmp_path, capsys, command, net, data):
        # the loss overflows: no Infinity in the JSON, no numpy warning line
        if net is not None:
            source = tmp_path / "net.json"
            source.write_text(json.dumps(net))
            command = command + ["--net", str(source)]
        else:
            source = tmp_path / "data.csv"
            source.write_text(data)
            command = command + ["--data", str(source)]
        rc = run(command)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: Out of range float values are not JSON compliant: inf\n"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_learn_dlist_bad_tol(self, tmp_path, capsys, tol):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n1,1,0.5\n1,-1,0.0\n")
        rc = run(["learn-dlist", "--data", str(data), "--s", "1", "--grid-m", "1",
                  "--tol", tol])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: tol must be") and err.count("\n") == 1

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
    def test_learn_low_degree_bad_ridge(self, tmp_path, capsys, ridge):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n1,1,0.5\n1,-1,0.0\n")
        rc = run(["learn-low-degree", "--data", str(data), "--degree", "1",
                  "--ridge", ridge])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ridge must be") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--kind", "junta", "--relevant", "1", "--seed", "1"], "--n"),
            (["--kind", "index"], "--bits"),
            (["--kind", "parity", "--subset", "1"], "--m"),
            (["--kind", "gamma", "--seed", "1"], "--gate-bits"),
            (["--kind", "gamma", "--gate-bits", "2", "--seed", "1"], "--payload-dim"),
        ],
        ids=["junta-n", "index-bits", "parity-m", "gamma-gate-bits", "gamma-payload-dim"],
    )
    def test_construct_missing_flag(self, capsys, argv, flag):
        rc = run(["construct"] + argv)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} is required for {argv[1]}\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["construct", "--kind", "index", "--bits", "2", "--seed", "5", "--n", "9",
              "--gamma", "2"], "--n cannot be combined with --kind index"),
            (["construct", "--kind", "parity", "--m", "2", "--subset", "1", "--seed", "1"],
             "--seed cannot be combined with --kind parity"),
            (["construct", "--kind", "gamma", "--gate-bits", "2", "--payload-dim", "3",
              "--seed", "1", "--table", "1,2"], "--table cannot be combined with --kind gamma"),
            (["construct", "--kind", "junta", "--n", "3", "--relevant", "1", "--table", "1,2",
              "--seed", "4"], "--seed cannot be combined with --table"),
            (["construct", "--kind", "gamma", "--gate-bits", "2", "--payload-dim", "3"],
             "--seed is required for gamma"),
            (["sensitivity", "--net", str(DATA / "index3.json"), "--seed", "3"],
             "--seed needs --trials"),
            (["sensitivity", "--net", str(DATA / "index3.json"), "--rho", "0.5",
              "--trials", "8"], "--trials needs --seed"),
            (["sensitivity", "--net", str(DATA / "index3.json"), "--trials", "10",
              "--seed", "1"], "--trials needs --rho"),
            (["sensitivity", "--net", str(DATA / "index3.json"), "--threads", "4"],
             "--threads needs --trials"),
            (["sensitivity", "--net", str(DATA / "index3.json"), "--rho", "0.5",
              "--threads", "1"], "--threads needs --trials"),
        ],
        ids=["index-foreign", "parity-seed", "gamma-table", "junta-table-seed",
             "gamma-no-seed", "seed-no-trials", "trials-no-seed", "trials-no-rho",
             "threads-no-trials", "threads-with-rho-no-trials"],
    )
    def test_flag_that_would_be_ignored(self, capsys, monkeypatch, argv, error):
        # refused before any table is drawn or any net is read
        monkeypatch.setattr(np.random, "default_rng", None)
        monkeypatch.setattr(cli, "_read_json", None)
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0"])
    def test_construct_bad_gamma(self, capsys, gamma):
        rc = run(["construct", "--kind", "gamma", "--gate-bits", "2", "--payload-dim", "3",
                  "--seed", "1", "--gamma", gamma])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: gamma must be finite and positive")
        assert err.count("\n") == 1

    def test_construct_gamma_bias_overflow(self, capsys):
        rc = run(["construct", "--kind", "gamma", "--gate-bits", "2", "--payload-dim", "3",
                  "--seed", "1", "--gamma", "1e308"])
        assert rc == 2
        assert capsys.readouterr().err == "error: gamma * b must be finite, got gamma=1e+308, b=2\n"

    def test_bounds_table_level_above_width(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n": 4, "s": 2, "k": 3, "W": 1, "B": 1, "m": 10,
                                     "eps": 0.1, "delta": 0.1}]))
        assert run(["bounds-table", "--grid", str(grid)]) == 2
        assert capsys.readouterr() == ("", "error: need s >= k, got s=2, k=3\n")

    def test_rademacher_level_above_width(self, capsys):
        rc = run(["rademacher", "--n", "4", "--s", "2", "--k", "3", "--pool-count", "2",
                  "--m-grid", "8", "--trials", "10", "--seed", "1"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: need s >= k, got s=2, k=3\n")

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_verify_n_max_below_one(self, capsys, n_max):
        rc = run(["verify", "--n-max", n_max])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --n-max must be >= 1, got {n_max}\n"

    @pytest.mark.parametrize(
        "count", [["--samples", "0"], ["--holdout", "-5"], ["--holdout", "0"]],
        ids=["samples-0", "holdout-neg", "holdout-0"],
    )
    def test_learn_low_degree_count_below_one(self, capsys, count):
        argv = ["learn-low-degree", "--net", str(DATA / "index3.json"), "--samples", "5",
                "--seed", "1", "--degree", "1"]
        assert run(argv + count) == 2
        assert capsys.readouterr() == ("", f"error: need at least one sample, got {count[1]}\n")

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--n-max", "2"],
         ["construct", "--kind", "junta", "--n", "3", "--relevant", "1"],
         ["sensitivity", "--net", str(DATA / "index3.json"), "--rho", "0.5", "--trials", "8"],
         ["learn-low-degree", "--net", str(DATA / "index3.json"), "--samples", "5",
          "--degree", "1"],
         ["rademacher", "--n", "4", "--s", "4", "--pool-count", "2", "--m-grid", "8",
          "--trials", "10"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("seed", ["-1", "-2"])
    def test_negative_seed(self, capsys, monkeypatch, argv, seed):
        # refused before any generator is made or any net is read
        monkeypatch.setattr(np.random, "default_rng", None)
        monkeypatch.setattr(cli, "_read_json", None)
        assert run(argv + ["--seed", seed]) == 2
        assert capsys.readouterr() == ("", f"error: --seed must be >= 0, got {seed}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "index", "--bits", "0"], "address bits must be >= 1, got 0"),
            (["--kind", "index", "--bits", "-1"], "address bits must be >= 1, got -1"),
            (["--kind", "gamma", "--gate-bits", "0", "--payload-dim", "3"], "b=0, q=3"),
            (["--kind", "gamma", "--gate-bits", "-1", "--payload-dim", "3"], "b=-1, q=3"),
            (["--kind", "gamma", "--gate-bits", "2", "--payload-dim", "0"], "b=2, q=0"),
            (["--kind", "gamma", "--gate-bits", "2", "--payload-dim", "-1"], "b=2, q=-1"),
        ],
        ids=["index-0", "index-neg", "gate-0", "gate-neg", "payload-0", "payload-neg"],
    )
    def test_construct_size_below_one(self, capsys, monkeypatch, argv, message):
        # refused before the gamma payload table is drawn
        monkeypatch.setattr(np.random, "default_rng", None)
        rc = run(["construct"] + argv + (["--seed", "1"] if argv[1] == "gamma" else []))
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [["--kind", "index", "--bits", "11"],
         ["--kind", "gamma", "--gate-bits", "9", "--payload-dim", "3"],
         ["--kind", "gamma", "--gate-bits", "2", "--payload-dim", "17"]],
        ids=["index", "gate", "payload"],
    )
    def test_construct_size_above_the_cap(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(np.random, "default_rng", None)
        assert run(["construct"] + argv + (["--seed", "1"] if argv[1] == "gamma" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must lie in [1, " in err and err.count("\n") == 1

    def test_junta_dimension_above_the_packed_cap(self, capsys):
        rc = run(["construct", "--kind", "junta", "--n", "63", "--relevant", "1", "--seed", "1"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: junta construction needs n <= 62, got 63\n")

    @pytest.mark.parametrize("n", ["63", "64"])
    def test_rademacher_dimension_above_the_packed_cap(self, capsys, monkeypatch, n):
        # refused while the first pool member is built
        draws = []
        monkeypatch.setattr(
            rademacher_lab, "random_junta", lambda *a: draws.append(a) or random_junta(*a)
        )
        rc = run(["rademacher", "--n", n, "--s", "4", "--pool-count", "3",
                  "--m-grid", "8", "--trials", "10", "--seed", "1"])
        assert rc == 1 and len(draws) == 1
        assert capsys.readouterr() == ("", f"error: junta construction needs n <= 62, got {n}\n")

    @pytest.mark.parametrize("grid", ["0", "1", "-3", "", ","])
    def test_rademacher_m_grid_below_two(self, capsys, monkeypatch, grid):
        def estimate(*args, **kwargs):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(rademacher_lab, "empirical_rademacher", estimate)
        rc = run(["rademacher", "--n", "4", "--s", "4", "--pool-count", "2",
                  "--m-grid", grid, "--trials", "10", "--seed", "1"])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: m grid must be strictly increasing sizes >= 2, got [{grid.strip(',')}]\n"
        )

    @pytest.mark.parametrize("trials", ["0", "-2"])
    @pytest.mark.parametrize("mode", ["exact", "mc", "auto"])
    def test_rademacher_trials_below_one(self, capsys, monkeypatch, mode, trials):
        def draw(*args):
            raise AssertionError("a pool member was drawn")

        monkeypatch.setattr(rademacher_lab, "random_junta", draw)
        rc = run(["rademacher", "--n", "4", "--s", "4", "--pool-count", "2", "--m-grid", "8",
                  "--trials", trials, "--seed", "1", "--mode", mode])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: --trials must be >= 1, got {trials}\n")

    @pytest.mark.parametrize(
        "argv, shown",
        [(["rademacher", "--n", "4", "--s", "4", "--pool-count", "2", "--m-grid", "8,abc",
           "--trials", "10", "--seed", "1"], "--m-grid: 'abc' is not an integer"),
         (["construct", "--kind", "junta", "--n", "4", "--relevant", "1,2.5", "--seed", "1"],
          "--relevant: '2.5' is not an integer"),
         (["construct", "--kind", "junta", "--n", "4", "--relevant", "1", "--table", "0.5,x"],
          "--table: 'x' is not a number"),
         (["construct", "--kind", "parity", "--m", "3", "--subset", "1, two"],
          "--subset: ' two' is not an integer"),
         (["sensitivity", "--net", "NET", "--rho", "0.5,half"], "--rho: 'half' is not a number")],
        ids=["m-grid", "relevant", "table", "subset", "rho"],
    )
    def test_list_flag_bad_entry_named(self, tmp_path, capsys, argv, shown):
        _, net = write_net(tmp_path)
        rc = run([str(net) if arg == "NET" else arg for arg in argv])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {shown}\n")

    @pytest.mark.parametrize(
        "argv, shown",
        [(["--kind", "junta", "--n", "4", "--relevant", "1,1", "--seed", "1"],
          "duplicate relevant indices in (1, 1)"),
         (["--kind", "parity", "--m", "3", "--subset", "1,1"],
          "duplicate subset indices in (1, 1)")],
        ids=["relevant", "subset"],
    )
    def test_duplicate_indices_refused(self, tmp_path, capsys, argv, shown):
        out = tmp_path / "net.json"
        assert run(["construct", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("learn-low-degree", ["--net", "NET"]), ("learn-low-degree", ["--samples", "5"]),
         ("learn-low-degree", ["--holdout", "0"]), ("learn-low-degree", ["--seed", "1"]),
         ("learn-dlist", ["--net", "NET"]), ("learn-dlist", ["--full-cube"])],
        ids=["low-degree-net", "low-degree-samples", "low-degree-holdout",
             "low-degree-seed", "dlist-net", "dlist-full-cube"],
    )
    def test_learner_flag_beside_data(self, tmp_path, capsys, command, flag):
        _, net = write_net(tmp_path)
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n1,1,0.5\n1,-1,0.0\n")
        args = {"learn-low-degree": ["--degree", "1"],
                "learn-dlist": ["--s", "1", "--grid-m", "1"]}[command]
        flag = [str(net) if arg == "NET" else arg for arg in flag]
        assert run([command, "--data", str(data)] + args + flag) == 2
        assert capsys.readouterr() == ("", f"error: {flag[0]} cannot be combined with --data\n")

    def test_grid_record_without_s(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n": 10, "s": 4}, {"n": 10}]))
        self.assert_one_error_line(capsys, run(["bounds-table", "--grid", str(grid)]))

    @pytest.mark.parametrize(
        "body",
        ["x1,x2,y\n1,inf,0.5\n", "x1,x2,y\n1,1.5,0.5\n", "x1,x2,y\n1,-1,0.5,7\n"],
        ids=["inf-sign", "fractional-sign", "extra-field"],
    )
    @pytest.mark.parametrize("command", ["learn-low-degree", "learn-dlist"])
    def test_malformed_dataset_csv(self, tmp_path, capsys, body, command):
        data = tmp_path / "data.csv"
        data.write_text(body)
        args = {"learn-low-degree": ["--degree", "1"],
                "learn-dlist": ["--s", "1", "--grid-m", "1"]}[command]
        self.assert_one_error_line(capsys, run([command, "--data", str(data)] + args))

    @pytest.mark.parametrize(
        "key, text",
        [("k", "[1]"), ("n", "null"), ("u", '{"a": 1}'), ("n", "1e999"), ("n", "3.9"),
         ("s", "2.0"), ("k", "true"), ("n", '"3"'), ("u", "[true, false]"),
         ("w", '[[1, "1", 0], [-1, 1, 0]]'), ("b", '[1, "x"]'), ("b", "[1, null]"),
         ("w", "[[1, true, 0], [-1, 1, 0]]"), ("u", "[true, 1.5]"), ("b", "[1, false]")],
        ids=["k-list", "n-null", "u-object", "n-overflow", "n-fraction", "s-float",
             "k-bool", "n-string", "u-bool", "w-string", "b-text", "b-null",
             "w-bool-among-ints", "u-bool-among-floats", "b-bool-among-ints"],
    )
    @pytest.mark.parametrize("command", _NET_COMMANDS, ids=lambda argv: argv[0])
    def test_malformed_net_field(self, tmp_path, capsys, key, text, command):
        _, path = write_net(tmp_path)
        payload = json.loads(path.read_text())
        payload[key] = "PLACEHOLDER"
        path.write_text(json.dumps(payload).replace('"PLACEHOLDER"', text))
        rc = run([command[0], "--net", str(path)] + command[1:])
        self.assert_one_error_line(capsys, rc)

    @pytest.mark.parametrize(
        "record",
        ['{"n": null, "s": 4}', '{"n": 4, "s": 4, "k": null}', '{"n": 4, "s": 1e999}',
         '{"n": 4, "s": 4, "W": 1e200}', '{"n": "4", "s": 2.5, "W": "1.5", "k": true}',
         '{"n": "4", "s": 2}', '{"n": 4, "s": 2.5}', '{"n": 4, "s": 2, "k": true}',
         '{"n": 4, "s": 2, "m": 10.0}', '{"n": 4, "s": 2, "W": "1.5"}',
         '{"n": 4, "s": 2, "rho": false}', '{"n": 4, "s": 2, "C": "2"}',
         '{"n": 4, "s": 2, "eps": 1e-300}'],
        ids=["n-null", "k-null", "s-overflow", "bound-overflow", "all-coerced", "n-string",
             "s-fraction", "k-bool", "m-float", "W-string", "rho-bool", "C-string",
             "eps-squared-underflow"],
    )
    def test_malformed_grid_record(self, tmp_path, capsys, record):
        grid = tmp_path / "grid.json"
        grid.write_text(f'[{{"n": 10, "s": 4}}, {record}]')
        self.assert_one_error_line(capsys, run(["bounds-table", "--grid", str(grid)]))


class TestThreadsFlag:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_rejected(self, tmp_path, threads):
        _, path = write_net(tmp_path)
        assert run(["sensitivity", "--net", str(path), "--rho", "0.5",
                    "--trials", "100", "--seed", "1", "--threads", threads]) == 2
        assert run(["rademacher", "--n", "5", "--s", "4", "--pool-count", "2",
                    "--m-grid", "8", "--trials", "100", "--seed", "1",
                    "--threads", threads]) == 2

    def test_huge_count_is_clamped(self, tmp_path, capsys, monkeypatch):
        # no real thread starts: the executor runs each chunk inline
        _, path = write_net(tmp_path)
        argv = ["sensitivity", "--net", str(path), "--rho", "0.5",
                "--trials", "40000", "--seed", "1", "--threads"]
        assert run(argv + ["1"]) == 0
        alone = capsys.readouterr().out
        created = run_chunks_inline(monkeypatch, 64)
        assert run(argv + [str(10**12)]) == 0
        assert capsys.readouterr().out == alone
        assert created == [3]  # 40000 trials are 3 chunks

    def test_learners_take_no_threads(self, tmp_path):
        _, path = write_net(tmp_path)
        assert run(["learn-low-degree", "--net", str(path), "--samples", "50",
                    "--seed", "1", "--degree", "1", "--threads", "1"]) == 2
        assert run(["learn-dlist", "--net", str(path), "--full-cube", "--s", "2",
                    "--grid-m", "1", "--threads", "1"]) == 2


class TestParserReuse:
    """``run`` parses with one parser per process; each call must behave as
    the first call of a fresh process does."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_help_then_run_as_in_a_fresh_process(self, tmp_path, capsys):
        _, path = write_net(tmp_path)
        argv = ["transform", "--net", str(path)]
        build_parser.cache_clear()
        assert run(argv) == 0
        fresh_out = capsys.readouterr().out
        help_text = build_parser.__wrapped__().format_help()
        build_parser.cache_clear()
        assert run(["--help"]) == 0
        assert capsys.readouterr().out == help_text
        assert run(argv) == 0
        assert capsys.readouterr().out == fresh_out
        assert run(["transform", "--help"]) == 0
        assert "--net" in capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == fresh_out

    def test_threads_default_after_an_explicit_count(self, tmp_path, monkeypatch):
        _, path = write_net(tmp_path)
        seen = []
        real = cli.noise_sensitivity_mc

        def spy(*args, threads):
            seen.append(threads)
            return real(*args, threads=threads)

        monkeypatch.setattr(cli, "noise_sensitivity_mc", spy)
        run_chunks_inline(monkeypatch, 2)
        argv = ["sensitivity", "--net", str(path), "--rho", "0.5", "--trials", "100",
                "--seed", "1"]
        assert run(argv + ["--threads", "2"]) == 0
        assert run(argv) == 0
        assert seen == [2, 1]


# -- fuzzing the three input readers ------------------------------------------

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
_RAW = st.one_of(st.binary(max_size=24), st.text(max_size=24).map(str.encode))


def _mutated(draw, payload: dict) -> dict:
    """payload with up to two fields deleted or replaced by junk."""
    keys = st.sets(st.sampled_from(sorted(payload)), max_size=2) if payload else st.just(())
    for key in draw(keys):
        if draw(st.booleans()):
            del payload[key]
        else:
            payload[key] = draw(_JUNK)
    return payload


@st.composite
def _net_files(draw) -> bytes:
    n, s = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    weights = st.floats(-4.0, 4.0) | st.floats()
    payload = {
        "n": n,
        "s": s,
        "k": draw(st.integers(1, s)),
        "u": draw(st.lists(weights, min_size=s, max_size=s)),
        "w": draw(st.lists(st.lists(weights, min_size=n, max_size=n), min_size=s, max_size=s)),
        "b": draw(st.lists(weights, min_size=s, max_size=s)),
    }
    return json.dumps(_mutated(draw, payload)).encode()


@st.composite
def _grid_files(draw) -> bytes:
    values = st.integers(-1, 40) | st.floats(-2.0, 50.0) | st.floats() | _JUNK
    keys = ["n", "s", "k", "W", "B", "R", "m", "eps", "delta", "rho", "C", "measured_x"]
    records = [
        _mutated(draw, {key: draw(values) for key in draw(st.sets(st.sampled_from(keys)))})
        for _ in range(draw(st.integers(1, 2)))
    ]
    return json.dumps(records).encode()


@st.composite
def _dataset_files(draw) -> bytes:
    n = draw(st.integers(1, 3))
    cells = st.sampled_from(["1", "-1", "1.0", "-1e0", "0", "1.5", "inf", "nan", "", "x"])
    signs = st.sampled_from(["1", "-1"])
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([n + 1, n + 1, n + 1, n, n + 2]))
        row = [draw(signs | cells) for _ in range(width)]
        if width == n + 1:
            row[-1] = draw(cells | st.floats().map(repr))
        rows.append(",".join(row))
    header = [f"x{i}" for i in range(1, n + 1)] + ["y"]
    if draw(st.booleans()):
        header = draw(st.lists(st.sampled_from(["x1", "y", "z", ""]), max_size=3))
    return "\n".join([",".join(header)] + rows).encode()


def _assert_clean_exit(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestReaderFuzz:
    """Whatever a reader is fed, the CLI exits 0, 1 or 2 and prints no traceback."""

    @_FUZZ
    @given(content=_net_files() | _RAW)
    def test_net_json(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("net") / "net.json"
        path.write_bytes(content)
        for command in _NET_COMMANDS:
            _assert_clean_exit([command[0], "--net", str(path)] + command[1:])

    @_FUZZ
    @given(content=_grid_files() | _RAW)
    def test_grid_json(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("grid") / "grid.json"
        path.write_bytes(content)
        _assert_clean_exit(["bounds-table", "--grid", str(path)])

    @_FUZZ
    @given(content=_dataset_files() | _RAW)
    def test_dataset_csv(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("data") / "data.csv"
        path.write_bytes(content)
        _assert_clean_exit(["learn-low-degree", "--data", str(path), "--degree", "1"])
        _assert_clean_exit(["learn-dlist", "--data", str(path), "--s", "1", "--grid-m", "1"])


# -- fuzzing the command lines of all eight subcommands -----------------------

# Values any flag may be given instead of a sensible one.  Of the size flags
# only --samples, --holdout and --m-grid get a huge count, _HUGE: 8 PiB of
# int64 draws, beyond a 47-bit address space, so the allocation fails at once.
# A huge --trials or --pool-count would run for hours instead (per-chunk
# bookkeeping grows with --trials, and the pool is built one member at a time),
# and a large --bits makes dense tables.  The --n of construct and rademacher
# may be huge, since a junta above 62 inputs is refused before any allocation.
_ARGV_JUNK = ["nan", "inf", "-1", "0", "1e308", "x", ""]
_HUGE = "1000000000000000"

# subcommand -> (required flags, optional flags), each mapped to its sensible
# values; None marks a flag that takes no value.  NET, DATA, GRID and MISSING
# stand for input files.  --threads is never given junk, only 1 or 2.
_ARGV_FLAGS = {
    "construct": (
        {"--kind": ["junta", "index", "parity", "gamma"]},
        {"--n": ["1", "4", "63", "1000000000"], "--relevant": ["1", "1,2", "2,2", "5"],
         "--table": ["1,-1", "1,-1,-1,1"], "--bits": ["1", "2", "11"],
         "--m": ["2", "3", "13"], "--subset": ["1", "1,2", "4"],
         "--gate-bits": ["1", "2", "9"], "--payload-dim": ["1", "3", "17"],
         "--gamma": ["0.5", "2"], "--seed": ["1", "7"]},
    ),
    "transform": ({"--net": ["NET", "DATA", "MISSING"]}, {"--format": ["csv", "json"]}),
    "sensitivity": (
        {"--net": ["NET", "MISSING"]},
        {"--rho": ["0.5", "0.2,-0.9", "1", "1.5"], "--trials": ["1", "64"],
         "--seed": ["1", "7"], "--threads": ["1", "2"], "--format": ["csv", "json"]},
    ),
    "bounds-table": ({"--grid": ["GRID", "NET", "MISSING"]}, {"--format": ["csv", "json"]}),
    "learn-low-degree": (
        {"--degree": ["0", "1", "2", "9"]},
        {"--data": ["DATA", "NET"], "--net": ["NET", "DATA"], "--samples": ["1", "20", _HUGE],
         "--holdout": ["1", "8", _HUGE], "--seed": ["1", "7"], "--ridge": ["0", "1e-10", "1"]},
    ),
    "learn-dlist": (
        {"--s": ["1", "2", "4"], "--grid-m": ["1", "2", "3"]},
        {"--data": ["DATA", "NET"], "--net": ["NET", "DATA"], "--full-cube": [None],
         "--tol": ["0", "1e-6", "0.5"]},
    ),
    "rademacher": (
        {"--n": ["2", "4", "6", "63", "1000000000"], "--s": ["1", "2", "4"],
         "--pool-count": ["1", "2"],
         "--m-grid": ["2", "4,8", "8,4", "1", "-3", "", f"8,{_HUGE}"], "--trials": ["1", "16"],
         "--seed": ["1", "7"]},
        {"--k": ["1", "2", "3"], "--mode": ["auto", "exact", "mc"],
         "--threads": ["1", "2"], "--format": ["csv", "json"]},
    ),
    "verify": ({}, {"--all": [None], "--n-max": ["1", "3"], "--seed": ["1", "7"]}),
}


@st.composite
def _argvs(draw, files: dict) -> list[str]:
    """An argv that gives every required flag and each optional one half the
    time, with sensible values except on up to two flags, which get junk."""
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    required, optional = _ARGV_FLAGS[command]
    flags = {**required, **optional}
    junk = draw(st.sets(st.sampled_from(sorted(set(flags) - {"--threads"})), max_size=2))
    argv = [command]
    for flag, values in flags.items():
        if flag in optional and draw(st.booleans()):
            continue
        if values == [None]:
            argv.append(flag)
            continue
        value = draw(st.sampled_from(_ARGV_JUNK if flag in junk else values))
        argv += [flag, files.get(value, value)]
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    _, net = write_net(root)
    data = root / "data.csv"
    data.write_text("x1,x2,y\n1,1,0.5\n1,-1,0.0\n-1,1,0.0\n-1,-1,0.5\n")
    grid = root / "grid.json"
    grid.write_text(json.dumps([{"n": 6, "s": 4, "k": 1, "W": 1, "B": 1, "m": 100,
                                 "eps": 0.1, "delta": 0.1, "rho": 0.5}]))
    return {"NET": str(net), "DATA": str(data), "GRID": str(grid),
            "MISSING": str(root / "missing")}


class TestArgvFuzz:
    """Whatever flags a subcommand gets, it exits 0, 1 or 2 with no
    traceback and at most one error line."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_all_subcommands(self, argv_files, data):
        argv = data.draw(_argvs(argv_files))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run(argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1


# -- the dataset reader against the row-by-row reader -------------------------


@st.composite
def _dataset_texts(draw) -> str:
    """Dataset CSV text with bad signs, short, long and non-numeric rows,
    blank lines and quoted cells that hold newlines."""
    n = draw(st.integers(1, 3))
    cells = st.sampled_from(
        ["1", "-1", "1.0", "0", "2", "inf", "nan", "", "x", '"1\n"', '"\n-1"', '"0\n5"']
    )
    signs = st.sampled_from(["1", "-1", '"-1\n"'])
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        width = draw(st.sampled_from([n + 1, n + 1, n + 1, n + 1, 0, n, n + 2]))
        rows.append(",".join(draw(signs | cells) for _ in range(width)))
    body = ",".join([f"x{i}" for i in range(1, n + 1)] + ["y"])
    for row in rows:
        body += draw(st.sampled_from(["\n", "\n", "\r\n", "\n\n"])) + row
    return body + "\n"


def _read_outcome(reader, path):
    """The dataset a reader returns, or the text of its ValueError."""
    try:
        data = reader(path)
    except ValueError as exc:
        return str(exc)
    return data.n, data.idx.tolist(), data.y.tolist()


class TestDatasetReader:
    """``_read_dataset_csv`` checks signs once over the whole table; the
    first bad line in file order must still win, with the same text."""

    @staticmethod
    def assert_same_as_reference(path):
        expected = _read_outcome(reference_read_dataset_csv, path)
        assert _read_outcome(_read_dataset_csv, path) == expected
        if isinstance(expected, str):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = run(["learn-low-degree", "--data", str(path), "--degree", "1"])
            assert rc == 2
            assert err.getvalue() == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("x1,x2,y\n1,-1,0.5\n1,0,0.5\n1,-1\n", "line 3: a sign is not +-1"),
            ("x1,x2,y\n1,2,0.5\n-1,x,0.5\n", "line 2: a sign is not +-1"),
            ("x1,y\n0,1\n\n", "line 2: a sign is not +-1"),
            ("x1,x2,y\n\n1,1,0.5\n", "line 2 has 0 fields, expected 3"),
            ('x1,x2,y\n"1\n",1,0.5\n1,"\n3",0.5\n1,1\n', "line 5: a sign is not +-1"),
            ('x1,y\n"\n0",1\n1,abc\n', "line 3: a sign is not +-1"),
            ('x1,y\n1,"\n2"\n1,abc\n', "could not convert string to float: 'abc'"),
        ],
        ids=["sign-then-short", "sign-then-word", "sign-then-blank", "blank-line",
             "quoted-newlines", "quoted-sign-then-word", "float-error"],
    )
    def test_first_bad_line_wins(self, tmp_path, body, message):
        path = tmp_path / "data.csv"
        path.write_text(body, newline="")
        assert _read_outcome(_read_dataset_csv, path).endswith(message)
        self.assert_same_as_reference(path)

    def test_field_over_the_csv_limit(self, tmp_path):
        # csv refuses fields over 131,072 characters; one error line, exit 2
        path = tmp_path / "data.csv"
        path.write_text("x1,y\n1," + "1" * 200_000 + "\n", newline="")
        message = _read_outcome(_read_dataset_csv, path)
        assert message == "dataset CSV line 2: field larger than field limit (131072)"
        self.assert_same_as_reference(path)
        # an earlier bad sign still wins
        path.write_text("x1,y\n0,1\n1," + "1" * 200_000 + "\n", newline="")
        assert _read_outcome(_read_dataset_csv, path).endswith("line 2: a sign is not +-1")
        self.assert_same_as_reference(path)

    def test_quoted_newlines_read(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('x1,x2,y\n"-1\n",1,0.5\n\r\n', newline="")
        self.assert_same_as_reference(path)  # a trailing blank line is short
        path.write_text('x1,x2,y\n"-1\n",1,0.5\r\n1,"\n-1",2\n', newline="")
        assert _read_outcome(_read_dataset_csv, path) == (2, [1, 2], [0.5, 2.0])
        self.assert_same_as_reference(path)

    @_FUZZ
    @given(text=_dataset_texts())
    def test_matches_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("data") / "data.csv"
        path.write_text(text, newline="")
        self.assert_same_as_reference(path)
