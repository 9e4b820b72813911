"""Command-line contract: outputs, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from helpers import reference_csv, reference_json
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sparseact import CubePoint, SparseNet, tabulate, wht
from sparseact.cli import _columns_to_csv, _columns_to_json, run
from sparseact.config import REL_TOL_EXACT

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
    byte as recorded (sha256) from the row-by-row writer and the sign-table
    tabulation; both nets have dyadic weights, so not a digit may move."""

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


_TEXT = st.text(
    alphabet=st.sampled_from(list("ab, \"\n\r%é€") + ["\u2028", "\x00"]), max_size=4
)
_FLOATS = st.floats() | st.sampled_from([-0.0, 1e-300, 1e300])
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
    """(header, columns): all-float, all-int and mixed columns of equal height."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width, unique=True))
    height = draw(st.integers(0, 6))
    columns = [
        draw(st.lists(draw(st.sampled_from([_FLOATS, st.integers(), _CELLS])),
                      min_size=height, max_size=height))
        for _ in range(width)
    ]
    return header, columns


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
    def test_same_bytes_and_errors(self, table):
        header, columns = table
        rows = [list(row) for row in zip(*columns)]
        assert _text_or_error(_columns_to_csv, header, columns) == _text_or_error(
            reference_csv, header, rows
        )
        assert _text_or_error(_columns_to_json, header, columns) == _text_or_error(
            reference_json, header, rows
        )

    @pytest.mark.parametrize(
        "write, message",
        [(_columns_to_csv, "non-finite result inf"),
         (_columns_to_json, "Out of range float values are not JSON compliant: inf")],
    )
    def test_first_non_finite_cell_in_row_order(self, write, message):
        with pytest.raises(ValueError) as exc:
            write(["x", "y"], [[1.0, float("nan")], [float("inf"), 2.0]])
        assert str(exc.value) == message


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
        want = avg_sensitivity_bound(ClassParams(n=8, s=4, k=1, W=1.5, B=2.0)).value
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
            x = CubePoint(3, u)
            rows.append(",".join(str(s) for s in x.signs()) + f",{net.eval(x)!r}")
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "model.json"
        assert run(["learn-low-degree", "--data", str(data), "--degree", "3",
                    "--ridge", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["train_loss"]["mse"] < 1e-12

    def test_learn_low_degree_wide_csv(self, tmp_path):
        # 30 sign columns: more than a CubePoint holds, within packed int64
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
    """``rademacher`` tables as recorded before exact mode moved to the
    whole-cube kernel: Monte-Carlo bytes must not move at all, and exact
    rows only within REL_TOL_EXACT."""

    ARGS = ["rademacher", "--n", "6", "--s", "4", "--pool-count", "4",
            "--trials", "20000", "--seed", "3"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mc_bytes_match_recorded(self, capsys, fmt):
        recorded = json.loads((DATA / "rademacher_tables.sha256.json").read_text())
        args = self.ARGS + ["--mode", "mc", "--m-grid", "8,32", "--format", fmt]
        assert run(args) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == recorded[f"mc {fmt}"]

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
        [("k", "[1]"), ("n", "null"), ("u", '{"a": 1}'), ("n", "1e999")],
        ids=["k-list", "n-null", "u-object", "n-overflow"],
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
         '{"n": 4, "s": 4, "W": 1e200}'],
        ids=["n-null", "k-null", "s-overflow", "bound-overflow"],
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

    def test_learners_take_no_threads(self, tmp_path):
        _, path = write_net(tmp_path)
        assert run(["learn-low-degree", "--net", str(path), "--samples", "50",
                    "--seed", "1", "--degree", "1", "--threads", "1"]) == 2
        assert run(["learn-dlist", "--net", str(path), "--full-cube", "--s", "2",
                    "--grid-m", "1", "--threads", "1"]) == 2


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
