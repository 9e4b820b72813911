"""Command-line contract: outputs, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from sparseact import CubePoint, SparseNet, tabulate, wht
from sparseact.cli import run


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

    def test_grid_record_without_s(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n": 10, "s": 4}, {"n": 10}]))
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
