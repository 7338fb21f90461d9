import json
import math
from pathlib import Path

import numpy as np
import pytest

from nulldist import FiniteLengthSpace, path_space
from nulldist import cli
from nulldist.cli import main
from nulldist.formats import (
    load_distance_matrix_csv,
    load_edge_list_csv,
    read_long_matrix_csv,
    save_distance_matrix_csv,
    write_long_matrix_csv,
    write_report_json,
)


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def make_cone_inputs(tmp: Path, n_fiber=9, n_t=8, warping=None) -> Path:
    save_distance_matrix_csv(tmp / "fiber.csv", path_space(n_fiber, 1.0))
    cone = {
        "interval": [0.0, 1.0],
        "n_t": n_t,
        "fiber": "fiber.csv",
        "warping": warping or {"kind": "constant", "params": {"value": 1.0}},
    }
    write(tmp / "cone.json", json.dumps(cone))
    return tmp / "cone.json"


class TestFormats:
    def test_distance_matrix_roundtrip(self, tmp_path):
        space = path_space(5, 1.0)
        save_distance_matrix_csv(tmp_path / "m.csv", space)
        back = load_distance_matrix_csv(tmp_path / "m.csv")
        assert np.array_equal(back.dist, space.dist)

    def test_edge_list(self, tmp_path):
        write(tmp_path / "e.csv", "src,dst,weight\n0,1,1.0\n1,2,0.5\n")
        space = load_edge_list_csv(tmp_path / "e.csv")
        assert space.dist[0, 2] == pytest.approx(1.5)
        assert space.provenance == "graph-induced"

    def test_long_matrix_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.uniform(0, 1, (3, 4))
        write_long_matrix_csv(tmp_path / "m.csv", mat, ["a", "b", "c"])
        _, _, back = read_long_matrix_csv(tmp_path / "m.csv")
        assert np.array_equal(back, mat)  # 17 significant digits round-trip

    def test_report_booleans_stay_booleans(self, tmp_path):
        write_report_json(tmp_path / "r.json", {"ok": True, "bad": np.bool_(False), "n": 1})
        text = (tmp_path / "r.json").read_text()
        assert '"ok": true' in text and '"bad": false' in text and '"n": 1' in text


class TestCommands:
    def test_validate_good_metric(self, tmp_path, capsys):
        save_distance_matrix_csv(tmp_path / "m.csv", path_space(4, 1.0))
        cfg = {
            "command": "validate",
            "inputs": {"space": "m.csv"},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metric"] == []

    def test_validate_broken_metric_status_one(self, tmp_path):
        bad = FiniteLengthSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
        save_distance_matrix_csv(tmp_path / "m.csv", bad)
        # corrupt symmetry by hand
        rows = (tmp_path / "m.csv").read_text().splitlines()
        rows[2] = "2.0,0"
        write(tmp_path / "m.csv", "\n".join(rows) + "\n")
        cfg = {
            "command": "validate",
            "inputs": {"space": "m.csv"},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert any("asymmetry" in v for v in report["metric"])

    def test_parse_error_status_two(self, tmp_path):
        write(tmp_path / "cfg.json", "{not json")
        assert main(["--config", str(tmp_path / "cfg.json")]) == 2

    def test_unknown_command(self, tmp_path):
        write(tmp_path / "cfg.json", json.dumps({"command": "fly"}))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 2

    def test_missing_input(self, tmp_path):
        cfg = {"command": "validate", "inputs": {"space": "nope.csv"}}
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 2

    def test_nulldist_run(self, tmp_path):
        make_cone_inputs(tmp_path)
        cfg = {
            "command": "nulldist",
            "inputs": {"cone": "cone.json"},
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        rows, cols, mat = read_long_matrix_csv(tmp_path / "out" / "nulldist.csv")
        assert len(cols) == 9 * 9
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "nulldist"
        assert "sha256" in manifest["inputs"]["cone"]

    def test_gh_run(self, tmp_path):
        save_distance_matrix_csv(tmp_path / "a.csv", path_space(3, 1.0))
        save_distance_matrix_csv(tmp_path / "b.csv", path_space(3, 1.2))
        cfg = {
            "command": "gh",
            "inputs": {"a": "a.csv", "b": "b.csv"},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["gh_distance"] == pytest.approx(0.1)

    def test_net_run(self, tmp_path):
        save_distance_matrix_csv(tmp_path / "m.csv", path_space(101, 1.0))
        cfg = {
            "command": "net",
            "inputs": {"space": "m.csv"},
            "params": {"eps": 0.25},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["verified"] and rep["n_centers"] <= 5

    def test_nullcurve_run(self, tmp_path):
        make_cone_inputs(tmp_path, n_fiber=11, n_t=10)
        cfg = {
            "command": "nullcurve",
            "inputs": {"cone": "cone.json"},
            "params": {"p": [0, 0], "q": [0, 5]},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["t_endpoint_error"] <= 1e-6

    def test_converge_run(self, tmp_path):
        save_distance_matrix_csv(tmp_path / "fiber.csv", path_space(11, 1.0))
        scenario = {
            "interval": [0.0, 1.0],
            "fiber": "fiber.csv",
            "limit": {"kind": "constant", "params": {"value": 1.0}},
            "family": [
                {"kind": "constant", "params": {"value": 1.1}},
                {"kind": "constant", "params": {"value": 1.02}},
            ],
            "lower_bound": 0.9,
            "n_t": 20,
        }
        write(tmp_path / "seq.json", json.dumps(scenario))
        cfg = {
            "command": "converge",
            "inputs": {"scenario": "seq.json"},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        status = main(["--config", str(tmp_path / "cfg.json")])
        table = (tmp_path / "out" / "converge.csv").read_text().splitlines()
        assert table[0].startswith("j,eps_j,sup_deviation")
        assert status in (0, 1)
        report = (tmp_path / "out" / "report.json").read_text()
        assert '"monotone_ok": true' in report

    def test_timesep_run(self, tmp_path):
        make_cone_inputs(tmp_path, n_fiber=21, n_t=8)
        cfg = {
            "command": "timesep",
            "inputs": {"cone": "cone.json"},
            "params": {"sources": [[0, 0], [4, 10], [8, 20]]},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0


def make_curvature_inputs(tmp: Path, **changes) -> Path:
    """The sample curvature experiment: 41-point path fiber, n_t = 40 on
    [0, 2], five triangles from seed 7, lower bound K = 0 at tol 0.1;
    `changes` replace experiment fields."""
    save_distance_matrix_csv(tmp / "fiber.csv", path_space(41, 1.0))
    experiment = {
        "interval": [0.0, 2.0],
        "n_t": 40,
        "fiber": "fiber.csv",
        "warping": {"kind": "constant", "params": {"value": 1.0}},
        "bound": 0.0,
        "direction": "lower",
        "n_triangles": 5,
        "n_probe": 4,
        "tol": 0.1,
        "seed": 7,
        **changes,
    }
    write(tmp / "curvature.json", json.dumps(experiment))
    cfg = {"command": "curvature", "inputs": {"experiment": "curvature.json"}}
    return write(tmp / "cfg.json", json.dumps(cfg))


class TestCurvature:
    def test_sides_stay_below_the_model_size_bound(self, tmp_path):
        # on [0, 4] sampled sides reach 3.87, beyond pi, the bound at K = 1
        cfg = make_curvature_inputs(tmp_path, interval=[0.0, 4.0], bound=1.0)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["sampling"]["filtered_by_size"] > 0

    def test_zero_probes_is_a_parameter_error(self, tmp_path):
        cfg = make_curvature_inputs(tmp_path, n_probe=0)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def make_persist_inputs(tmp: Path, n_t: int, tol: float) -> Path:
    save_distance_matrix_csv(tmp / "f0.csv", path_space(11, 1.0))
    save_distance_matrix_csv(tmp / "lim.csv", path_space(21, 1.0))
    experiment = {
        "mode": "product",
        "fibers": ["f0.csv"],
        "limit": "lim.csv",
        "interval": [0.0, 3.0],
        "n_t": n_t,
        "seed": 11,
        "n_triangles": 3,
        "n_probe": 4,
        "tol": tol,
        "side_cap": 2.0,
    }
    write(tmp / "persist.json", json.dumps(experiment))
    cfg = {"command": "persist", "inputs": {"experiment": "persist.json"}}
    return write(tmp / "cfg.json", json.dumps(cfg))


class TestOverrides:
    def test_tol_zero_curvature(self, tmp_path):
        cfg = make_curvature_inputs(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        # one probe pair sits 0.037 above the model, inside tol 0.1 only
        assert main(["--config", str(cfg), "--out", str(tmp_path / "b"), "--tol", "0"]) == 1

    def test_tol_zero_persist(self, tmp_path):
        cfg = make_persist_inputs(tmp_path, n_t=60, tol=0.25)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["--config", str(cfg), "--out", str(tmp_path / "b"), "--tol", "0"]) == 1
        rep = json.loads((tmp_path / "b" / "report.json").read_text())
        assert rep["agreement"] is False

    def test_tol_zero_net(self, tmp_path):
        # without params.eps the tolerance is the net radius; zero is refused
        save_distance_matrix_csv(tmp_path / "m.csv", path_space(11, 1.0))
        cfg = {"command": "net", "inputs": {"space": "m.csv"}, "output_dir": str(tmp_path / "out")}
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        assert main(["--config", str(tmp_path / "cfg.json"), "--tol", "0"]) == 2

    def test_n_t_timesep(self, tmp_path):
        make_cone_inputs(tmp_path, n_fiber=21, n_t=8)
        cfg = {
            "command": "timesep",
            "inputs": {"cone": "cone.json"},
            "params": {"sources": [[0, 0], [2, 10]]},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json"), "--n-t", "4"]) == 0
        _, cols, _ = read_long_matrix_csv(tmp_path / "out" / "timesep.csv")
        assert len(cols) == 5 * 21

    def test_n_t_curvature(self, tmp_path):
        cfg = make_curvature_inputs(tmp_path)
        main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--n-t", "10"])
        witness = json.loads((tmp_path / "out" / "report.json").read_text())["worst_witness"]
        levels = [v[0] for v in witness["triangle"]] + [v[0] for v in witness["probes"]]
        assert max(levels) <= 10

    def test_n_t_persist(self, tmp_path):
        # at tol 0.05 the limit cone misses K = 0 at n_t = 60 (margin -0.21)
        # and meets it at n_t = 8
        cfg = make_persist_inputs(tmp_path, n_t=60, tol=0.05)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
        assert main(["--config", str(cfg), "--out", str(tmp_path / "b"), "--n-t", "8"]) == 0


class TestEngineErrors:
    def test_runtime_error_exits_three(self, tmp_path, monkeypatch, capsys):
        make_cone_inputs(tmp_path)
        cfg = {"command": "nulldist", "inputs": {"cone": "cone.json"}, "output_dir": str(tmp_path / "out")}
        write(tmp_path / "cfg.json", json.dumps(cfg))

        def stuck(*args, **kwargs):
            raise RuntimeError("null-distance sweeps did not stabilize")

        monkeypatch.setattr(cli, "null_distance", stuck)
        assert main(["--config", str(tmp_path / "cfg.json")]) == cli.ENGINE_ERROR == 3
        assert "error: null-distance sweeps did not stabilize" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        make_cone_inputs(tmp_path, n_fiber=11, n_t=10)
        cfg = {
            "command": "nulldist",
            "inputs": {"cone": "cone.json"},
            "seed": 9,
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", str(tmp_path / "cfg.json"), "--out", str(out1)]) == 0
        assert main(["--config", str(tmp_path / "cfg.json"), "--out", str(out2)]) == 0
        for name in ("nulldist.csv", "report.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestPreLengthIO:
    def test_pls_roundtrip_and_validate(self, tmp_path):
        from conftest import random_pre_length_space
        from nulldist.formats import load_pls_json, save_pls_json

        space, tau = random_pre_length_space(6, 11)
        save_pls_json(tmp_path / "pls.json", space, tau)
        back, tau_back = load_pls_json(tmp_path / "pls.json")
        assert np.array_equal(back.causal, space.causal)
        assert np.array_equal(back.rho, space.rho)
        assert np.allclose(tau_back, tau)

        cfg = {
            "command": "validate",
            "inputs": {"pls": "pls.json"},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["pre_length"] == []
        assert rep["time_function"]["passed"]

    def test_pls_infinite_rho_roundtrip(self, tmp_path):
        from nulldist import DiscretePreLengthSpace, FiniteLengthSpace
        from nulldist.formats import load_pls_json, save_pls_json

        base = FiniteLengthSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
        causal = np.array([[True, True], [False, True]])
        chrono = np.array([[False, True], [False, False]])
        rho = np.array([[0.0, math.inf], [0.0, 0.0]])
        space = DiscretePreLengthSpace(base, causal, chrono, rho)
        save_pls_json(tmp_path / "pls.json", space)
        back, _ = load_pls_json(tmp_path / "pls.json")
        assert math.isinf(back.rho[0, 1])


class TestConvergeConeRef:
    def test_cone_reference_schema(self, tmp_path):
        make_cone_inputs(tmp_path, n_fiber=11, n_t=16)
        scenario = {
            "cone": "cone.json",
            "limit": {"kind": "constant", "params": {"value": 1.0}},
            "family": [{"kind": "constant", "params": {"value": 1.05}}],
            "lower_bound": 0.9,
            "eps_schedule": [0.05],
        }
        write(tmp_path / "seq.json", json.dumps(scenario))
        cfg = {
            "command": "converge",
            "inputs": {"scenario": "seq.json"},
            "output_dir": str(tmp_path / "out"),
        }
        write(tmp_path / "cfg.json", json.dumps(cfg))
        status = main(["--config", str(tmp_path / "cfg.json")])
        assert status in (0, 1)
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["members"][0]["eps"] == pytest.approx(0.05)
