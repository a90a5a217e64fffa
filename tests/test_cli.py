import argparse
import csv
import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from scscreen import cli
from scscreen.baseline import FEATURE_NAMES, load_element_features
from scscreen.cli import main
from scscreen.dataset import Source, make_record
from scscreen.nn import load_checkpoint
from scscreen.ptable import SYMBOLS
from scscreen.screen import load_experiment_spec, spec_from_dict

from test_screen import COLD, cod_world, eval_list_rows, sc_world, screen_cod


def write_input_csv(path, records):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["formula", "tc_K", "year"])
        for r in records:
            w.writerow(
                [
                    r.raw_formula,
                    "" if r.tc_kelvin is None else r.tc_kelvin,
                    "" if r.year is None else r.year,
                ]
            )


TINY_MODEL = {
    "conv_layers": 1,
    "channels_per_layer": 4,
    "dense_hidden": 0,
    "tc_transform": "linear",
    "seed": 7,
}
TINY_TRAIN = {"learning_rate": 2e-2, "batch_size": 8, "epochs": 3, "shuffle_seed": 3}


def write_config(path, **overrides):
    cfg = {"name": "cli-toy", "model": dict(TINY_MODEL), "train": dict(TINY_TRAIN)}
    cfg.update(overrides)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return str(path)


@pytest.fixture
def world(tmp_path):
    paths = {
        "sc": tmp_path / "sc.csv",
        "cod": tmp_path / "cod.csv",
        "eval": tmp_path / "eval.csv",
        "out": tmp_path / "out",
    }
    write_input_csv(paths["sc"], sc_world())
    write_input_csv(paths["cod"], screen_cod())
    write_input_csv(paths["eval"], eval_list_rows())
    return paths


class TestParse:
    def test_worked_example(self, capsys):
        assert main(["parse", "--formula", "H2He3"]) == 0
        assert capsys.readouterr().out.strip() == "H:0.4 He:0.6"

    def test_json_output(self, capsys):
        assert main(["parse", "--formula", "H2He3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"H": 0.4, "He": 0.6}

    def test_bad_formula_is_data_error(self, capsys):
        assert main(["parse", "--formula", "Xq9"]) == 2
        assert "scscreen" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self):
        assert main(["parse"]) == 1


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "scscreen" in capsys.readouterr().out

    def test_help(self):
        assert main(["--help"]) == 0

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("SCSCREEN_SEED", "not-a-number")
        assert main(["parse", "--formula", "Nb"]) == 1
        assert "environment" in capsys.readouterr().err

    def test_readme_usage_names_every_flag(self):
        # each usage line of the README names exactly its subcommand's flags
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
        documented, name = {}, None
        for line in block.splitlines():
            if line.startswith("scscreen "):
                name = line.split()[1]
            documented.setdefault(name, set()).update(re.findall(r"--[a-z-]+", line.split("#")[0]))
        (subparsers,) = [a for a in cli.build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
                 - {"--help"} for name, p in subparsers.choices.items()}
        assert documented == flags

    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "two"])
    def test_bad_env_jobs(self, monkeypatch, capsys, value):
        # the --jobs rule holds for the environment default too
        monkeypatch.setenv("SCSCREEN_JOBS", value)
        assert main(["parse", "--formula", "Nb"]) == 1
        err = capsys.readouterr().err
        assert "environment" in err and "SCSCREEN_JOBS" in err


class TestEncode:
    def test_single_element_tensor(self, tmp_path, capsys):
        assert main(["encode", "--formula", "Nb", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "tensor.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["channel", "row", "col", "value"]
        assert len(rows) == 1 + 4 * 7 * 32
        nonzero = [r for r in rows[1:] if float(r[3]) != 0.0]
        assert nonzero == [["D", "5", "19", "1"]]

    def test_manifest_written(self, tmp_path):
        main(["encode", "--formula", "Nb", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "encode"
        assert manifest["status"] == "ok"
        assert manifest["outputs"] == ["tensor.csv"]
        assert manifest["versions"]["scscreen"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["encode", "--formula", "MgB2", "--out", str(a)])
        main(["encode", "--formula", "MgB2", "--out", str(b)])
        assert (a / "tensor.csv").read_bytes() == (b / "tensor.csv").read_bytes()


class TestManifest:
    def test_failed_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        manifest = cli.Manifest(argparse.Namespace(out=str(tmp_path), subcommand="encode",
                                                   formula="Nb"))
        before = (tmp_path / "manifest.json").read_text()

        def dump_then_fail(obj, f, **kwargs):
            f.write('{"command": "enc')
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", dump_then_fail)
        manifest.data["status"] = "ok"
        with pytest.raises(OSError):
            manifest.flush()
        assert (tmp_path / "manifest.json").read_text() == before
        assert json.loads(before)["status"] == "started"

    def test_lists_the_outputs_it_handed_out(self, tmp_path):
        out = tmp_path / "new" / "dir"
        manifest = cli.Manifest(argparse.Namespace(out=str(out), subcommand="encode",
                                                   formula="Nb"))
        assert manifest.output("b.csv") == str(out / "b.csv")
        manifest.output("a.csv")
        assert json.loads((out / "manifest.json").read_text())["outputs"] == []
        manifest.finish()
        assert json.loads((out / "manifest.json").read_text())["outputs"] == ["a.csv", "b.csv"]


class TestDatasetBuild:
    def test_clean_and_report(self, world, capsys):
        code = main(
            ["dataset-build", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
             "--out", str(world["out"])]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "after cleaning" in out
        for name in ("sc_clean.csv", "catalogue_clean.csv", "manifest.json"):
            assert (world["out"] / name).exists()
        manifest = json.loads((world["out"] / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"sc", "cod"}
        assert len(manifest["inputs"]["sc"]["fingerprint"]) == 64

    def test_dirty_world_bytes(self, tmp_path, capsys):
        # a blank line, two-line quoted cells, flagged rows and duplicates
        paths = {name: tmp_path / f"{name}.csv" for name in ("sc", "cod", "eval")}
        paths["sc"].write_text(
            'formula,tc_K,year\nNb3Sn,18.1,1954\nNbN,16,1941\n\n"Nb3\nSn",18.3,1960\n'
            "MgB2,39,2001\nMgB2,38,2003\nMgB2,40,2002\nLa2-xSrxCuO4,38,1986\nQq7,5,\n"
            "YBa2Cu3O7,,1987\n")
        paths["cod"].write_text(
            'formula,tc_K,year\nNaCl,,\nNaCl,,1990\nC6H6,,\nFe2O3,,1950\n"Al2\nO3",,\n'
            "Xx2,,\nMgB2,,\n")
        paths["eval"].write_text("formula,tc_K,year\nMgB2,39,2001\nQq7,,\n\nCaC6,11.5,2005\n")
        out = tmp_path / "out"
        assert main(["dataset-build", *(f"--{k}={v}" for k, v in paths.items()),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ("sc: 9 rows, 2 flagged, 3 after cleaning\n"
                                           "catalogue: 7 rows, 1 flagged, 4 after cleaning\n"
                                           "eval: 3 rows\n")
        header = b"formula,tc_K,year,source,family,flagged_reason\r\n"
        assert (out / "sc_clean.csv").read_bytes() == header + (
            b"Nb3Sn,18.1,1954,supercon,conventional,\r\nNbN,16,1941,supercon,conventional,\r\n"
            b"MgB2,39,2001,supercon,conventional,\r\n")
        assert (out / "catalogue_clean.csv").read_bytes() == header + (
            b"NaCl,,1990,cod,conventional,\r\nFe2O3,,1950,cod,conventional,\r\n"
            b'"Al2\nO3",,,cod,conventional,\r\nMgB2,,,cod,conventional,\r\n')
        assert (out / "eval_clean.csv").read_bytes() == header + (
            b"MgB2,39,2001,eval_list,conventional,\r\nQq7,,,eval_list,,UnknownElementError\r\n"
            b"CaC6,11.5,2005,eval_list,conventional,\r\n")
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert {name: (n["n_rows"], n["n_flagged"], n["n_records"])
                for name, n in inputs.items()} == {"sc": (9, 2, 3), "cod": (7, 1, 4),
                                                   "eval": (3, 1, 3)}

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["dataset-build", "--sc", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_manifest_survives_schema_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,tc\nfoo,1\n")
        out = tmp_path / "out"
        assert main(["dataset-build", "--sc", str(bad), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["class"] == "SchemaMismatchError"
        assert "need a 'formula' column" in manifest["error"]["message"]

    @pytest.mark.parametrize("flag", ["--cod", "--eval"])
    def test_empty_path_is_read_like_any_other(self, world, tmp_path, capsys, flag):
        # an empty --cod or --eval used to skip its table and exit 0
        out = tmp_path / "out"
        assert main(["dataset-build", "--sc", str(world["sc"]), flag, "", "--out", str(out)]) == 2
        assert "No such file or directory: ''" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    def test_unreadable_csv_line_is_data_error_naming_it(self, tmp_path, capsys):
        # one cell over the csv module's 131,072-character field limit
        big = tmp_path / "big.csv"
        big.write_text("formula,tc_K,year\nNbN,16,\n" + "Nb" * 70_000 + ",1,\n")
        assert main(["dataset-build", "--sc", str(big), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{big}:3: field larger than field limit" in err

    def test_open_quoted_cell_is_data_error_naming_its_row(self, tmp_path, capsys):
        # it used to build "sc: 2 rows, 1 flagged" and exit 0
        sc = tmp_path / "sc.csv"
        sc.write_text('formula,tc_K,year\nNb3Sn,18,1954\n"NbN,16,1941\n'
                      + "MgB2,39,2001\n" * 500)
        out = tmp_path / "out"
        assert main(["dataset-build", "--sc", str(sc), "--out", str(out)]) == 2
        assert f"{sc}:3: quoted cell is never closed" in capsys.readouterr().err
        assert not (out / "sc_clean.csv").exists()

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        # the BOM used to glue onto the header: "need a 'formula' column, got ['\ufeffformula', ...]"
        sc = tmp_path / "sc.csv"
        sc.write_bytes(b"\xef\xbb\xbfformula,tc_K,year\r\nNb3Sn,18.1,1954\r\n")
        assert main(["dataset-build", "--sc", str(sc), "--out", str(tmp_path / "out")]) == 0
        assert "sc: 1 rows, 0 flagged" in capsys.readouterr().out

    def test_non_utf8_file_is_data_error_naming_it(self, tmp_path, capsys):
        sc = tmp_path / "sc.csv"
        sc.write_bytes(b"formula,tc_K,year\nNb3Sn,18.1,1954\n\xff\n")
        assert main(["dataset-build", "--sc", str(sc), "--out", str(tmp_path / "out")]) == 2
        assert f"{sc}: not UTF-8 text" in capsys.readouterr().err


class TestTrain:
    def test_train_writes_model_and_trace(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = world["out"]
        code = main(["train", "--config", cfg, "--data", str(world["sc"]),
                     "--out", str(out)])
        assert code == 0
        assert "final loss" in capsys.readouterr().out
        params = load_checkpoint(out / "model.npz")
        assert params.config.conv_layers == 1
        with open(out / "trace.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "mean_loss"]
        assert len(rows) == 1 + TINY_TRAIN["epochs"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config"]["model"]["conv_layers"] == 1

    def test_same_seed_reruns_byte_identical(self, world, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--config", cfg, "--data", str(world["sc"]),
                         "--out", str(out)]) == 0
        assert (a / "model.npz").read_bytes() == (b / "model.npz").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_seed_override_changes_model(self, world, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--data", str(world["sc"]), "--out", str(a)])
        main(["train", "--config", cfg, "--data", str(world["sc"]), "--out", str(b),
              "--seed", "99"])
        assert (a / "model.npz").read_bytes() != (b / "model.npz").read_bytes()
        manifest = json.loads((b / "manifest.json").read_text())
        assert manifest["config"]["model"]["seed"] == 99

    def test_divergence_exit_code_and_manifest(self, world, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           train=dict(TINY_TRAIN, learning_rate=1e30))
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", cfg, "--data", str(world["sc"]),
                         "--out", str(out)])
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == 3
        error = manifest["error"]
        assert error["class"] == "DivergenceDetectedError"
        assert f"at epoch {error['epoch']}, step {error['step']};" in error["message"]

    def test_binary_logit_head_trains_without_a_loss_key(self, world, tmp_path):
        # the loss follows the head; this spec used to exit 2 with
        # "loss SMOOTH_L1 does not fit head BINARY_LOGIT"
        cfg = write_config(tmp_path / "cfg.json", model=dict(TINY_MODEL, head="binary_logit"))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--data", str(world["sc"]),
                     "--out", str(out)]) == 0
        assert load_checkpoint(out / "model.npz").config.head.name == "BINARY_LOGIT"

    @pytest.mark.parametrize("fragment, message", [
        ({"train": dict(TINY_TRAIN, loss="smooth_l1")}, "unknown experiment.train field(s) ['loss']"),
        ({"training_filter": {"families": ["conventional"]}},
         "unknown experiment.training_filter field(s) ['families']"),
        ({"test_set": "NOBLE_GAS"}, "experiment.test_set: unknown value 'NOBLE_GAS'"),
    ], ids=["train.loss", "training_filter.families", "test_set"])
    def test_spec_is_checked_when_it_loads(self, world, tmp_path, capsys, fragment, message):
        # train.loss and training_filter.families are no longer fields, and
        # test_set is read as a family name; train used to run all three
        cfg = write_config(tmp_path / "cfg.json", **fragment)
        assert main(["train", "--config", cfg, "--data", str(world["sc"]),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_bad_config_is_data_error(self, world, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "x", "model": {"layers": 1}}))
        assert main(["train", "--config", str(cfg), "--data", str(world["sc"]),
                     "--out", str(tmp_path / "out")]) == 2

    def test_negative_seed_is_data_error_naming_it(self, world, tmp_path, capsys):
        # it used to fail inside default_rng without naming the seed
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["train", "--config", cfg, "--data", str(world["sc"]), "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_nan_learning_rate_is_data_error_naming_it(self, world, tmp_path, capsys):
        # json reads NaN; it used to train to divergence (exit 3)
        cfg = write_config(tmp_path / "cfg.json", train={**TINY_TRAIN, "learning_rate": float("nan")})
        assert main(["train", "--config", cfg, "--data", str(world["sc"]),
                     "--out", str(tmp_path / "out")]) == 2
        assert "learning_rate must be finite and > 0, got nan" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_and_table(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           training_filter={"year_before": 2010},
                           thresholds=[0, 10])
        code = main(["evaluate", "--config", cfg, "--sc", str(world["sc"]),
                     "--cod", str(world["cod"]), "--eval", str(world["eval"]),
                     "--out", str(world["out"])])
        assert code == 0
        assert "Precision" in capsys.readouterr().out
        with open(world["out"] / "reports.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 3  # header + one row per threshold
        assert rows[1][0] == "0"
        assert rows[2][0] == "10"

    def test_unresolved_eval_formula_is_data_error(self, world, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           training_filter={"year_before": 2010})
        bad_eval = tmp_path / "eval.csv"
        bad_eval.write_text("formula,tc_K,year\nLaFeAsO1-xFx,26,2012\n")
        assert main(["evaluate", "--config", cfg, "--sc", str(world["sc"]),
                     "--cod", str(world["cod"]), "--eval", str(bad_eval),
                     "--out", str(world["out"])]) == 2


class TestScreen:
    def test_candidates_written_and_rerun_identical(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", fold_size=12)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["screen", "--config", cfg, "--sc", str(world["sc"]),
                         "--cod", str(world["cod"]), "--out", str(out)]) == 0
        assert "predicted above" in capsys.readouterr().out
        with open(a / "candidates.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["formula", "predicted_tc_K", "fold_id", "family"]
        assert len(rows) == 1 + 34  # cuprate and FeSC rows are gone
        assert (a / "candidates.csv").read_bytes() == (b / "candidates.csv").read_bytes()
        assert (a / "threshold_counts.csv").read_bytes() == (b / "threshold_counts.csv").read_bytes()

    def test_result_bytes_do_not_depend_on_jobs(self, world, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", fold_size=12)
        for jobs in ("1", "2"):
            assert main(["screen", "--config", cfg, "--sc", str(world["sc"]),
                         "--cod", str(world["cod"]), "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        for name in ("candidates.csv", "threshold_counts.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_config_without_fold_size_is_data_error(self, world, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["screen", "--config", cfg, "--sc", str(world["sc"]),
                     "--cod", str(world["cod"]), "--out", str(world["out"])]) == 2

    def test_wrongly_typed_config_value_is_data_error_naming_it(self, world, tmp_path, capsys):
        # a string layer count used to end in a TypeError traceback (exit 1)
        cfg = write_config(tmp_path / "cfg.json", fold_size=12,
                           model={**TINY_MODEL, "conv_layers": "2"})
        assert main(["screen", "--config", cfg, "--sc", str(world["sc"]),
                     "--cod", str(world["cod"]), "--out", str(world["out"])]) == 2
        assert "experiment.model.conv_layers: expected integer, got string '2'" in (
            capsys.readouterr().err
        )

    def test_config_via_environment(self, world, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", fold_size=12)
        monkeypatch.setenv("SCSCREEN_CONFIG", cfg)
        monkeypatch.setenv("SCSCREEN_OUT", str(world["out"]))
        assert main(["screen", "--sc", str(world["sc"]),
                     "--cod", str(world["cod"])]) == 0
        assert (world["out"] / "candidates.csv").exists()

    def test_negative_env_seed_is_usage_error_naming_it(self, world, tmp_path, monkeypatch,
                                                         capsys):
        # it used to reach the model config and exit 2 as a config error
        monkeypatch.setenv("SCSCREEN_SEED", "-1")
        cfg = write_config(tmp_path / "cfg.json", fold_size=10)
        assert main(["screen", "--config", cfg, "--sc", str(world["sc"]),
                     "--cod", str(world["cod"]), "--out", str(world["out"])]) == 1
        err = capsys.readouterr().err
        assert "environment" in err and "SCSCREEN_SEED" in err
        assert not world["out"].exists()

    @pytest.mark.parametrize("jobs", ["0", "-3", "1.5", "two"])
    def test_jobs_below_one_or_not_whole_is_usage_error(self, world, tmp_path, capsys, jobs):
        # 0 and -3 used to run sequentially without a word
        cfg = write_config(tmp_path / "cfg.json", fold_size=12)
        assert main(["screen", "--config", cfg, "--sc", str(world["sc"]),
                     "--cod", str(world["cod"]), "--jobs", jobs,
                     "--out", str(world["out"])]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not world["out"].exists()


class TestDiscover:
    def test_runs_and_histogram(self, world, tmp_path):
        fesc = tmp_path / "sc_fesc.csv"
        rows = sc_world()
        from scscreen.dataset import Source, make_record
        rows += [make_record("LaFeAsO", 26.0, 2008, Source.SUPERCON),
                 make_record("FeSe", 8.0, 2008, Source.SUPERCON)]
        write_input_csv(fesc, rows)
        cfg = write_config(tmp_path / "cfg.json",
                           training_filter={"year_before": 2008},
                           test_set="FESC", repeats=2)
        code = main(["discover", "--config", cfg, "--sc", str(fesc),
                     "--cod", str(world["cod"]), "--eval", str(world["eval"]),
                     "--out", str(world["out"])])
        assert code == 0
        with open(world["out"] / "runs.csv", newline="") as f:
            runs = list(csv.reader(f))
        assert len(runs) == 3
        assert runs[1][6] in ("true", "false")
        with open(world["out"] / "histogram.csv", newline="") as f:
            hist = list(csv.reader(f))
        assert hist[0] == ["bin_left", "bin_right", "count"]
        assert sum(int(r[2]) for r in hist[1:]) == 2

    def test_result_bytes_do_not_depend_on_jobs(self, world, tmp_path):
        fesc = tmp_path / "sc_fesc.csv"
        write_input_csv(fesc, sc_world() + [make_record("LaFeAsO", 26.0, 2008, Source.SUPERCON),
                                            make_record("FeSe", 8.0, 2008, Source.SUPERCON)])
        cfg = write_config(tmp_path / "cfg.json", training_filter={"year_before": 2008},
                           test_set="FESC", repeats=3)
        for jobs in ("1", "2"):
            assert main(["discover", "--config", cfg, "--sc", str(fesc),
                         "--cod", str(world["cod"]), "--eval", str(world["eval"]),
                         "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        for name in ("runs.csv", "histogram.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_reference_list_with_nothing_to_score_is_data_error(self, world, tmp_path, capsys):
        fesc = tmp_path / "sc_fesc.csv"
        from scscreen.dataset import Source, make_record
        write_input_csv(fesc, sc_world() + [make_record("FeSe", 8.0, 2008, Source.SUPERCON)])
        ref = tmp_path / "ref.csv"
        write_input_csv(ref, [make_record("Nb2Al6", 6.25, 2012, Source.EVAL_LIST),
                              make_record("Nb4Si4", 12.5, 2012, Source.EVAL_LIST)])
        cfg = write_config(tmp_path / "cfg.json",
                           training_filter={"year_before": 2008}, test_set="FESC")
        assert main(["discover", "--config", cfg, "--sc", str(fesc),
                     "--cod", str(world["cod"]), "--eval", str(ref),
                     "--out", str(world["out"])]) == 2
        assert "reference list" in capsys.readouterr().err
        assert not (world["out"] / "runs.csv").exists()


    @pytest.mark.parametrize("command, name", [("evaluate", "evaluation list"),
                                               ("discover", "reference list")])
    def test_unscorable_reference_rows_are_data_error(self, world, tmp_path, capsys,
                                                      command, name):
        # discover used to drop the variable formula and the row without a
        # Tc, and check validity on the one row left
        fesc = tmp_path / "sc_fesc.csv"
        from scscreen.dataset import Source, make_record
        write_input_csv(fesc, sc_world() + [make_record("FeSe", 8.0, 2008, Source.SUPERCON)])
        ref = tmp_path / "ref.csv"
        ref.write_text("formula,tc_K,year\nCaBi2,2,2016\nLa2-xSrxCuO4,30,1986\nSnO,,\n")
        cfg = write_config(tmp_path / "cfg.json",
                           training_filter={"year_before": 2008}, test_set="FESC")
        assert main([command, "--config", cfg, "--sc", str(fesc),
                     "--cod", str(world["cod"]), "--eval", str(ref),
                     "--out", str(world["out"])]) == 2
        assert (f"{name} has 1 non-numeric formula(s), e.g. 'La2-xSrxCuO4'; "
                "substitute variables first") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["screen", "discover"])
def test_divergence_in_a_thread_exits_3_with_failed_manifest(world, tmp_path, command):
    # with --jobs 2 the models train in worker threads; a divergence there
    # must end the run as it does in `train`
    fesc = tmp_path / "sc_fesc.csv"
    write_input_csv(fesc, sc_world() + [make_record("FeSe", 8.0, 2008, Source.SUPERCON)])
    extra = ({"fold_size": 12} if command == "screen"
             else {"training_filter": {"year_before": 2008}, "test_set": "FESC", "repeats": 3})
    cfg = write_config(tmp_path / "cfg.json", train=dict(TINY_TRAIN, learning_rate=1e30), **extra)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--sc", str(fesc), "--cod", str(world["cod"]),
                 "--jobs", "2", "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("failed", 3)
    error = manifest["error"]
    assert error["class"] == "DivergenceDetectedError"
    assert isinstance(error["epoch"], int) and isinstance(error["step"], int)
    assert f"at epoch {error['epoch']}, step {error['step']};" in error["message"]


@pytest.mark.parametrize("argv", [["train"], ["screen", "--jobs", "1"], ["screen", "--jobs", "2"]])
def test_divergence_prints_one_line(world, tmp_path, capfd, argv):
    # the diverging steps overflow on their way to the non-finite loss;
    # NumPy stays silent about it, in worker threads too, and the exit-3
    # message is the only line on stderr
    cfg = write_config(tmp_path / "cfg.json", train=dict(TINY_TRAIN, learning_rate=1e30),
                       fold_size=12)
    inputs = (["--data", str(world["sc"])] if argv[0] == "train"
              else ["--sc", str(world["sc"]), "--cod", str(world["cod"])])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--config", cfg, *inputs, "--out", str(tmp_path / "out")])
    assert code == 3
    assert [str(w.message) for w in caught] == []
    err = capfd.readouterr().err
    assert err.startswith("scscreen: training diverged: non-finite loss ")
    assert err.count("\n") == 1 and err.endswith("\n"), err


@pytest.mark.parametrize("command", ["dataset-build", "train", "evaluate", "screen",
                                     "discover", "baseline"])
def test_every_input_counts_rows_flagged_and_records(world, tmp_path, capsys, command):
    # the counts are those dataset-build prints for the same tables
    sc = tmp_path / "sc_dirty.csv"
    write_input_csv(sc, [*sc_world(), sc_world()[0],
                         make_record("FeSe", 8.0, 2008, Source.SUPERCON),
                         make_record("La2-xSrxCuO4", 38.0, 1986, Source.SUPERCON)])
    cod = tmp_path / "cod_dirty.csv"
    write_input_csv(cod, [*screen_cod(), screen_cod()[0],
                          make_record("Qq7", None, 2006, Source.COD)])
    tables = {"sc": sc, "cod": cod, "eval": world["eval"]}
    assert main(["dataset-build", *(f"--{k}={v}" for k, v in tables.items()),
                 "--out", str(tmp_path / "build")]) == 0
    printed = re.findall(r"^(\w+): (\d+) rows(?:, (\d+) flagged, (\d+) after cleaning)?$",
                         capsys.readouterr().out, re.MULTILINE)
    assert [label for label, *_ in printed] == ["sc", "catalogue", "eval"]
    expected = {name: (int(rows), int(flagged or 0), int(kept or rows))
                for name, (_, rows, flagged, kept) in zip(tables, printed)}
    assert expected["sc"][1] == 1 and expected["cod"][1] == 1  # the dirty rows count

    cfg = write_config(tmp_path / "cfg.json", training_filter={"year_before": 2008},
                       test_set="FESC", fold_size=12)
    feats = tmp_path / "features.csv"
    symbols = ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As", "Se"]
    write_features_csv(feats, symbols)
    with open(feats, "a") as f:  # a row not yet filled, and a line with no cell filled
        f.write("Zr" + "," * len(FEATURE_NAMES) + "\n" + "," * len(FEATURE_NAMES) + "\n")
    expected["features"] = (len(symbols) + 1, 1, len(symbols))
    argv = {
        "dataset-build": ["--sc", sc, "--cod", cod, "--eval", world["eval"]],
        "train": ["--config", cfg, "--data", sc],
        "evaluate": ["--config", cfg, "--sc", sc, "--cod", cod, "--eval", world["eval"]],
        "screen": ["--config", cfg, "--sc", sc, "--cod", cod],
        "discover": ["--config", cfg, "--sc", sc, "--cod", cod, "--eval", world["eval"]],
        "baseline": ["--sc", sc, "--cod", cod, "--features", feats, "--trees", "5"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *map(str, argv), "--out", str(out)]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    flags = {flag[2:] for flag in argv[::2] if flag[2:] in (*expected, "data")}
    assert set(inputs) == flags
    for name, entry in inputs.items():
        counts = (entry["n_rows"], entry["n_flagged"], entry["n_records"])
        assert counts == expected["sc" if name == "data" else name], name
        assert re.fullmatch(r"[0-9a-f]{64}", entry["fingerprint"]), name


class TestManifestConfig:
    @pytest.mark.parametrize("command", ["evaluate", "screen", "discover", "train"])
    def test_config_is_the_spec_that_ran(self, world, tmp_path, command):
        # fed back to the config reader, the echo is the spec with --seed applied
        fragment = {"training_filter": {"year_before": 2010}, "fold_size": 12}
        argv = ["--sc", str(world["sc"]), "--cod", str(world["cod"])]
        if command == "evaluate":
            argv += ["--eval", str(world["eval"])]
        elif command == "discover":
            fesc = tmp_path / "sc_fesc.csv"
            write_input_csv(fesc, sc_world() + [make_record("FeSe", 8.0, 2008, Source.SUPERCON)])
            fragment = {"training_filter": {"year_before": 2008}, "test_set": "FESC"}
            argv = ["--sc", str(fesc), "--cod", str(world["cod"]), "--eval", str(world["eval"])]
        elif command == "train":
            argv = ["--data", str(world["sc"])]
        cfg = write_config(tmp_path / "cfg.json", **fragment)
        assert main([command, "--config", cfg, *argv, "--seed", "99",
                     "--out", str(world["out"])]) == 0
        manifest = json.loads((world["out"] / "manifest.json").read_text())
        assert manifest["command"] == command
        config = manifest["config"]
        spec = load_experiment_spec(cfg)
        assert spec_from_dict(config) == dataclasses.replace(
            spec, model=dataclasses.replace(spec.model, seed=99))
        assert sorted(config["training_filter"]) == ["exclude_families", "remove", "year_before"]

    def test_train_records_its_input_before_the_filter(self, world, tmp_path):
        # train used to fingerprint the filtered rows, unlike every other command
        cfg = write_config(tmp_path / "cfg.json", training_filter={"year_before": 2004},
                           fold_size=12)
        manifests = {}
        for command, flag in (("train", "--data"), ("screen", "--sc")):
            out = tmp_path / command
            argv = [flag, str(world["sc"])]
            if command == "screen":
                argv += ["--cod", str(world["cod"])]
            assert main([command, "--config", cfg, *argv, "--out", str(out)]) == 0
            manifests[command] = json.loads((out / "manifest.json").read_text())
        train, screen = manifests["train"], manifests["screen"]
        assert train["inputs"]["data"] == screen["inputs"]["sc"]
        assert train["inputs"]["data"]["n_records"] == len(sc_world())
        assert train["config"]["training_filter"]["year_before"] == 2004

    @pytest.mark.parametrize("command", ["evaluate", "screen", "discover"])
    def test_empty_input_path_is_data_error(self, world, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "cfg.json", fold_size=12)
        argv = [command, "--config", cfg, "--sc", "", "--cod", str(world["cod"]),
                "--out", str(world["out"])]
        if command == "evaluate":
            argv += ["--eval", str(world["eval"])]
        assert main(argv) == 2
        assert "No such file or directory: ''" in capsys.readouterr().err


def write_features_csv(path, symbols):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["symbol", *FEATURE_NAMES])
        rng = np.random.default_rng(5)
        for i, s in enumerate(symbols):
            w.writerow([s, *[f"{v:.6g}" for v in rng.normal(i, 1.0, len(FEATURE_NAMES))]])


class TestBaseline:
    def test_template_mode(self, tmp_path):
        path = tmp_path / "template.csv"
        assert main(["baseline", "--template", str(path)]) == 0
        # every template row is read and skipped as not yet filled
        assert load_element_features(path) == (len(SYMBOLS), len(SYMBOLS), {})

    def test_forest_run(self, world, tmp_path, capsys):
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"])
        code = main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", "10",
                     "--test-fraction", "0.2", "--out", str(world["out"])])
        assert code == 0
        assert "forest" in capsys.readouterr().out
        with open(world["out"] / "baseline_report.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2
        assert rows[0][0] == "threshold_K"
        manifest = json.loads((world["out"] / "manifest.json").read_text())
        assert manifest["command"] == "baseline"
        assert set(manifest["inputs"]) == {"sc", "cod", "features"}

    def test_manifest_fingerprints_the_feature_table(self, world, tmp_path):
        # the fingerprint follows the filled rows' values, not their order
        symbols = ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"]
        base = tmp_path / "features.csv"
        write_features_csv(base, symbols)
        header, *rows = base.read_text().splitlines()
        cells = rows[0].split(",")
        cells[1] = repr(float(cells[1]) + 0.5)
        paths = {"base": base}
        for name, lines in [("reordered", [header, *rows[::-1]]),
                            ("changed", [header, ",".join(cells), *rows[1:]])]:
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("\n".join(lines) + "\n")
        fingerprints = {}
        for name, path in paths.items():
            out = tmp_path / f"out-{name}"
            assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                         "--features", str(path), "--trees", "5", "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            fingerprints[name] = manifest["inputs"]["features"]["fingerprint"]
        assert fingerprints["reordered"] == fingerprints["base"]
        assert fingerprints["changed"] != fingerprints["base"]

    @pytest.mark.parametrize("fraction", ["-0.5", "0", "1.5"])
    def test_test_fraction_outside_open_interval_is_usage_error(self, world, tmp_path,
                                                                 capsys, fraction):
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"])
        assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", "5",
                     "--test-fraction", fraction, "--out", str(world["out"])]) == 1
        assert "--test-fraction" in capsys.readouterr().err
        assert not world["out"].exists()

    @pytest.mark.parametrize("trees", ["0", "-1", "2.5"])
    def test_trees_below_one_or_not_whole_is_usage_error(self, world, tmp_path, capsys,
                                                         trees):
        # 0 used to fail as a data error (exit 2) that did not name the flag
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"])
        assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", trees,
                     "--out", str(world["out"])]) == 1
        assert "--trees" in capsys.readouterr().err
        assert not world["out"].exists()

    @pytest.mark.parametrize("where", ["flag", "environment"])
    def test_negative_seed_is_usage_error_naming_it(self, world, tmp_path, monkeypatch,
                                                    capsys, where):
        # it used to exit 2 with numpy's "expected non-negative integer"
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"])
        argv = ["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                "--features", str(feats), "--trees", "5", "--out", str(world["out"])]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("SCSCREEN_SEED", "-1")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert ("--seed" if where == "flag" else "SCSCREEN_SEED") in err
        assert not world["out"].exists()

    @pytest.mark.parametrize("fraction", ["0.99", "0.97"])
    def test_test_fraction_leaving_one_class_is_data_error(self, world, tmp_path, capsys,
                                                           fraction):
        # of the world's 68 rows, 0.99 leaves one for training and 0.97 two of
        # one class; the error names the flag and the split, not the forest's
        # input check
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"])
        assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", "5",
                     "--test-fraction", fraction, "--out", str(world["out"])]) == 2
        err = capsys.readouterr().err
        n_train = {"0.99": 1, "0.97": 2}[fraction]
        assert f"--test-fraction {fraction} leaves {n_train} training and " in err
        assert f"and {68 - n_train} test rows" in err
        assert not (world["out"] / "baseline_report.csv").exists()

    @pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
    def test_threshold_negative_or_not_finite_is_usage_error(self, world, tmp_path, capsys,
                                                             threshold):
        # these used to exit 2 with a message that named only --test-fraction
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"])
        assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", "5",
                     "--threshold", threshold, "--out", str(world["out"])]) == 1
        assert "--threshold" in capsys.readouterr().err
        assert not world["out"].exists()

    def test_threshold_leaving_one_class_is_data_error_naming_it(self, world, tmp_path,
                                                                 capsys):
        # no row is above 1e9 K, so every training label is negative
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"])
        assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", "5",
                     "--threshold", "1e9", "--out", str(world["out"])]) == 2
        assert "at --threshold 1e+09 the forest needs" in capsys.readouterr().err
        assert not (world["out"] / "baseline_report.csv").exists()

    def test_unreadable_feature_line_is_data_error_naming_it(self, world, tmp_path, capsys):
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb"])
        with open(feats, "a") as f:
            f.write("Nb" + "0" * 140_000 + "\n")
        assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", "5",
                     "--out", str(world["out"])]) == 2
        assert f"{feats}:3: field larger than field limit" in capsys.readouterr().err

    def test_non_finite_feature_cell_is_data_error_naming_it(self, world, tmp_path, capsys):
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", *COLD, "Y", "Ba", "Cu", "O", "La", "Fe", "As"])
        lines = feats.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "nan"  # DipolePolarizability of Nb
        lines[1] = ",".join(cells)
        feats.write_text("\n".join(lines) + "\n")
        assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", "5",
                     "--out", str(world["out"])]) == 2
        err = capsys.readouterr().err
        assert f"{feats}:2: DipolePolarizability must be finite, got nan" in err
        assert not (world["out"] / "baseline_report.csv").exists()
        manifest = json.loads((world["out"] / "manifest.json").read_text())
        assert manifest["error"]["class"] == "SchemaMismatchError"

    def test_no_usable_rows_is_data_error_naming_the_inputs(self, tmp_path, capsys):
        # every formula is flagged, so cleaning leaves nothing to featurize
        sc, cod = tmp_path / "sc.csv", tmp_path / "cod.csv"
        sc.write_text("formula,tc_K,year\nQq2,10,\nNbx,9,\n")
        cod.write_text("formula,tc_K,year\nXy,,\n")
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb"])
        assert main(["baseline", "--sc", str(sc), "--cod", str(cod),
                     "--features", str(feats), "--trees", "5",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "--sc" in err and "--cod" in err and "no usable rows" in err

    def test_missing_features_flag_is_usage_error(self, world, capsys):
        assert main(["baseline", "--sc", str(world["sc"]),
                     "--cod", str(world["cod"])]) == 1
        assert "--features" in capsys.readouterr().err

    def test_element_missing_from_table_is_data_error(self, world, tmp_path):
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb"])  # cold elements absent
        assert main(["baseline", "--sc", str(world["sc"]), "--cod", str(world["cod"]),
                     "--features", str(feats), "--trees", "5",
                     "--out", str(world["out"])]) == 2

    def test_missing_element_message_is_printed_plain(self, tmp_path, capsys):
        # the error was a KeyError, so it printed as "scscreen: 'no feature rows for: H, O'"
        sc, cod = tmp_path / "sc.csv", tmp_path / "cod.csv"
        sc.write_text("formula,tc_K,year\nNb3Sn,18,\nNbHO2,5,\n")
        cod.write_text("formula,tc_K,year\nNbSn2,,\n")
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", "Sn"])
        assert main(["baseline", "--sc", str(sc), "--cod", str(cod),
                     "--features", str(feats), "--trees", "5",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "scscreen: no feature rows for: H, O\n"
        # the manifest says why; it used to stay at "started", with no reason
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == 2
        assert manifest["error"] == {"class": "MissingElementFeaturesError",
                                     "message": "no feature rows for: H, O"}
        assert manifest["outputs"] == []

    def test_missing_elements_of_several_rows_named_in_one_error(self, tmp_path, capsys):
        sc, cod = tmp_path / "sc.csv", tmp_path / "cod.csv"
        sc.write_text("formula,tc_K,year\nNb3Sn,18,\nNbH,5,\nNbO,4,\n")
        cod.write_text("formula,tc_K,year\nNbSn2,,\n")
        feats = tmp_path / "features.csv"
        write_features_csv(feats, ["Nb", "Sn"])
        assert main(["baseline", "--sc", str(sc), "--cod", str(cod),
                     "--features", str(feats), "--trees", "5",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "scscreen: no feature rows for: H, O\n"
