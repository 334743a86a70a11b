"""Tests for the command-line tools."""

import json

import numpy as np
import pytest

from repro.tools.train import build_parser, main as train_main
from repro.tools.profile import main as profile_main

MALFORMED_SCHEDULES = ["bogus", "static,x", "static,-3", "dynamic,0",
                       "guided,0"]

#: (flag, value): counts the CLIs refuse as usage errors (exit 2).
NONSENSE_TRAIN_COUNTS = [("--iters", "0"), ("--iters", "-3"),
                         ("--threads", "0"), ("--threads", "-2"),
                         ("--display", "-1"), ("--checkpoint-every", "-1")]
#: Learning rates --lr refuses as usage errors (exit 2).
NONSENSE_RATES = ["0", "-5", "nan", "inf"]
NONSENSE_PROFILE_COUNTS = [("--threads", "0"), ("--threads", "-2"),
                           ("--iters", "0"), ("--iters", "-2")]


class TestTrainCli:
    def test_zoo_training(self, capsys, tmp_path):
        snapshot = str(tmp_path / "weights.npz")
        code = train_main([
            "--net", "lenet", "--iters", "3", "--display", "1",
            "--snapshot", snapshot,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final loss" in out
        with np.load(snapshot) as archive:
            assert any(key.startswith("conv1") for key in archive.files)

    def test_parallel_flags(self, capsys):
        code = train_main([
            "--net", "lenet", "--iters", "2", "--threads", "2",
            "--reduction", "blockwise", "--schedule", "static,4",
        ])
        assert code == 0
        assert "blockwise" in capsys.readouterr().out

    def test_adagrad_selection(self, capsys):
        code = train_main([
            "--net", "lenet", "--iters", "2", "--solver", "AdaGrad",
            "--lr", "0.05",
        ])
        assert code == 0

    @staticmethod
    def tiny_prototxt(tmp_path):
        prototxt = tmp_path / "net.prototxt"
        prototxt.write_text("""
        layer { name: "d" type: "Data" top: "data" top: "label"
                data_param { source: "synth_mnist_train" batch_size: 8 } }
        layer { name: "ip" type: "InnerProduct" bottom: "data" top: "ip"
                inner_product_param { num_output: 10 filler_seed: 5
                  weight_filler { type: "xavier" } } }
        layer { name: "loss" type: "SoftmaxWithLoss" bottom: "ip"
                bottom: "label" top: "loss" }
        """)
        return str(prototxt)

    def test_prototxt_input(self, capsys, tmp_path):
        code = train_main(["--prototxt", self.tiny_prototxt(tmp_path),
                           "--iters", "2"])
        assert code == 0
        assert "final loss" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["--net", "--prototxt"])
    @pytest.mark.parametrize("rate", NONSENSE_RATES)
    def test_nonsense_rate_is_a_usage_error(self, capsys, tmp_path, source,
                                            rate):
        """``--lr 0`` used to train at 0.01 on the prototxt path, and a
        negative rate ran gradient ascent on both."""
        net = "lenet" if source == "--net" else self.tiny_prototxt(tmp_path)
        with pytest.raises(SystemExit) as info:
            train_main([source, net, "--iters", "1", "--lr", rate])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --lr: must be a finite number > 0" in err
        assert f"got {rate}" in err

    def test_prototxt_rate_is_taken_as_given(self, capsys, tmp_path):
        code = train_main(["--prototxt", self.tiny_prototxt(tmp_path),
                           "--iters", "1", "--display", "1", "--lr", "0.003"])
        assert code == 0
        assert "lr 0.003" in capsys.readouterr().out

    def test_requires_net_or_prototxt(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("flag, value", NONSENSE_TRAIN_COUNTS)
    def test_nonsense_count_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            train_main(["--net", "lenet", flag, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= " in err
        assert f"got {value}" in err

    @pytest.mark.parametrize("schedule", MALFORMED_SCHEDULES)
    def test_malformed_schedule_flag_is_a_usage_error(self, capsys,
                                                      schedule):
        with pytest.raises(SystemExit) as info:
            train_main(["--net", "lenet", "--iters", "1", "--threads", "2",
                        "--schedule", schedule])
        assert info.value.code == 2
        assert "argument --schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule", MALFORMED_SCHEDULES)
    def test_plan_with_malformed_schedule_is_refused_at_load(self, tmp_path,
                                                             schedule):
        path = tmp_path / "bad.plan.json"
        path.write_text(json.dumps({
            "format": "repro-plan/1", "net": "", "batch": 0,
            "team_threads": 2, "tier": "bitwise_invariant",
            "layers": [{"layer": "conv1", "threads": 2,
                        "schedule": schedule}],
        }))
        with pytest.raises(SystemExit) as info:
            train_main(["--net", "lenet", "--iters", "1", "--threads", "2",
                        "--plan", str(path)])
        message = str(info.value.code)
        assert message.startswith("cannot load plan")
        assert "layer 'conv1'" in message and repr(schedule) in message
        assert "\n" not in message

    @pytest.mark.parametrize("mangle, field", [
        (lambda plan: [plan], "JSON object"),
        (lambda plan: dict(plan, batch=None), "'batch'"),
        (lambda plan: dict(plan, layers=[{"layer": "conv1",
                                          "threads": None}]), "'threads'"),
        (lambda plan: dict(plan, layers=["conv1"]), "JSON object"),
    ], ids=["top-level-list", "null-batch", "null-layer-threads",
            "string-layer-entry"])
    def test_plan_with_mistyped_field_is_refused_at_load(self, tmp_path,
                                                         mangle, field):
        path = tmp_path / "bad.plan.json"
        path.write_text(json.dumps(mangle({
            "format": "repro-plan/1", "net": "", "batch": 0,
            "team_threads": 2, "tier": "bitwise_invariant",
            "layers": [{"layer": "conv1", "threads": 2}],
        })))
        with pytest.raises(SystemExit) as info:
            train_main(["--net", "lenet", "--iters", "1", "--threads", "2",
                        "--plan", str(path)])
        message = str(info.value.code)
        assert message.startswith("cannot load plan")
        assert field in message
        assert "\n" not in message

    def test_test_flag_reports_accuracy(self, capsys):
        code = train_main(["--net", "lenet", "--iters", "2", "--test"])
        assert code == 0
        assert "test accuracy" in capsys.readouterr().out


class TestProfileCli:
    def test_sequential_profile(self, capsys):
        code = profile_main(["--net", "lenet", "--iters", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured per-layer breakdown" in out
        assert "conv1" in out
        assert "modelled per-layer scalability" in out

    def test_parallel_profile(self, capsys):
        code = profile_main(["--net", "lenet", "--iters", "1",
                             "--threads", "2"])
        assert code == 0
        assert "conv2" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", NONSENSE_PROFILE_COUNTS)
    def test_nonsense_count_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            profile_main(["--net", "lenet", flag, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= " in err
        assert f"got {value}" in err
