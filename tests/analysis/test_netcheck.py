"""Tests for the net-graph static checker (netcheck).

Covers the three tentpole pieces — symbolic shape inference, the
NG-coded linter, the static schedule/memory planner — plus the
satellites: golden shape tables for every zoo net, one broken prototxt
per lint code, planner parity with the runtime's chunk assignment,
symbolic/instantiated cost parity, prototxt error line numbers, and the
inputs-without-shapes rejection.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.netcheck import check_spec
from repro.analysis.report import ERROR, WARNING
from repro.core.parallel_net import iteration_owners
from repro.data import register_default_sources
from repro.framework.net import Net
from repro.framework.net_spec import NetSpec
from repro.framework.prototxt import parse_prototxt
from repro.framework.symbolic import infer_net
from repro.simulator.cost_model import net_costs, spec_costs
from repro.zoo.build import _SPECS

# The NG codes (``--list-codes``), named by what each one flags.
NG_SHAPE_MISMATCH = "NG001"
NG_ILLEGAL_INPLACE = "NG002"
NG_DEAD_BLOB = "NG003"
NG_DUPLICATE_PRODUCER = "NG004"
NG_LOSSY_GEOMETRY = "NG005"
NG_INPUT_WITHOUT_SHAPE = "NG006"
NG_UNKNOWN_TYPE = "NG007"
NG_DANGLING_BOTTOM = "NG008"
NG_DUPLICATE_NAME = "NG009"

ZOO_NETS = sorted(_SPECS)
PHASES = ["TRAIN", "TEST"]


@pytest.fixture(autouse=True)
def _sources():
    register_default_sources()


def zoo_spec(name: str) -> NetSpec:
    return _SPECS[name][0]()


def codes(report):
    return {f.rule for f in report.findings}


# ----------------------------------------------------------------------
# symbolic shape inference: golden tables + parity with instantiation
# ----------------------------------------------------------------------
#: Hand-checked TRAIN-phase shape tables — the golden anchors; the
#: parametrized parity test below extends the guarantee to every zoo
#: net and phase (including the Split blobs TEST graphs insert).
GOLDEN_TRAIN_SHAPES = {
    "lenet": {
        "data": (64, 1, 28, 28),
        "label": (64,),
        "conv1": (64, 20, 24, 24),
        "pool1": (64, 20, 12, 12),
        "conv2": (64, 50, 8, 8),
        "pool2": (64, 50, 4, 4),
        "ip1": (64, 500),
        "ip2": (64, 10),
        "loss": (),
    },
    "cifar10": {
        "data": (100, 3, 32, 32),
        "label": (100,),
        "conv1": (100, 32, 32, 32),
        "pool1": (100, 32, 16, 16),
        "norm1": (100, 32, 16, 16),
        "conv2": (100, 32, 16, 16),
        "pool2": (100, 32, 8, 8),
        "norm2": (100, 32, 8, 8),
        "conv3": (100, 64, 8, 8),
        "pool3": (100, 64, 4, 4),
        "ip1": (100, 10),
        "loss": (),
    },
    "mlp": {
        "data": (64, 1, 28, 28),
        "label": (64,),
        "flat": (64, 784),
        "fc1": (64, 128),
        "fc2": (64, 10),
        "loss": (),
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAIN_SHAPES))
def test_golden_train_shapes(name):
    sym = infer_net(zoo_spec(name), phase="TRAIN")
    shapes = {n: i.shape for n, i in sym.blob_map.items()}
    assert shapes == GOLDEN_TRAIN_SHAPES[name]


@pytest.mark.parametrize("name", ZOO_NETS)
@pytest.mark.parametrize("phase", PHASES)
def test_symbolic_matches_instantiated(name, phase):
    spec = zoo_spec(name)
    sym = infer_net(spec, phase=phase)
    assert sym.ok
    net = Net(spec, phase=phase)
    assert set(sym.blob_map) == set(net.blob_map)
    for blob_name, blob in net.blob_map.items():
        assert sym.blob_map[blob_name].shape == blob.shape, blob_name


@pytest.mark.parametrize("name", ZOO_NETS)
@pytest.mark.parametrize("phase", PHASES)
def test_spec_costs_match_net_costs(name, phase):
    spec = zoo_spec(name)
    symbolic = spec_costs(spec, phase=phase)
    instantiated = net_costs(Net(spec, phase=phase))
    assert symbolic == instantiated


def test_batch_override_propagates():
    sym = infer_net(zoo_spec("lenet"), phase="TRAIN", batch=7)
    assert sym.blob_map["data"].shape == (7, 1, 28, 28)
    assert sym.blob_map["ip2"].shape == (7, 10)


# ----------------------------------------------------------------------
# linter: one broken spec per NG code
# ----------------------------------------------------------------------
INPUT_8x8 = (
    'layer { name: "in" type: "Input" top: "x" '
    'input_param { shape { dim: 4 dim: 3 dim: 8 dim: 8 } } }\n'
)


def check_prototxt(text, phase="TRAIN", **kwargs):
    spec = parse_prototxt(text, validate=False)
    return check_spec(spec, phase=phase, **kwargs)


def test_ng001_shape_mismatch():
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "conv" type: "Convolution" bottom: "x" top: "y" '
          'convolution_param { num_output: 2 kernel_size: 100 } }\n'
    )
    assert any(
        f.rule == NG_SHAPE_MISMATCH and f.severity == ERROR
        and f.layer == "conv" for f in report.findings
    )
    assert not report.ok


#: Specs that used to end in ZeroDivisionError / TypeError tracebacks:
#: (feeder batch, offending layer, its name, Net(spec) rejects it too).
HOSTILE_LAYERS = {
    "pool-stride-0": (4, 'layer { name: "bad" type: "Pooling" bottom: "x" '
                         'top: "y" pooling_param { kernel_size: 2 stride: 0 } }',
                      "bad", True),
    "conv-group-0": (4, 'layer { name: "bad" type: "Convolution" bottom: "x" '
                        'top: "y" convolution_param { num_output: 4 '
                        'kernel_size: 3 group: 0 } }', "bad", True),
    "repeated-scalar": (4, 'layer { name: "bad" type: "Convolution" '
                           'bottom: "x" top: "y" convolution_param { '
                           'num_output: 4 kernel_size: 3 kernel_size: 0 } }',
                        "bad", True),
    # A live zero-batch net builds (numpy is fine with empty arrays);
    # there is just nothing to cost or schedule.
    "feeder-batch-0": (0, 'layer { name: "ip" type: "InnerProduct" '
                          'bottom: "x" top: "y" inner_product_param { '
                          'num_output: 4 } }\n'
                          'layer { name: "sm" type: "Softmax" bottom: "y" '
                          'top: "z" }', "in", False),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_LAYERS))
def test_hostile_geometry_is_ng001_not_a_traceback(case):
    from repro.analysis.fusecheck import check_fuse
    from repro.analysis.plancheck import plan_spec

    batch, layer_text, culprit, net_rejects = HOSTILE_LAYERS[case]
    spec = parse_prototxt(
        f'layer {{ name: "in" type: "Input" top: "x" input_param {{ '
        f'shape {{ dim: {batch} dim: 3 dim: 8 dim: 8 }} }} }}\n'
        + layer_text, validate=False)
    report = check_spec(spec)
    errors = [f for f in report.findings if f.severity == ERROR]
    assert [(f.rule, f.layer) for f in errors] == [
        (NG_SHAPE_MISMATCH, culprit)]
    assert repr(culprit) in errors[0].message
    assert [f.rule for f in plan_spec(spec).findings] == ["PL001"]
    assert {"FU002", "PL001"} <= {f.rule for f in check_fuse(spec).findings}
    if net_rejects:
        with pytest.raises(ValueError) as raised:
            Net(spec)
        assert str(raised.value) in errors[0].message


def test_inplace_conflict_is_coded_by_every_family():
    """The split inserter refuses the graph outright; plancheck and
    fusecheck used to let its ValueError escape."""
    from repro.analysis.fusecheck import check_fuse
    from repro.analysis.plancheck import plan_spec

    spec = parse_prototxt(
        INPUT_8x8
        + 'layer { name: "r1" type: "ReLU" bottom: "x" top: "x" }\n'
        + 'layer { name: "s" type: "Sigmoid" bottom: "x" top: "y" }\n'
        + 'layer { name: "r2" type: "ReLU" bottom: "x" top: "x" }\n',
        validate=False)
    assert NG_ILLEGAL_INPLACE in codes(check_spec(spec))
    assert [f.rule for f in plan_spec(spec).findings] == ["PL001"]
    assert {"FU002", "PL001"} <= {f.rule for f in check_fuse(spec).findings}


def test_sequential_is_declared_on_the_layer_class_only():
    """``ShapeRule.sequential`` reads the registered class's footprint;
    the feeders are the types that declare ``forward=SEQUENTIAL``."""
    from repro.framework.layer import (
        SEQUENTIAL,
        registered_layer_class,
        registered_layer_types,
    )
    from repro.framework.shape_inference import shape_rule_for

    declared = {
        t for t in registered_layer_types()
        if getattr(registered_layer_class(t).contract, "forward",
                   None) == SEQUENTIAL
    }
    assert {"data", "memorydata", "input"} <= declared
    for type_name in registered_layer_types():
        rule = shape_rule_for(type_name)
        if rule is not None:
            assert rule.sequential == (type_name in declared), type_name


def test_ng002_illegal_inplace():
    # LRN reads a neighbourhood across channels; writing its own bottom
    # violates the chunk-write protocol.
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "lrn" type: "LRN" bottom: "x" top: "x" }\n'
    )
    assert any(
        f.rule == NG_ILLEGAL_INPLACE and f.layer == "lrn"
        for f in report.findings
    )


def test_ng002_ok_for_relu_inplace():
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "relu" type: "ReLU" bottom: "x" top: "x" }\n'
        + 'layer { name: "ip" type: "InnerProduct" bottom: "x" top: "y" '
          'inner_product_param { num_output: 2 } }\n'
        + 'layer { name: "loss" type: "SoftmaxWithLoss" '
          'bottom: "y" bottom: "y" top: "loss" }\n'
    )
    assert NG_ILLEGAL_INPLACE not in codes(report)


def test_ng003_dead_blob():
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "flat" type: "Flatten" bottom: "x" top: "y" }\n'
    )
    dead = [f for f in report.findings if f.rule == NG_DEAD_BLOB]
    assert dead and dead[0].severity == WARNING
    assert dead[0].layer == "flat"


def test_ng003_terminal_loss_is_not_dead():
    report = check_spec(zoo_spec("lenet"), phase="TEST")
    assert NG_DEAD_BLOB not in codes(report)


def test_ng004_duplicate_producer():
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "a" type: "Flatten" bottom: "x" top: "y" }\n'
        + 'layer { name: "b" type: "Flatten" bottom: "x" top: "y" }\n'
        + 'layer { name: "c" type: "Flatten" bottom: "y" top: "z" }\n'
    )
    dup = [f for f in report.findings if f.rule == NG_DUPLICATE_PRODUCER]
    assert dup and dup[0].layer == "b" and dup[0].severity == ERROR


def test_ng005_pixel_dropping_conv():
    # (8 - 3) % 2 == 1: the rightmost column never enters any window.
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "conv" type: "Convolution" bottom: "x" top: "y" '
          'convolution_param { num_output: 2 kernel_size: 3 stride: 2 } }\n'
        + 'layer { name: "flat" type: "Flatten" bottom: "y" top: "z" }\n'
    )
    lossy = [f for f in report.findings if f.rule == NG_LOSSY_GEOMETRY]
    assert lossy and lossy[0].severity == WARNING
    assert lossy[0].layer == "conv"


def test_ng006_input_without_shape():
    report = check_prototxt(
        'input: "x"\n'
        + 'layer { name: "flat" type: "Flatten" bottom: "x" top: "y" }\n'
    )
    assert any(
        f.rule == NG_INPUT_WITHOUT_SHAPE and f.severity == ERROR
        for f in report.findings
    )


def test_ng007_unknown_type():
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "frob" type: "Frobnicate" bottom: "x" top: "y" }\n'
    )
    assert any(
        f.rule == NG_UNKNOWN_TYPE and f.layer == "frob"
        for f in report.findings
    )


def test_ng008_dangling_bottom():
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "flat" type: "Flatten" bottom: "nope" top: "y" }\n'
    )
    assert any(
        f.rule == NG_DANGLING_BOTTOM and f.layer == "flat"
        for f in report.findings
    )


def test_ng009_duplicate_layer_name():
    report = check_prototxt(
        INPUT_8x8
        + 'layer { name: "flat" type: "Flatten" bottom: "x" top: "y" }\n'
        + 'layer { name: "flat" type: "Flatten" bottom: "y" top: "z" }\n'
    )
    assert any(f.rule == NG_DUPLICATE_NAME for f in report.findings)


@pytest.mark.parametrize("name", ZOO_NETS)
@pytest.mark.parametrize("phase", PHASES)
def test_zoo_nets_lint_clean(name, phase):
    report = check_spec(zoo_spec(name), phase=phase)
    assert report.ok, [f.message for f in report.findings]


# ----------------------------------------------------------------------
# planner: chunk parity with the runtime, memory, batch override
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_threads", [1, 2, 8])
def test_planner_chunks_match_iteration_owners(num_threads):
    report = check_spec(
        zoo_spec("lenet"), phase="TRAIN", threads=[num_threads],
    )
    (plan,) = report.plans
    assert plan.num_threads == num_threads
    assert len(plan.layers) == len(report.layers)
    for layer_plan in plan.layers:
        owners = iteration_owners(layer_plan.space, num_threads)
        counts = np.bincount(owners, minlength=num_threads)
        assert layer_plan.per_thread == counts.tolist(), layer_plan.name


def test_planner_imbalance():
    report = check_spec(zoo_spec("lenet"), phase="TRAIN", threads=[8])
    (plan,) = report.plans
    for layer_plan in plan.layers:
        if layer_plan.sequential:
            assert layer_plan.imbalance == 1.0
        else:
            expected = (
                max(layer_plan.per_thread) * 8 / layer_plan.space
            )
            assert layer_plan.imbalance == pytest.approx(expected)
    assert plan.max_imbalance >= 1.0


def test_planner_memory_accounting():
    report = check_spec(zoo_spec("lenet"), phase="TRAIN")
    net = Net(zoo_spec("lenet"), phase="TRAIN")
    activation = sum(b.count * 4 for b in net.blob_map.values())
    params = sum(p.count * 4 for p in net.learnable_params)
    assert report.memory.activation_bytes == activation
    assert report.memory.param_bytes == params
    assert 0 < report.memory.peak_activation_bytes <= activation


def test_planner_batch_override():
    report = check_spec(zoo_spec("lenet"), phase="TRAIN", batch=16)
    assert report.shapes["data"] == (16, 1, 28, 28)
    conv1 = next(l for l in report.layers if l.name == "conv1")
    assert conv1.space == 16
    plan = next(p for p in report.plans if p.num_threads == 8)
    conv1_plan = next(l for l in plan.layers if l.name == "conv1")
    assert sum(conv1_plan.per_thread) == 16


def test_report_json_roundtrips():
    report = check_spec(zoo_spec("mlp"), phase="TRAIN")
    blob = json.dumps(report.to_json())
    parsed = json.loads(blob)
    assert parsed["ok"] is True
    assert parsed["shapes"]["data"] == [64, 1, 28, 28]
    assert parsed["memory"]["param_bytes"] == report.memory.param_bytes


# ----------------------------------------------------------------------
# satellites: prototxt line numbers, inputs-without-shapes rejection
# ----------------------------------------------------------------------
def test_prototxt_unterminated_message_reports_line():
    with pytest.raises(ValueError, match=r"line 3.*missing '}'"):
        parse_prototxt('name: "x"\nlayer {\n  name: "l"\n')


def test_prototxt_eof_after_colon_reports_line():
    with pytest.raises(ValueError, match=r"line 2.*unexpected end of input"):
        parse_prototxt('name: "x"\ntype:')


def test_prototxt_eof_after_field_name_reports_line():
    with pytest.raises(
        ValueError, match=r"line 1: field 'name'.*unexpected end of input"
    ):
        parse_prototxt("name")


def test_netspec_rejects_inputs_without_shapes():
    spec = NetSpec(name="bad", inputs=["x", "y"], input_shapes=[[1, 2]])
    with pytest.raises(ValueError, match=r"inputs without a shape: 'y'"):
        spec.validate()


def test_parse_prototxt_rejects_unshaped_input_by_default():
    text = 'input: "x"\n'
    with pytest.raises(ValueError, match="input"):
        parse_prototxt(text)
    spec = parse_prototxt(text, validate=False)  # linter path still parses
    assert spec.inputs == ["x"] and spec.input_shapes == []


def test_net_rejects_unshaped_input():
    text = (
        'input: "x"\n'
        'layer { name: "flat" type: "Flatten" bottom: "x" top: "y" }\n'
    )
    spec = parse_prototxt(text, validate=False)
    with pytest.raises(ValueError, match="input"):
        Net(spec, phase="TRAIN")


# ----------------------------------------------------------------------
# CLI: netcheck subcommand + legacy flag mode
# ----------------------------------------------------------------------
def test_cli_netcheck_gate_ok(capsys):
    from repro.analysis.__main__ import main

    assert main(["netcheck", "--net", "lenet", "--gate"]) == 0
    out = capsys.readouterr().out
    assert "verdict: OK" in out


def test_cli_netcheck_gate_fails_on_broken_prototxt(tmp_path, capsys):
    from repro.analysis.__main__ import main

    path = tmp_path / "broken.prototxt"
    path.write_text(
        INPUT_8x8
        + 'layer { name: "lrn" type: "LRN" bottom: "x" top: "x" }\n'
    )
    assert main(
        ["netcheck", "--prototxt", str(path), "--phase", "TRAIN", "--gate"]
    ) == 1
    out = capsys.readouterr().out
    assert "NG002" in out


def test_cli_netcheck_json(capsys):
    from repro.analysis.__main__ import main

    assert main(
        ["netcheck", "--net", "mlp", "--phase", "TRAIN", "--json",
         "--batch", "8", "--threads", "2"]
    ) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1
    assert reports[0]["ok"] is True
    assert reports[0]["shapes"]["data"][0] == 8
    assert reports[0]["plans"][0]["num_threads"] == 2


def test_cli_legacy_flag_mode_still_works(capsys):
    from repro.analysis.__main__ import main

    # No --gate: other test modules may have registered deliberately
    # racy fixture layers, which the static pass correctly flags.
    assert main(["--static-only"]) == 0
    assert "static" in capsys.readouterr().out.lower()
