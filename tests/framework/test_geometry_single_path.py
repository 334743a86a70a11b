"""One geometry path: ``Net(spec)`` and ``infer_net(spec)`` cannot disagree.

A live layer shapes its tops, iteration space and parameters through the
same :func:`~repro.framework.shape_inference.infer_layer` call netcheck
makes, so off the zoo — hostile axes, kernels, groups, label shapes — the
two either agree on ``(top shapes, forward_space, param shapes)`` or
refuse the spec with the same coded error.  Never an ``IndexError``, a
numpy broadcasting error from inside a chunk, or a loss computed from the
wrong labels on one side only.
"""

import numpy as np
import pytest

import repro.framework.layers  # noqa: F401  (registers layers + rules)
from repro.framework.net import Net
from repro.framework.net_spec import LayerSpec, NetSpec
from repro.framework.shape_inference import BlobInfo, infer_layer
from repro.framework.symbolic import infer_net

ONE_BOTTOM = [(2, 3, 8, 8), (2, 3, 7, 5), (2, 4, 1, 1), (2, 12), (2,),
              (2, 3, 4)]
AXES = [{}, {"axis": 0}, {"axis": -1}, {"axis": 2}, {"axis": 3},
        {"axis": 4}, {"axis": -5}]
NEURONS = ["ReLU", "Sigmoid", "TanH", "Power", "AbsVal", "Exp", "Log", "BNLL"]

ONE_BOTTOM_LAYERS = (
    [("Convolution", p) for p in (
        {"num_output": 4, "kernel_size": 3},
        {"num_output": 4, "kernel_size": 3, "stride": 2, "pad": 1},
        {"num_output": 6, "kernel_size": 1, "group": 3},
        {"num_output": 4, "kernel_size": 3, "group": 2},
        {"num_output": 4, "kernel_size": 3, "group": 0},
        {"num_output": 4, "kernel_size": 3, "stride": 0},
        {"num_output": 4, "kernel_size": 9},
        {"num_output": 0, "kernel_size": 1},
        {"num_output": 4, "kernel_h": 3},
        {"kernel_size": 3},
    )]
    + [("Pooling", p) for p in (
        {"kernel_size": 2, "stride": 2},
        {"pool": "AVE", "kernel_size": 3, "stride": 2, "pad": 1},
        {"kernel_size": 2, "stride": 3},
        {"kernel_size": 2, "pad": 2},
        {"kernel_size": 0},
        {"pool": "MEDIAN", "kernel_size": 2},
        {"kernel_size": 9},
    )]
    + [("InnerProduct", {"num_output": 5, **a}) for a in AXES]
    + [("InnerProduct", {"num_output": 0}),
       ("InnerProduct", {"num_output": 5, "bias_term": False}),
       ("InnerProduct", {})]
    + [("Flatten", a) for a in AXES]
    + [("Softmax", a) for a in AXES]
    + [("LRN", {}), ("LRN", {"local_size": 3}), ("LRN", {"local_size": 4}),
       ("LRN", {"norm_region": "WITHIN_CHANNEL"})]
    + [("Scale", a) for a in AXES] + [("Scale", {"bias_term": True})]
    + [("Bias", a) for a in AXES]
    + [("Dropout", {}), ("Dropout", {"dropout_ratio": 1.5})]
    + [(name, {}) for name in NEURONS]
    + [("Split", {})]
)

TWO_BOTTOMS = [
    ((2, 3), (2,)), ((2, 3), (3,)), ((2, 3), (1,)), ((2, 3), ()),
    ((2, 3), (2, 3)), ((2, 3), (3, 3)), ((2, 3), (2, 1)), ((2, 3), (2, 3, 1)),
    ((4, 3), (2,)), ((2,), (2,)), ((2, 3, 1, 1), (2,)),
    ((2, 3, 4, 4), (2, 3, 4, 4)), ((2, 3, 4, 4), (2, 5, 4, 4)),
    ((2, 3, 4, 4), (2, 3, 4, 5)), ((2, 3, 4, 4), (2,)),
]

TWO_BOTTOM_LAYERS = (
    [("Concat", a) for a in AXES]
    + [("Eltwise", p) for p in (
        {}, {"operation": "PROD"}, {"operation": "MAX"},
        {"operation": "AVG"}, {"coeff": [1.0, -2.0]}, {"coeff": [1.0]},
        {"coeff": [1.0, 2.0, 3.0]},
        {"operation": "PROD", "coeff": [1.0, 2.0]},
    )]
    + [("SoftmaxWithLoss", {}), ("SoftmaxWithLoss", {"ignore_label": 0}),
       ("EuclideanLoss", {})]
    + [("Accuracy", {}), ("Accuracy", {"top_k": 2}), ("Accuracy", {"top_k": 5})]
)

CASES = (
    [(t, p, (shape,)) for t, p in ONE_BOTTOM_LAYERS for shape in ONE_BOTTOM]
    + [(t, p, pair) for t, p in TWO_BOTTOM_LAYERS for pair in TWO_BOTTOMS]
)

LAYER = "probe"


def probe_spec(type_name, params, shapes) -> NetSpec:
    feeders = [
        LayerSpec(name=f"in{i}", type="Input", tops=[f"x{i}"],
                  params={"shape": {"dim": list(shape)}})
        for i, shape in enumerate(shapes)
    ]
    tops = ["y0", "y1"] if type_name == "Split" else ["y"]
    probe = LayerSpec(
        name=LAYER, type=type_name,
        bottoms=[f"x{i}" for i in range(len(shapes))], tops=tops,
        params=dict(params),
    )
    return NetSpec(name="grid", layers=feeders + [probe])


def live(spec):
    """``Net(spec)`` plus one forward; the probe layer's geometry."""
    net = Net(spec)
    rng = np.random.default_rng(3)
    for i in range(len(net.layers) - 1):
        blob = net.blob(f"x{i}")
        blob.flat_data[:] = rng.random(blob.count)  # labels all class 0
    net.forward()
    layer = net.layer(LAYER)
    bottom, top = net.bottoms[-1], net.tops[-1]
    return layer, bottom, (
        [t.shape for t in top],
        layer.forward_space(bottom, top),
        [tuple(b.shape) for b in layer.blobs],
    )


def symbolic(spec):
    inf = infer_net(spec).layers[-1]
    assert inf.spec.name == LAYER
    return ([t.shape for t in inf.result.tops], inf.result.forward_space,
            [tuple(s) for s in inf.result.param_shapes])


def outcome(fn, spec):
    try:
        return fn(spec), None
    except Exception as exc:  # the assertions below name what is allowed
        return None, exc


def divergence(type_name, params, shapes):
    """Why ``Net`` and ``infer_net`` disagree on this spec, or None."""
    spec = probe_spec(type_name, params, shapes)
    live_result, live_error = outcome(live, spec)
    sym_result, sym_error = outcome(symbolic, spec)

    if live_error is None and sym_error is None:
        layer, bottom, geometry = live_result
        if geometry != sym_result:
            return f"Net has {geometry}, infer_net {sym_result}"
        if layer.geometry != infer_layer(
                layer.spec, [BlobInfo(b.shape) for b in bottom]):
            return "layer.geometry is not what infer_layer returns"
        return None
    for side, error in (("Net", live_error), ("infer_net", sym_error)):
        if error is None:
            return (f"{side} accepted a spec the other side refused: "
                    f"{live_error or sym_error!r}")
        # KeyError: a required parameter (num_output) is missing.
        if not isinstance(error, (ValueError, KeyError)):
            return f"{side} died with an uncoded {error!r}"
        if LAYER not in str(error):
            return f"{side}'s error does not name the layer: {error!r}"
    return None


@pytest.mark.parametrize("type_name", sorted({t for t, _, _ in CASES}))
def test_net_and_infer_net_agree(type_name):
    cases = [case for case in CASES if case[0] == type_name]
    divergent = {
        f"{params} on {shapes}": why
        for _, params, shapes in cases
        if (why := divergence(type_name, params, shapes)) is not None
    }
    assert not divergent, (
        f"{len(divergent)} of {len(cases)} {type_name} specs diverge")


def test_the_grid_covers_the_probe_that_motivated_it():
    """618 specs at the parent, 78 of them divergent (194 of these)."""
    assert len(CASES) >= 618


# ----------------------------------------------------------------------
# the guard: the rule runs when a bottom shape moves, and only then
# ----------------------------------------------------------------------
def work_array_ids(net):
    """``id`` of every array the ``shape_changed`` hooks own — the
    per-sample state each layer declares as footprint scratch
    (``_max_idx``, ``_scale``, ``_prob``, ``_per_sample``, ...)."""
    return {
        (layer.name, attr): id(getattr(layer, attr))
        for layer in net.layers if layer.contract is not None
        for attr in layer.contract.scratch if hasattr(layer, attr)
    }


@pytest.fixture
def inferences(monkeypatch):
    """Names of the layers whose shape rule the live path runs."""
    from repro.framework import layer as layer_module

    asked = []
    real = layer_module.infer_layer

    def counting(spec, bottoms):
        asked.append(spec.name)
        return real(spec, bottoms)

    monkeypatch.setattr(layer_module, "infer_layer", counting)
    return asked


@pytest.mark.parametrize("name", ["mlp", "lenet"])
def test_steady_state_infers_nothing_and_keeps_its_work_arrays(
        name, inferences):
    from repro.zoo import build_solver

    solver = build_solver(name, max_iter=4, batch=8)
    solver.step(1)  # warm-up
    arrays = work_array_ids(solver.net)
    assert len(arrays) >= 3  # at least the loss layer's
    del inferences[:]
    for _ in range(3):
        solver.step(1)
    assert inferences == []
    assert work_array_ids(solver.net) == arrays


def test_a_batch_size_change_re_derives_every_layer_once(inferences):
    """Serving's swap: every feeder's ``batch_size`` is set after
    construction.  The next forward re-derives each layer exactly once
    and gives the logits of a net built at that batch."""
    from repro.serve.engine import _resolve_output_blob, _swap_in_staged_sources
    from repro.zoo import build_net

    images = np.random.default_rng(5).random((8, 1, 28, 28), dtype=np.float32)

    def logits_of(net):
        for source in _swap_in_staged_sources(net, 8):
            source.stage(images)
        net.forward()
        return _resolve_output_blob(net, None).data.tobytes()

    swapped = build_net("lenet", phase="TEST")
    swapped.forward()  # at the spec's own batch
    del inferences[:]
    got = logits_of(swapped)
    shaped_by_rule = [layer.name for layer in swapped.layers
                      if layer.geometry is not None]
    assert sorted(inferences) == sorted(shaped_by_rule)
    del inferences[:]
    swapped.forward()
    assert inferences == []
    assert got == logits_of(build_net("lenet", phase="TEST", batch=8))
