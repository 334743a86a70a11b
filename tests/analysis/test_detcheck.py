"""Unit and integration tests for the determinism certifier.

Static half: the DC0xx source lint and layer provenance checks on
seeded-nondeterminism fixtures; the DC1xx configuration tier rules.
Dynamic half: the replay certifier on the zoo (blockwise certifies
bitwise, atomic's divergence is pinpointed to a layer, never silently
passed).
"""

import json
import textwrap

import numpy as np
import pytest

from repro.analysis import ERROR, INFO
from repro.analysis.detcheck import (
    Divergence,
    IterationSnapshot,
    Trajectory,
    capture_trajectory,
    certify_mode,
    classify_config,
    first_divergence,
    run_detcheck,
    ulp_distance,
    ulp_distance_scalar,
)
from repro.analysis.rng_lint import (
    analyze_layer_rng,
    lint_rng,
    lint_sources,
)
from repro.analysis.__main__ import main
from repro.core.reduction import (
    BITWISE_INVARIANT,
    DETERMINISTIC_PER_T,
    NONDETERMINISTIC,
)
from repro.framework.layer import RNG_PER_FORWARD, LayerContract


# ----------------------------------------------------------------------
# fixture layer classes (must live in a real file for inspect.getsource)
# ----------------------------------------------------------------------
class UnseededRNGLayer:
    """DC006: constructs an RNG, declares nothing."""

    def layer_setup(self, bottom, top):
        self._rng = np.random.default_rng(7)


class ChunkDrawLayer:
    """DC004: draws inside the chunked forward."""

    contract = LayerContract(seed_params=("seed",))

    def layer_setup(self, bottom, top):
        self._rng = np.random.default_rng(int(self.spec.param("seed", 1)))

    def forward_chunk(self, bottom, top, lo, hi):
        noise = self._rng.normal(size=hi - lo)
        top[0].flat_data[lo:hi] = bottom[0].flat_data[lo:hi] + noise


class HelperDrawLayer:
    """DC004: the draw hides in a helper of the chunked forward."""

    contract = LayerContract(seed_params=("seed",))

    def layer_setup(self, bottom, top):
        self._rng = np.random.default_rng(int(self.spec.param("seed", 1)))

    def forward_chunk(self, bottom, top, lo, hi):
        top[0].flat_data[lo:hi] = bottom[0].flat_data[lo:hi] + self._noise()

    def _noise(self):
        return self._rng.normal()


class StaleDeclLayer:
    """DC007 twice: seed param never read, stable_digest never used."""

    contract = LayerContract(seed_params=("filler_seed",),
                             fallback="stable_digest")

    def layer_setup(self, bottom, top):
        self._rng = np.random.default_rng(13)


class WrongDrawSiteLayer:
    """DC007: declares draws='setup' but reshape() draws per forward."""

    contract = LayerContract(seed_params=("seed",))

    def layer_setup(self, bottom, top):
        self._rng = np.random.default_rng(int(self.spec.param("seed", 1)))

    def reshape(self, bottom, top):
        self._mask = self._rng.random(8)


class CleanStochasticLayer:
    """Correctly declared: no findings."""

    contract = LayerContract(seed_params=("seed",), draws=RNG_PER_FORWARD)

    def layer_setup(self, bottom, top):
        self._rng = np.random.default_rng(int(self.spec.param("seed", 1)))

    def reshape(self, bottom, top):
        self._mask = self._rng.random(8)


def rules(findings):
    return sorted(f.rule for f in findings)


class TestLayerRNGAnalysis:
    def test_undeclared_construction_is_dc006(self):
        assert rules(analyze_layer_rng(UnseededRNGLayer)) == ["DC006"]

    def test_chunk_draw_is_dc004(self):
        found = analyze_layer_rng(ChunkDrawLayer)
        assert "DC004" in rules(found)
        assert all(f.severity == ERROR for f in found)

    def test_helper_draw_is_dc004(self):
        found = analyze_layer_rng(HelperDrawLayer)
        assert rules(found) == ["DC004"]
        assert "_noise" in found[0].message

    def test_stale_declaration_is_dc007(self):
        found = analyze_layer_rng(StaleDeclLayer)
        assert rules(found) == ["DC007", "DC007"]

    def test_wrong_draw_site_is_dc007(self):
        found = analyze_layer_rng(WrongDrawSiteLayer)
        assert "DC007" in rules(found)
        assert any("per_forward" in f.message for f in found)

    def test_clean_declaration_passes(self):
        assert analyze_layer_rng(CleanStochasticLayer) == []

    def test_builtin_layers_are_clean(self):
        errors = [f for f in lint_rng() if f.severity == ERROR]
        assert errors == []


class TestSourceLint:
    def lint(self, tmp_path, source):
        path = tmp_path / "fixture.py"
        path.write_text(textwrap.dedent(source))
        return lint_sources([path])

    def test_unseeded_rng_is_dc001(self, tmp_path):
        found = self.lint(tmp_path, """
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rules(found) == ["DC001"]
        assert "fixture.py:3" in found[0].location

    def test_hash_seed_is_dc002(self, tmp_path):
        found = self.lint(tmp_path, """
            import numpy as np
            def make(name):
                return np.random.default_rng(abs(hash(name)) % (2**31))
        """)
        assert rules(found) == ["DC002"]

    def test_wall_clock_seed_is_dc003(self, tmp_path):
        found = self.lint(tmp_path, """
            import time
            import numpy as np
            rng = np.random.default_rng(int(time.time()))
        """)
        assert rules(found) == ["DC003"]

    def test_timing_without_seeding_is_clean(self, tmp_path):
        # core/trace.py-style instrumentation must not trip DC003.
        found = self.lint(tmp_path, """
            import time
            def timed(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
        """)
        assert found == []

    def test_entropy_source_is_dc003(self, tmp_path):
        found = self.lint(tmp_path, """
            import os
            salt = os.urandom(8)
        """)
        assert rules(found) == ["DC003"]

    def test_legacy_global_stream_is_dc005(self, tmp_path):
        found = self.lint(tmp_path, """
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(4)
        """)
        assert rules(found) == ["DC005", "DC005"]

    def test_identity_map_id_is_clean(self, tmp_path):
        # net.py keys blob maps by id(); only id() in a seed is a hazard.
        found = self.lint(tmp_path, """
            def track(blobs):
                return {id(b): b for b in blobs}
        """)
        assert found == []

    def test_shipped_packages_are_clean(self):
        assert lint_sources() == []


class TestConfigRules:
    def test_atomic_claiming_bitwise_is_dc101(self):
        found = classify_config("lenet", "atomic", [1, 2, 8],
                                claim=BITWISE_INVARIANT)
        assert rules(found) == ["DC101"]
        assert found[0].severity == ERROR

    def test_ordered_claiming_bitwise_is_dc101(self):
        found = classify_config("lenet", "ordered", [2],
                                claim=BITWISE_INVARIANT)
        assert rules(found) == ["DC101"]

    def test_claim_within_tier_passes(self):
        assert classify_config("lenet", "blockwise", [1, 2, 8],
                               claim=BITWISE_INVARIANT) == []
        assert classify_config("lenet", "ordered", [2],
                               claim=DETERMINISTIC_PER_T) == []

    def test_single_thread_meets_any_claim(self):
        assert classify_config("lenet", "atomic", [1],
                               claim=BITWISE_INVARIANT) == []

    def test_dynamic_schedule_is_dc102(self):
        found = classify_config("lenet", "tree", [4],
                                schedule_static=False)
        assert rules(found) == ["DC102"]

    def test_uncertified_solver_is_dc104_warning(self):
        found = classify_config("lenet", "blockwise", [2],
                                solver_type="Adam")
        assert rules(found) == ["DC104"]
        assert found[0].severity != ERROR

    def test_undeclared_stochastic_layer_is_dc103(self, monkeypatch):
        from repro.framework.layer import _REGISTRY
        from repro.framework.net_spec import LayerSpec, NetSpec

        monkeypatch.setitem(_REGISTRY, "noisyfixture", UnseededRNGLayer)
        spec = NetSpec(name="fixture", layers=[LayerSpec(
            name="noise1", type="NoisyFixture", bottoms=[], tops=["y"],
        )])
        found = classify_config("fixture", "blockwise", [2], spec=spec)
        assert rules(found) == ["DC103"]
        assert "noise1" in found[0].layer


class TestULPDistance:
    def test_adjacent_floats_are_one_ulp(self):
        a = np.array([1.0, -1.0, 0.0], dtype=np.float32)
        b = np.array([np.nextafter(np.float32(1.0), np.float32(2.0)),
                      np.nextafter(np.float32(-1.0), np.float32(-2.0)),
                      np.nextafter(np.float32(0.0), np.float32(-1.0))],
                     dtype=np.float32)
        assert ulp_distance(a, b) == 1

    def test_signed_zeros_are_equal(self):
        a = np.array([0.0], dtype=np.float32)
        b = np.array([-0.0], dtype=np.float32)
        assert ulp_distance(a, b) == 0
        assert ulp_distance_scalar(0.0, -0.0) == 0

    def test_identical_is_zero(self):
        a = np.linspace(-5, 5, 17, dtype=np.float32)
        assert ulp_distance(a, a.copy()) == 0


def _traj(losses, updates, params):
    names = tuple(f"p{i}" for i in range(len(updates[0])))
    owners = tuple(f"layer{i}" for i in range(len(updates[0])))
    snaps = tuple(
        IterationSnapshot(
            loss=loss,
            updates=tuple(np.asarray(u, dtype=np.float32) for u in ups),
            params=tuple(np.asarray(p, dtype=np.float32) for p in pars),
        )
        for loss, ups, pars in zip(losses, updates, params)
    )
    return Trajectory(param_names=names, param_owners=owners,
                      snapshots=snaps)


class TestFirstDivergence:
    BASE = dict(
        losses=[1.5, 1.25],
        updates=[[[0.1, 0.2], [0.3]], [[0.1, 0.2], [0.35]]],
        params=[[[1.0, 1.0], [2.0]], [[0.9, 0.8], [1.65]]],
    )

    def test_equal_trajectories(self):
        assert first_divergence(_traj(**self.BASE),
                                _traj(**self.BASE)) is None

    def test_loss_reported_before_updates(self):
        other = dict(self.BASE, losses=[1.5000001, 1.25],
                     updates=[[[0.1, 0.2], [0.4]], [[0.1, 0.2], [0.35]]])
        div = first_divergence(_traj(**self.BASE), _traj(**other))
        assert div.site == "loss" and div.iteration == 0

    def test_updates_scanned_in_backward_order(self):
        # Both params' updates differ; the later layer computes first.
        other = dict(self.BASE,
                     updates=[[[0.11, 0.2], [0.31]], [[0.1, 0.2], [0.35]]])
        div = first_divergence(_traj(**self.BASE), _traj(**other))
        assert div.site == "update:p1" and div.layer == "layer1"

    def test_earlier_iteration_wins(self):
        other = dict(self.BASE, losses=[1.5, 1.2500001])
        div = first_divergence(_traj(**self.BASE), _traj(**other))
        assert div.iteration == 1 and div.site == "loss"
        assert div.max_ulps >= 1

    def test_short_trajectory_diverges_where_it_stops(self):
        full = _traj(**self.BASE)
        short = Trajectory(param_names=full.param_names,
                           param_owners=full.param_owners,
                           snapshots=full.snapshots[:1])
        for a, b in ((full, short), (short, full)):
            div = first_divergence(a, b)
            assert div is not None and div.iteration == 1
            assert "stops" in div.describe()

    def test_different_parameters_diverge_at_iteration_zero(self):
        base = _traj(**self.BASE)
        renamed = Trajectory(param_names=("q0", "q1"),
                             param_owners=base.param_owners,
                             snapshots=base.snapshots)
        div = first_divergence(base, renamed)
        assert div is not None and div.iteration == 0
        assert "'p0'" in div.describe() and "'q0'" in div.describe()


class TestReplayCertification:
    def test_blockwise_certifies_bitwise_on_mlp(self):
        cert = certify_mode("mlp", "blockwise", [1, 2], iters=1, batch=4)
        assert cert.ok
        assert cert.observed_tier == BITWISE_INVARIANT
        assert cert.findings == []
        assert all(cert.bitwise_vs_sequential.values())

    def test_atomic_divergence_pinpoints_layer(self):
        cert = certify_mode("lenet", "atomic", [2], iters=1, batch=4)
        assert cert.promised_tier == NONDETERMINISTIC
        assert cert.ok  # divergence within tier is not an error...
        div = cert.first_divergence[2]
        assert div is not None  # ...but it is never silently passed:
        assert div.layer != "" and div.max_ulps >= 1
        assert any(f.rule == "DC203" and f.severity == INFO
                   for f in cert.findings)

    def test_trajectory_capture_is_reproducible(self):
        a = capture_trajectory("mlp", iters=1, batch=4)
        b = capture_trajectory("mlp", iters=1, batch=4)
        assert first_divergence(a, b) is None

    def test_run_detcheck_document_shape(self):
        report = run_detcheck(nets=["mlp"], modes=["blockwise"],
                              threads=[1, 2], iters=1, batch=4)
        doc = report.to_json()
        assert doc["ok"] is True
        assert doc["static_findings"] == []
        (cert,) = doc["certificates"]
        assert cert["mode"] == "blockwise"
        assert cert["observed_tier"] == BITWISE_INVARIANT
        assert any("CERTIFIED" in line for line in report.summary_lines())


class TestCLI:
    def test_static_only_gate_passes(self, capsys):
        code = main(["detcheck", "--net", "mlp", "--static-only", "--gate"])
        assert code == 0
        assert "verdict: CERTIFIED" in capsys.readouterr().out

    def test_bogus_claim_fails_gate(self, capsys):
        code = main(["detcheck", "--net", "mlp", "--mode", "atomic",
                     "--claim", "bitwise_invariant", "--static-only",
                     "--gate"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DC101" in out and "VIOLATIONS FOUND" in out

    def test_json_output(self, capsys):
        code = main(["detcheck", "--net", "mlp", "--threads", "1,2",
                     "--iters", "1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and len(doc["certificates"]) == 3

    def test_list_codes(self, capsys):
        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in ("FP001", "RT001", "NG009", "DC001", "DC101", "DC203"):
            assert code in out

    def test_dynamic_gate_on_mlp(self, capsys):
        code = main(["detcheck", "--net", "mlp", "--threads", "1,2",
                     "--iters", "1", "--gate"])
        assert code == 0
