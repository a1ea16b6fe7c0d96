"""Tests for the graph-convolutional policy network and its checkpoints."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harqpower import autodiff as ad
from harqpower.gcn import (LayerSpec, forward, init_weights, load_checkpoint,
                           save_checkpoint)
from harqpower.graph import batch_adjacency, session_adjacency
from harqpower.types import P_MIN_WATTS, ChannelParams, PowerPolicy


def powers(adjacency, spec, matrices, p_bar_w):
    """Forward pass on constant weights, as an array of per-round powers."""
    out = forward(adjacency, spec, [ad.constant(m) for m in matrices], p_bar_w)
    return out.value[..., 0]


class TestLayerSpec:
    def test_default_architecture(self):
        spec = LayerSpec()
        assert spec.dims[0] == 1 and spec.dims[-1] == 1
        assert spec.num_layers == len(spec.dims) - 1
        assert spec.activations[-1] == "linear"
        assert all(a == "relu" for a in spec.activations[:-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(dims=(1,))
        with pytest.raises(ValueError):
            LayerSpec(dims=(1, 0, 1))


class TestInit:
    def test_deterministic_in_seed(self):
        a = init_weights(LayerSpec(), seed=9)
        b = init_weights(LayerSpec(), seed=9)
        c = init_weights(LayerSpec(), seed=10)
        assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
        assert any(not np.array_equal(x, y) for x, y in zip(a.matrices, c.matrices))

    def test_shapes_and_bounds(self):
        spec = LayerSpec()
        w = init_weights(spec, seed=0)
        for m, n_in, n_out in zip(w.matrices, spec.dims[:-1], spec.dims[1:]):
            assert m.shape == (n_in, n_out)
            bound = np.sqrt(6.0 / (n_in + n_out))
            assert np.all(np.abs(m) <= bound)

    def test_copy_is_deep(self):
        w = init_weights(LayerSpec(), seed=1)
        w2 = w.copy()
        w2.matrices[0][0, 0] += 1.0
        assert w.matrices[0][0, 0] != w2.matrices[0][0, 0]


class TestForward:
    LINEAR = LayerSpec(dims=(1, 1))

    def test_identity_adjacency_linear_chain(self):
        out = powers(np.eye(3), self.LINEAR, [np.array([[2.0]])], p_bar_w=6.0)
        assert np.array_equal(out, np.array([4.0, 4.0, 4.0]))

    def test_relu_blocks_negative_features(self):
        spec = LayerSpec(dims=(1, 1, 1))
        out = powers(np.eye(2), spec, [np.array([[-2.0]]), np.array([[5.0]])],
                     p_bar_w=4.0)
        assert np.array_equal(out, np.full(2, P_MIN_WATTS))

    def test_output_floored_at_minimum_power(self):
        out = powers(np.eye(3), self.LINEAR, [np.array([[-1.0]])], p_bar_w=3.0)
        assert np.array_equal(out, np.full(3, P_MIN_WATTS))

    def test_adjacency_mixes_rounds(self):
        adj = session_adjacency(ChannelParams(rho=0.5))
        out = powers(adj, self.LINEAR, [np.array([[1.0]])], p_bar_w=3.0)
        assert out == pytest.approx(adj.sum(axis=1), rel=1e-15)

    def test_batched_matches_single_sessions(self):
        rho = np.array([0.0, 0.35, 0.9])
        w = init_weights(LayerSpec(), seed=4)
        batched = powers(batch_adjacency(rho, 3, 1), w.spec, w.matrices, 31.6)
        for i, r in enumerate(rho):
            single = powers(session_adjacency(ChannelParams(rho=float(r))),
                            w.spec, w.matrices, 31.6)
            np.testing.assert_allclose(batched[i], single, rtol=1e-14)

    def test_gradient_reaches_parameters(self):
        w = ad.parameter(np.array([[1.5]]))
        out = forward(np.eye(2), self.LINEAR, [w], p_bar_w=4.0)
        ad.backward(ad.reduce_sum(out))
        # two rounds, each emitting (p_bar / K) * w
        assert np.array_equal(w.adjoint, np.array([[4.0]]))

    def test_rejects_nonsquare_adjacency(self):
        w = init_weights(LayerSpec(), seed=0)
        with pytest.raises(ValueError):
            powers(np.ones((3, 2)), w.spec, w.matrices, p_bar_w=1.0)

    @given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 50))
    @settings(max_examples=40)
    def test_positive_homogeneity_in_input_power(self, scale, seed):
        # relu networks without biases scale linearly with the input feature;
        # the P_MIN_WATTS floor then applies to the scaled output
        w = init_weights(LayerSpec(), seed=seed)
        adj = session_adjacency(ChannelParams(rho=0.4))
        base = powers(adj, w.spec, w.matrices, p_bar_w=10.0)
        scaled = powers(adj, w.spec, w.matrices, p_bar_w=10.0 * scale)
        live = base > P_MIN_WATTS
        assert scaled[live] == pytest.approx(
            np.maximum(scale * base[live], P_MIN_WATTS), rel=1e-12)
        assert np.all(scaled[~live] <= max(scale, 1.0) * P_MIN_WATTS)


class TestPowerPolicyFloor:
    def test_floors_at_minimum_power(self):
        pol = PowerPolicy((-3.0, 0.0, 2.5))
        assert pol.powers[0] == P_MIN_WATTS
        assert pol.powers[1] == P_MIN_WATTS
        assert pol.powers[2] == 2.5


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        w = init_weights(LayerSpec(), seed=3)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, w)
        back = load_checkpoint(path)
        assert back.spec == w.spec
        assert back.seed == w.seed
        assert all(np.array_equal(a, b) for a, b in zip(w.matrices, back.matrices))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SOMETHING 1\ndims 1 1\nactivations linear\nseed 0\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        w = init_weights(LayerSpec(dims=(1, 1)), seed=0)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, w)
        text = path.read_text().replace(" 1\n", " 99\n", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("acts", ["relu", "tanh linear", "linear relu"])
    def test_activations_other_than_derived_rejected(self, tmp_path, acts):
        # hidden layers are relu and the last is linear; a file saying
        # otherwise does not describe this network
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, init_weights(LayerSpec(dims=(1, 4, 1)), seed=0))
        text = path.read_text().replace("activations relu linear",
                                        "activations " + acts, 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="activations"):
            load_checkpoint(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "nope.txt")
