"""Tests for the graph-convolutional policy network and its checkpoints."""
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generic_ops as ad
import harqpower
from harqpower.gcn import (DEFAULT_DIMS, GcnWeights, flat_views, forward,
                           forward_profile, init_weights, load_checkpoint,
                           profile, save_checkpoint)
from harqpower.graph import batch_adjacency, session_adjacency
from harqpower.types import P_MIN_WATTS, ChannelParams, PowerPolicy


def powers(adjacency, matrices, p_bar_w):
    """Forward pass as an array of per-round powers."""
    return forward(adjacency, matrices, p_bar_w).out[..., 0]


class TestInit:
    def test_default_architecture(self):
        w = init_weights(seed=0)
        assert DEFAULT_DIMS[0] == 1 and DEFAULT_DIMS[-1] == 1
        assert len(w.matrices) == len(DEFAULT_DIMS) - 1

    def test_deterministic_in_seed(self):
        a = init_weights(seed=9)
        b = init_weights(seed=9)
        c = init_weights(seed=10)
        assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
        assert any(not np.array_equal(x, y) for x, y in zip(a.matrices, c.matrices))

    def test_shapes_and_bounds(self):
        w = init_weights(seed=0)
        for m, n_in, n_out in zip(w.matrices, DEFAULT_DIMS[:-1], DEFAULT_DIMS[1:]):
            assert m.shape == (n_in, n_out)
            bound = np.sqrt(6.0 / (n_in + n_out))
            assert np.all(np.abs(m) <= bound)


class TestFlatViews:
    def test_one_network_buffer(self):
        mats = init_weights(seed=0).matrices
        flat = np.concatenate([m.reshape(-1) for m in mats])
        views = flat_views(flat, mats)
        assert [v.shape for v in views] == [m.shape for m in mats]
        assert all(np.array_equal(v, m) for v, m in zip(views, mats))
        assert all(np.shares_memory(v, flat) for v in views)

    def test_run_major_buffer(self):
        # row r of an (R, P) buffer holds run r's weights, so each layer's
        # (R, n, m) view aliases run r's matrix at index r
        runs = [init_weights(seed=s).matrices for s in (1, 2, 3)]
        flat = np.stack([np.concatenate([m.reshape(-1) for m in mats])
                         for mats in runs])
        views = flat_views(flat, runs[0])
        assert [v.shape for v in views] == [(3,) + m.shape for m in runs[0]]
        for r, mats in enumerate(runs):
            for v, m in zip(views, mats):
                assert np.array_equal(v[r], m)
        # a write to run 1's layer-2 entry (3, 4) lands in row 1 alone
        before = flat.copy()
        views[2][1, 3, 4] = 7.5
        where = sum(m.size for m in runs[1][:2]) + 3 * runs[1][2].shape[1] + 4
        assert np.argwhere(flat != before).tolist() == [[1, where]]
        assert flat[1, where] == 7.5


class TestForward:
    def test_identity_adjacency_linear_chain(self):
        out = powers(np.eye(3), [np.array([[2.0]])], p_bar_w=6.0)
        assert np.array_equal(out, np.array([4.0, 4.0, 4.0]))

    def test_relu_blocks_negative_features(self):
        out = powers(np.eye(2), [np.array([[-2.0]]), np.array([[5.0]])],
                     p_bar_w=4.0)
        assert np.array_equal(out, np.full(2, P_MIN_WATTS))

    def test_output_floored_at_minimum_power(self):
        out = powers(np.eye(3), [np.array([[-1.0]])], p_bar_w=3.0)
        assert np.array_equal(out, np.full(3, P_MIN_WATTS))

    def test_adjacency_mixes_rounds(self):
        adj = session_adjacency(ChannelParams(rho=0.5))
        out = powers(adj, [np.array([[1.0]])], p_bar_w=3.0)
        assert out == pytest.approx(adj.sum(axis=1), rel=1e-15)

    def test_batched_matches_single_sessions(self):
        rho = np.array([0.0, 0.35, 0.9])
        w = init_weights(seed=4)
        batched = powers(batch_adjacency(rho, 3, 1), w.matrices, 31.6)
        for i, r in enumerate(rho):
            single = powers(session_adjacency(ChannelParams(rho=float(r))),
                            w.matrices, 31.6)
            np.testing.assert_allclose(batched[i], single, rtol=1e-14)

    def test_gradient_reaches_parameters(self):
        w = ad.parameter(np.array([[1.5]]))
        net = forward(np.eye(2), [w.value], p_bar_w=4.0)
        out = ad.op("gcn", net.forward, (w,), net.backward)
        ad.backward(ad.reduce_sum(out))
        # two rounds, each emitting (p_bar / K) * w
        assert np.array_equal(w.adjoint, np.array([[4.0]]))

    def test_import_does_not_load_autodiff(self):
        # the package's __init__ imports training, which builds the tape,
        # so the module is imported under a bare package object
        code = ("import sys, types; pkg = types.ModuleType('harqpower'); "
                f"pkg.__path__ = {list(harqpower.__path__)!r}; "
                "sys.modules['harqpower'] = pkg; import harqpower.gcn; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('harqpower')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == str(
            ["harqpower", "harqpower.gcn", "harqpower.types"])

    def test_rejects_nonsquare_adjacency(self):
        w = init_weights(seed=0)
        with pytest.raises(ValueError):
            powers(np.ones((3, 2)), w.matrices, p_bar_w=1.0)

    def test_rejects_a_negative_adjacency_entry_or_budget(self):
        # the rank-one form needs A^l 1 >= 0 and p_bar >= 0
        w = init_weights(seed=4)
        adj = batch_adjacency(np.array([0.3, 0.6]), 3, 1)
        adj[1, 0, 2] = -1e-300
        with pytest.raises(ValueError, match="^adjacency entries must be "
                                             "nonnegative$"):
            forward(adj, w.matrices, 1.0)
        mats = [np.stack([m] * 2) for m in w.matrices]
        with pytest.raises(ValueError, match="^p_bar_w must be nonnegative$"):
            forward(np.eye(3), mats, np.array([1.0, -0.5]))

    @pytest.mark.parametrize("n_runs, p_bar_w, counts", [
        (None, np.array([10.0, 20.0]), (2, 1)),
        (3, 10.0, (1, 3)),
        (3, np.array([10.0, 20.0]), (2, 3))],
        ids=["one-network-2-budgets", "stack-of-3-1-budget",
             "stack-of-3-2-budgets"])
    def test_budget_count_must_match_the_networks(self, n_runs, p_bar_w,
                                                  counts):
        mats = init_weights(seed=4).matrices
        if n_runs is not None:
            mats = [np.stack([m] * n_runs) for m in mats]
        with pytest.raises(ValueError, match=(
                "^p_bar_w's budget count {} does not match the network "
                "count {}$".format(*counts))):
            forward_profile(np.ones((5, 3, 1)), mats, p_bar_w)

    def test_one_budget_per_network_in_any_shape(self):
        # one network takes a float or a (1,) budget, the latter with a run
        # axis of 1, as batch_lagrangian's single run passes it; a stack of
        # one takes either too
        w = init_weights(seed=4).matrices
        d = profile(batch_adjacency(np.array([0.3, 0.6]), 3, 1), len(w))
        want = forward_profile(d, w, 10.0).out
        for mats, p_bar_w in ((w, np.array([10.0])),
                              ([m[None] for m in w], 10.0),
                              ([m[None] for m in w], np.array([10.0]))):
            out = forward_profile(d, mats, p_bar_w).out
            assert out.shape == (1,) + d.shape
            assert out[0].tobytes() == want.tobytes()

    @given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 50))
    @settings(max_examples=40)
    def test_positive_homogeneity_in_input_power(self, scale, seed):
        # relu networks without biases scale linearly with the input feature;
        # the P_MIN_WATTS floor then applies to the scaled output
        w = init_weights(seed=seed)
        adj = session_adjacency(ChannelParams(rho=0.4))
        base = powers(adj, w.matrices, p_bar_w=10.0)
        scaled = powers(adj, w.matrices, p_bar_w=10.0 * scale)
        live = base > P_MIN_WATTS
        assert scaled[live] == pytest.approx(
            np.maximum(scale * base[live], P_MIN_WATTS), rel=1e-12)
        assert np.all(scaled[~live] <= max(scale, 1.0) * P_MIN_WATTS)


def layer_by_layer(adjacency, matrices, p_bar_w, g):
    """One network's output and weight gradients for the output adjoint g,
    evaluated layer by layer as V_{l+1} = act(A V_l W_l)."""
    v = np.full(adjacency.shape[:-1] + (1,), p_bar_w / adjacency.shape[-1])
    u, z = [], []
    for w in matrices:
        u.append(adjacency @ v)
        z.append(u[-1] @ w)
        v = np.maximum(z[-1], 0.0)
    g_z = g * (z[-1] > P_MIN_WATTS)
    grads = [None] * len(matrices)
    for layer in range(len(matrices) - 1, -1, -1):
        grads[layer] = (u[layer].reshape(-1, u[layer].shape[-1]).T
                        @ g_z.reshape(-1, g_z.shape[-1]))
        if layer:
            g_z = (np.swapaxes(adjacency, -1, -2)
                   @ (g_z @ matrices[layer].T)) * (z[layer - 1] > 0.0)
    return np.maximum(z[-1], P_MIN_WATTS), grads


class TestRankOneIdentity:
    """The pass evaluates p = max(P_MIN, (p_bar / K) phi A^L 1), which is
    the layer-by-layer network exactly: it agrees with it in output and
    weight gradient to rounding, at live and dead hidden units and at
    floored and live outputs."""

    ADJACENCIES = {**{f"rho={rho}": batch_adjacency(np.array([rho, rho]), 4, 1)
                      for rho in (0.0, 0.35, 0.9, 0.98)},
                   "eye": np.eye(3)}

    @staticmethod
    def network(dims, seed):
        # the first Glorot-uniform draw with the first hidden unit of every
        # hidden layer dead and phi above the floor
        rng = np.random.default_rng(seed)
        while True:
            mats = [rng.uniform(-1.0, 1.0, (n, m)) * np.sqrt(6.0 / (n + m))
                    for n, m in zip(dims[:-1], dims[1:])]
            for w in mats[:-1]:
                w[:, 0] = -np.abs(w[:, 0])
            if layer_by_layer(np.eye(1), mats, 1.0, 0.0)[0] > P_MIN_WATTS:
                return mats

    @pytest.mark.parametrize("adjacency", ADJACENCIES.values(),
                             ids=ADJACENCIES.keys())
    @pytest.mark.parametrize("dims", [(1, 1), (1, 5, 1), DEFAULT_DIMS],
                             ids=["1-layer", "2-layer", "default"])
    @pytest.mark.parametrize("n_runs", (None, 3))
    @pytest.mark.parametrize("budget", ("live", "floor"))
    def test_pass_equals_layer_by_layer(self, adjacency, dims, n_runs,
                                        budget):
        runs = [self.network(dims, seed) for seed in range(n_runs or 1)]
        k = adjacency.shape[-1]
        levels = np.unique(np.linalg.matrix_power(adjacency, len(dims) - 1)
                           .sum(axis=-1))
        # the floor between two of the profile A^L 1's values, or above all
        floor_at = (levels[len(levels) // 2 - 1:len(levels) // 2 + 1].mean()
                    if len(levels) > 1 else 2.0 * levels[0])
        p_bar = []
        for mats in runs:
            # on one round at p_bar = 1 the network outputs phi
            phi = layer_by_layer(np.eye(1), mats, 1.0, 0.0)[0].item()
            p_bar.append(31.6 if budget == "live" else
                         P_MIN_WATTS * k / (phi * floor_at))
        rng = np.random.default_rng(len(dims))
        g = rng.uniform(0.5, 1.5, (len(runs),) + adjacency.shape[:-1] + (1,))
        want = [layer_by_layer(adjacency, mats, pb, gr)
                for mats, pb, gr in zip(runs, p_bar, g)]
        if n_runs is None:
            net = forward(adjacency, runs[0], p_bar[0])
            got_out, got_grads = net.out[None], [net.backward(g[0])]
        else:
            net = forward(adjacency, [np.stack(m) for m in zip(*runs)],
                          np.array(p_bar))
            got_out = net.out
            got_grads = list(zip(*net.backward(g)))
        for r, (out, grads) in enumerate(want):
            np.testing.assert_allclose(got_out[r], out, rtol=1e-13, atol=0)
            for got, grad in zip(got_grads[r], grads):
                np.testing.assert_allclose(got, grad, rtol=1e-13, atol=0)
        floored = got_out == P_MIN_WATTS
        if budget == "live":
            assert not floored.any()
        else:
            assert floored.any() and (len(levels) == 1 or not floored.all())
        if len(dims) > 2:
            # layer 1's first input unit is dead: its weights take no gradient
            assert all((grads[1][0] == 0.0).all() for _, grads in want)


class TestProfile:
    """Training builds every dataset sample's profile A^L 1 once and gathers
    a batch's rows of it, where the pass used to build the batch's own."""

    @pytest.mark.parametrize("k", (1, 3, 8))
    def test_dataset_rows_equal_the_batch_profile(self, k):
        # bitwise, since np.matmul takes each matrix of a stack alone
        rng = np.random.default_rng(k)
        adj = batch_adjacency(rng.random(1000), k, 1)
        depth = len(DEFAULT_DIMS) - 1
        d_all = profile(adj, depth)
        assert d_all.shape == (1000, k, 1)
        order = rng.permutation(1000)
        for size in (1, 9, 50):
            sel = order[:size]
            rows = np.empty((size, k, 1))
            np.take(d_all, sel, axis=0, out=rows, mode="clip")
            assert rows.tobytes() == profile(adj[sel], depth).tobytes()
        for i in order[:20]:
            assert d_all[i].tobytes() == profile(adj[i], depth).tobytes()

    def test_rejects_what_is_not_a_profile(self):
        # an adjacency in place of its profile
        w = init_weights(seed=4)
        with pytest.raises(ValueError, match="^a profile must be"):
            forward_profile(batch_adjacency(np.array([0.5]), 3, 1),
                            w.matrices, 1.0)


class TestPowerPolicyFloor:
    def test_floors_at_minimum_power(self):
        pol = PowerPolicy((-3.0, 0.0, 2.5))
        assert pol.powers[0] == P_MIN_WATTS
        assert pol.powers[1] == P_MIN_WATTS
        assert pol.powers[2] == 2.5


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        w = init_weights(seed=3)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, w)
        lines = path.read_text().splitlines()
        assert lines[1] == "dims " + " ".join(str(d) for d in DEFAULT_DIMS)
        assert lines[2] == "activations relu relu relu relu linear"
        back = load_checkpoint(path)
        assert back.seed == w.seed
        assert all(np.array_equal(a, b) for a, b in zip(w.matrices, back.matrices))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SOMETHING 1\ndims 1 1\nactivations linear\nseed 0\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, GcnWeights([np.array([[1.0]])]))
        text = path.read_text().replace(" 1\n", " 99\n", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("acts", ["relu", "tanh linear", "linear relu"])
    def test_activations_other_than_derived_rejected(self, tmp_path, acts):
        # hidden layers are relu and the last is linear; a file saying
        # otherwise does not describe this network
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, GcnWeights([np.ones((1, 4)), np.ones((4, 1))]))
        text = path.read_text().replace("activations relu linear",
                                        "activations " + acts, 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="activations"):
            load_checkpoint(path)

    def test_bad_dims_rejected(self, tmp_path):
        # no layer, and a layer of width zero
        path = tmp_path / "ckpt.txt"
        for dims in ("1", "1 0 1"):
            path.write_text(f"HARQPOWER-GCN 1\ndims {dims}\n"
                            "activations linear\nseed 0\n")
            with pytest.raises(ValueError, match="dims"):
                load_checkpoint(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "nope.txt")
