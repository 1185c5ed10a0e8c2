import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from jumppipe import dataio, nncore, tcn
from jumppipe.nncore import DimensionError


def small_config(num_stages=2, num_layers=2, num_filters=4, in_channels=3,
                 num_classes=3, kernel_size=3, **kw):
    return tcn.MsTcnConfig(
        num_stages=num_stages,
        stage=tcn.SsTcnConfig(num_layers=num_layers, num_filters=num_filters,
                              kernel_size=kernel_size,
                              in_channels=in_channels, num_classes=num_classes),
        **kw,
    )


@pytest.fixture(scope="module")
def overfit_session():
    cfg = dataio.SyntheticConfig(
        num_subjects=1, jumps_per_class={"CMJ": 1, "Smash": 1, "Block": 1},
        session_duration_s=10.0, seed=3,
    )
    sessions, _ = dataio.synth_generate(cfg)
    return sessions[0]


@pytest.fixture(scope="module")
def overfit_run(overfit_session):
    config = small_config(num_stages=2, num_layers=4, num_filters=16,
                          in_channels=6, num_classes=8, epochs=350, lr=1e-3,
                          seed=0)
    weights, history = tcn.train(config, [overfit_session])
    return weights, history


class TestBuild:
    def test_same_seed_identical(self):
        cfg = small_config(seed=5)
        a = tcn.build_mstcn(cfg)
        b = tcn.build_mstcn(cfg)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert pa.tobytes() == pb.tobytes()

    def test_single_stage(self):
        w = tcn.build_mstcn(small_config(num_stages=1, seed=0))
        assert len(w.stages) == 1

    def test_param_count_matches_formula(self):
        cfg = tcn.MsTcnConfig()  # defaults: 4 stages, 10 layers, 64 filters
        w = tcn.build_mstcn(cfg)
        F, J, C, L, k = 64, 8, 6, 10, 3
        per_stage_blocks = L * ((k * F * F + F) + (F * F + F))
        expected = 0
        for s in range(cfg.num_stages):
            din = C if s == 0 else J
            expected += (din * F + F) + per_stage_blocks + (F * J + J)
        assert sum(p.size for p in w.params()) == expected


class TestForward:
    def test_zero_weights_zero_logits(self):
        w = tcn.build_mstcn(small_config(num_stages=1, seed=0))
        for p in w.params():
            p[...] = 0.0
        logits, _ = tcn.sstcn_forward(w.stages[0], np.ones((6, 3)))
        np.testing.assert_allclose(logits, 0.0)

    @pytest.mark.parametrize("T", [1, 2, 17])
    def test_output_shape(self, T):
        w = tcn.build_mstcn(small_config(seed=1))
        logits, _ = tcn.sstcn_forward(w.stages[0], np.ones((T, 3)))
        assert logits.shape == (T, 3)

    def test_receptive_field_formula(self):
        assert tcn.SsTcnConfig(num_layers=10).receptive_field() == 2047
        assert tcn.SsTcnConfig(num_layers=2).receptive_field() == 7

    def test_stage_chaining_single(self):
        w = tcn.build_mstcn(small_config(num_stages=1, seed=2))
        x = np.random.default_rng(0).normal(size=(12, 3))
        probs, _ = tcn.mstcn_forward(w, x)
        assert len(probs) == 1
        logits, _ = tcn.sstcn_forward(w.stages[0], x)
        np.testing.assert_allclose(probs[0], nncore.softmax_rows(logits))

    def test_all_stage_rows_sum_to_one(self):
        w = tcn.build_mstcn(small_config(num_stages=3, seed=2))
        x = np.random.default_rng(1).normal(size=(20, 3))
        for probs in tcn.mstcn_forward(w, x)[0]:
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_channel_mismatch(self):
        w = tcn.build_mstcn(small_config(seed=0))
        with pytest.raises(DimensionError):
            tcn.mstcn_forward(w, np.zeros((5, 4)))

    @pytest.mark.parametrize("num_layers,T,t", [(2, 40, 20), (10, 3000, 1500)])
    def test_temporal_locality(self, num_layers, T, t):
        cfg = small_config(num_stages=1, num_layers=num_layers,
                           num_filters=8 if num_layers == 2 else 64,
                           in_channels=3, num_classes=3, seed=3)
        w = tcn.build_mstcn(cfg)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(T, 3))
        base, _ = tcn.sstcn_forward(w.stages[0], x)
        x2 = x.copy()
        x2[t] += 1.0
        bumped, _ = tcn.sstcn_forward(w.stages[0], x2)
        radius = (cfg.stage.receptive_field() - 1) // 2
        changed = np.any(base != bumped, axis=1)
        assert not changed[: max(0, t - radius)].any()
        assert not changed[t + radius + 1 :].any()


class TestTrain:
    def test_zero_epochs_returns_init(self, overfit_session):
        config = small_config(in_channels=6, num_classes=8, epochs=0, seed=9)
        weights, history = tcn.train(config, [overfit_session])
        init = tcn.build_mstcn(config)
        assert history == []
        for (_, a), (_, b) in zip(weights.named_params(), init.named_params()):
            assert a.tobytes() == b.tobytes()

    def test_requires_labels(self, overfit_session):
        bare = dataio.ImuSession("x", overfit_session.samples.copy())
        with pytest.raises(ValueError):
            tcn.train(small_config(in_channels=6, num_classes=8, epochs=1), [bare])

    def test_requires_sessions(self):
        with pytest.raises(ValueError):
            tcn.train(small_config(epochs=1), [])

    def test_loss_finite_and_decreasing_early(self, overfit_run):
        _, history = overfit_run
        assert all(np.isfinite(history))
        non_improving = sum(1 for a, b in zip(history[:9], history[1:10])
                            if b >= a)
        assert non_improving <= 2

    def test_overfit_reaches_99_percent(self, overfit_run, overfit_session):
        weights, _ = overfit_run
        _, labels = tcn.predict(weights, overfit_session)
        assert (labels == overfit_session.labels).mean() >= 0.99

    def test_final_stage_refines_first(self, overfit_run, overfit_session):
        weights, _ = overfit_run
        probs, _ = tcn.mstcn_forward(weights, overfit_session.samples)
        first = np.argmax(probs[0], axis=1)
        last = np.argmax(probs[-1], axis=1)
        truth = overfit_session.labels
        assert (last == truth).mean() >= (first == truth).mean()


class TestPredict:
    def test_single_sample(self):
        w = tcn.build_mstcn(small_config(in_channels=6, num_classes=8, seed=0))
        sess = dataio.ImuSession("a", np.zeros((1, 6)))
        probs, labels = tcn.predict(w, sess)
        assert probs.shape == (1, 8)
        assert labels.shape == (1,)

    def test_deterministic(self):
        w = tcn.build_mstcn(small_config(in_channels=6, num_classes=8, seed=0))
        sess = dataio.ImuSession("a", np.random.default_rng(2).normal(size=(30, 6)))
        _, l1 = tcn.predict(w, sess)
        _, l2 = tcn.predict(w, sess)
        assert np.array_equal(l1, l2)

    def test_argmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(10, 4))
        shifted = logits + 3.7
        assert np.array_equal(
            np.argmax(nncore.softmax_rows(logits), axis=1),
            np.argmax(nncore.softmax_rows(shifted), axis=1),
        )

    def test_label_length_equals_input_length(self):
        w = tcn.build_mstcn(small_config(in_channels=6, num_classes=8, seed=0))
        for n in (1, 5, 33):
            sess = dataio.ImuSession("a", np.zeros((n, 6)))
            _, labels = tcn.predict(w, sess)
            assert labels.shape == (n,)


class TestPredictBuffers:
    """predict walks each stage in reused buffers; it must give the training
    forward's last-stage probabilities byte for byte."""

    @pytest.mark.parametrize("kernel_size", [3, 5])
    @pytest.mark.parametrize("num_stages", [1, 2, 3])
    def test_equals_training_forward(self, num_stages, kernel_size):
        for num_layers in (1, 4, 7):  # the largest dilation d is 1, 8, 64
            d = 2 ** (num_layers - 1)
            weights = tcn.build_mstcn(tcn.MsTcnConfig(
                num_stages=num_stages,
                stage=tcn.SsTcnConfig(num_layers=num_layers, num_filters=16,
                                      kernel_size=kernel_size),
                seed=num_layers))
            for T in sorted({1, 2, 3, d, d + 1, 150}):
                x = np.random.default_rng(T).normal(size=(T, 6))
                for layout in (x, np.asfortranarray(x), x[::-1]):
                    probs, labels = tcn.predict(
                        weights, dataio.ImuSession("s", layout))
                    ref = tcn.mstcn_forward(weights, layout)[0][-1]
                    case = (num_layers, T)
                    assert probs.tobytes() == ref.tobytes(), case
                    assert labels.tobytes() == \
                        np.argmax(ref, axis=1).tobytes(), case

    def test_result_does_not_alias_a_buffer(self):
        weights = tcn.build_mstcn(small_config(in_channels=6, num_classes=8))
        rng = np.random.default_rng(0)
        first = tcn.predict(weights,
                            dataio.ImuSession("a", rng.normal(size=(40, 6))))
        kept = [a.copy() for a in first]
        tcn.predict(weights, dataio.ImuSession("b", rng.normal(size=(40, 6))))
        for got, want in zip(first, kept):
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_a_few_activations(self):
        # the criterion-7 shape; tracemalloc sees numpy's data buffers. Apart
        # from the (T, classes) probabilities and the (T,) labels, the peak
        # is a few activations of one span with its halos on each worker, at
        # any T (keeping every block's activations of the whole session, as
        # the training forward does, peaks near 47 activations of (T, 16))
        config = small_config(num_stages=2, num_layers=7, num_filters=16,
                              in_channels=6, num_classes=8)
        weights = tcn.build_mstcn(config)
        rows = tcn.span_rows(config) + 2 * tcn.halo_rows(config)
        for T in (20_000, 80_000):
            session = dataio.ImuSession(
                "s", np.random.default_rng(0).normal(size=(T, 6)))
            workers = min(len(os.sched_getaffinity(0)),
                          -(-T // tcn.span_rows(config)))
            tracemalloc.start()
            try:
                tcn.predict(weights, session)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            spans = (peak - T * (8 + 1) * 8) / (rows * 16 * 8)
            assert spans < 8 * workers, (T, spans)


class TestPredictChunks:
    """predict cuts a session into spans with halos; every span edge must
    give the training forward's bytes."""

    @pytest.mark.parametrize("kernel_size", [3, 5])
    @pytest.mark.parametrize("num_stages", [1, 2, 3])
    def test_equals_training_forward_at_span_edges(self, num_stages,
                                                   kernel_size):
        config = small_config(num_stages=num_stages, num_layers=4,
                              num_filters=8, in_channels=6, num_classes=5,
                              kernel_size=kernel_size, seed=num_stages)
        weights = tcn.build_mstcn(config)
        H, C = tcn.halo_rows(config), tcn.CHUNK_ROWS
        assert tcn.span_rows(config) == C
        rng = np.random.default_rng(kernel_size)
        for T in (1, H, C - 1, C, C + 1, C + H, 2 * C + 1, 3 * C + 2 * H + 1):
            x = rng.normal(size=(T, 6))
            for layout in (x, np.asfortranarray(x)):
                probs, labels = tcn.predict(weights,
                                            dataio.ImuSession("s", layout))
                ref = tcn.mstcn_forward(weights, layout)[0][-1]
                assert probs.tobytes() == ref.tobytes(), T
                assert labels.tobytes() == np.argmax(ref, axis=1).tobytes(), T

    def test_halo_is_the_receptive_field_reach(self):
        # H rows on each side: 3 stages x (k - 1) / 2 x (2^L - 1)
        config = small_config(num_stages=3, num_layers=4, kernel_size=5)
        assert tcn.halo_rows(config) == 3 * 2 * 15

    def test_span_is_at_least_eight_halos(self):
        # a wide receptive field gets longer spans, so that recomputed halo
        # rows stay a small part of the work; they are exact all the same
        config = small_config(num_stages=1, num_layers=9, num_filters=4,
                              in_channels=6)
        weights = tcn.build_mstcn(config)
        span = tcn.span_rows(config)
        assert span == 8 * tcn.halo_rows(config) > tcn.CHUNK_ROWS
        x = np.random.default_rng(1).normal(size=(span + 1, 6))
        probs, _ = tcn.predict(weights, dataio.ImuSession("s", x))
        assert probs.tobytes() == tcn.mstcn_forward(weights, x)[0][-1].tobytes()

    def test_no_thread_outlives_the_call(self):
        weights = tcn.build_mstcn(small_config(in_channels=6))
        baseline = threading.active_count()
        x = np.random.default_rng(2).normal(size=(3 * tcn.CHUNK_ROWS, 6))
        tcn.predict(weights, dataio.ImuSession("s", x))
        assert threading.active_count() == baseline

    def test_more_workers_than_cores_stay_exact(self, monkeypatch):
        # spans write disjoint rows of one output; six threads switching
        # every microsecond must still give the training forward's bytes
        monkeypatch.setattr(tcn.os, "sched_getaffinity",
                            lambda pid: set(range(8)))
        weights = tcn.build_mstcn(small_config(in_channels=6))
        x = np.random.default_rng(3).normal(size=(6 * tcn.CHUNK_ROWS, 6))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            probs, _ = tcn.predict(weights, dataio.ImuSession("s", x))
        finally:
            sys.setswitchinterval(interval)
        assert probs.tobytes() == tcn.mstcn_forward(weights, x)[0][-1].tobytes()

    def test_span_error_reaches_the_caller(self, monkeypatch):
        def refuse(*args):
            raise FloatingPointError("span failed")

        monkeypatch.setattr(tcn, "_predict_rows", refuse)
        weights = tcn.build_mstcn(small_config(in_channels=6))
        x = np.zeros((2 * tcn.CHUNK_ROWS, 6))
        with pytest.raises(FloatingPointError, match="span failed"):
            tcn.predict(weights, dataio.ImuSession("s", x))


def span_sessions(lengths):
    """Labeled random sessions of the given lengths, 6 channels, 8 classes."""
    rng = np.random.default_rng(0)
    return [dataio.ImuSession(f"s{i}", rng.normal(size=(T, 6)),
                              rng.integers(0, 8, size=T))
            for i, T in enumerate(lengths)]


def whole_session_loss_and_grads(weights, x, labels):
    """Reference: the loss and gradients of one whole-session step, each
    stage's cross entropy and TMSE taken over all T rows."""
    probs_list, caches = tcn.mstcn_forward(weights, x)
    total, gprobs_list = 0.0, []
    for probs in probs_list:
        ce, gprobs = nncore.cross_entropy_loss(probs, labels)
        tmse, gtmse = nncore.tmse_loss(probs)
        total += ce
        total += nncore.LAMBDA_TMSE * tmse
        gprobs += nncore.LAMBDA_TMSE * gtmse
        gprobs_list.append(gprobs)
    grads, g_next = [], None
    for stage, cache, probs, gprobs in reversed(list(zip(
            weights.stages, caches, probs_list, gprobs_list))):
        if g_next is not None:
            gprobs += g_next
        glogits = nncore.softmax_backward(probs, gprobs)
        stage_grads, g_next = tcn.sstcn_backward(stage, cache, glogits)
        grads[:0] = stage_grads
    return total, grads


def trained_bytes(config, sessions):
    weights, history = tcn.train(config, sessions)
    return [p.tobytes() for p in weights.params()], history


class TestTrainSpans:
    """train sums each session's gradient over `predict`'s spans; the sum
    must be the whole session's gradient, and its bytes must not depend on
    the threads that computed it."""

    CONFIG = small_config(num_stages=2, num_layers=3, num_filters=6,
                          in_channels=6, num_classes=8, epochs=2, seed=4)

    @pytest.mark.parametrize("extra", [0, 1, tcn.CHUNK_ROWS + 1])
    def test_span_sum_equals_whole_session(self, extra):
        # extra = 1 leaves a last span of one row
        weights = tcn.build_mstcn(self.CONFIG)
        T = tcn.span_rows(self.CONFIG) + extra
        sess, = span_sessions([T])
        loss, grads, _ = tcn._loss_and_grads(weights, sess.samples,
                                             sess.labels)
        # `_loss_and_grads` is the span [0, T): the whole session's step
        ref_loss, ref = whole_session_loss_and_grads(weights, sess.samples,
                                                     sess.labels)
        assert loss == ref_loss
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref]
        got_loss, got = tcn._session_loss_and_grads(weights, sess.samples,
                                                    sess.labels, map)
        if extra == 0:  # one span is the whole session, to the bit
            assert got_loss == loss
            assert [g.tobytes() for g in got] == [g.tobytes() for g in grads]
        assert abs(got_loss - loss) <= 1e-12 * loss
        for g, want in zip(got, grads):
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()

    def test_span_share_matches_finite_differences(self):
        config = small_config(num_stages=2, num_layers=2, num_filters=3,
                              in_channels=6, num_classes=4, seed=2)
        weights = tcn.build_mstcn(config)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 6))
        labels = rng.integers(0, 4, size=40)
        a, b = 17, 29  # halos of H = 6 rows are cut off on neither side

        def share():
            return tcn._span_loss_and_grads(weights, x, labels, a, b)[0]

        _, grads, _ = tcn._span_loss_and_grads(weights, x, labels, a, b)
        eps = 1e-6
        for p, g in zip(weights.params(), grads):
            for i in rng.choice(p.size, size=min(3, p.size), replace=False):
                flat = p.reshape(-1)
                orig = flat[i]
                flat[i] = orig + eps
                hi = share()
                flat[i] = orig - eps
                lo = share()
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                assert abs(g.flat[i] - fd) <= 1e-6 * max(1e-3, abs(fd))

    def test_one_span_sessions_train_as_whole_sessions(self):
        # the training loop with one whole-session step per session
        sessions = span_sessions([300, tcn.span_rows(self.CONFIG)])
        weights = tcn.build_mstcn(self.CONFIG)
        opt = nncore.AdamState(lr=self.CONFIG.lr)
        history = []
        for _ in range(self.CONFIG.epochs):
            losses = []
            for sess in sessions:
                loss, grads = whole_session_loss_and_grads(
                    weights, sess.samples, sess.labels)
                nncore.adam_step(weights.params(), grads, opt)
                losses.append(loss)
            history.append(sum(losses) / len(sessions))
        want = [p.tobytes() for p in weights.params()], history
        assert trained_bytes(self.CONFIG, sessions) == want

    def test_trained_bytes_do_not_depend_on_cpu_count(self, monkeypatch):
        S = tcn.span_rows(self.CONFIG)
        sessions = span_sessions([2 * S + 1, S + 7, 300])
        # eight workers on two CPUs, switching every microsecond
        monkeypatch.setattr(tcn.os, "sched_getaffinity",
                            lambda pid: set(range(8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = trained_bytes(self.CONFIG, sessions)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(tcn.os, "sched_getaffinity", lambda pid: {0})
        assert trained_bytes(self.CONFIG, sessions) == pooled
        monkeypatch.setattr(tcn.os, "sched_getaffinity",
                            lambda pid: set(range(8)))
        monkeypatch.setattr(tcn, "_openblas", lambda: None)
        assert trained_bytes(self.CONFIG, sessions) == pooled


@pytest.mark.skipif(tcn._openblas() is None,
                    reason="numpy's OpenBLAS thread setter is not found")
class TestSpanBlasThreads:
    """Spans run with OpenBLAS at one thread; train hands the prior count
    back however it ends, and leaves no thread behind."""

    CONFIG = TestTrainSpans.CONFIG

    @pytest.fixture
    def seen(self, monkeypatch):
        # the thread count each span sees
        get, _ = tcn._openblas()
        span = tcn._span_loss_and_grads
        seen = []

        def counting(*args):
            seen.append(get())
            return span(*args)

        monkeypatch.setattr(tcn, "_span_loss_and_grads", counting)
        monkeypatch.setattr(tcn.os, "sched_getaffinity", lambda pid: {0, 1})
        return seen

    @pytest.fixture
    def prior(self):
        get, set_ = tcn._openblas()
        prior = get()
        set_(3)  # a count that no default gives
        yield 3
        set_(prior)

    def check_restored(self, prior, baseline):
        assert tcn._openblas()[0]() == prior
        assert threading.active_count() == baseline

    def test_spans_run_at_one_thread_and_the_count_comes_back(self, seen,
                                                              prior):
        baseline = threading.active_count()
        sessions = span_sessions([2 * tcn.span_rows(self.CONFIG) + 1])
        tcn.train(self.CONFIG, sessions)
        assert seen and set(seen) == {1}
        self.check_restored(prior, baseline)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_count_comes_back_after_a_non_finite_loss(self, seen, prior):
        baseline = threading.active_count()
        sess, = span_sessions([2 * tcn.span_rows(self.CONFIG)])
        sess.samples[-1, 0] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite"):
            tcn.train(self.CONFIG, [sess])
        assert set(seen) == {1}
        self.check_restored(prior, baseline)

    def test_count_comes_back_after_a_span_raises(self, monkeypatch, prior):
        def refuse(*args):
            raise FloatingPointError("span failed")

        monkeypatch.setattr(tcn, "_span_loss_and_grads", refuse)
        monkeypatch.setattr(tcn.os, "sched_getaffinity", lambda pid: {0, 1})
        baseline = threading.active_count()
        sessions = span_sessions([2 * tcn.span_rows(self.CONFIG) + 1])
        with pytest.raises(FloatingPointError, match="span failed"):
            tcn.train(self.CONFIG, sessions)
        self.check_restored(prior, baseline)
