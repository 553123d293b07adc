"""Loss and optimizer behavior against frozen values and scalar simulations."""
import contextlib
import contextvars
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import ssfx.nn.helper as helper_module
import ssfx.nn.optim as optim_module
from ssfx.features import FeatureSubset
from ssfx.mask import ValidationError
from ssfx.models import build_semantic_classifier
from ssfx.nn import Adam, Tensor, softmax, softmax_cross_entropy
from ssfx.nn.helper import helper_scope
from ssfx.nn.optim import BLOCK

from conftest import usable_cpus
from oracles import max_rel_err, numeric_grad


class TestSoftmaxCrossEntropy:
    def test_equal_logits_give_log_c(self):
        for c in (2, 3, 7, 10):
            loss, _ = softmax_cross_entropy(np.zeros((1, c)), np.array([0]))
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_confident_correct_logit_gives_near_zero_loss(self):
        loss, _ = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_large_logits_stay_finite(self):
        loss, grad = softmax_cross_entropy(np.array([[1e6, -1e6, 0.0]]), np.array([2]))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_gradient_is_softmax_minus_one_hot_over_batch(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = softmax_cross_entropy(logits, labels)
        expected = softmax(logits)
        expected[np.arange(6), labels] -= 1.0
        expected /= 6
        np.testing.assert_allclose(grad, expected, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((3, 4))
        labels = np.array([1, 3, 0])
        _, grad = softmax_cross_entropy(logits, labels)
        numeric = numeric_grad(lambda: softmax_cross_entropy(logits, labels)[0], logits)
        assert np.abs(grad - numeric).max() < 1e-6

    def test_rows_of_softmax_sum_to_one(self):
        rng = np.random.default_rng(9)
        p = softmax(rng.standard_normal((5, 7)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="labels must lie in"):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="does not match batch"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))


def cpus_scope(monkeypatch, cpus):
    """A ``helper_scope`` opened as in a process that may use ``cpus`` CPUs."""
    usable_cpus(monkeypatch, cpus)
    return helper_scope()


def fail_on_the_helper(monkeypatch):
    """Patch ``optim._flat`` so that the calling thread's half of a step waits
    until the helper's half has failed on a non-contiguous parameter. Returns
    the event set at that failure."""
    helper_failed = threading.Event()
    real_flat = optim_module._flat

    def flat(name, arr):
        if threading.current_thread() is threading.main_thread():
            assert helper_failed.wait(10)
            return real_flat(name, arr)
        try:
            return real_flat(name, arr)
        except ValidationError:
            helper_failed.set()
            raise

    monkeypatch.setattr(optim_module, "_flat", flat)
    return helper_failed


class TestBlasThreads:
    @pytest.mark.parametrize("env, expected", [
        ({}, 3),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "2"}, 4),
        ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "4"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": " 5,2"}, 5),
    ])
    def test_variables_are_read_as_openblas_reads_them(self, env, expected, monkeypatch):
        usable_cpus(monkeypatch, 3)
        for name in helper_module.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert helper_module.blas_threads() == expected


class TestAdam:
    def test_first_step_moves_against_gradient_sign(self):
        p = Tensor(np.array([1.0, -2.0]))
        opt = Adam([("p", p)], learning_rate=0.01)
        p.grad = np.array([0.5, -0.25])
        opt.step()
        # with fresh moments the update direction is -lr * sign(g), up to eps
        np.testing.assert_allclose(p.data, [1.0 - 0.01, -2.0 + 0.01], rtol=1e-6)

    def test_quadratic_descent_is_monotone(self):
        p = Tensor(np.array([1.0]))
        opt = Adam([("p", p)], learning_rate=0.1)
        seen = [abs(p.data[0])]
        for _ in range(3):
            p.grad = 2.0 * p.data  # d/dx x^2
            opt.step()
            seen.append(abs(p.data[0]))
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_zero_grad_zero_decay_leaves_params_unchanged(self):
        p = Tensor(np.array([3.0, -1.0]))
        opt = Adam([("p", p)], learning_rate=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [3.0, -1.0])

    def test_decay_shrinks_before_update(self):
        p = Tensor(np.array([10.0]))
        opt = Adam([("p", p)], learning_rate=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()  # gradient is zero, so only the shrink applies
        np.testing.assert_allclose(p.data, [10.0 * (1 - 0.1 * 0.5)])

    def test_matches_scalar_reference_simulation(self):
        # independent scalar re-implementation of the update rule
        lr, wd, b1, b2, eps = 0.02, 0.1, 0.9, 0.999, 1e-8
        x = 0.7
        m = v = 0.0
        trajectory = []
        for t in range(1, 6):
            g = math.sin(t) + 2 * x
            x *= 1 - lr * wd
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            trajectory.append(x)

        p = Tensor(np.array([0.7]))
        opt = Adam([("p", p)], learning_rate=lr, weight_decay=wd)
        got = []
        for t in range(1, 6):
            p.grad = np.array([math.sin(t) + 2 * p.data[0]])
            opt.step()
            got.append(p.data[0])
        np.testing.assert_allclose(got, trajectory, rtol=1e-12)

    def test_seeded_runs_are_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            p = Tensor(rng.standard_normal(8))
            opt = Adam([("p", p)], learning_rate=0.01, weight_decay=5e-4)
            for _ in range(25):
                p.grad = rng.standard_normal(8)
                opt.step()
            return p.data.tobytes()

        assert run() == run()

    def test_invalid_hyperparameters_rejected(self):
        p = Tensor(np.zeros(1))
        with pytest.raises(ValidationError, match="learning rate"):
            Adam([("p", p)], learning_rate=0.0)
        with pytest.raises(ValidationError, match="weight decay"):
            Adam([("p", p)], learning_rate=0.1, weight_decay=-1.0)

    @pytest.mark.parametrize("lr,wd,name", [(np.nan, 0.0, "learning rate"),
                                            (np.inf, 0.0, "learning rate"),
                                            (0.1, np.nan, "weight decay"),
                                            (0.1, np.inf, "weight decay")])
    def test_non_finite_hyperparameters_rejected(self, lr, wd, name):
        with pytest.raises(ValidationError, match=f"{name} must be .* finite"):
            Adam([("p", Tensor(np.zeros(1)))], learning_rate=lr, weight_decay=wd)

    @pytest.mark.parametrize("lr,wd", [(0.5, 2.0), (1e9, 5e-4), (2.0, 0.75)])
    def test_decay_shrink_at_or_below_zero_rejected(self, lr, wd):
        p = Tensor(np.ones(3))
        with pytest.raises(ValidationError, match="shrink factor would be zero or negative"):
            Adam([("p", p)], learning_rate=lr, weight_decay=wd)

    @staticmethod
    def reference_step(p, g, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
        """The documented rule on whole arrays, one numpy expression per line."""
        if wd:
            p *= 1.0 - lr * wd
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)

    @pytest.mark.parametrize("shape", [(1,), (BLOCK - 1,), (BLOCK,), (2 * BLOCK + 7,),
                                       (16, 8, 3, 3)],
                             ids=["1", "block-1", "block", "2block+7", "conv4d"])
    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    def test_blocked_update_is_bit_identical_to_full_array_rule(self, shape, wd):
        rng = np.random.default_rng(len(shape) + shape[0])
        lr = 1e-3
        init = rng.standard_normal(shape)
        p = Tensor(init.copy())
        opt = Adam([("p", p)], learning_rate=lr, weight_decay=wd)
        ref_p, ref_m, ref_v = init.copy(), np.zeros(shape), np.zeros(shape)
        for t in range(1, 6):
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
            if t == 3:
                g = np.zeros(shape)
            p.grad = g.copy()
            opt.step()
            self.reference_step(ref_p, g, ref_m, ref_v, t, lr, wd)
            assert p.data.tobytes() == ref_p.tobytes(), f"step {t}"

    # Gradients whose first-step moments are edge cases of ``0 * b + x``: a
    # -0.0 product that must come out +0.0, products that underflow to +-0
    # (subnormals; 1e-170 squares to 0), and squares that overflow to inf.
    EDGE_GRADIENTS = {"negative-zero": [-0.0, 0.0, -1.0],
                      "underflow": [5e-324, -5e-324, 1e-170, -1e-170, 3e-320, -2.2e-308],
                      "overflow": [1.5e154, -1e200, 1e300]}

    @pytest.mark.parametrize("kind", EDGE_GRADIENTS)
    @pytest.mark.parametrize("size", [1, BLOCK + 3, 3 * BLOCK], ids=["1", "block+3", "3block"])
    @pytest.mark.parametrize("cpus", [None, 2], ids=["no-scope", "2-cpus"])
    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    def test_first_steps_give_the_bytes_of_zero_moments(self, kind, size, cpus, wd,
                                                        monkeypatch):
        rng = np.random.default_rng(size)
        lr = 1e-3
        init = rng.standard_normal(size)
        init[::3] = -0.0
        p = Tensor(init.copy())
        opt = Adam([("p", p)], learning_rate=lr, weight_decay=wd)
        ref_p, ref_m, ref_v = init.copy(), np.zeros(size), np.zeros(size)
        scope = cpus_scope(monkeypatch, cpus) if cpus else contextlib.nullcontext()
        with scope, np.errstate(over="ignore"):  # g * g of the "overflow" kind
            for t in (1, 2):
                g = rng.standard_normal(size)
                g[t - 1::2] = np.resize(self.EDGE_GRADIENTS[kind], len(g[t - 1::2]))
                p.grad = g.copy()
                opt.step()
                self.reference_step(ref_p, g, ref_m, ref_v, t, lr, wd)
                assert opt._m[0].tobytes() == ref_m.tobytes(), f"m, step {t}"
                assert opt._v[0].tobytes() == ref_v.tobytes(), f"v, step {t}"
                assert p.data.tobytes() == ref_p.tobytes(), f"p, step {t}"

    def test_first_step_faults_each_moment_page_once(self):
        # 2**23 f64 is 64 MiB per moment, above glibc's largest mmap
        # threshold (32 MiB), so each moment is always fresh pages. Reading
        # such a page before writing it faults twice. Huge pages are off
        # while the moments are allocated (numpy's switch behind
        # NUMPY_MADVISE_HUGEPAGE, which the benchmark sets to 0), so that a
        # fault is one 4 KiB page.
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RUSAGE_THREAD"):
            pytest.skip("no per-thread fault count on this platform")
        size = 2**23
        p = Tensor(np.ones(size))
        p.grad = np.full(size, 0.5)
        core = np._core if hasattr(np, "_core") else np.core  # numpy 2, numpy 1
        hugepage = getattr(core.multiarray, "_set_madvise_hugepage", lambda on: on)
        was = hugepage(False)
        try:
            opt = Adam([("p", p)], learning_rate=1e-3, weight_decay=5e-4)
        finally:
            hugepage(was)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        opt.step()
        faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
        pages = 2 * size * 8 // 4096
        assert faults <= 1.1 * pages, f"{faults} faults for {pages} moment pages"

    def test_no_step_reads_a_moment_that_no_step_wrote(self, monkeypatch):
        # The first step fails on the helper's half (``bad``) after the
        # calling thread's half (``good``) was updated. The moments hold NaN
        # where nothing wrote them, and a step that read one would put it in
        # a parameter: the next step must be a first step again.
        good, bad = Tensor(np.ones(8)), Tensor(np.zeros((2, 3)))
        bad.data = np.asfortranarray(np.ones((2, 3)))
        opt = Adam([("good", good), ("bad", bad)], learning_rate=0.01)
        for moment in opt._m + opt._v:
            moment.fill(np.nan)
        rng = np.random.default_rng(5)
        grads = [(rng.standard_normal(8), rng.standard_normal((2, 3))) for _ in range(3)]
        helper_failed = fail_on_the_helper(monkeypatch)
        with cpus_scope(monkeypatch, 2):
            good.grad, bad.grad = grads[0][0].copy(), grads[0][1].copy()
            with pytest.raises(ValidationError, match="parameter 'bad'"):
                opt.step()
            assert helper_failed.is_set() and opt.step_count == 0
            bad.data = np.ascontiguousarray(bad.data)
            for g_good, g_bad in grads[1:]:
                good.grad, bad.grad = g_good.copy(), g_bad.copy()
                opt.step()
        assert opt.step_count == 2
        # ``good`` kept the failed step's update; then each took steps 1 and 2.
        refs = [np.ones(8), np.ones((2, 3))]
        self.reference_step(refs[0], grads[0][0], np.zeros(8), np.zeros(8), 1, 0.01, 0.0)
        for i, ref in enumerate(refs):
            m, v = np.zeros(ref.shape), np.zeros(ref.shape)
            for t in (1, 2):
                self.reference_step(ref, grads[t][i], m, v, t, 0.01, 0.0)
        assert [good.data.tobytes(), bad.data.tobytes()] == [r.tobytes() for r in refs]

    def test_step_without_a_gradient_is_refused_before_any_update(self):
        p, q = Tensor(np.ones(3)), Tensor(np.ones(2))
        opt = Adam([("p", p), ("q", q)], learning_rate=0.01)
        p.grad = np.ones(3)
        with pytest.raises(ValidationError, match="parameter 'q' has no gradient"):
            opt.step()
        np.testing.assert_array_equal(p.data, np.ones(3))
        assert opt.step_count == 0

    def test_step_without_a_gradient_is_refused_with_the_helper_running(self, monkeypatch):
        p, q = Tensor(np.ones(3)), Tensor(np.ones(2))
        opt = Adam([("p", p), ("q", q)], learning_rate=0.01)
        before = threading.active_count()
        p.grad = np.ones(3)
        with cpus_scope(monkeypatch, 2):
            with pytest.raises(ValidationError, match="parameter 'q' has no gradient"):
                opt.step()
        np.testing.assert_array_equal(p.data, np.ones(3))
        assert opt.step_count == 0
        assert threading.active_count() == before

    @pytest.mark.parametrize("helper", [False, True], ids=["alone", "helper"])
    def test_step_gives_the_same_bits_in_and_out_of_a_scope(self, helper, monkeypatch):
        rng = np.random.default_rng(4)
        sizes = (2 * BLOCK + 5, 7, BLOCK, 1, 3 * BLOCK)
        init = [rng.standard_normal(n) for n in sizes]
        ours = [Tensor(a.copy()) for a in init]
        ref = [Tensor(a.copy()) for a in init]
        opt = Adam([(f"p{i}", t) for i, t in enumerate(ours)], learning_rate=1e-2,
                   weight_decay=5e-4)
        ref_opt = Adam([(f"p{i}", t) for i, t in enumerate(ref)], learning_rate=1e-2,
                       weight_decay=5e-4)
        # Switch threads as often as the interpreter can, to shake out races.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cpus_scope(monkeypatch, 2 if helper else 1):
                for _ in range(5):
                    for a, b in zip(ours, ref):
                        a.grad = rng.standard_normal(a.size)
                        b.grad = a.grad.copy()
                    opt.step()
                    contextvars.Context().run(ref_opt.step)  # outside the scope: no helper
                    assert [t.data.tobytes() for t in ours] == [t.data.tobytes() for t in ref]
        finally:
            sys.setswitchinterval(interval)
        assert opt.step_count == ref_opt.step_count == 5

    def test_error_on_the_helper_is_raised_by_step(self, monkeypatch):
        # One range each: ``good`` is the calling thread's half and the
        # non-contiguous ``bad`` the helper's. The calling thread updates
        # ``good`` only once the helper has failed, and step() raises its error.
        good, bad = Tensor(np.ones(8)), Tensor(np.zeros((2, 3)))
        bad.data = np.asfortranarray(np.ones((2, 3)))
        good.grad, bad.grad = np.ones(8), np.zeros((2, 3))
        opt = Adam([("good", good), ("bad", bad)], learning_rate=0.01)
        helper_failed = fail_on_the_helper(monkeypatch)
        before = threading.active_count()
        with cpus_scope(monkeypatch, 2):
            with pytest.raises(ValidationError, match="parameter 'bad': Adam updates C-contiguous"):
                opt.step()
        assert helper_failed.is_set()
        assert (good.data < 1).all()
        assert threading.active_count() == before

    def test_a_step_that_raises_returns_once_the_helper_is_idle(self, monkeypatch):
        # One range each: the non-contiguous ``bad`` is the calling thread's
        # half and ``good`` the helper's, which is slow.
        bad, good = Tensor(np.zeros((2, 3))), Tensor(np.ones(8))
        bad.data = np.asfortranarray(np.ones((2, 3)))
        good.grad, bad.grad = np.ones(8), np.zeros((2, 3))
        opt = Adam([("bad", bad), ("good", good)], learning_rate=0.01)
        helper_started = threading.Event()
        real_flat = optim_module._flat

        def flat(name, arr):
            if threading.current_thread() is threading.main_thread():
                assert helper_started.wait(10)
            elif name == "good":
                helper_started.set()
                time.sleep(0.2)
            return real_flat(name, arr)

        monkeypatch.setattr(optim_module, "_flat", flat)
        with cpus_scope(monkeypatch, 2):
            with pytest.raises(ValidationError, match="parameter 'bad'"):
                opt.step()
            # The helper's half, ``good``, was done before step() raised.
            assert (good.data < 1).all()

    def test_step_allocates_nothing_in_proportion_to_the_parameter(self):
        p = Tensor(np.random.default_rng(0).standard_normal(2**22))
        opt = Adam([("p", p)], learning_rate=1e-3, weight_decay=5e-4)
        p.grad = np.ones(2**22)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"Adam.step peaked at {peak} traced bytes"

    def test_fortran_ordered_load_is_still_updated_in_place(self):
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(6,))
        arrays = model.state_arrays()
        arrays["head.fc1.weight"] = np.asfortranarray(arrays["head.fc1.weight"])
        model.load_arrays(arrays)
        tensor = dict(model.parameters())["head.fc1.weight"]
        before = tensor.data.copy()
        storage = tensor.data
        opt = Adam([("head.fc1.weight", tensor)], learning_rate=0.01)
        tensor.grad = np.ones(tensor.shape)
        opt.step()
        assert tensor.data is storage
        assert not np.array_equal(tensor.data, before)

    def test_non_contiguous_parameter_is_refused(self):
        p = Tensor(np.zeros((3, 4)))
        opt = Adam([("p", p)], learning_rate=0.01)
        p.data = np.asfortranarray(np.ones((3, 4)))
        p.grad = np.zeros((3, 4))
        with pytest.raises(ValidationError, match="C-contiguous"):
            opt.step()


class TestTensor:
    def test_rejects_more_than_four_dims(self):
        with pytest.raises(ValidationError, match="4 dimensions"):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_grad_array_is_allocated_once_and_released(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.grad is None
        g = t.grad_array()
        assert g.shape == (2, 3) and g.dtype == np.float64 and g.flags.c_contiguous
        assert t.grad is g and t.grad_array() is g
        t.release()
        assert t.grad is None
