"""ShardedRunner: determinism across worker counts, exact reconciliation.

The engine's contract is that ``workers`` is a pure speed knob: with the
shard plan pinned (``n_shards``), every statistic — ``p_fail``,
``std_err``, ``ess``, ``n_evals``, failure counts — must be bit-for-bit
identical whether the shards run in-process or on a fork pool.
"""

import os
import pickle

import numpy as np
import pytest

from repro.engine.sharding import (
    ShardedRunner,
    ShardResult,
    fork_available,
    run_sharded,
    spawn_available,
    spawn_generators,
    split_budget,
)
from repro.errors import EstimationError
from repro.highsigma.analytic import LinearLimitState
from repro.highsigma.estimators import MeanShiftISCore
from repro.highsigma.mc import MonteCarloEstimator
from repro.highsigma.sss import ScaledSigmaSampling

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
needs_spawn = pytest.mark.skipif(not spawn_available(), reason="spawn start method unavailable")


class _PicklableTask:
    """Module-level task class: picklable payload for the spawn path."""

    def __call__(self, i, rng, budget):
        return ShardResult(
            index=i, n_evals=budget, payload=float(rng.standard_normal())
        )


class TestSplitBudget:
    def test_even_split(self):
        assert split_budget(100, 4) == [25, 25, 25, 25]

    def test_remainder_to_lowest_indices(self):
        assert split_budget(10, 4) == [3, 3, 2, 2]

    def test_total_preserved(self):
        for total in (0, 1, 7, 4097):
            for shards in (1, 2, 3, 8):
                assert sum(split_budget(total, shards)) == total

    def test_invalid(self):
        with pytest.raises(EstimationError):
            split_budget(10, 0)
        with pytest.raises(EstimationError):
            split_budget(-1, 2)


class TestSpawnGenerators:
    def test_deterministic_and_independent(self):
        a = spawn_generators(np.random.default_rng(42), 3)
        b = spawn_generators(np.random.default_rng(42), 3)
        draws_a = [g.standard_normal(4) for g in a]
        draws_b = [g.standard_normal(4) for g in b]
        for x, y in zip(draws_a, draws_b):
            np.testing.assert_array_equal(x, y)
        # Streams differ from each other.
        assert not np.allclose(draws_a[0], draws_a[1])


class TestRunnerPlumbing:
    @staticmethod
    def _task(i, rng, budget):
        return ShardResult(index=i, n_evals=budget, payload=float(rng.standard_normal()))

    def test_serial_matches_pool_results(self):
        rngs1 = spawn_generators(np.random.default_rng(0), 4)
        rngs2 = spawn_generators(np.random.default_rng(0), 4)
        budgets = split_budget(100, 4)
        serial = ShardedRunner(workers=1).run_shards(self._task, rngs1, budgets)
        pooled = ShardedRunner(workers=4).run_shards(self._task, rngs2, budgets)
        assert [r.payload for r in serial] == [r.payload for r in pooled]
        assert [r.index for r in pooled] == [0, 1, 2, 3]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EstimationError):
            ShardedRunner().run_shards(self._task, spawn_generators(np.random.default_rng(0), 2), [1])

    @needs_fork
    def test_eval_reconciliation_after_pool(self):
        ls = LinearLimitState(beta=3.0, dim=4)

        def task(i, rng, budget):
            before = ls.n_evals
            ls.fails_batch(rng.standard_normal((budget, 4)))
            return ShardResult(index=i, n_evals=ls.n_evals - before, payload=None)

        rngs = spawn_generators(np.random.default_rng(1), 4)
        ShardedRunner(workers=4).run_shards(task, rngs, [10, 10, 10, 10], limit_state=ls)
        # Children billed their own copies; the runner must credit the parent.
        assert ls.n_evals == 40


class TestPersistentPool:
    """Persistent fork pools: pure speed knob, results and invariants
    (1-4 in ROADMAP.md) unchanged; lifecycle owned by the caller."""

    @staticmethod
    def _pid_task(i, rng, budget):
        return ShardResult(
            index=i, n_evals=budget,
            payload=(os.getpid(), float(rng.standard_normal())),
        )

    @needs_fork
    def test_pool_reused_for_equivalent_task(self):
        ls = LinearLimitState(beta=3.0, dim=4)

        def shard_fn(rng, budget):
            ls.fails_batch(rng.standard_normal((budget, 4)))
            return os.getpid()

        with ShardedRunner(workers=2, persistent=True) as runner:
            run_sharded(shard_fn, np.random.default_rng(0), 2, 20, 2, ls, runner=runner)
            pool_first = runner._pool
            run_sharded(shard_fn, np.random.default_rng(1), 2, 20, 2, ls, runner=runner)
            assert runner._pool is pool_first  # no respawn for the same task
        assert runner._pool is None  # context exit closed the pool

    @needs_fork
    def test_task_change_respawns_pool(self):
        with ShardedRunner(workers=2, persistent=True) as runner:
            rngs = spawn_generators(np.random.default_rng(0), 2)
            runner.run_shards(self._pid_task, rngs, [1, 1])
            pool_first = runner._pool

            def other_task(i, rng, budget):
                return ShardResult(index=i, n_evals=0, payload="other")

            out = runner.run_shards(other_task, spawn_generators(np.random.default_rng(0), 2), [1, 1])
            assert runner._pool is not pool_first
            assert [r.payload for r in out] == ["other", "other"]

    @needs_fork
    def test_persistent_results_bit_identical_to_fresh(self):
        def run(runner):
            rngs = spawn_generators(np.random.default_rng(7), 4)
            return [
                r.payload[1]
                for r in runner.run_shards(self._pid_task, rngs, split_budget(40, 4))
            ]

        fresh = run(ShardedRunner(workers=4))
        with ShardedRunner(workers=4, persistent=True) as persistent:
            first = run(persistent)
            second = run(persistent)
        assert fresh == first == second

    @needs_fork
    def test_eval_reconciliation_with_persistent_pool(self):
        ls = LinearLimitState(beta=3.0, dim=4)

        def shard_fn(rng, budget):
            ls.fails_batch(rng.standard_normal((budget, 4)))
            return None

        with ShardedRunner(workers=2, persistent=True) as runner:
            run_sharded(shard_fn, np.random.default_rng(3), 2, 30, 2, ls, runner=runner)
            run_sharded(shard_fn, np.random.default_rng(4), 2, 30, 2, ls, runner=runner)
        assert ls.n_evals == 60

    @needs_fork
    def test_estimator_runs_share_one_pool(self):
        """The 'many small runs' case the ROADMAP names: repeated run()
        calls of one estimator keep one pool and stay bit-identical to
        fresh-pool runs."""
        ls = LinearLimitState(beta=4.0, dim=6)
        with ShardedRunner(workers=2, persistent=True) as runner:
            core = MeanShiftISCore(
                ls, shifts=[4.0 * ls.a], n_max=2048, batch_size=256,
                target_rel_err=None, workers=2, n_shards=4, runner=runner,
            )
            r1 = core.run(np.random.default_rng(21), method="test")
            pool = runner._pool
            r2 = core.run(np.random.default_rng(21), method="test")
            assert runner._pool is pool
        baseline = MeanShiftISCore(
            LinearLimitState(beta=4.0, dim=6),
            shifts=[4.0 * ls.a], n_max=2048, batch_size=256,
            target_rel_err=None, workers=2, n_shards=4,
        ).run(np.random.default_rng(21), method="test")
        assert r1.p_fail == r2.p_fail == baseline.p_fail
        assert r1.std_err == r2.std_err == baseline.std_err

    @needs_fork
    def test_late_fork_still_resolves_registered_task(self):
        """The Pool replaces a recycled/dead worker by forking from the
        parent *later* than the original pool fork; such a child must
        still resolve the task.  The property that makes that work is
        that the registry entry stays registered for the pool's whole
        lifetime (regression: a single published-task slot was cleared
        right after the original fork, so late forks inherited nothing).
        Exercised here by forking a fresh child after the first run and
        invoking the worker entry point with the live pool's key."""
        from repro.engine import sharding

        with ShardedRunner(workers=2, persistent=True) as runner:
            rngs = spawn_generators(np.random.default_rng(0), 2)
            first = runner.run_shards(self._pid_task, rngs, [1, 1])
            key = runner._pool_key
            assert key in sharding._POOL_TASKS

            ctx = __import__("multiprocessing").get_context("fork")
            parent_conn, child_conn = ctx.Pipe()

            def late_child(conn):
                rng = spawn_generators(np.random.default_rng(0), 2)[0]
                res = sharding._invoke_shard((key, 0, rng, 1))
                conn.send(res.payload[1])

            proc = ctx.Process(target=late_child, args=(child_conn,))
            proc.start()
            proc.join(timeout=30)
            assert parent_conn.poll(1)
            assert parent_conn.recv() == first[0].payload[1]

    def test_close_is_idempotent_and_serial_path_unaffected(self):
        runner = ShardedRunner(workers=1, persistent=True)
        rngs = spawn_generators(np.random.default_rng(0), 2)
        out = runner.run_shards(self._pid_task, rngs, [1, 1])
        assert len(out) == 2 and runner._pool is None
        runner.close()
        runner.close()


class TestSpawnPath:
    """Spawn-safe execution: platforms without ``fork`` get a real pool
    for picklable task payloads, and a *loud* in-process fallback (with
    ``last_mode`` recording the truth) for unpicklable ones."""

    @needs_spawn
    def test_spawn_bit_identical_to_in_process(self):
        task = _PicklableTask()
        budgets = split_budget(40, 3)
        serial = ShardedRunner(workers=1).run_shards(
            task, spawn_generators(np.random.default_rng(0), 3), budgets
        )
        spawn_runner = ShardedRunner(workers=3, start_method="spawn")
        pooled = spawn_runner.run_shards(
            task, spawn_generators(np.random.default_rng(0), 3), budgets
        )
        assert spawn_runner.last_mode == "spawn"
        assert [r.payload for r in serial] == [r.payload for r in pooled]
        assert [r.index for r in pooled] == [0, 1, 2]

    @needs_spawn
    def test_spawn_estimator_matches_serial(self):
        """The analytic limit states are picklable (bound-method metrics),
        so a whole estimator stack crosses the spawn pipe and the result
        stays bit-identical to the in-process plan."""
        def run(runner, workers):
            ls = LinearLimitState(beta=4.0, dim=6)
            core = MeanShiftISCore(
                ls, shifts=[4.0 * ls.a], n_max=1024, batch_size=256,
                target_rel_err=None, workers=workers, n_shards=2, runner=runner,
            )
            return core.run(np.random.default_rng(11), method="test"), ls

        assert pickle.dumps(LinearLimitState(beta=4.0, dim=6))
        spawn_runner = ShardedRunner(workers=2, start_method="spawn")
        r_spawn, ls_spawn = run(spawn_runner, workers=2)
        assert spawn_runner.last_mode == "spawn"
        r_serial, ls_serial = run(None, workers=1)
        assert r_spawn.p_fail == r_serial.p_fail
        assert r_spawn.std_err == r_serial.std_err
        # Eval accounting reconciles across the spawn pipe too.
        assert ls_spawn.n_evals == ls_serial.n_evals == r_spawn.n_evals

    @needs_spawn
    def test_unpicklable_task_falls_back_loudly(self):
        captured = []

        def closure_task(i, rng, budget):  # local function: not picklable
            return ShardResult(index=i, n_evals=0, payload=captured.append(i))

        runner = ShardedRunner(workers=2, start_method="spawn")
        rngs = spawn_generators(np.random.default_rng(0), 2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            out = runner.run_shards(closure_task, rngs, [1, 1])
        assert runner.last_mode == "in-process"
        assert len(out) == 2 and captured == [0, 1]

    @needs_spawn
    def test_persistent_spawn_pool_reused(self):
        task = _PicklableTask()
        with ShardedRunner(workers=2, persistent=True, start_method="spawn") as runner:
            rngs = spawn_generators(np.random.default_rng(1), 2)
            runner.run_shards(task, rngs, [1, 1])
            pool = runner._pool
            runner.run_shards(task, spawn_generators(np.random.default_rng(2), 2), [1, 1])
            assert runner._pool is pool
        assert runner._pool is None

    def test_invalid_start_method_rejected(self):
        with pytest.raises(EstimationError):
            ShardedRunner(start_method="threads")


class TestCooperativeTopUp:
    """A sharded run that misses the global target with stranded shard
    budget runs one top-up round instead of giving up."""

    # The trigger needs a marginal budget: most shards stop at the
    # sqrt(8)-scaled local target while the stragglers exhaust their
    # slice, so the merge misses the global target with budget stranded.
    # The seeds below are pinned to configurations where that happens
    # (the whole pipeline is deterministic per seed).

    def _make_core(self, workers=1):
        ls = LinearLimitState(beta=4.0, dim=6)
        return ls, MeanShiftISCore(
            ls, shifts=[4.0 * ls.a], n_max=4000, batch_size=64,
            target_rel_err=0.035, workers=workers, n_shards=8,
        )

    def test_topup_consumes_stranded_budget(self):
        ls, core = self._make_core()
        res = core.run(np.random.default_rng(5), method="test")
        assert res.diagnostics["topup_samples"] > 0
        # The stranded budget was spent and bought global convergence.
        assert res.n_evals == 4000
        assert res.converged
        assert res.rel_err <= 0.035

    def test_no_topup_when_untargeted(self):
        ls = LinearLimitState(beta=3.0, dim=4)
        core = MeanShiftISCore(
            ls, shifts=[3.0 * ls.a], n_max=4000, target_rel_err=None, n_shards=4
        )
        res = core.run(np.random.default_rng(1), method="test")
        assert res.diagnostics["topup_samples"] == 0
        assert res.n_evals == 4000

    @needs_fork
    def test_topup_bit_identical_across_workers(self):
        def run(workers):
            _, core = self._make_core(workers=workers)
            return core.run(np.random.default_rng(5), method="test")

        r1, r4 = run(1), run(4)
        assert r1.diagnostics["topup_samples"] == r4.diagnostics["topup_samples"] > 0
        assert (r1.p_fail, r1.std_err, r1.n_evals) == (r4.p_fail, r4.std_err, r4.n_evals)

    def test_mc_topup(self):
        ls = LinearLimitState(beta=2.5, dim=3)
        est = MonteCarloEstimator(
            ls, n_max=16000, batch_size=256, target_rel_err=0.1, n_shards=8
        )
        res = est.run(np.random.default_rng(6))
        assert res.diagnostics["topup_samples"] > 0
        assert res.converged
        assert res.n_evals == 16000
        assert ls.n_evals == res.n_evals


def _core_result(workers, n_shards, sampler="random"):
    ls = LinearLimitState(beta=4.0, dim=6)
    core = MeanShiftISCore(
        ls,
        shifts=[4.0 * ls.a],
        n_max=4096,
        batch_size=256,
        target_rel_err=None,
        sampler=sampler,
        workers=workers,
        n_shards=n_shards,
    )
    res = core.run(np.random.default_rng(123), method="test")
    return res, ls.n_evals


class TestShardedCoreDeterminism:
    @needs_fork
    def test_workers4_bitwise_equals_workers1(self):
        """The ISSUE's acceptance criterion, verbatim."""
        r1, evals1 = _core_result(workers=1, n_shards=4)
        r4, evals4 = _core_result(workers=4, n_shards=4)
        assert r4.p_fail == r1.p_fail
        assert r4.std_err == r1.std_err
        assert r4.ess == r1.ess
        assert r4.n_evals == r1.n_evals
        assert r4.n_failures == r1.n_failures
        assert evals4 == evals1

    @needs_fork
    def test_qmc_sampler_also_deterministic(self):
        r1, _ = _core_result(workers=1, n_shards=2, sampler="qmc")
        r2, _ = _core_result(workers=2, n_shards=2, sampler="qmc")
        assert r2.p_fail == r1.p_fail
        assert r2.std_err == r1.std_err

    def test_sharded_estimate_is_sane(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        core = MeanShiftISCore(
            ls, shifts=[4.0 * ls.a], n_max=8000, target_rel_err=None, n_shards=4
        )
        res = core.run(np.random.default_rng(5), method="test")
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.15)
        assert res.diagnostics["n_shards"] == 4

    def test_sharded_early_stopping_active(self):
        """The sqrt(N)-scaled shard target keeps early stopping alive: an
        easy workload must stop well short of the budget, meeting the
        global target on the merged moments, instead of silently
        exhausting the budget because no shard could reach the global
        target on its 1/N of the samples."""
        ls = LinearLimitState(beta=3.0, dim=4)
        core = MeanShiftISCore(
            ls, shifts=[3.0 * ls.a], n_max=50000, batch_size=256,
            target_rel_err=0.1, n_shards=4,
        )
        res = core.run(np.random.default_rng(9), method="test")
        assert res.converged
        assert res.n_evals < 50000
        assert res.rel_err <= 0.1

    @needs_fork
    def test_early_stopping_bit_identical_across_workers(self):
        def run(workers):
            ls = LinearLimitState(beta=3.0, dim=4)
            core = MeanShiftISCore(
                ls, shifts=[3.0 * ls.a], n_max=50000, batch_size=256,
                target_rel_err=0.1, workers=workers, n_shards=4,
            )
            return core.run(np.random.default_rng(9), method="test")

        r1, r4 = run(1), run(4)
        assert (r1.p_fail, r1.std_err, r1.n_evals) == (r4.p_fail, r4.std_err, r4.n_evals)

    def test_budget_respected_across_shards(self):
        ls = LinearLimitState(beta=3.0, dim=4)
        core = MeanShiftISCore(
            ls, shifts=[3.0 * ls.a], n_max=1000, target_rel_err=None, n_shards=3
        )
        res = core.run(np.random.default_rng(2), method="test")
        assert res.n_evals == 1000
        assert ls.n_evals == 1000


class TestZeroBudgetShards:
    """Zero-budget shards never ship to the pool: an empty job buys no
    samples but costs a pickle round-trip and a worker slot.  The plan —
    and therefore the statistics — is unchanged; skipping is pure
    dispatch economics."""

    @staticmethod
    def _pid_task(i, rng, budget):
        return ShardResult(
            index=i, n_evals=budget,
            payload=(os.getpid(), float(rng.standard_normal())),
        )

    @needs_fork
    def test_empty_shards_run_in_process(self):
        rngs = spawn_generators(np.random.default_rng(0), 4)
        budgets = [3, 0, 2, 0]  # budget < n_shards territory
        runner = ShardedRunner(workers=2)
        out = runner.run_shards(self._pid_task, rngs, budgets)
        parent = os.getpid()
        assert [r.payload[0] == parent for r in out] == [False, True, False, True]
        assert runner.last_diagnostics["skipped_empty"] == 2

    @needs_fork
    def test_bit_identity_with_empty_shards(self):
        budgets = [2, 0, 1, 0, 0]
        serial = ShardedRunner(workers=1).run_shards(
            self._pid_task, spawn_generators(np.random.default_rng(3), 5), budgets
        )
        pooled = ShardedRunner(workers=2).run_shards(
            self._pid_task, spawn_generators(np.random.default_rng(3), 5), budgets
        )
        assert [r.payload[1] for r in serial] == [r.payload[1] for r in pooled]

    @needs_fork
    def test_skip_empty_false_ships_everything(self):
        """Search-stage tasks pass budgets that are placeholders, not
        sample counts; ``skip_empty=False`` keeps them pooled."""
        rngs = spawn_generators(np.random.default_rng(0), 2)
        runner = ShardedRunner(workers=2)
        out = runner.run_shards(self._pid_task, rngs, [0, 0], skip_empty=False)
        parent = os.getpid()
        assert all(r.payload[0] != parent for r in out)
        assert runner.last_diagnostics["skipped_empty"] == 0

    def test_all_empty_runs_in_process_without_pool(self):
        rngs = spawn_generators(np.random.default_rng(0), 3)
        runner = ShardedRunner(workers=3)
        out = runner.run_shards(self._pid_task, rngs, [0, 0, 0])
        assert runner.last_mode == "in-process"
        assert runner._pool is None
        assert [r.index for r in out] == [0, 1, 2]


class TestPoolFailureLifecycle:
    """A failed run must never hand its (dead, hung or interrupted) pool
    to the next call — regression coverage for the close-on-error path."""

    @staticmethod
    def _task(i, rng, budget):
        return ShardResult(index=i, n_evals=budget, payload=float(rng.standard_normal()))

    @needs_fork
    def test_persistent_pool_recovers_after_worker_death(self):
        """Kill a worker with no retry budget: the run fails typed, the
        broken pool is closed, and the *same* persistent runner's next
        run respawns transparently and is bit-identical to serial."""
        from repro.engine.chaos import FaultSpec
        from repro.errors import ShardExecutionError

        budgets = split_budget(40, 4)
        baseline = [
            r.payload
            for r in ShardedRunner(workers=1).run_shards(
                self._task, spawn_generators(np.random.default_rng(7), 4), budgets
            )
        ]
        with ShardedRunner(workers=2, persistent=True) as runner:
            runner.chaos = (FaultSpec("kill", shard=1),)
            with pytest.raises(ShardExecutionError):
                runner.run_shards(
                    self._task, spawn_generators(np.random.default_rng(7), 4), budgets
                )
            assert runner._pool is None  # broken pool not kept around
            runner.chaos = ()
            out = runner.run_shards(
                self._task, spawn_generators(np.random.default_rng(7), 4), budgets
            )
            assert [r.payload for r in out] == baseline

    @needs_fork
    def test_keyboard_interrupt_cleans_pool_and_registry(self):
        from repro.engine import sharding

        runner = ShardedRunner(workers=2, persistent=True)

        def interrupt(inflight):
            raise KeyboardInterrupt

        runner._wait_tick = interrupt
        rngs = spawn_generators(np.random.default_rng(0), 4)
        with pytest.raises(KeyboardInterrupt):
            runner.run_shards(self._task, rngs, split_budget(40, 4))
        assert runner._pool is None
        assert runner._pool_key is None
        # No orphaned task snapshot left in the module registry.
        assert all(
            task is not self._task for task in sharding._POOL_TASKS.values()
        )

    @needs_fork
    def test_unpicklable_result_payload_is_readable_typed_error(self):
        """A payload that cannot cross the result pipe surfaces as a
        typed ShardExecutionError naming the shard — not a hang or a
        bare MaybeEncodingError from pool internals."""
        from repro.errors import ShardExecutionError

        def bad_payload_task(i, rng, budget):
            return ShardResult(index=i, n_evals=0, payload=lambda: None)

        runner = ShardedRunner(workers=2)
        rngs = spawn_generators(np.random.default_rng(0), 2)
        with pytest.raises(ShardExecutionError) as excinfo:
            runner.run_shards(bad_payload_task, rngs, [1, 1])
        assert excinfo.value.shard_index in (0, 1)
        assert excinfo.value.attempts == 1
        assert runner._pool is None

    @needs_fork
    def test_eval_reconciliation_across_retried_shards(self):
        """The retried attempt consumed evals in a worker that died with
        them; only the successful attempt's count reconciles, so the
        parent total matches a fault-free run exactly."""
        from repro.engine.chaos import FaultSpec
        from repro.engine.sharding import RetryPolicy

        ls = LinearLimitState(beta=3.0, dim=4)

        def task(i, rng, budget):
            before = ls.n_evals
            ls.fails_batch(rng.standard_normal((budget, 4)))
            return ShardResult(index=i, n_evals=ls.n_evals - before, payload=None)

        runner = ShardedRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=3),
            chaos=[FaultSpec("kill", shard=1)],
        )
        rngs = spawn_generators(np.random.default_rng(1), 4)
        runner.run_shards(task, rngs, [10, 10, 10, 10], limit_state=ls)
        assert runner.last_mode == "fork"
        assert ls.n_evals == 40


class TestShardedMonteCarlo:
    @needs_fork
    def test_workers_bit_identical(self):
        def run(workers):
            ls = LinearLimitState(beta=2.0, dim=3)
            est = MonteCarloEstimator(
                ls, n_max=20000, batch_size=2048, target_rel_err=None,
                workers=workers, n_shards=4,
            )
            return est.run(np.random.default_rng(11)), ls.n_evals

        r1, e1 = run(1)
        r4, e4 = run(4)
        assert r4.p_fail == r1.p_fail
        assert r4.std_err == r1.std_err
        assert r4.n_evals == r1.n_evals == e1 == e4
        assert r4.n_failures == r1.n_failures

    def test_sharded_mc_accuracy(self):
        ls = LinearLimitState(beta=2.0, dim=3)
        est = MonteCarloEstimator(ls, n_max=40000, target_rel_err=None, n_shards=4)
        res = est.run(np.random.default_rng(3))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.1)


class TestShardedSss:
    @needs_fork
    def test_workers_bit_identical(self):
        def run(workers):
            ls = LinearLimitState(beta=3.0, dim=4)
            est = ScaledSigmaSampling(
                ls, n_per_scale=1500, n_bootstrap=50, workers=workers, n_shards=4
            )
            return est.run(np.random.default_rng(17)), ls.n_evals

        r1, e1 = run(1)
        r4, e4 = run(4)
        assert r4.p_fail == r1.p_fail
        assert r4.std_err == r1.std_err
        assert r4.n_evals == r1.n_evals == e1 == e4
        assert r4.diagnostics["counts"] == r1.diagnostics["counts"]


def _curved_metric(ub):
    """A parabolic margin field: failure where ``u0 + 0.05 |u_rest|^2``
    reaches the spec, so every stencil row evaluates differently."""
    ub = np.atleast_2d(ub)
    return ub[:, 0] + 0.05 * np.sum(ub[:, 1:] ** 2, axis=1)


def _curved_ls(batch_fn=_curved_metric, dim=6):
    from repro.highsigma.limitstate import LimitState

    return LimitState(None, spec=3.0, dim=dim, batch_fn=batch_fn, name="curved")


class _FlakyOnce:
    """``batch_fn`` that fails once, on the first ``rows``-row block it
    sees in any process (a marker file records the firing)."""

    def __init__(self, rows, marker):
        self.rows = rows
        self.marker = marker

    def __call__(self, ub):
        if len(ub) == self.rows and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            raise RuntimeError("injected stencil fault")
        return _curved_metric(ub)


class TestShardedStencils:
    """GIS gradient stencils split into ``n_shards`` contiguous row
    blocks: ``workers`` stays a pure speed knob, the parent bills and
    caches exactly as one unsplit ``g_batch``, and stencil shards never
    touch the estimate's generator."""

    @staticmethod
    def _gis(ls, workers, n_shards=2, runner=None, grad_mode="central"):
        from repro.highsigma.gis import GradientImportanceSampling
        from repro.highsigma.mpfp import MpfpOptions

        return GradientImportanceSampling(
            ls, n_max=1500, batch_size=250, target_rel_err=None,
            workers=workers, n_shards=n_shards, runner=runner,
            mpfp_options=MpfpOptions(grad_mode=grad_mode),
        )

    @staticmethod
    def _same(a, b):
        assert a.p_fail == b.p_fail
        assert a.std_err == b.std_err
        assert a.n_evals == b.n_evals
        assert a.diagnostics["search_evals"] == b.diagnostics["search_evals"]
        assert a.diagnostics["mpfp_u"] == b.diagnostics["mpfp_u"]

    @needs_fork
    @pytest.mark.parametrize("grad_mode", ["central", "forward", "spsa"])
    def test_workers_bit_identical(self, grad_mode, monkeypatch):
        from repro.highsigma import limitstate

        modes = []

        class SpyRunner(ShardedRunner):
            def run_shards(self, *args, **kwargs):
                out = super().run_shards(*args, **kwargs)
                modes.append(self.last_mode)
                return out

        monkeypatch.setattr(limitstate, "ShardedRunner", SpyRunner)
        results = {}
        for workers in (1, 2):
            modes.clear()
            ls = _curved_ls()
            res = self._gis(ls, workers, grad_mode=grad_mode).run(np.random.default_rng(3))
            results[workers] = (res, ls.n_evals)
            assert modes and set(modes) == {"in-process" if workers == 1 else "fork"}
        (r1, e1), (r2, e2) = results[1], results[2]
        self._same(r1, r2)
        assert e1 == e2 == r1.n_evals

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_sharded_stencil_bills_and_caches_like_one_batch(self, workers):
        rows = np.random.default_rng(0).standard_normal((12, 6))
        whole, split = _curved_ls(), _curved_ls()
        g_whole = whole.g_batch(rows)
        g_split = split.g_batch_sharded(rows, 2, workers=workers)
        np.testing.assert_array_equal(g_whole, g_split)
        assert split.n_evals == whole.n_evals == 12
        assert split._cache == whole._cache

    @needs_fork
    def test_compiled_stencil_bills_and_caches_like_one_batch(self):
        from repro.experiments.workloads import make_read_limitstate

        whole = make_read_limitstate(5.75e-11, n_steps=200)
        split = make_read_limitstate(5.75e-11, n_steps=200)
        u = np.random.default_rng(1).standard_normal(whole.dim) * 0.5
        grad_whole = whole.fd_gradient(u)
        grad_split = split.fd_gradient(
            u, evaluate=lambda rows: split.g_batch_sharded(rows, 2, workers=2)
        )
        np.testing.assert_array_equal(grad_whole, grad_split)
        assert split.n_evals == whole.n_evals == 2 * whole.dim
        assert split._cache == whole._cache

    @pytest.mark.parametrize("grad_mode", ["central", "spsa"])
    def test_stencil_shards_leave_the_estimate_rng_alone(self, grad_mode):
        """Spawning stencil streams from the estimate's generator would
        advance its SeedSequence spawn counter and move every later IS
        shard stream; drawing from it would move the generator state."""
        states = []
        for n_shards in (1, 4):
            rng = np.random.default_rng(9)
            self._gis(_curved_ls(), 1, n_shards=n_shards, grad_mode=grad_mode).search_mpfps(rng)
            states.append(
                (rng.bit_generator.state, rng.bit_generator.seed_seq.n_children_spawned)
            )
        assert states[1] == states[0]
        assert states[1][1] == 0

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_failed_stencil_shard_retried_bit_identical(self, workers, tmp_path):
        from repro.engine.sharding import RetryPolicy
        from repro.errors import ShardExecutionError

        clean = self._gis(_curved_ls(), workers).run(np.random.default_rng(4))
        marker = str(tmp_path / "fired")
        flaky = _curved_ls(batch_fn=_FlakyOnce(rows=6, marker=marker))
        with ShardedRunner(
            workers, persistent=True, retry=RetryPolicy(max_attempts=2)
        ) as runner:
            retried = self._gis(flaky, workers, runner=runner).run(np.random.default_rng(4))
        assert os.path.exists(marker)  # the fault did fire
        self._same(clean, retried)
        assert flaky.n_evals == clean.n_evals

        os.remove(marker)
        with pytest.raises(ShardExecutionError):
            self._gis(_curved_ls(batch_fn=_FlakyOnce(rows=6, marker=marker)), workers).run(
                np.random.default_rng(4)
            )
