"""Tests for the fault-tolerant campaign runtime (repro.resilience).

The load-bearing property: a training run killed by injected faults and
resumed from its checkpoints is **bit-identical** to the same run left
uninterrupted — weights, optimizer moments, RNG streams, loss history.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candle import build_p1b2_classifier
from repro.datasets import make_tumor_expression
from repro.hpc import SimCluster
from repro.hpc.events import EventLoop, WorkerPool
from repro.nn import (
    Adam,
    atomic_savez,
    load_training_state,
    restore_rng,
    rng_state,
    save_training_state,
)
from repro.resilience import (
    CRASH,
    NAN,
    STRAGGLER,
    CheckpointManager,
    FaultInjector,
    FaultSpec,
    ResilienceReport,
    as_injector,
    plan_checkpoint_interval,
    run_resilient_training,
)


def small_model(dropout: float = 0.0):
    return build_p1b2_classifier(4, hidden=(12,), dropout=dropout)


@pytest.fixture(scope="module")
def data():
    d = make_tumor_expression(n_samples=96, n_genes=20, n_classes=4, seed=0)
    return d.x, d.y


def params_of(model):
    return [p.data.copy() for p in model.parameters()]


def assert_bit_identical(model_a, model_b):
    pa, pb = params_of(model_a), params_of(model_b)
    assert len(pa) == len(pb)
    for a, b in zip(pa, pb):
        assert np.array_equal(a, b), "weights diverged"


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(crash_prob=1.0)
        with pytest.raises(ValueError):
            FaultSpec(crash_prob=0.5, nan_prob=0.3, straggler_prob=0.3)
        with pytest.raises(ValueError):
            FaultSpec(straggler_factor=0.5)
        with pytest.raises(ValueError):
            FaultSpec(crash_steps=(-1,))

    def test_as_injector_coercion(self):
        assert as_injector(None) is None
        spec = FaultSpec(crash_prob=0.1)
        inj = as_injector(spec)
        assert isinstance(inj, FaultInjector) and inj.spec is spec
        assert as_injector(inj) is inj
        with pytest.raises(TypeError):
            as_injector(0.1)


class TestFaultInjector:
    def test_decisions_are_order_independent(self):
        """Fault decisions are pure functions of (seed, ids) — the event
        loop's interleaving cannot change them."""
        a = FaultInjector(crash_prob=0.2, nan_prob=0.1, straggler_prob=0.1, seed=5)
        b = FaultInjector(crash_prob=0.2, nan_prob=0.1, straggler_prob=0.1, seed=5)
        keys = [(t, att) for t in range(30) for att in range(2)]
        fwd = {k: a.trial_fault(*k) for k in keys}
        rev = {k: b.trial_fault(*k) for k in reversed(keys)}
        assert fwd == rev
        assert a.counts == b.counts

    def test_seed_changes_schedule(self):
        a = FaultInjector(crash_prob=0.3, seed=0)
        b = FaultInjector(crash_prob=0.3, seed=1)
        fa = [a.trial_fault(t, 0) for t in range(50)]
        fb = [b.trial_fault(t, 0) for t in range(50)]
        assert fa != fb

    def test_at_most_one_fault_per_attempt_and_counts_match(self):
        inj = FaultInjector(crash_prob=0.2, nan_prob=0.2, straggler_prob=0.2, seed=2)
        seen = {CRASH: 0, NAN: 0, STRAGGLER: 0}
        for t in range(300):
            kind = inj.trial_fault(t, 0)
            if kind is not None:
                seen[kind] += 1
        for kind, n in seen.items():
            assert n > 0, f"no {kind} in 300 draws at p=0.2"
            assert inj.counts[kind] == n

    def test_crash_steps_fire_exactly_once(self):
        inj = FaultInjector(crash_steps=(3, 7), seed=0)
        fired = [g for g in range(10) if inj.crash_now(g)]
        assert fired == [3, 7]
        # Replay (the restarted incarnation) passes unharmed.
        assert not any(inj.crash_now(g, incarnation=1) for g in range(10))

    def test_rate_crashes_redraw_per_incarnation(self):
        inj = FaultInjector(crash_prob=0.3, seed=8)
        inc0 = [inj.crash_now(g, 0) for g in range(40)]
        inj2 = FaultInjector(crash_prob=0.3, seed=8)
        inc1 = [inj2.crash_now(g, 1) for g in range(40)]
        assert inc0 != inc1  # a restart is a fresh draw, not a replay loop

    def test_corrupt_gradients_poisons_in_place(self):
        inj = FaultInjector(nan_steps=(1,), seed=0)
        g = [np.ones(4)]
        assert not inj.corrupt_gradients(0, g)
        assert inj.corrupt_gradients(1, g)
        assert np.isnan(g[0]).all()
        assert inj.counts[NAN] == 1

    def test_worker_fault_deterministic(self):
        a = FaultInjector(crash_prob=0.1, nan_prob=0.1, seed=3)
        b = FaultInjector(crash_prob=0.1, nan_prob=0.1, seed=3)
        fa = [a.worker_fault(u, w) for u in range(20) for w in range(4)]
        fb = [b.worker_fault(u, w) for u in range(20) for w in range(4)]
        assert fa == fb


class TestTrainingStateSerialization:
    def test_round_trip_restores_everything(self, data, tmp_path):
        x, y = data
        model = small_model()
        rng = np.random.default_rng(0)
        model.build(x.shape[1:], rng)
        opt = Adam(model.parameters(), lr=1e-3)
        model.fit(x, y, epochs=1, batch_size=32, loss="cross_entropy", optimizer=opt)

        shuffle_rng = np.random.default_rng(42)
        shuffle_rng.random(7)  # advance to a nontrivial state
        path = save_training_state(
            model, opt, tmp_path / "state.npz",
            epoch=3, step=2, global_step=17, rng=shuffle_rng,
            extra_arrays={"perm": np.arange(10)[::-1].copy()},
            history=[{"loss": 1.5}, {"loss": 0.75}],
            metadata={"epoch_sum": 2.25, "epoch_count": 3},
        )

        clone = small_model()
        clone.build(x.shape[1:], np.random.default_rng(99))
        clone_opt = Adam(clone.parameters(), lr=1e-3)
        header = load_training_state(clone, clone_opt, path)

        assert_bit_identical(model, clone)
        assert (header["epoch"], header["step"], header["global_step"]) == (3, 2, 17)
        assert header["history"] == [{"loss": 1.5}, {"loss": 0.75}]
        assert header["metadata"]["epoch_sum"] == 2.25
        assert np.array_equal(header["extra"]["perm"], np.arange(10)[::-1])
        # The restored RNG continues the exact stream.
        assert header["rng"].random(5).tolist() == shuffle_rng.random(5).tolist()
        # Optimizer moments round-trip bit-exactly.
        assert clone_opt.step_count == opt.step_count
        for p, q in zip(opt.params, clone_opt.params):
            assert np.array_equal(opt.state(p)["m"], clone_opt.state(q)["m"])
            assert np.array_equal(opt.state(p)["v"], clone_opt.state(q)["v"])

    def test_rng_state_round_trip(self):
        rng = np.random.default_rng(123)
        rng.normal(size=10)
        twin = restore_rng(rng_state(rng))
        assert twin.random(8).tolist() == rng.random(8).tolist()

    def test_atomic_savez_leaves_no_temp_files(self, tmp_path):
        p = atomic_savez(tmp_path / "a.npz", {"x": np.arange(3)})
        assert p.exists()
        assert [f.name for f in tmp_path.iterdir()] == ["a.npz"]
        # Overwrite is also atomic — and complete.
        atomic_savez(tmp_path / "a.npz", {"x": np.arange(5)})
        with np.load(tmp_path / "a.npz") as z:
            assert z["x"].shape == (5,)
        assert len(list(tmp_path.iterdir())) == 1


class TestCheckpointManager:
    def _save(self, mgr, model, opt, g):
        return mgr.save(model, opt, epoch=0, step=g, global_step=g)

    def test_retention_keeps_baseline_and_newest(self, data, tmp_path):
        x, _ = data
        model = small_model()
        model.build(x.shape[1:], np.random.default_rng(0))
        opt = Adam(model.parameters())
        mgr = CheckpointManager(tmp_path, keep=2)
        for g in [0, 5, 10, 15, 20]:
            self._save(mgr, model, opt, g)
        names = [p.name for p in mgr.snapshots()]
        assert names == ["ckpt-00000000.npz", "ckpt-00000015.npz", "ckpt-00000020.npz"]
        assert mgr.latest().name == "ckpt-00000020.npz"

    def test_injected_storage_failure_preserves_previous(self, data, tmp_path):
        x, _ = data
        model = small_model()
        model.build(x.shape[1:], np.random.default_rng(0))
        opt = Adam(model.parameters())
        inj = FaultInjector(storage_fail_prob=0.99, seed=0)
        mgr = CheckpointManager(tmp_path, injector=inj)
        assert mgr.save(model, opt, epoch=0, step=0, global_step=0, force=True) is not None
        before = mgr.latest()
        failed = sum(1 for g in range(1, 8) if self._save(mgr, model, opt, g) is None)
        assert failed > 0 and mgr.writes_failed == failed
        assert mgr.latest() == before or mgr.latest().stat().st_size > 0

    def test_restore_empty_dir_returns_none(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        assert mgr.restore(small_model(), None) is None


class TestBitIdenticalResume:
    def _run(self, data, ckpt_dir, injector=None, epochs=3, dropout=0.3, **kw):
        x, y = data
        model = small_model(dropout=dropout)
        history, report = run_resilient_training(
            model, x, y, checkpoint_dir=ckpt_dir, epochs=epochs, batch_size=16,
            loss="cross_entropy", lr=1e-3, seed=0, checkpoint_every=4,
            injector=injector, **kw,
        )
        return model, history, report

    def test_crashed_run_matches_uninterrupted(self, data, tmp_path):
        clean_model, clean_hist, clean_rep = self._run(data, tmp_path / "clean")
        inj = FaultInjector(crash_steps=(3, 9, 14), seed=0)
        faulty_model, faulty_hist, rep = self._run(data, tmp_path / "faulty", injector=inj)

        assert rep.restarts == 3
        assert rep.steps_replayed > 0
        assert clean_rep.steps_replayed == 0
        assert faulty_hist.series("loss") == clean_hist.series("loss")
        assert_bit_identical(clean_model, faulty_model)

    def test_resume_across_calls_matches_single_run(self, data, tmp_path):
        """Kill-and-reschedule across process boundaries: train 2 epochs,
        come back later for 4 — identical to 4 straight."""
        straight_model, straight_hist, _ = self._run(data, tmp_path / "a", epochs=4)
        x, y = data
        resumed = small_model(dropout=0.3)
        run_resilient_training(
            resumed, x, y, checkpoint_dir=tmp_path / "b", epochs=2, batch_size=16,
            loss="cross_entropy", lr=1e-3, seed=0, checkpoint_every=4,
        )
        hist, _ = run_resilient_training(
            resumed, x, y, checkpoint_dir=tmp_path / "b", epochs=4, batch_size=16,
            loss="cross_entropy", lr=1e-3, seed=0, checkpoint_every=4,
        )
        assert hist.series("loss") == straight_hist.series("loss")
        assert_bit_identical(straight_model, resumed)

    @settings(max_examples=12, deadline=None)
    @given(
        crash_steps=st.sets(st.integers(min_value=1, max_value=17), max_size=4),
        checkpoint_every=st.integers(min_value=1, max_value=7),
    )
    def test_resume_is_bit_identical_property(self, crash_steps, checkpoint_every):
        """For any crash schedule and any checkpoint cadence, the survivor
        equals the uninterrupted run bit for bit."""
        d = make_tumor_expression(n_samples=48, n_genes=20, n_classes=4, seed=1)
        runs = []
        for steps in [(), tuple(sorted(crash_steps))]:
            model = small_model(dropout=0.2)
            inj = FaultInjector(crash_steps=steps, seed=0) if steps else None
            with tempfile.TemporaryDirectory() as tmp:
                hist, _ = run_resilient_training(
                    model, d.x, d.y, checkpoint_dir=tmp, epochs=3, batch_size=8,
                    loss="cross_entropy", lr=1e-3, seed=0,
                    checkpoint_every=checkpoint_every, injector=inj,
                )
            runs.append((model, hist.series("loss")))
        (clean, clean_loss), (faulty, faulty_loss) = runs
        assert faulty_loss == clean_loss
        assert_bit_identical(clean, faulty)

    def test_nan_steps_are_quarantined_not_fatal(self, data, tmp_path):
        inj = FaultInjector(nan_steps=(2, 5), seed=0)
        _, hist, rep = self._run(data, tmp_path, injector=inj, dropout=0.0)
        assert rep.nan_updates_skipped == 2
        assert rep.faults[NAN] == 2
        assert all(np.isfinite(v) for v in hist.series("loss"))

    def test_storage_failures_tolerated(self, data, tmp_path):
        inj = FaultInjector(storage_fail_prob=0.6, crash_steps=(7,), seed=1)
        _, _, rep = self._run(data, tmp_path, injector=inj, dropout=0.0)
        assert rep.checkpoint_write_failures > 0
        assert rep.restarts == 1  # still survived the crash

    def test_time_ledger_and_efficiency(self, data, tmp_path):
        inj = FaultInjector(crash_steps=(5,), seed=0)
        _, _, rep = self._run(
            data, tmp_path, injector=inj, dropout=0.0,
            step_time_s=1.0, checkpoint_time_s=0.5, restart_time_s=2.0,
        )
        assert rep.sim_useful_time == rep.useful_steps
        assert rep.sim_lost_time == rep.steps_replayed
        assert rep.sim_restart_time == 2.0
        assert rep.sim_total_time == pytest.approx(
            rep.sim_useful_time + rep.sim_lost_time
            + rep.sim_checkpoint_time + rep.sim_restart_time
        )
        assert 0.0 < rep.measured_efficiency < 1.0

    def test_gives_up_after_max_restarts(self, data, tmp_path):
        inj = FaultInjector(crash_steps=tuple(range(1, 6)), seed=0)
        with pytest.raises(RuntimeError, match="restarts"):
            self._run(data, tmp_path, injector=inj, max_restarts=2)


class TestReport:
    def test_summary_and_defaults(self):
        rep = ResilienceReport()
        assert rep.measured_efficiency == 1.0
        assert rep.total_faults() == 0
        rep.faults = {"crash": 2}
        rep.restarts = 2
        text = rep.summary()
        assert "crash=2" in text and "restarts=2" in text


class TestPlanCheckpointInterval:
    def test_interval_positive_and_steps_derived(self):
        from repro.hpc.perfmodel import mlp_profile

        cluster = SimCluster.build("summit_era", 64)
        profile = mlp_profile([64, 128, 64, 8], batch_size=32)
        plan = plan_checkpoint_interval(profile, cluster, step_time_s=0.01)
        assert plan["mtbf"] > 0
        assert plan["checkpoint_time"] > 0
        assert plan["interval_s"] > 0
        assert plan["interval_steps"] >= 1


def _sphere(config, budget=1):
    return (config["x"] - 0.3) ** 2 + (config["y"] - 0.7) ** 2


def _space():
    from repro.hpo import Float, SearchSpace

    return SearchSpace({"x": Float(0.0, 1.0), "y": Float(0.0, 1.0)})


class TestSchedulerResilience:
    def test_sync_sim_time_is_barrier_time(self):
        """Wave k of w workers at constant cost c completes at (k+1)*c —
        the accounting the dead `loop.now += 0` used to leave at zero."""
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 8, 4,
                           constant_cost(3.0), sync=True)
        assert [t.sim_time for t in log.trials] == [3.0] * 4 + [6.0] * 4

    def test_sync_straggler_stalls_its_wave(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        inj = FaultInjector(straggler_prob=0.4, straggler_factor=5.0, seed=2)
        log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 4, 4,
                           constant_cost(1.0), sync=True, injector=inj)
        assert inj.counts[STRAGGLER] > 0
        # One barrier; everyone pays the slowest slot's stretched time.
        times = {t.sim_time for t in log.trials}
        assert times == {5.0}

    def test_sync_and_async_inject_identical_fault_schedules(self):
        """Keyed-RNG determinism: the injector's decisions depend only on
        (seed, trial, attempt), not on the scheduler's interleaving."""
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        def run(sync):
            inj = FaultInjector(crash_prob=0.15, nan_prob=0.1, straggler_prob=0.1, seed=11)
            log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 30, 4,
                               constant_cost(1.0), sync=sync, injector=inj,
                               max_retries=2)
            return inj.counts, log.stats

        counts_s, stats_s = run(sync=True)
        counts_a, stats_a = run(sync=False)
        assert counts_s == counts_a
        assert stats_s == stats_a

    def test_worker_loss_shrinks_pool_both_modes(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        for sync in (True, False):
            inj = FaultInjector(worker_loss_times=(0.5, 1.5), seed=0)
            log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 12, 4,
                               constant_cost(1.0), sync=sync, injector=inj)
            assert len(log) == 12, f"sync={sync}"
            assert log.stats["workers_lost"] == 2
            # Fewer workers → later completion than a full-strength pool.
            full = run_parallel(RandomSearch(_space(), seed=0), _sphere, 12, 4,
                                constant_cost(1.0), sync=sync)
            assert max(t.sim_time for t in log.trials) > max(t.sim_time for t in full.trials)

    def test_nan_objective_quarantined(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        def sometimes_nan(config, budget=1):
            return float("nan") if config["x"] < 0.5 else _sphere(config)

        log = run_parallel(RandomSearch(_space(), seed=0), sometimes_nan, 20, 4,
                           constant_cost(1.0))
        assert len(log) == 20
        assert log.stats["quarantined"] > 0
        assert all(not np.isnan(t.value) for t in log.trials)
        assert sum(t.value == float("inf") for t in log.trials) == log.stats["quarantined"]

    def test_injected_nan_trials_quarantined_as_inf(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        inj = FaultInjector(nan_prob=0.3, seed=4)
        log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 20, 4,
                           constant_cost(1.0), injector=inj)
        assert log.stats["quarantined"] == inj.counts[NAN] > 0
        assert sum(t.value == float("inf") for t in log.trials) == inj.counts[NAN]

    def test_retry_backoff_extends_wallclock(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        def run(backoff, sync):
            inj = FaultInjector(crash_prob=0.3, seed=6)
            log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 20, 4,
                               constant_cost(1.0), sync=sync, injector=inj,
                               max_retries=4, retry_backoff=backoff)
            return max(t.sim_time for t in log.trials)

        for sync in (True, False):
            assert run(10.0, sync) > run(0.0, sync)


class TestWorkflowResilience:
    @pytest.fixture(scope="class")
    def cluster(self):
        return SimCluster.build("summit_era", 4)

    def test_training_job_with_faults(self, data, cluster, tmp_path):
        from repro.workflow import run_training_job

        x, y = data
        model = small_model()
        inj = FaultInjector(crash_steps=(4,), nan_steps=(2,), seed=0)
        rep = run_training_job(
            model, x, y, cluster, epochs=2, batch_size=16, loss="cross_entropy",
            faults=inj, checkpoint_dir=tmp_path,
        )
        r = rep.resilience
        assert r is not None
        assert r.restarts == 1 and r.nan_updates_skipped == 1
        assert r.checkpoints_written > 0
        assert rep.sim_total_time == pytest.approx(r.sim_total_time)
        assert rep.energy_joules > 0
        assert 0.0 < r.measured_efficiency <= 1.0

    def test_plain_training_job_has_no_resilience(self, data, cluster):
        from repro.workflow import run_training_job

        x, y = data
        rep = run_training_job(small_model(), x, y, cluster, epochs=1,
                               batch_size=32, loss="cross_entropy")
        assert rep.resilience is None

    def test_campaign_under_faults_completes_and_reports(self, tmp_path):
        from repro.hpo import Float, Int, SearchSpace
        from repro.workflow import run_campaign

        space = SearchSpace({
            "lr": Float(1e-4, 1e-2, log=True),
            "hidden1": Int(8, 32),
        })
        spec = FaultSpec(crash_prob=0.1, straggler_prob=0.1, nan_prob=0.05,
                         crash_steps=(6,), worker_loss_times=(3.0,), seed=7)
        rep = run_campaign(
            "p1b2", space, n_trials=8, n_workers=4, final_epochs=2,
            max_search_samples=120, faults=spec, seed=1, checkpoint_dir=tmp_path,
        )
        r = rep.resilience
        assert r is not None
        assert r.total_faults() > 0
        assert r.restarts >= 1  # the explicit crash in final training
        assert np.isfinite(rep.final_metric)
        assert "resilience[" in rep.summary()
        # Determinism: the same fault seed reproduces the same ledger.
        rep2 = run_campaign(
            "p1b2", space, n_trials=8, n_workers=4, final_epochs=2,
            max_search_samples=120, faults=spec, seed=1,
            checkpoint_dir=tmp_path / "again",
        )
        assert rep2.resilience.faults == r.faults
        assert rep2.final_metric == rep.final_metric

    def test_campaign_all_trials_lost_falls_back(self, tmp_path):
        from repro.hpo import Float, SearchSpace
        from repro.workflow import run_campaign

        space = SearchSpace({"lr": Float(1e-4, 1e-2, log=True)})
        # seed 0: every trial draws a NaN fault — the whole search is lost.
        spec = FaultSpec(nan_prob=0.97, seed=0)
        rep = run_campaign(
            "p1b2", space, n_trials=4, n_workers=2, final_epochs=1,
            max_search_samples=100, faults=spec, max_retries=0, seed=0,
            checkpoint_dir=tmp_path,
        )
        # Every trial died; the campaign still trained a fallback config.
        assert all(t.value == float("inf") for t in rep.search_log.trials)
        assert np.isfinite(rep.final_metric)
        assert "n/a" in rep.summary()


class TestDistributedResilience:
    @pytest.fixture(scope="class")
    def xy(self):
        d = make_tumor_expression(n_samples=120, n_genes=20, n_classes=4, seed=0)
        return d.x, d.y

    def test_sync_worker_crash_shrinks_replicas(self, xy):
        from repro.workflow import train_sync_data_parallel

        x, y = xy
        inj = FaultInjector(crash_prob=0.15, seed=1)
        res = train_sync_data_parallel(
            small_model(), x, y, n_workers=4, epochs=2, loss="cross_entropy",
            injector=inj,
        )
        assert res.workers_lost >= 1
        assert res.updates > 0
        assert all(np.isfinite(v) for v in res.epoch_losses)

    def test_sync_nan_contributions_dropped(self, xy):
        from repro.workflow import train_sync_data_parallel

        x, y = xy
        inj = FaultInjector(nan_prob=0.2, seed=2)
        res = train_sync_data_parallel(
            small_model(), x, y, n_workers=4, epochs=2, loss="cross_entropy",
            injector=inj,
        )
        assert res.dropped_updates > 0
        assert res.workers_lost == 0
        assert all(np.isfinite(v) for v in res.epoch_losses)

    def test_sync_faultless_path_unchanged(self, xy):
        """injector=None must be numerically identical to the seed code."""
        from repro.workflow import train_sync_data_parallel

        x, y = xy
        a = train_sync_data_parallel(small_model(), x, y, n_workers=3, epochs=2,
                                     loss="cross_entropy", seed=5)
        b = train_sync_data_parallel(small_model(), x, y, n_workers=3, epochs=2,
                                     loss="cross_entropy", seed=5)
        assert a.epoch_losses == b.epoch_losses
        assert a.dropped_updates == 0 and a.workers_lost == 0

    def test_async_poisoned_gradients_dropped(self, xy):
        from repro.workflow import train_async_sgd

        x, y = xy
        inj = FaultInjector(nan_prob=0.2, seed=3)
        res = train_async_sgd(small_model(), x, y, n_workers=2, staleness=1,
                              epochs=2, loss="cross_entropy", injector=inj)
        assert res.dropped_updates > 0
        assert all(np.isfinite(v) for v in res.epoch_losses)


class TestWorkerPoolFailure:
    def test_idle_worker_leaves_immediately(self):
        loop = EventLoop()
        pool = WorkerPool(loop, 3)
        assert pool.fail_worker() is not None
        assert pool.n_alive == 2
        assert pool.idle_workers == 2

    def test_busy_worker_finishes_then_leaves(self):
        loop = EventLoop()
        pool = WorkerPool(loop, 2)
        done = []
        pool.submit(1.0, lambda w: done.append(w))
        pool.submit(1.0, lambda w: done.append(w))
        pool.submit(1.0, lambda w: done.append(w))  # backlog
        failed = pool.fail_worker()
        assert failed is not None
        loop.run()
        # The failed worker completed its current job but did not pick up
        # the backlog; the survivor drained it.
        assert len(done) == 3
        assert pool.n_alive == 1

    def test_never_kills_last_worker(self):
        loop = EventLoop()
        pool = WorkerPool(loop, 2)
        assert pool.fail_worker() is not None
        assert pool.fail_worker() is None
        assert pool.n_alive == 1
