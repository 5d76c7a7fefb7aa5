"""JobStore: lifecycle transitions, spooling, cwd-independence."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.errors import ConfigError
from repro.service.jobs import JOB_STATUSES, JobStore


def request():
    return api.EstimateRequest(workload="analytic-linear", spec=4.0, budget=500)


def result():
    return api.estimate(request())


class TestLifecycle:
    def test_create_assigns_sequential_ids(self):
        store = JobStore()
        try:
            a, b = store.create(request()), store.create(request())
            assert a.job_id == "job-000001" and b.job_id == "job-000002"
            assert [j.job_id for j in store.jobs()] == [a.job_id, b.job_id]
            assert store.counts()["queued"] == 2
        finally:
            store.close()

    def test_done_path(self):
        store = JobStore()
        try:
            job = store.create(request())
            assert store.mark_running(job, granted_workers=2)
            store.mark_done(job, result())
            assert job.status == "done" and job.settled
            assert job.granted_workers == 2
            assert job.finished_s >= job.started_s >= job.submitted_s
        finally:
            store.close()

    def test_cancel_only_from_queued(self):
        store = JobStore()
        try:
            job = store.create(request())
            assert store.mark_cancelled(job, "test")
            assert job.status == "cancelled"
            assert not store.mark_running(job, granted_workers=1)

            running = store.create(request())
            store.mark_running(running, granted_workers=1)
            assert not store.mark_cancelled(running, "too late")
            assert running.status == "running"
        finally:
            store.close()

    def test_failed_records_error(self):
        store = JobStore()
        try:
            job = store.create(request())
            store.mark_running(job, granted_workers=1)
            store.mark_failed(job, {"code": "A003", "message": "boom"})
            assert job.status == "failed"
            assert job.to_json()["error"]["code"] == "A003"
        finally:
            store.close()

    def test_counts_match_a_recount_after_every_transition(self):
        """counts() reads per-status counters; they must equal a walk
        over the jobs after queued, running, done, failed, cancelled and
        refused transitions alike."""
        store = JobStore()

        def recount():
            counts = {status: 0 for status in JOB_STATUSES}
            for job in store.jobs():
                counts[job.status] += 1
            return counts

        try:
            jobs = [store.create(request()) for _ in range(5)]
            assert store.counts() == recount()
            steps = [
                lambda: store.mark_running(jobs[0], granted_workers=1),
                lambda: store.mark_done(jobs[0], result()),
                lambda: store.mark_running(jobs[1], granted_workers=1),
                lambda: store.mark_failed(jobs[1], {"code": "A003", "message": "x"}),
                lambda: store.mark_cancelled(jobs[2], "test"),
                lambda: store.mark_running(jobs[2], granted_workers=1),  # refused
                lambda: store.mark_running(jobs[3], granted_workers=1),
                lambda: store.mark_cancelled(jobs[3], "too late"),  # refused
            ]
            for step in steps:
                step()
                assert store.counts() == recount()
            assert store.counts() == {
                "queued": 1, "running": 1, "done": 1, "failed": 1, "cancelled": 1,
            }
        finally:
            store.close()


class TestSpool:
    def test_default_spool_is_private_and_removed(self):
        store = JobStore()
        spool = store.spool_dir
        job = store.create(request())
        store.mark_running(job, granted_workers=1)
        store.mark_done(job, result())
        spooled = json.loads((spool / f"{job.job_id}.json").read_text())
        assert spooled["status"] == "done"
        assert spooled["result"]["p_fail"] == job.result.p_fail
        store.close()
        assert not spool.exists()

    def test_default_spool_is_cwd_independent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = JobStore()
        try:
            assert tmp_path not in store.spool_dir.parents
            assert not list(tmp_path.iterdir())
        finally:
            store.close()

    def test_configured_spool_is_kept(self, tmp_path):
        spool = tmp_path / "spool"
        store = JobStore(spool_dir=spool)
        job = store.create(request())
        store.mark_running(job, granted_workers=1)
        store.mark_done(job, result())
        store.close()
        assert (spool / f"{job.job_id}.json").exists()  # not owned: kept

    def test_unwritable_spool_is_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ConfigError):
            JobStore(spool_dir=blocker / "nested")  # a file cannot be a dir

    def test_envelope_shape(self):
        store = JobStore()
        try:
            job = store.create(request())
            doc = job.to_json()
            assert doc["status"] == "queued"
            assert doc["request"]["workload"] == "analytic-linear"
            assert doc["prepare_s"] is None
            assert "result" not in doc and "error" not in doc
        finally:
            store.close()
