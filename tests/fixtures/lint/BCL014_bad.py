# lint-path: src/repro/engine/example.py
_PENDING = {}
_SEEN = {}


def _worker_entry(conn):
    _PENDING["job"] = conn


def _run_job(job):
    _SEEN[job] = True


def run_sweep(pool, jobs):
    return pool.map(_run_job, jobs)
