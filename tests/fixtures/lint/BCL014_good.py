# lint-path: src/repro/engine/example.py
def _worker_entry(conn):
    pending = {}
    pending["job"] = conn


def _run_job(job):
    seen = {}
    seen[job] = True
    return seen


def run_sweep(pool, jobs):
    return pool.map(_run_job, jobs)
