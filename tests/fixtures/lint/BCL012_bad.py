# lint-path: src/repro/experiments/example.py
def run():
    span("job.run", key="k")
