# lint-path: src/repro/experiments/example.py
def run():
    with span("job.run", key="k"):
        pass
