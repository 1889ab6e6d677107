import re

from hypothesis import settings

# Property tests run the same examples on every run and have no time limit.
settings.register_profile("skewcodes", deadline=None, derandomize=True)
settings.load_profile("skewcodes")


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    results = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call":
                continue
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                              report.nodeid)
            if match:
                num = int(match.group(1))
                state = "PASS" if status == "passed" else "FAIL"
                if results.get(num, ("PASS",))[0] != "FAIL":
                    results[num] = (state, report.nodeid)
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(results):
            state, nodeid = results[num]
            name = nodeid.split("::")[-1]
            terminalreporter.write_line(f"criterion {num:2d}: {state}  ({name})")
