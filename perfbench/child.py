"""One measured child process: an ``fsdp`` CLI command or a library task.

Usage: ``python child.py JOB.json``.  The job file names the command
(``argv``, passed to ``fsdp.cli.main`` exactly as the ``fsdp`` console
script would) or the task (see ``tasks.TASKS``), whether to trace every
function, and where to write the result.  The parent measures this
process's wall time; this process reports its start-up time, peak RSS,
span summaries and check results.
"""

import json
import sys
import time


def _capture_hpi(fsdp, path):
    """Save the value and policy of each HPI solve (``fsdp bench`` writes neither)."""
    import numpy as np

    solve = fsdp.dp.solve_hpi

    def capture(*args, **kwargs):
        result = solve(*args, **kwargs)
        np.savez(path, value=result.value, policy=result.policy)
        return result

    fsdp.dp.solve_hpi = capture


def _peak_rss_mb():
    """This process's own peak RSS.

    ``VmHWM`` covers only the memory map made at ``exec``.  The
    ``ru_maxrss`` a parent reads with ``wait4`` also counts the parent's
    pages that the child held between fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import fsdp.cli

    startup = time.time() - job["launch"]
    import fsdp
    from tracing import Tracer

    tracer = Tracer(full=job["trace"])
    tracer.instrument(fsdp)
    out = {"startup_s": startup}
    if "argv" in job:
        argv = list(job["argv"])
        card = job.get("ci_card")
        if card:
            for key, value in fsdp.models.ZOO[card].ci_overrides.items():
                argv.append(f"--override={key}={json.dumps(value)}")
        if job.get("capture"):
            _capture_hpi(fsdp, job["capture"])
        out["exit"] = fsdp.cli.main(argv)
    else:
        import tasks

        out.update(tasks.TASKS[job["task"]](tracer, **job["params"]))
        out["exit"] = 0
    out.update(tracer.summary())
    if job.get("spans"):
        with open(job["spans"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps({k: job[k] for k in ("argv", "task") if k in job}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    out["peak_rss_mb"] = _peak_rss_mb()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return out["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
