"""Record the expected output of every job any seed can ask for.

Run from the repository root at a commit whose outputs are known good:

    python3 perfbench/record.py

It writes perfbench/expected/<workload>.json: for CLI jobs the exit code
and the exact stdout, keyed by the job's argument vector; for mix draws
the printed presentation of each blowup.  It refuses to record a job that
raises, writes to stderr, or (mix) has a failing report.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import workloads  # noqa: E402


def record_cli(name: str, workdir: Path) -> dict:
    argvs = workloads.all_cli_jobs(name)
    if name == "gauge":
        jobs.write_gauge_files(workdir, [a[1] for a in argvs])
    out = {}
    for argv in argvs:
        job = jobs.CliJob(argv, workdir)
        code, stdout, stderr, exc = job.run()
        if exc is not None or stderr or code not in (0, 1):
            raise SystemExit(f"refusing to record {job.key}: exit {code}, "
                             f"{exc or stderr.strip()}")
        out[job.key] = {"exit": code, "stdout": stdout}
    return out


def record_mix() -> dict:
    out = {}
    for draw in workloads.all_mix_draws():
        job = jobs.MixJob(*draw)
        texts, failed = job.run()
        if texts is None or failed:
            raise SystemExit(f"refusing to record {job.key}: {failed}")
        out[job.key] = texts
    return out


def main():
    jobs.load_neron()
    jobs.EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=jobs.HERE, prefix=".work-") as tmp:
        for name in workloads.WORKLOADS:
            data = record_mix() if name == "mix" else record_cli(name, Path(tmp))
            path = jobs.EXPECTED / f"{name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name}: {len(data)} jobs recorded in {path.name}")


if __name__ == "__main__":
    main()
