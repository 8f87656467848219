"""One benchmark job: run it in-process, then check what it produced.

CLI jobs go through `neron.cli.main(argv)` with stdout and stderr captured.
Mix jobs call the public library functions through their modules'
attributes, so that the wrappers `tracing.Tracer` installs are the ones
called.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "golden"
SCHEMA = SRC / "neron" / "schema" / "report.v1.json"
EXPECTED = HERE / "expected"


class Unavailable(RuntimeError):
    """The program or its inputs are not in this checkout."""


def load_neron():
    """Import neron from this checkout's src/, which must exist even when
    another copy of neron is installed."""
    if not (SRC / "neron" / "__init__.py").is_file() or not GOLDEN.is_dir():
        raise Unavailable(f"no neron sources or golden/ under {ROOT}")
    sys.path.insert(0, str(SRC))
    import neron.cli  # noqa: F401  (the CLI imports every layer module)
    import neron.library  # noqa: F401
    return neron


def make_group(name: str):
    from neron import library
    ctor, params = workloads.GROUPS[name]
    args = [make_group(p) if isinstance(p, str) else p for p in params]
    return getattr(library, ctor)(*args)


# -- CLI jobs -------------------------------------------------------------------


class CliJob:
    """argv[1] names a file in golden/ or, under gen/, in the work area."""

    def __init__(self, argv, workdir: Path = None):
        self.key = shlex.join(argv)
        base = workdir if argv[1].startswith("gen/") else GOLDEN
        self.argv = [argv[0], str(base / argv[1])] + list(argv[2:])
        self.fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"

    def run(self):
        from neron import cli
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # an uncaught exception fails the job
                exc = f"{type(e).__name__}: {e}"
        return code, out.getvalue(), err.getvalue(), exc


def check_cli(job: CliJob, result, expected: dict, validator):
    """Reason the job failed, or None."""
    code, out, err, exc = result
    if exc is not None:
        return f"uncaught {exc}"
    want = expected.get(job.key)
    if want is None:
        return "no recorded output"
    if code != want["exit"]:
        return f"exit {code}, recorded {want['exit']}: {err.strip()[:200]}"
    if out != want["stdout"]:
        return "stdout differs from the recorded output"
    argv = shlex.split(job.key)
    relation = None
    if argv[0] == "auto-trunc" and argv[1] == "gm.grp":
        # independent of the recording: the Gm relation built by hand
        relation = workloads.gm_relation(int(argv[argv.index("--level") + 1]))
    if job.fmt == "json":
        try:
            payload = json.loads(out)
        except ValueError as e:
            return f"stdout is not JSON: {e}"
        problem = next(iter(validator.iter_errors(payload)), None)
        if problem is not None:
            return f"envelope breaks report.v1.json: {problem.message[:200]}"
        if payload["command"] != job.argv[0] or payload["ok"] != (code == 0):
            return "envelope command or ok flag disagrees with the run"
        if relation and payload["data"]["group"]["relations"] != [relation]:
            return f"Gm relation is not {relation}"
    elif relation and f"  relations: {relation};" not in out.splitlines():
        return f"Gm relation is not {relation}"
    return None


# -- mix jobs ---------------------------------------------------------------------


class MixJob:
    """Blow up a library group at a flat centre, maybe twice, and certify
    every result with check_hopf and check_flat."""

    def __init__(self, item: int, shift: int, second: bool):
        self.key = workloads.mix_key(item, shift, second)
        self.item, self.shift, self.second = item, shift, second

    def run(self):
        from neron import blowup, groebner, hopf, parser
        group, gens = workloads.MIX_MENU[self.item]
        try:
            h = make_group(group)
            centre = groebner.Ideal(h.ring, parser.parse_poly_list(
                workloads.mix_centre(gens, self.shift), h.ring))
            steps = [blowup.neron_blowup(h, centre)]
            if self.second:
                g = steps[0].blown
                unit = groebner.Ideal(g.ring, [g.ring.pi()] + g.aug_gens())
                steps.append(blowup.neron_blowup(g, unit))
            texts, failed = [], []
            for b in steps:
                for rep in (b.report, hopf.check_hopf(b.blown),
                            hopf.check_flat(b.blown)):
                    failed.extend(c.line() for c in rep.failures())
                texts.append(parser.print_group(b.blown))
        except Exception as e:
            return None, f"uncaught {type(e).__name__}: {e}"
        return texts, failed


def check_mix(job: MixJob, result, expected: dict):
    texts, failed = result
    if texts is None:
        return failed
    if failed:
        return "report not ok: " + failed[0]
    want = expected.get(job.key)
    if want is None:
        return "no recorded output"
    if texts != want:
        return "blown presentation differs from the recorded one"
    return None


# -- loading ----------------------------------------------------------------------


def build(name: str, seed: int, workdir: Path):
    """The jobs of one pass, and the inputs the setup probe parses.

    Gauge connections are written to workdir first.
    """
    if name == "mix":
        draws = workloads.mix_draws(seed)
        jobs = [MixJob(*d) for d in draws]
        probe = {"argv": [], "mix": [
            [workloads.MIX_MENU[i][0],
             workloads.mix_centre(workloads.MIX_MENU[i][1], s)] for i, s, _ in draws]}
        return jobs, probe
    argvs = workloads.cli_jobs(name, seed)
    if name == "gauge":
        write_gauge_files(workdir, [a[1] for a in argvs])
    jobs = [CliJob(a, workdir) for a in argvs]
    return jobs, {"argv": [j.argv for j in jobs], "mix": []}


def write_gauge_files(workdir: Path, names):
    wanted = set(names)
    for slot, a, b in workloads.all_gauge_files():
        name = workloads.gauge_name(slot, a, b)
        if name in wanted:
            path = workdir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(workloads.gauge_text(slot, a, b), encoding="utf-8")


def expected_outputs(name: str) -> dict:
    path = EXPECTED / f"{name}.json"
    if not path.is_file():
        raise Unavailable(f"no recorded outputs at {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def schema_validator():
    import jsonschema
    with open(SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def checker(name: str):
    """check(job, result) -> failure reason or None, for one workload."""
    expected = expected_outputs(name)
    if name == "mix":
        return lambda job, result: check_mix(job, result, expected)
    validator = schema_validator()
    return lambda job, result: check_cli(job, result, expected, validator)
