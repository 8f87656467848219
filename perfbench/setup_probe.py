"""Set-up probe, run in a fresh interpreter by run.py.

It does what every CLI call pays before its first job: import neron,
build the CLI parser and parse the workload's inputs.  The inputs arrive
as JSON on stdin: {"argv": [...], "mix": [[group, centre], ...]}.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

spec = json.load(sys.stdin)

from neron import cli  # noqa: E402
from neron.parser import parse, parse_poly_list  # noqa: E402

parser = cli.build_parser()
for argv in spec["argv"]:
    args = parser.parse_args(argv)
    with open(args.file, encoding="utf-8") as fh:
        parse(fh.read())
if spec["mix"]:
    from jobs import make_group
    for group, centre in spec["mix"]:
        parse_poly_list(centre, make_group(group).ring)
