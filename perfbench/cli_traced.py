"""Run the spps CLI with layer tracing and dump the spans as JSON.

Usage: python perfbench/cli_traced.py SPANS_OUT --config CONFIG.json

Used by traced cli-cold runs in place of `python -m spps.cli`; the exit
code is the CLI's.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import spps.cli
    tracer = Tracer()
    install(tracer)
    tracer.op = 0          # the whole process is one op
    code = spps.cli.main(argv)
    with open(out, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
