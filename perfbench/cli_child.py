"""Traced stand-in for `python -m nltraffic.cli`, run in a fresh process.

    python perfbench/cli_child.py SPANS_JSON <nltraffic arguments...>

Times `import nltraffic.cli` as a `cli.import` span, installs the layer
tracing, runs the command through `nltraffic.cli.main` (dispatch becomes a
`cli.dispatch.<subcommand>` span), writes the spans to SPANS_JSON and exits
with the command's exit code.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    import nltraffic.cli as cli

    tracer.close(span)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
