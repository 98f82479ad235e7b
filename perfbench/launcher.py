"""Traced ``repro serve``: install the span wrappers, then serve.

Usage: ``python3 perfbench/launcher.py SPANS.json [repro serve args...]``

Runs the real ``repro serve`` entry point in this process with the
:mod:`spans` recorder installed, and writes every recorded span to
``SPANS.json`` once the server has drained and returned.
"""

import sys

from common import use_source_tree
from spans import Recorder


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    use_source_tree()
    from repro.cli import main as repro_main

    recorder = Recorder()
    recorder.install()
    try:
        rc = repro_main(["serve"] + serve_args)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
