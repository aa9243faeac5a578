"""``repro serve`` with the benchmark's layer spans installed.

    PYTHONPATH=src python3 perfbench/serve_traced.py --workers 0 --trace PATH

Arguments are passed to ``repro serve`` unchanged. The traced
serve-edit run starts the server this way, so the server's Chrome
trace holds the layer spans next to the program's own spans.
"""

import sys

import layers
from repro.cli import main
from repro.obs import trace as obs_trace

if __name__ == "__main__":
    layers.install()
    # Installed before `serve --trace` enables its own: a larger buffer
    # so no span of the traced schedule is dropped.
    obs_trace.enable(buffer=1 << 22)
    sys.exit(main(["serve", *sys.argv[1:]]))
