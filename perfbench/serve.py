"""Serve one saved artifact from a ``NetServer`` in a process of its own.

Usage: ``python3 perfbench/serve.py ARTIFACT.npz``.  Prints one JSON line
``{"port": ..., "pid": ...}`` once the server accepts connections, then
serves until its standard input closes, drains and exits.  The benchmark
starts it so that the server parent and its worker are processes apart
from the client, as in deployment.
"""

from __future__ import annotations

import json
import os
import sys


def main() -> int:
    from repro.runtime.net import NetServer

    server = NetServer(
        artifact_path=sys.argv[1], workers=1, transport="shm", max_protocol=2
    ).start()
    try:
        print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
        sys.stdin.read()  # returns when the benchmark closes our stdin
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
