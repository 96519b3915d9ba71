"""The cluster-host process: one ``ShardCluster(shards=1)`` driven over stdin.

Run as ``python3 e2ebench/host.py <run dir> <trace 0|1>`` with ``src`` on
``PYTHONPATH``.  The router is a thread of this process, so it never shares
an interpreter with the load generator.  With tracing on, the span wrappers
are installed before ``ShardCluster.start()``; the cluster forks its worker
(the default start method), so the worker inherits them.

Protocol: the host prints one JSON line ``{"router": [host, port]}`` once
the cluster is up, then answers each command line on stdin with one JSON
line:

* ``restart`` / ``kill`` -- ``restart_worker(0)`` cleanly or by SIGTERM;
* ``stop`` -- stop the cluster and report ``{"rss_mb": ...}``, the peak
  resident set of the largest worker it reaped.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    run_dir, trace = Path(argv[0]), argv[1] == "1"
    if trace:
        import spans

        spans.install(run_dir)
    from repro.serve.net import ShardCluster

    cluster = ShardCluster(shards=1, wal_root=run_dir / "wal", fsync=True)
    address = cluster.start()
    print(json.dumps({"router": list(address)}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command in ("restart", "kill"):
                worker = cluster.restart_worker(0, kill=command == "kill")
                print(json.dumps({"worker": list(worker)}), flush=True)
            elif command == "stop":
                break
    finally:
        cluster.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"rss_mb": peak_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
