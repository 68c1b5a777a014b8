#!/usr/bin/env python3
"""Process launcher of the benchmark harness.

    python3 perfbench/spawner.py FD

run.py starts this first, while the harness is still small, and launches
every measured child through it.  Linux carries the peak RSS of a process
across fork and exec, so a child forked by the harness late in a run would
report the harness's own peak whenever that is the larger.  A child forked
from this small process reports its own peak.

Protocol over the SOCK_SEQPACKET socket FD: each request is a JSON object
with ``argv`` and ``cwd``, sent with two descriptors that become the child's
stdout and stderr.  The answer is ``{"pid": ...}`` once the child is
started, then ``{"code": ..., "maxrss_kb": ...}`` once it has been reaped.
The launcher exits when the socket is closed.
"""
import json
import os
import socket
import sys


def launch(argv: list[str], cwd: str, out: int, err: int) -> int:
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.closerange(3, os.sysconf("SC_OPEN_MAX"))
            os.chdir(cwd)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    return pid


def main() -> int:
    sock = socket.socket(fileno=int(sys.argv[1]))
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not msg:
            return 0
        req = json.loads(msg)
        pid = launch(req["argv"], req["cwd"], *fds)
        for fd in fds:
            os.close(fd)
        sock.send(json.dumps({"pid": pid}).encode())
        _, status, usage = os.wait4(pid, 0)
        sock.send(json.dumps({"code": os.waitstatus_to_exitcode(status),
                              "maxrss_kb": usage.ru_maxrss}).encode())


if __name__ == "__main__":
    sys.exit(main())
