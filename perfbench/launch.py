"""Run one command and print its wall time and peak RSS as JSON.

    python3 -S launch.py TIMEOUT_S LOG_PATH CWD -- ARGV...

The benchmark starts every child through this small process. On Linux a
child's ru_maxrss also counts the memory image it was forked from, so a
command forked straight from the benchmark process (numpy and scipy loaded)
would report the benchmark's footprint. Forked from here, it reports its own.
The peak comes from resource.getrusage(RUSAGE_CHILDREN); this process has no
other children. Only the standard library is imported, and no site packages.
"""

import json
import os
import resource
import signal
import sys
import time


def main(argv):
    timeout_s, log_path, cwd = float(argv[0]), argv[1], argv[2]
    command = argv[argv.index("--") + 1:]
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.chdir(cwd)
    start = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, log, 1), (os.POSIX_SPAWN_DUP2, log, 2)])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _, status = os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    os.close(log)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({"returncode": os.waitstatus_to_exitcode(status), "wall_s": wall,
                      "maxrss_kib": usage.ru_maxrss}))


if __name__ == "__main__":
    main(sys.argv[1:])
