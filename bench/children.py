"""Child processes of the benchmark: one-shot CLI runs and prover servers.

Every child is started through :class:`Children`, which remembers it until
it has been reaped, so :meth:`Children.stop_all` can kill and wait for all
of them on success, on failure and on interrupt.  Children are reaped
with ``os.wait4``, whose resource usage gives each one's peak resident set
size (the kernel's ``VmHWM``) without racing its exit.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time


class ChildError(RuntimeError):
    """A child process failed, timed out or printed something unexpected."""


class Child:
    def __init__(self, argv, env, cwd):
        self.argv = argv
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=cwd,
        )
        self.output = b""
        self.maxrss_kb = None

    @property
    def pid(self):
        return self.proc.pid

    def read_until(self, marker, deadline):
        """Read output until a line starting with ``marker`` or EOF; return
        that line (without the newline) or None at EOF."""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                lines = self.output.split(b"\n")
                for line in lines[:-1]:
                    if marker is not None and line.startswith(marker):
                        return line.decode()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChildError(f"timed out: {' '.join(self.argv[3:5])}")
                if not sel.select(remaining):
                    continue
                chunk = os.read(fd, 65536)
                if not chunk:
                    return None
                self.output += chunk

    def reap(self, sig=None, grace=5.0):
        """Wait for exit, after sending ``sig`` if given; a child still
        running ``grace`` seconds after the signal is killed.  Returns the
        exit code."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        if sig is None:
            _, status, usage = os.wait4(self.pid, 0)
        else:
            os.kill(self.pid, sig)  # not Popen.send_signal: its poll() would reap
            deadline = time.monotonic() + grace
            while True:
                pid, status, usage = os.wait4(self.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() >= deadline:
                    os.kill(self.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(self.pid, 0)
                    break
                time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()
        return self.proc.returncode


class Children:
    """Starts ``python -m storen`` children against the checkout's sources."""

    def __init__(self, src_dir, cwd):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src_dir
        self.env.pop("STOREN_TIMEOUT_MS", None)
        self.cwd = cwd
        self.live = []

    def cli_argv(self, *args):
        return [sys.executable, "-m", "storen", *map(str, args)]

    def start(self, argv):
        child = Child(argv, self.env, self.cwd)
        self.live.append(child)
        return child

    def run(self, argv, timeout=120.0):
        """Run to completion; returns (exit code, output, wall seconds,
        peak RSS in KiB)."""
        child = self.start(argv)
        try:
            child.read_until(None, time.monotonic() + timeout)
            code = child.reap()
            wall = time.perf_counter() - child.started
        finally:
            self.stop(child)
        return code, child.output.decode(errors="replace"), wall, child.maxrss_kb

    def run_cli(self, *args, timeout=120.0):
        return self.run(self.cli_argv(*args), timeout)

    def start_server(self, *args, timeout=120.0):
        """Start ``storen serve`` and wait for its ``listening on`` line.

        Returns (child, (host, port))."""
        child = self.start(self.cli_argv("serve", *args))
        line = child.read_until(b"listening on ", time.monotonic() + timeout)
        if line is None:
            self.stop(child)
            raise ChildError(
                "serve exited before listening: "
                + child.output.decode(errors="replace").strip()
            )
        host, _, port = line[len("listening on "):].rpartition(":")
        return child, (host, int(port))

    def stop(self, child):
        """Terminate (if still running) and reap one child."""
        try:
            child.reap(signal.SIGTERM)
        finally:
            if child in self.live:
                self.live.remove(child)
        return child.maxrss_kb

    def stop_all(self):
        while self.live:
            self.stop(self.live[-1])
