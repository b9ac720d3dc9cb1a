"""Start a server, drive one pass of a plan over TCP, check every reply.

The latency clock of a request starts just before its bytes are written
and stops when the raw bytes of the reply's final line have been read;
replies are kept raw and parsed and verified only after the pass's
timed phase has ended.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Plan, Request, Workload, table_digest

HERE = Path(__file__).resolve().parent

#: Seconds a server gets to build its database and bind its socket.
READY_TIMEOUT = 120.0
#: Seconds one reply may take before the request counts as failed.
REPLY_TIMEOUT = 120.0
#: Seconds a server gets to exit after stdin closes, before the kill.
STOP_GRACE = 20.0

_TICKS = os.sysconf("SC_CLK_TCK")


class ServerCrashed(RuntimeError):
    """The server under test died or never became ready."""


class ServerProcess:
    """One ``server.py`` subprocess; always stopped by :meth:`stop`."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        trace: bool,
    ) -> None:
        command = [
            sys.executable, str(HERE / "server.py"),
            "--vocabulary", workload.vocabulary,
            "--n", str(workload.n),
            "--p", str(workload.p),
            "--seed", str(seed),
            "--trace", str(int(trace)),
        ]
        if workload.chunk_rows is not None:
            command += ["--chunk-rows", str(workload.chunk_rows)]
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self._output: tuple[bytes, bytes] | None = None

    def wait_ready(self) -> int:
        """Block until the handshake line; returns the bound port."""
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], READY_TIMEOUT)
        line = stdout.readline() if ready else b""
        if not line:
            raise ServerCrashed("server did not report a port")
        return json.loads(line)["port"]

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the server so far."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerCrashed("no VmHWM for the server process")

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far."""
        with open(f"/proc/{self.process.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def stop(self) -> tuple[bytes, bytes]:
        """Close stdin, wait, kill after the grace period; idempotent."""
        if self._output is None:
            try:
                self._output = self.process.communicate(timeout=STOP_GRACE)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self._output = self.process.communicate()
        return self._output

    def exit_report(self) -> str:
        """Stop, then the exit code and stderr tail for an error message."""
        _, stderr = self.stop()
        tail = stderr.decode(errors="replace").strip().splitlines()[-12:]
        return (
            f"server exit code {self.process.returncode}; stderr tail:\n"
            + "\n".join(tail)
        )

    def stop_for_trace(self) -> dict:
        """Stop cleanly and return the trace dump (``{}`` untraced)."""
        stdout, _ = self.stop()
        if self.process.returncode != 0:
            raise ServerCrashed(self.exit_report())
        return json.loads(stdout.splitlines()[-1])


class Connection:
    """One blocking client connection speaking JSON lines."""

    def __init__(self, port: int) -> None:
        self.socket = socket.create_connection(
            ("127.0.0.1", port), timeout=REPLY_TIMEOUT
        )
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.socket.makefile("rb")

    def exchange(self, line: bytes) -> tuple[float, float, list[bytes]]:
        """Send one request; returns (start, end, reply lines).

        A streamed reply is several ``{"batch": ...}`` lines and then
        the summary; only the first bytes of a line are looked at
        inside the clock.
        """
        lines: list[bytes] = []
        start = time.perf_counter()
        self.socket.sendall(line)
        while True:
            reply = self.reader.readline()
            if not reply:
                raise ConnectionError("server closed the connection")
            lines.append(reply)
            if not reply.startswith(b'{"batch"'):
                return start, time.perf_counter(), lines

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


@dataclass
class Record:
    """One request as the client saw it."""

    request: Request
    start: float = 0.0
    end: float = 0.0
    lines: list[bytes] = field(default_factory=list)
    #: why the request failed (None = correct reply)
    failure: str | None = None
    #: the parsed final line without its answers (set by verification)
    summary: dict | None = None
    reply_bytes: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class PassResult:
    """One pass: one server's life."""

    traced: bool
    setup_seconds: float
    timed_seconds: float
    records: list[Record]
    peak_rss_mib: float
    server_cpu_seconds: float
    client_cpu_seconds: float
    stats_before: dict
    stats_after: dict
    trace: dict


def _drive(connection: Connection, requests: list[Request]) -> list[Record]:
    """Closed loop; a dead connection fails the rest."""
    records = [Record(request) for request in requests]
    for index, record in enumerate(records):
        try:
            record.start, record.end, record.lines = connection.exchange(
                record.request.line
            )
        except OSError as error:  # timeout, reset, closed
            for unsent in records[index:]:
                unsent.failure = f"connection: {error}"
            break
    return records


def _stats(connection: Connection) -> dict:
    _, _, lines = connection.exchange(b'{"op":"stats"}\n')
    return json.loads(lines[-1])


def run_pass(
    workload: Workload,
    plan: Plan,
    seed: int,
    traced: bool,
) -> PassResult:
    """Fresh server, warm-up, timed requests + write tail, shutdown."""
    setup_start = time.perf_counter()
    server = ServerProcess(workload, seed, traced)
    connection: Connection | None = None
    try:
        connection = Connection(server.wait_ready())
        records = _drive(connection, plan.warmup)
        stats_before = _stats(connection)
        setup_seconds = time.perf_counter() - setup_start

        server_cpu = server.cpu_seconds()
        client_cpu = time.process_time()
        timed_start = time.perf_counter()
        records += _drive(connection, plan.timed)
        records += _drive(connection, plan.tail)
        timed_seconds = time.perf_counter() - timed_start
        client_cpu = time.process_time() - client_cpu
        server_cpu = server.cpu_seconds() - server_cpu

        stats_after = _stats(connection)
        peak_rss_mib = server.peak_rss_mib()
        trace = server.stop_for_trace()
    except (OSError, ValueError, ServerCrashed) as error:
        raise ServerCrashed(
            f"{workload.name}: {error}; {server.exit_report()}"
        ) from error
    finally:
        if connection is not None:
            connection.close()
        server.stop()
    for record in records:
        verify(record)
    return PassResult(
        traced=traced,
        setup_seconds=setup_seconds,
        timed_seconds=timed_seconds,
        records=records,
        peak_rss_mib=peak_rss_mib,
        server_cpu_seconds=server_cpu,
        client_cpu_seconds=client_cpu,
        stats_before=stats_before,
        stats_after=stats_after,
        trace=trace,
    )


def verify(record: Record) -> None:
    """Parse a record's raw reply and set ``failure`` unless it is right.

    Also drops the raw lines (a pass of ``cached_mix`` holds ~100 MB of
    them) after noting their size.
    """
    lines, record.lines = record.lines, []
    if record.failure is not None:
        return
    request = record.request
    expected = request.expected
    try:
        line = lines[-1]
        # The usual case: the answers are byte for byte the expected
        # ones, and only the rest of the line needs parsing.
        inlined = expected is not None and expected.inlined in line
        if inlined:
            line = line.replace(expected.inlined, b'"answers":null')
        summary = json.loads(line)
        answers = summary.pop("answers", None)
        # ``elapsed_ms`` is the one field whose width varies from run
        # to run; without it the byte count repeats exactly.
        record.reply_bytes = sum(map(len, lines)) - len(
            json.dumps(summary.get("elapsed_ms", ""))
        )
        record.summary = summary
        if summary.get("ok") is not True:
            record.failure = f"error reply: {summary.get('error')}"
        elif summary.get("id") != request.id:
            record.failure = f"reply to request {summary.get('id')}"
        elif request.op == "ping":
            if summary.get("pong") is not True:
                record.failure = "no pong"
        elif summary.get("version") != request.version:
            record.failure = (
                f"version {summary.get('version')}, "
                f"expected {request.version}"
            )
        elif request.op == "query":
            if request.stream_batch is not None:
                answers = [
                    row
                    for line in lines[:-1]
                    for row in json.loads(line)["batch"]
                ]
                batches = -(-expected.count // request.stream_batch)
                if summary.get("done") is not True or (
                    summary.get("batches") != batches
                    or len(lines) - 1 != batches
                ):
                    record.failure = "stream not closed by its summary"
                    return
            if summary.get("count") != expected.count or not (
                inlined
                or answers is not None and len(answers) == expected.count
            ):
                record.failure = (
                    f"count {summary.get('count')}, "
                    f"expected {expected.count}"
                )
            elif not inlined and table_digest(answers) != expected.digest:
                record.failure = "wrong answers"
        elif summary.get("rows") != 1:
            record.failure = f"write applied {summary.get('rows')} rows"
    except (ValueError, KeyError, TypeError, IndexError) as error:
        record.failure = f"unreadable reply: {error!r}"
