"""The server under test, as the harness starts it.

One process = one database + one ``repro.connect`` session served by
``repro.serve.rpc.RpcServer`` on an ephemeral port.  The protocol with
the parent is two lines on stdout:

1. after the socket is bound: ``{"port": N}``;
2. after stdin reaches end of file (the parent's "shut down"): the
   trace dump of :mod:`trace` when ``--trace 1``, else ``{}``.

Closing stdin is also what happens when the parent dies, so a server
never outlives its harness.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: The two vocabularies the workloads query.
VOCABULARIES = {
    "C3": "S1(x,y), S2(y,z), S3(z,x)",
    "L8": (
        "S1(a,b), S2(b,c), S3(c,d), S4(d,e), "
        "S5(e,f), S6(f,g), S7(g,h), S8(h,i)"
    ),
}


def build_database(vocabulary: str, n: int, seed: int):
    """The matching database both the server and the oracle start from."""
    from repro.core.query import parse_query
    from repro.data.generators import matching_database_columnar

    return matching_database_columnar(
        parse_query(VOCABULARIES[vocabulary]), n, seed=seed, backend="numpy"
    )


async def serve(session, tracer) -> None:
    from repro.serve.rpc import RpcServer

    server = RpcServer(session, port=0)
    _, port = await server.start()
    print(json.dumps({"port": port}), flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.buffer.read
        )
    finally:
        await server.close()
        session.close()
    print(json.dumps(tracer.dump() if tracer is not None else {}), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vocabulary", choices=VOCABULARIES, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chunk-rows", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import repro

    tracer = None
    if args.trace:
        from trace import Tracer

        tracer = Tracer()
        tracer.install()
    session = repro.connect(
        build_database(args.vocabulary, args.n, args.seed),
        p=args.p,
        backend="numpy",
        chunk_rows=args.chunk_rows,
    )
    asyncio.run(serve(session, tracer))


if __name__ == "__main__":
    main()
