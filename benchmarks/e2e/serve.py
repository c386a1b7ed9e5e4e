"""The server side of ``http_serving``: one QueryServer, own process.

Started by ``sessions.ServerProcess`` so the load generator and the
server do not share a GIL.  Prints the bound port on stdout, then
serves until SIGTERM or until stdin closes — the parent holds the
write end, so the server also goes away when the parent dies.
"""

import asyncio
import os
import signal
import sys
import threading

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


async def serve() -> None:
    from repro.server import QueryServer

    # All defaults: what a user who types QueryServer() gets.
    server = await QueryServer(host="127.0.0.1", port=0).start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def watch_parent() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=watch_parent, daemon=True).start()
    print(server.port, flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


if __name__ == "__main__":
    if len(sys.argv) > 1:  # pin before any thread exists, so all inherit it
        os.sched_setaffinity(0, {int(sys.argv[1])})
    sys.path.insert(0, SRC)
    asyncio.run(serve())
