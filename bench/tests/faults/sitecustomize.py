"""Faults injected into the system under test, for ``test_faults.py``.

With this directory on ``PYTHONPATH`` every Python process imports this
module at start-up.  It does nothing unless ``BENCH_FAULT`` names a
fault; then it patches one function of the system so that the
benchmark's correctness checks have damage to catch.
"""

import os


def _nth_process() -> int:
    """1 for the first process started under ``BENCH_FAULT_DIR``, 2 next..."""
    directory = os.environ["BENCH_FAULT_DIR"]
    count = len(os.listdir(directory)) + 1
    open(os.path.join(directory, str(os.getpid())), "w").close()
    return count


def _inject(fault: str) -> None:
    import dataclasses
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))
    from repro.gateway import runtime, workers
    from repro.server import dedup, sessions

    decode = workers.decode_packet_window

    def patch_outcomes(change):
        def patched(job, *args, **kwargs):
            return change(decode(job, *args, **kwargs))

        workers.decode_packet_window = patched

    def first_crc_ok(change):
        """Apply ``change`` to the first CRC-verified outcome only."""
        done = []

        def once(o):
            if o.crc_ok and not done:
                done.append(o)
                return change(o)
            return o

        patch_outcomes(once)

    if fault == "decode-error":
        patch_outcomes(
            lambda o: dataclasses.replace(o, error="injected") if o.job_id == 0 else o
        )
    elif fault == "phantom-payload":
        first_crc_ok(
            lambda o: dataclasses.replace(o, payload=bytes(b ^ 0xFF for b in o.payload))
        )
    elif fault == "nondeterminism":
        if _nth_process() == 2:
            first_crc_ok(lambda o: dataclasses.replace(o, crc_ok=False))
    elif fault == "lost-chunk":
        run = runtime.Gateway.run

        class Lossy:
            def __init__(self, source):
                self.params = source.params
                self._source = source

            def chunks(self):
                for index, chunk in enumerate(self._source.chunks()):
                    if index != 1:
                        yield chunk

        runtime.Gateway.run = lambda self, source: run(self, Lossy(source))
    elif fault == "lost-uplink":
        offer = dedup.FrameDeduplicator.offer
        dedup.FrameDeduplicator.offer = (
            lambda self, frame: [] if frame.key == (0, 0) else offer(self, frame)
        )
    elif fault == "replay":
        observe = sessions.DeviceRegistry.observe

        def replayed(self, delivered):
            session, verdict = observe(self, delivered)
            if delivered.frame.key == (1, 1):
                session.n_replays += 1
                return session, "replay"
            return session, verdict

        sessions.DeviceRegistry.observe = replayed
    else:
        raise ValueError(f"unknown fault {fault!r}")


if os.environ.get("BENCH_FAULT"):
    _inject(os.environ["BENCH_FAULT"])
