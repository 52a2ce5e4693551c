"""One benchmark step, run by ``run.py`` in a fresh interpreter.

    child.py gen SPEC_JSON OUT_DIR           write the message files SPEC_JSON lists
    child.py run RESULT_JSON TRACE -- ARGV   import, then time ``mlofi.cli.main(ARGV)``

The program under test comes from ``PYTHONPATH``, which ``run.py`` points
at the checkout's ``src``. ``time.monotonic`` reads the system-wide
monotonic clock, so the parent subtracts its spawn time from
``import_done`` to get the set-up time of a fresh interpreter.

While ``run`` imports and calls the program, a ``HostSampler`` times a
fixed loop every 50 ms. The loop is benchmark code, not the program's, so
its time moves only with the speed the shared host gives this process at
that moment; ``run.py`` uses the mean over each phase to scale that
phase's times to a host of fixed speed.
"""

import datetime as dt
import json
import resource
import signal
import sys
import time

#: Wall-clock seconds between two host-speed ticks.
TICK_INTERVAL_S = 0.05


class HostSampler:
    """Times a fixed pure-Python loop on every ``SIGALRM`` of an interval timer.

    A tick takes about 0.1-0.16 ms, so the sampler adds about 0.3% to the
    phases it samples. The handler runs between the program's bytecodes, so
    the ticks spread over the whole phase rather than bracketing it.
    """

    def __init__(self):
        self.ticks_us: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        sum(i * i for i in range(1500))
        self.ticks_us.append((time.perf_counter() - start) * 1e6)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

    def take(self) -> list[float]:
        """The ticks since the last ``take``."""
        ticks, self.ticks_us = self.ticks_us, []
        return ticks

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def generate(spec_path: str, out_dir: str) -> None:
    from mlofi.lobster import SessionConfig, write_message_file
    from mlofi.synth import ZiParams, generate_zi_day

    with open(spec_path) as fh:
        spec = json.load(fh)
    session = SessionConfig(**spec["session"])
    for day in spec["days"]:
        date = dt.date.fromisoformat(day["date"])
        params = ZiParams(seed=day["seed"], **spec["zi"])
        events = generate_zi_day(params, session, date).events
        write_message_file(f"{out_dir}/SYN_{date.isoformat()}_message_10.csv", events)


def run(result_path: str, trace: bool, argv: list[str]) -> None:
    sampler = HostSampler()
    sampler.start()
    try:
        import mlofi.cli  # set-up ends when this import returns

        import_done = time.monotonic()
        setup_ticks = sampler.take()
        recorder = None
        if trace:
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        code = mlofi.cli.main(argv)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        call_ticks = sampler.take()
    finally:
        sampler.stop()
    result = {
        "import_done": import_done,
        "setup_ticks_us": setup_ticks,
        "call_ticks_us": call_ticks,
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mib": after.ru_maxrss / 1024.0,  # Linux reports KiB
        "versions": _versions(),
        "trace": recorder.summary() if recorder else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main(args: list[str]) -> int:
    mode = args[0]
    if mode == "gen":
        generate(args[1], args[2])
    elif mode == "run":
        if args[3] != "--":
            raise SystemExit("usage: child.py run RESULT_JSON TRACE -- ARGV")
        run(args[1], args[2] == "1", args[4:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
