#!/usr/bin/env python
"""Which functions under ``src/repro/`` no entry point ever runs.

    python benchmarks/reachability.py [--max-cold N]

Runs every real entry point, each in its own subprocess under a timeout —
every ``repro-slb`` subcommand at ``tiny`` scale, every ``examples/*.py``
with ``REPRO_EXAMPLE_MESSAGES=5000`` and ``bench/run.py --seconds 1`` —
with ``sys.setprofile`` recording each code object that is called.  Forked
children (the cluster runtime's workers, the suite's process pool) inherit
the profiler; ``os.register_at_fork`` gives each its own record, written
before ``os._exit``.  A function under ``src/repro/`` that no record holds
is *cold*: the report lists them by module, with the count.  With
``--max-cold N`` the script exits 1 when the total exceeds ``N``, so a
path nothing runs cannot be added unnoticed; it exits 2 when an entry
point fails or times out.  Stdlib only; the script reads the checkout it
lives in.
"""

from __future__ import annotations

import argparse
import inspect
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TIMEOUT_S = 900


def _entry_points(scratch: str) -> list[tuple[list[str], dict[str, str]]]:
    """``(argv, extra env)`` per entry point; argv runs under ``python``."""
    sys.path.insert(0, str(SRC))
    from repro.experiments.registry import list_experiments
    from repro.scenarios.catalog import list_scenarios

    cli = ["-m", "repro.cli"]
    scenario = list_scenarios()[0]
    results = ["--results-dir", os.path.join(scratch, "results")]
    runs = [cli + ["list"]]
    runs += [cli + ["run", name, "--scale", "tiny"] for name in list_experiments()]
    runs += [
        cli + ["simulate", "--messages", "20000"],
        cli + ["simulate", "--messages", "20000", "--rescale", "join@5000,fail@12000"],
        # The per-message oracle's own rescale: its key sets and the
        # misroute window are read only here.
        cli + ["simulate", "--messages", "20000", "--mode", "scalar",
               "--rescale", "join@5000,fail@12000"],
        cli + ["scenario", "list"],
        cli + ["scenario", "show", scenario],
        cli + ["scenario", "run", scenario, "--messages", "20000"],
        cli + ["cluster-run", "--messages", "20000", "--validate"],
        # Slow enough that the crash lands mid-stream and is respawned.
        cli + ["cluster-run", "--messages", "100000", "--service-ns", "20000",
               "--inject", "crash@w1:2000", "--max-restarts", "1", "--validate"],
        cli + ["suite", "run", "--scale", "tiny", "--jobs", "2"] + results,
        cli + ["suite", "report"] + results,
        cli + ["suite", "clean"] + results,
    ]
    entries = [(argv, {}) for argv in runs]
    entries += [
        ([str(path)], {"REPRO_EXAMPLE_MESSAGES": "5000"})
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    entries.append(([str(ROOT / "bench" / "run.py"), "--seconds", "1"], {}))
    return entries


def _probe(record: str, argv: list[str]) -> None:
    """Run ``argv`` in this process, writing every called code object's key."""
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump() -> None:
        with open(f"{record}.{os.getpid()}", "w") as out:
            for code in seen:
                out.write(f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n")

    def exit_after_dump(code: int, _exit=os._exit) -> None:
        sys.setprofile(None)
        dump()
        _exit(code)

    def forked() -> None:
        seen.clear()
        os._exit = exit_after_dump

    os.register_at_fork(after_in_child=forked)
    # As the interpreter would: runpy rewrites argv[0]; path[0] is the
    # script's directory, or the working directory under -m.
    sys.argv = argv[1:] if argv[0] == "-m" else argv
    sys.path[0] = os.getcwd() if argv[0] == "-m" else os.path.dirname(argv[0])
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.setprofile(None)
        dump()


def _functions() -> dict[tuple[str, int, str], str]:
    """Every named function under the package: key -> ``module:qualname``.

    Only function code objects count (``CO_NEWLOCALS``): a class body is
    code too, named after its class, but it runs when its module is
    imported, so counting it would tie the cold total to the import graph.
    """
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                name = getattr(code, "co_qualname", code.co_name)
                found[(str(path), code.co_firstlineno, code.co_name)] = f"{module}:{name}"
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-cold", type=int, default=None, metavar="N",
                        help="exit 1 when more than N functions are cold")
    args = parser.parse_args(argv)
    failures = []
    hot: set[tuple[str, int, str]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        record = os.path.join(scratch, "record")
        for index, (entry, extra) in enumerate(_entry_points(scratch)):
            env = {**os.environ, **extra, "PYTHONPATH": str(SRC)}
            command = [sys.executable, __file__, "--probe", f"{record}{index}", *entry]
            print(f"running {' '.join(entry)}", file=sys.stderr, flush=True)
            try:
                done = subprocess.run(command, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            except subprocess.TimeoutExpired:
                failures.append(f"timed out: {' '.join(entry)}")
                continue
            if done.returncode != 0:
                failures.append(f"exit {done.returncode}: {' '.join(entry)}\n"
                                + done.stderr.decode(errors="replace")[-2000:])
        for path in Path(scratch).glob("record*"):
            for line in path.read_text().splitlines():
                filename, lineno, name = line.split("\t")
                hot.add((filename, int(lineno), name))
    functions = _functions()
    cold: dict[str, list[str]] = defaultdict(list)
    for key, label in functions.items():
        if key not in hot:
            module, _, name = label.partition(":")
            cold[module].append(name)
    total = sum(len(names) for names in cold.values())
    for module in sorted(cold, key=lambda m: (-len(cold[m]), m)):
        print(f"{len(cold[module]):4d}  {module}: {', '.join(sorted(cold[module]))}")
    print(f"total: {total} cold of {len(functions)} functions under src/repro/")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if failures:
        return 2
    return 1 if args.max_cold is not None and total > args.max_cold else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        _probe(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(main())
