"""Records every function under one source tree that a process enters.

Installed as a ``usercustomize`` module (see ``tests/test_reachability.py``),
so every Python process started with its ``PYTHONUSERBASE`` — the root
itself and the children it spawns with an environment of their own —
loads it before ``__main__``.  With ``REPRO_REACH_SRC`` (a directory) and
``REPRO_REACH_OUT`` (a directory) set, it installs one profile hook
through ``sys.setprofile`` and ``threading.setprofile``; simmpi's rank
threads are raw ``_thread`` births whose entry point installs the
``threading`` hook itself.  A ``call`` event records its code object and
its caller's; at exit the process writes ``(file, co_qualname,
co_firstlineno)`` of every recorded code object under the source tree
to ``REPRO_REACH_OUT/<pid>.json``.  Profile events, not line tracing: a
process pays two set insertions per call.
"""

import atexit
import json
import os
import sys
import threading


def _install(src: str, out: str) -> None:
    codes = set()
    add = codes.add

    def hook(frame, event, arg):
        # The caller too: a function that installed the hook itself (the
        # scheduler's rank entry) is seen through what it calls next.
        if event == "call":
            add(frame.f_code)
            back = frame.f_back
            if back is not None:
                add(back.f_code)

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        rows = sorted(
            (c.co_filename, getattr(c, "co_qualname", c.co_name), c.co_firstlineno)
            for c in list(codes)
            if c.co_filename.startswith(src)
        )
        with open(os.path.join(out, f"{os.getpid()}.json"), "w") as fh:
            json.dump(rows, fh)

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


if os.environ.get("REPRO_REACH_SRC") and os.environ.get("REPRO_REACH_OUT"):
    _install(os.environ["REPRO_REACH_SRC"], os.environ["REPRO_REACH_OUT"])
