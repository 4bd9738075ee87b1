"""Child-process entry of the benchmark; run by run.py, not by hand.

    python bench/child.py import
        prints {"import_s": ...}, the time of a fresh ``import aggremin``;
    python bench/child.py cli <prefix> <aggremin arguments...>
        imports aggremin, wraps its public names (tracing.py), runs
        ``aggremin.cli.main`` on the arguments and exits with its code;
        writes the spans to <prefix>.npz and the import and main times to
        <prefix>.json.

PYTHONPATH must lead to the package's sources.
"""

import json
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    t0 = time.perf_counter()
    import aggremin

    import_s = time.perf_counter() - t0
    if mode == "import":
        print(json.dumps({"import_s": import_s}))
        return 0
    import aggremin.cli
    import tracing

    prefix, args = sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        rc = aggremin.cli.main(args)
    finally:
        main_s = time.perf_counter() - t1
        tracer.uninstall()
        tracer.spans().save(prefix + ".npz")
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "main_s": main_s, "command": args[0],
                       "absent": tracer.absent}, fh)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
