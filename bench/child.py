"""One benchmark invocation of the symext CLI, in its own process.

Does what `symext --spec ... --jobs 1` does, through the same public
entry points (`parse_instance_spec`, then `run_checks`), and writes a
small JSON record of clock readings to the path given by --record:
`setup_done` when the spec is parsed, `run_done` when every line is
written.  Readings are `time.monotonic()`, which is shared by every
process on the machine, so the parent can subtract its spawn time.

    python3 child.py --record R.json [--setup-only] [--trace-out T]
                     --spec S --suite X --seed N [--max-dom D]

--setup-only exits right after parsing.  --trace-out installs the
benchmark's tracer before the symext import and dumps its spans to T.
"""

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--spec", required=True)
    parser.add_argument("--suite", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--max-dom", type=int)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from symext.cli import parse_instance_spec, run_checks

    with open(args.spec, encoding="utf-8") as fh:
        text = fh.read()
    if tracer is None:
        spec = parse_instance_spec(text)
    else:
        with tracer.span("cli.parse"):
            spec = parse_instance_spec(text)
    record = {"setup_done": time.monotonic()}
    status = 0
    if not args.setup_only:
        overrides = {"seed": args.seed}
        if args.max_dom is not None:
            overrides["max_dom"] = args.max_dom
        if tracer is None:
            status = run_checks(spec, args.suite, jobs=1, overrides=overrides)
        else:
            with tracer.span("cli"):
                status = run_checks(spec, args.suite, jobs=1, overrides=overrides)
        sys.stdout.flush()
        record["run_done"] = time.monotonic()
        if tracer is not None:
            tracer.dump(args.trace_out)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
