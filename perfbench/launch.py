"""Child process of the benchmark: runs the `cstirap` console entry point.

    python3 launch.py <stamp file> <trace file or -> <cstirap arguments...>

It does what the installed `cstirap` script does (import cstirap.cli, call
main) and also notes the moment the CLI hands the parsed config to
run_experiment, the end of set-up. With a trace file it first installs
the tracer and writes its summary there when the CLI returns.
"""

import sys
import time


def main() -> int:
    stamp_path, trace_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import cstirap.cli as cli

    tracer = None
    if trace_path != "-":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    setup_end = []
    run_experiment = cli.run_experiment

    def stamped(*args, **kwargs):
        setup_end.append(time.clock_gettime(time.CLOCK_MONOTONIC))
        return run_experiment(*args, **kwargs)

    cli.run_experiment = stamped
    code = cli.main(cli_args)
    with open(stamp_path, "w") as fh:
        fh.write(repr(setup_end[0]) if setup_end else "")
    if tracer is not None:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
