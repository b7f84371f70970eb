"""Build what a workload needs before its first propagation or quadrature call.

    python bench/probe.py CONFIG [OBSERVABLE]

Imports twoatom and loads the config; when an observable is named it also
builds the basis, the Hamiltonian and the observable.  The benchmark times
the whole process as the workload's set-up time.
"""

import sys


def main(argv: list[str]) -> int:
    from twoatom import analysis, cli

    config = cli.load_config(argv[0])
    if len(argv) > 1:
        analysis.build_model(config)
        analysis.resolve_observable(config, argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
