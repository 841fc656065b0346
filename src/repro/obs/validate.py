"""CI gate: validate emitted observability artifacts.

Usage::

    python -m repro.obs.validate results/metrics.json results/out.trace.json

Exits non-zero (with a reason on stderr) if any named file is missing,
is not JSON, or fails its schema check; prints one confirmation line per
valid file.  Each payload is checked as ``metrics.json`` or a Chrome
trace by :func:`repro.obs.export.validate_file`.

``metrics.json`` validation includes the cross-counter invariants the
simulator must conserve -- currently the network flow-conservation law
``sim.network.injected == delivered + combined_in_flight``
(:func:`repro.obs.export.validate_metrics`) -- so counter drift in a
metrics payload is caught by this gate, not only by pinned tests.
"""

import sys

from repro.obs.export import validate_file


def main(argv=None):
    paths = sys.argv[1:] if argv is None else list(argv)
    if not paths:
        print("usage: python -m repro.obs.validate FILE [FILE ...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            kind = validate_file(path)
        except (OSError, ValueError) as error:
            print("INVALID %s: %s" % (path, error), file=sys.stderr)
            status = 1
        else:
            print("ok %s (%s)" % (path, kind))
    return status


if __name__ == "__main__":
    sys.exit(main())
