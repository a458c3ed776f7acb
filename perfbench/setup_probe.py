"""Set-up every CLI call pays: a fresh interpreter imports uavnoma and parses
the configs named on the command line (network, link and sweep sections).
Prints the monotonic clock once done, so the parent can take the time from
spawn to ready without the interpreter's exit."""

import sys
import time

from uavnoma import cli


def main() -> None:
    for path in sys.argv[1:]:
        raw = cli.load_config(path)
        cli.parse_network(raw.get("network", {}))
        cli.parse_link(raw.get("link", {}))
        cli.parse_sweep(raw.get("sweep", {}))
    print(time.monotonic())


if __name__ == "__main__":
    main()
