#!/usr/bin/env python3
"""Runs a command-line call and checks how it ends.

Usage:
  cli_probe.py exit CODE PATTERN -- [SETUP... --then]... CMD...
      CMD must exit with CODE and print PATTERN (a regex) on stdout or
      stderr. A crash (a signal) never passes. Each SETUP command (say, a
      run that writes the checkpoint or shard CMD reads) runs first, in
      order, and must exit 0.
  cli_probe.py differ FLAG -- CMD...
      CMD and CMD FLAG must both exit 0 and print different output: FLAG
      changes what CMD does.
"""

import re
import subprocess
import sys


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60)


def fail(message):
    print(f"cli_probe: FAIL: {message}")
    sys.exit(1)


def main():
    if "--" not in sys.argv:
        fail("usage: cli_probe.py exit CODE PATTERN -- "
             "[SETUP... --then]... CMD... | differ FLAG -- CMD...")
    split = sys.argv.index("--")
    mode, params, cmd = sys.argv[1], sys.argv[2:split], sys.argv[split + 1:]
    if mode == "exit" and len(params) == 2:
        code, pattern = int(params[0]), params[1]
        while "--then" in cmd:
            split = cmd.index("--then")
            setup, cmd = cmd[:split], cmd[split + 1:]
            p = run(setup)
            if p.returncode != 0:
                fail(f"setup exit {p.returncode}: {setup}\n"
                     f"{p.stdout}{p.stderr}")
        p = run(cmd)
        output = p.stdout + p.stderr
        if p.returncode != code:
            fail(f"exit {p.returncode}, want {code}\n{output}")
        if not re.search(pattern, output):
            fail(f"output does not match {pattern!r}\n{output}")
    elif mode == "differ" and len(params) == 1:
        plain, flagged = run(cmd), run(cmd + params)
        for p in (plain, flagged):
            if p.returncode != 0:
                fail(f"exit {p.returncode}: {p.args}\n{p.stderr}")
        if plain.stdout == flagged.stdout:
            fail(f"{params[0]} does not change the output of {cmd}")
    else:
        fail(f"bad arguments: {sys.argv[1:]}")
    print("cli_probe: ok")


if __name__ == "__main__":
    main()
