"""Compare what two git revisions of minmax-hj write, command by command.

    python3 tools/same_results.py A B

A and B are any git revisions of this repository (``HEAD``, a hash, a
branch). Each is unpacked in turn with ``git archive`` into one
temporary working directory, as ``src/`` and ``configs/``, and every
command of the identity set runs there in a fresh
``python3 -m minmax_hj.cli`` process with ``PYTHONPATH=src``, twice in
a row into one run directory. So both revisions see the same working
directory and the same relative paths, and the paths they print
compare equal. The check-media configs are written once, by
``perfbench/workloads._media_configs`` of the checkout this script sits
in, and both revisions read the same files.

The identity set:
  - check, effective and sweep-eps on the five shipped configs;
  - check on the check-media configs of seeds 1, 2 and 41;
  - effective --force --seed 0 on the seed-1 media configs;
  - plotdata on the effective and sweep-eps run directories of the
    shipped configs.

After each run it records the exit code, stdout, stderr, the sha256 of
every file in the run directory but the manifest, and the manifest
without its ``timings``. It prints one line per difference, between
the two revisions' k-th runs of a command or between a revision's
rerun and its first run, and a summary line on stderr, and exits 1 if
there is any difference, else 0. Run with one revision twice
(``HEAD HEAD``), it checks that every command's reruns and fresh
checkouts write the same results. It writes nothing into the checkout.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIPPED = ("base_case", "ell2_strict", "xindep", "unstable_pair",
           "monotonicity_violation")
MEDIA_SEEDS = (1, 2, 41)
RUNS = 2        # runs of each command into its run directory


def _git(*args):
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)
    if done.returncode:
        sys.exit(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def _media_configs(cwd):
    """Write the check-media configs under ``media/``; return their
    paths relative to cwd, by seed."""
    sys.dont_write_bytecode = True      # nothing goes into the checkout
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    out = {}
    for seed in MEDIA_SEEDS:
        work = os.path.join(cwd, "media", str(seed))
        os.makedirs(work)
        out[seed] = [os.path.relpath(path, cwd) for path, _, _ in
                     workloads._media_configs(seed, work)]
    return out


def _commands(media):
    """(argv, run directory) of every command of the identity set."""
    out = []
    for name in SHIPPED:
        for command in ("check", "effective", "sweep-eps"):
            run = f"runs/{command}/{name}"
            out.append(([command, "--config", f"configs/{name}.yaml",
                         "--out", run], run))
    for seed, paths in media.items():
        for path in paths:
            run = f"runs/check-media/{seed}/{os.path.basename(path)[:-5]}"
            out.append((["check", "--config", path, "--out", run], run))
    for path in media[1]:
        run = f"runs/effective-media/{os.path.basename(path)[:-5]}"
        out.append((["effective", "--force", "--seed", "0", "--config", path,
                     "--out", run], run))
    for command in ("effective", "sweep-eps"):
        for name in SHIPPED:
            run = f"runs/{command}/{name}"
            out.append((["plotdata", run], run))
    return out


def _snapshot(done, run_dir):
    """What one run left: exit code, output streams, the sha256 of every
    file in its run directory but the manifest, and the manifest without
    its timings (None if there is none)."""
    files, manifest = {}, None
    if os.path.isdir(run_dir):
        for name in sorted(os.listdir(run_dir)):
            path = os.path.join(run_dir, name)
            if name == "manifest.json":
                with open(path) as fh:
                    manifest = json.load(fh)
                manifest.pop("timings", None)
            elif os.path.isfile(path):
                with open(path, "rb") as fh:
                    files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit code": done.returncode, "stdout": done.stdout,
            "stderr": done.stderr, "files": files, "manifest": manifest}


def _run_revision(rev, cwd, commands):
    """Unpack rev into cwd and run the identity set; return the
    snapshots of each command's runs, by command line."""
    for name in ("src", "configs", "runs"):
        shutil.rmtree(os.path.join(cwd, name), ignore_errors=True)
    git = subprocess.Popen(["git", "-C", ROOT, "archive", rev, "src",
                            "configs"], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", cwd], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        sys.exit(f"git archive {rev} failed")
    env = dict(os.environ, PYTHONPATH="src")
    out = {}
    for argv, run_dir in commands:
        out[" ".join(argv)] = [_snapshot(subprocess.run(
            [sys.executable, "-m", "minmax_hj.cli", *argv], cwd=cwd,
            env=env, capture_output=True, text=True, errors="replace"),
            os.path.join(cwd, run_dir)) for _ in range(RUNS)]
    return out


def _first_difference(a, b, path=""):
    """The path of the first leaf where the JSON values a and b differ,
    or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                return f"{path}.{key}"
            at = _first_difference(a[key], b[key], f"{path}.{key}")
            if at is not None:
                return at
        return None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            at = _first_difference(x, y, f"{path}[{i}]")
            if at is not None:
                return at
        return None
    return None if a == b else path or "."


def _first_line(a, b):
    """The first line where the texts a and b differ, as a pair."""
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else "<none>"
        y = lb[i] if i < len(lb) else "<none>"
        if x != y:
            return f"line {i + 1}: {x!r} vs {y!r}"
    return "line endings differ"


def _differences(a, b):
    """One line per difference between two snapshots of a run."""
    if a["exit code"] != b["exit code"]:
        yield f"exit code {a['exit code']} vs {b['exit code']}"
    for stream in ("stdout", "stderr"):
        if a[stream] != b[stream]:
            yield f"{stream} {_first_line(a[stream], b[stream])}"
    for name in sorted(set(a["files"]) | set(b["files"])):
        x, y = a["files"].get(name), b["files"].get(name)
        if x != y:
            yield (f"{name}: sha256 {(x or 'missing')[:12]} vs "
                   f"{(y or 'missing')[:12]}")
    at = _first_difference(a["manifest"], b["manifest"])
    if at is not None:
        yield f"manifest differs at {at}"


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/same_results.py A B", file=sys.stderr)
        return 2
    revs = [_git("rev-parse", "--verify", "--short", f"{r}^{{commit}}")
            for r in argv]
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same-results-") as tmp:
        cwd = os.path.join(tmp, "work")
        os.makedirs(cwd)
        commands = _commands(_media_configs(cwd))
        results = [_run_revision(rev, cwd, commands) for rev in revs]
    found = []
    for command, runs in results[0].items():
        pairs = [(f"run {k + 1}", a, b)
                 for k, (a, b) in enumerate(zip(runs, results[1][command]))]
        pairs += [(f"rerun at {rev}", own[0], rerun)
                  for rev, own in zip(revs, (runs, results[1][command]))
                  for rerun in own[1:]]
        found += [f"{command} ({what}): {line}" for what, a, b in pairs
                  for line in _differences(a, b)]
    print(*found, sep="\n", end="\n" if found else "")
    codes = [runs[0]["exit code"] for runs in results[0].values()]
    print(f"{revs[0]} vs {revs[1]}: {len(commands)} commands, {RUNS} runs "
          f"each, {codes.count(0)} exit 0 at {revs[0]}, {len(found)} "
          f"differences, {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
