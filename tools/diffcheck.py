"""Compare this working tree with a parent commit on random valid configs.

    python tools/diffcheck.py --parent REV [--configs N] [--seed S]

The configs are drawn once, here, with ``random_config`` of
``tests/test_random_configs.py`` from a ``Prng`` seeded with S, and passed
to both trees as ``config_to_dict`` documents. REV is exported with
``git archive`` into a temporary directory. Each tree then runs every config
with its own ``run_scenario`` in one subprocess, and each run is reduced to
its records, its summary and its failure, every float written as
``float.hex``: two runs are equal only if they agree bit for bit. A record
is compared on its fields and on every column of the CSV header, so that a
value one tree stores and the other computes is compared too.

The counts of equal and differing configs are printed, with the parts in
which the first difference lies, and that config is written to
``diffcheck_first_diff.json`` in the current directory with
``config_to_json``, so that ``continuumsim --scenario`` replays it.
Exit status: 0 if every config agrees, 1 if one differs, 2 if a tree
could not run them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_DIFF = "diffcheck_first_diff.json"


def _exact(value):
    """``value`` as JSON that keeps every float bit: floats as
    ``float.hex``, containers element by element."""
    if type(value) is float:
        return value.hex()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def _work(configs_path: str, out_path: str) -> None:
    """Run each config document of ``configs_path`` with the
    ``continuumsim`` on ``sys.path`` and write one JSON line per run."""
    from continuumsim import run_scenario
    from continuumsim.domain import config_from_dict
    from continuumsim.metrics import CSV_HEADER

    columns = CSV_HEADER.split(",")
    with open(configs_path, encoding="utf-8") as src, \
            open(out_path, "w", encoding="utf-8") as out:
        for line in src:
            try:
                result = run_scenario(config_from_dict(json.loads(line)))
            except Exception as exc:  # noqa: BLE001 - part of what is compared
                run = {"raised": f"{type(exc).__name__}: {exc}"}
            else:
                records = []
                for record in result.records:
                    names = [f.name for f in dataclasses.fields(record)]
                    names += [name for name in columns if name not in names]
                    records.append({name: getattr(record, name) for name in names})
                run = {"records": records,
                       "summary": dataclasses.asdict(result.summary),
                       "failure": result.failure}
            out.write(json.dumps(_exact(run)) + "\n")


def _export(rev: str, dest: Path) -> None:
    """Extract the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _start(tree: Path, configs: Path, out: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--work", str(configs), str(out)],
        cwd=tree, env=env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="REV", help="the commit to compare against")
    parser.add_argument("--configs", type=int, default=600, metavar="N")
    parser.add_argument("--seed", type=int, default=2026, metavar="S")
    parser.add_argument("--work", nargs=2, metavar=("CONFIGS", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.work:
        _work(*args.work)
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from continuumsim.domain import config_from_dict, config_to_dict, config_to_json
    from continuumsim.workload import Prng
    from test_random_configs import random_config

    rng = Prng(args.seed)
    docs = [config_to_dict(random_config(rng)) for _ in range(args.configs)]
    with tempfile.TemporaryDirectory(prefix="diffcheck-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        _export(args.parent, parent)
        configs = tmp / "configs.jsonl"
        configs.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        workers = [_start(tree, configs, tmp / f"{name}.jsonl")
                   for name, tree in (("parent", parent), ("change", ROOT))]
        if any([worker.wait() for worker in workers]):
            print("error: a tree could not run the configs", file=sys.stderr)
            return 2
        with open(tmp / "parent.jsonl", encoding="utf-8") as a, \
                open(tmp / "change.jsonl", encoding="utf-8") as b:
            runs = [(json.loads(x), json.loads(y)) for x, y in zip(a, b)]
    differ = [i for i, (x, y) in enumerate(runs) if x != y]
    print(f"diffcheck against {args.parent}: {len(runs)} configs at seed {args.seed}, "
          f"{len(runs) - len(differ)} equal, {len(differ)} differ")
    if not differ:
        return 0
    first = differ[0]
    x, y = runs[first]
    parts = sorted(key for key in x.keys() | y.keys() if x.get(key) != y.get(key))
    Path(FIRST_DIFF).write_text(config_to_json(config_from_dict(docs[first])),
                                encoding="utf-8")
    print(f"first difference: config {first}, in {', '.join(parts)}; written to {FIRST_DIFF}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
