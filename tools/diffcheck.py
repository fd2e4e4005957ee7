"""Compare this working tree with a parent commit on random valid configs.

    python tools/diffcheck.py --parent REV [--configs N] [--seed S]

The configs are drawn once, here, with ``random_config`` of
``tests/test_random_configs.py`` from a ``Prng`` seeded with S, and passed
to both trees as ``config_to_dict`` documents. No random draw reaches the
close of a session during an upload, so two configs that do follow the N
random ones: configs 1064 and 1437 of ``_edge_close_config`` at
``Prng(5)``, in which the edge's timeout closes the session mid-upload, as
``test_edge_close_during_an_upload_keeps_the_records_of_the_chain_of_acks``
pins. REV is exported with ``git archive`` into a temporary directory.
Each tree then runs every config with its own ``run_scenario`` in one
subprocess, and each run is reduced to
its records, its summary and its failure, every float written as
``float.hex``: two runs are equal only if they agree bit for bit. Each
config's dataset, as ``build_dataset`` makes it, is compared too: each
image's id, payload seed, face flag, ground truth and embedding, so that an
embedding's bits are compared directly and not only through the outcome of
``identify``. The
records are compared in the order ``metrics.csv`` writes them, by
completion and then image id, which is the pinned contract; the order in
which a run returns them is not, and the configs whose runs return the same
records in another order are counted apart. A record is compared on its
fields and on every column of the CSV header, so that a value one tree
stores and the other computes is compared too.

Each config is then equal, within ``ULPS`` (4) ulps or different. It is
within 4 ulps when the two runs have the same shape and every value in
which they differ is a finite float at most 4 ulps from the other's, an ulp
taken at the larger of the two magnitudes and the run's total runtime.
Every time of a run is computed from instants up to its total runtime, so
rounding there moves a difference of two instants (an RTT, an upload time)
or a standard deviation by ulps of that scale, not of the value's own size.
Anything else, such as another record count, origin or failure, a NaN or an
infinity, a float further apart, or any difference in the dataset, makes
the config different. The three
counts are printed, with the largest ulp distance among the configs within
4 ulps, so that a reader can judge any other bound, how many of the equal
configs return their records in another order, and the parts in which
the first difference lies (the first different config, else the first
within 4 ulps). The configs that are not equal are also counted by each
part in which they differ, ``records``, ``summary``, ``failure`` and
``dataset``, so that a deliberate change to one part (every embedding's
bits, say) reads apart from what it moves downstream. After the counts,
the runs that ended in a failure are listed for each transport, by
failing end and kind (``session-a: no ack``,
``session-b: send on closed connection``), each with how many of its
configs were equal and how many had an equal ``failure`` part: a failure
path with no config, or with no equal failure, was not compared against
the parent, and one whose configs differ only in other parts (a change to
datasets, say) still fails the same way. That config is written to ``diffcheck_first_diff.json`` in
the current directory with ``config_to_json``, so that
``continuumsim --scenario`` replays it.
Exit status: 0 if every config is equal, 1 if one is not, 2 if a tree
could not run them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_DIFF = "diffcheck_first_diff.json"
ULPS = 4  # the ulp distance still counted as within
EDGE_CLOSES = (1064, 1437)  # the close-path configs of _edge_close_config at Prng(5)
PARTS = ("records", "summary", "failure", "dataset")


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


def _ulps(a, b, scale: float) -> float:
    """The distance of two runs written by ``_exact``, in ulps of the run's
    time scale ``scale``: the largest over the values in which they differ
    of ``|x - y| / ulp(max(|x|, |y|, scale))``. It is infinite if their
    shapes differ, or if a differing value is not a float of both or is not
    finite."""
    if a == b:
        return 0.0
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max(_ulps(a[key], b[key], scale) for key in a)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max(_ulps(x, y, scale) for x, y in zip(a, b))
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except (TypeError, ValueError):
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / math.ulp(max(abs(x), abs(y), scale))


def _scale(run: dict) -> float:
    """A run's time scale: its total runtime, or 0.0 if it raised."""
    return float.fromhex(run["summary"]["total_runtime"]) if "summary" in run else 0.0


def _reduce(result, columns: list[str]) -> dict:
    """Run ``result`` as ``_exact`` JSON: its records in the order
    ``metrics.emit_csv`` writes them, each with its fields and the CSV
    ``columns``, its summary, its failure, and under ``order`` the image ids
    in the order the run returned its records."""
    records = []
    for record in sorted(result.records, key=lambda r: (r.completion_s, r.image_id)):
        names = [f.name for f in dataclasses.fields(record)]
        names += [name for name in columns if name not in names]
        records.append({name: getattr(record, name) for name in names})
    return _exact({"records": records,
                   "summary": dataclasses.asdict(result.summary),
                   "failure": result.failure,
                   "order": [record.image_id for record in result.records]})


def _dataset(cfg) -> list:
    """The dataset of ``cfg`` as ``build_dataset`` makes it: per image its
    id, payload seed, face flag, ground truth and embedding. The embedding
    is one string of ``float.hex`` values, so that ``_ulps`` counts any
    difference in it as infinitely far."""
    from continuumsim.nodes import build_dataset

    out = []
    for image in build_dataset(cfg)[1]:
        truth, embedding = image.ground_truth, image.embedding
        out.append([image.id, image.payload_seed, image.has_face,
                    None if truth is None else [truth.id, truth.label],
                    None if embedding is None else " ".join(v.hex() for v in embedding.values)])
    return out


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
                cfg = config_from_dict(json.loads(line))
                result = run_scenario(cfg)
            except Exception as exc:  # noqa: BLE001 - part of what is compared
                run = {"raised": f"{type(exc).__name__}: {exc}"}
            else:
                run = _reduce(result, columns)
                run["dataset"] = _dataset(cfg)
            out.write(json.dumps(run) + "\n")


def _tally(runs: list[tuple[dict, dict]]) -> tuple[dict[int, float], list[int]]:
    """The ulp distance of each pair of ``runs`` that is not equal, by
    index, and the indices of the equal pairs whose records came back in
    another order. Each run's ``order`` is popped."""
    distances, reordered = {}, []
    for i, (x, y) in enumerate(runs):
        if x.pop("order", None) != y.pop("order", None) and x == y:
            reordered.append(i)
        elif x != y:
            distances[i] = _ulps(x, y, max(_scale(x), _scale(y)))
    return distances, reordered


def _differing(x: dict, y: dict) -> list[str]:
    """The parts of two runs that differ, such as ``records`` or
    ``dataset``, sorted."""
    return sorted(key for key in x.keys() | y.keys() if x.get(key) != y.get(key))


def _parts(runs: list[tuple[dict, dict]], indices) -> dict[str, int]:
    """For each part, how many of the pairs ``indices`` of ``runs`` differ
    in it: ``records``, ``summary``, ``failure`` and ``dataset`` always, and
    any other part (``raised``) in which one does."""
    counts = dict.fromkeys(PARTS, 0)
    for i in indices:
        for part in _differing(*runs[i]):
            counts[part] = counts.get(part, 0) + 1
    return counts


def _failure_kind(run: dict) -> str | None:
    """A run's failure as its failing end and kind, without the figures of
    its message (``session-a: no ack``), or None if it did not fail."""
    failure = run.get("failure")
    if failure is None:
        return None
    return re.sub(r" within \S+$", "", failure)


def _failures(runs: list[tuple[dict, dict]], transports: list[str],
              distances: dict[int, float]) -> dict[str, dict[str, list[int]]]:
    """Per transport, the failure kinds of ``runs`` (of either tree), each
    with its count of configs, how many of those are equal and how many
    have an equal ``failure`` part; each transport of ``transports`` is
    listed, if only with no kind."""
    table: dict[str, dict[str, list[int]]] = {transport: {} for transport in transports}
    for i, (pair, transport) in enumerate(zip(runs, transports)):
        for kind in sorted({_failure_kind(run) for run in pair} - {None}):
            counts = table[transport].setdefault(kind, [0, 0, 0])
            counts[0] += 1
            counts[1] += i not in distances
            counts[2] += pair[0].get("failure") == pair[1].get("failure")
    return table


def _failure_line(transport: str, kinds: dict[str, list[int]]) -> str:
    """The line that lists the failure kinds of one transport, as
    ``_failures`` counts them."""
    listed = "; ".join(f"{kind}: {n} ({equal} equal, {same} same failure)"
                       for kind, (n, equal, same) in sorted(kinds.items()))
    return f"  failed {transport} runs: {listed or 'none'}"


def _draw(seed: int, count: int) -> list[dict]:
    """``count`` configs of ``random_config`` from ``Prng(seed)``, then the
    two close-path configs, as ``config_to_dict`` documents."""
    from continuumsim.domain import config_to_dict
    from continuumsim.workload import Prng
    from test_random_configs import _edge_close_config, random_config

    rng = Prng(seed)
    configs = [random_config(rng) for _ in range(count)]
    rng = Prng(5)
    closes = [_edge_close_config(rng) for _ in range(EDGE_CLOSES[-1] + 1)]
    return [config_to_dict(cfg) for cfg in configs + [closes[i] for i in EDGE_CLOSES]]


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
    from continuumsim.domain import config_from_dict, config_to_json

    docs = _draw(args.seed, args.configs)
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
    distances, reordered = _tally(runs)
    within = [i for i, d in distances.items() if d <= ULPS]
    differ = [i for i, d in distances.items() if d > ULPS]
    widest = f" (at most {max(distances[i] for i in within):g})" if within else ""
    print(f"diffcheck against {args.parent}: {len(runs)} configs ({args.configs} at seed "
          f"{args.seed} and {len(EDGE_CLOSES)} close-path configs), "
          f"{len(runs) - len(distances)} equal ({len(reordered)} with their records "
          f"in another order), {len(within)} within {ULPS} ulps{widest}, "
          f"{len(differ)} differ")
    if distances:
        counts = ", ".join(f"{part} {n}" for part, n in _parts(runs, distances).items())
        print(f"  configs not equal, by part that differs: {counts}")
    for transport, kinds in sorted(_failures(runs, [doc["transport"] for doc in docs],
                                             distances).items()):
        print(_failure_line(transport, kinds))
    if not within and not differ:
        return 0
    first = (differ or within)[0]
    parts = _differing(*runs[first])
    Path(FIRST_DIFF).write_text(config_to_json(config_from_dict(docs[first])),
                                encoding="utf-8")
    print(f"first difference: config {first}, in {', '.join(parts)}; written to {FIRST_DIFF}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
