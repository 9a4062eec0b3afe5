"""Self-check of the benchmark's own arithmetic.

    python3 perfbench/selfcheck.py

Checks self time with nested spans, the percentile and sample-count
reporting, that the determinism check catches a single flipped byte, and
that layers.json maps every per-layer metric of BENCHMARK.json once.
Needs no duoadapt import; exits 1 on the first wrong result.
"""
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from run import hash_mismatches
from tracer import Recorder, self_times, summarize, union_length
from worker import sha256


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"selfcheck FAILED: {what}")
        sys.exit(1)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


def check_self_time() -> None:
    check(close(union_length([(1, 4), (3, 6), (8, 9)]), 6.0), "union of overlapping intervals")
    check(close(union_length([]), 0.0), "union of nothing")

    rec = Recorder("selfcheck")
    outer = rec.wrap("outer", lambda: [inner(), leaf()])
    inner = rec.wrap("inner", lambda: [leaf(), again()])
    leaf = rec.wrap("leaf", lambda: None)
    again = rec.wrap("inner", lambda: None)   # same name nested in itself
    outer()
    names = [s[0] for s in rec.spans]
    check(names == ["outer", "inner", "leaf", "inner", "leaf"], f"span order {names}")
    check([s[3] for s in rec.spans] == [-1, 0, 1, 1, 0], "parent links")
    check([s[4] for s in rec.spans] == [True, True, True, False, True],
          "outermost flags for a name nested in itself")

    # replace the clock readings with known ones:
    # outer 0-10 { inner 1-6 { leaf 2-3, inner 4-5 }, leaf 7-9 }
    for span, (start, end) in zip(rec.spans, [(0, 10), (1, 6), (2, 3), (4, 5), (7, 9)]):
        span[1], span[2] = float(start), float(end)
    own = self_times(rec.spans)
    check(all(close(a, b) for a, b in zip(own, [3, 3, 1, 1, 2])), f"self times {own}")
    check(close(sum(own), 10.0), "self times add up to the root span")
    check(close(rec.inclusive("inner"), 5.0), "nested repeat of a name counted once")
    check(close(rec.inclusive("leaf"), 3.0), "inclusive time over separate spans")
    check(rec.calls("inner") == 2, "call count")

    # children that overlap each other or outlast their parent are counted
    # once and only inside the parent: 10 - |[1,6] + [9,10]| = 4
    spans = [["p", 0.0, 10.0, -1, True], ["a", 1.0, 4.0, 0, True],
             ["b", 3.0, 6.0, 0, True], ["c", 9.0, 12.0, 0, True]]
    check(close(self_times(spans)[0], 4.0), f"clipped union of children {self_times(spans)}")


def check_percentiles() -> None:
    s = summarize([3.0, 1.0, 2.0])
    check((s["median"], s["n"], s["pct"]) == (2.0, 3, None), f"small sample {s}")
    s = summarize([4.0, 1.0, 3.0, 2.0])
    check(close(s["median"], 2.5), "even-count median")
    check(summarize([1.0] * 10)["pct"] is None, "ten samples leave none above a percentile")
    for n in range(11, 400):
        xs = [float(i) for i in range(n)]
        random.Random(n).shuffle(xs)
        s = summarize(xs)
        above = sum(1 for x in xs if x > s["pct_value"])
        check(s["n"] == n, f"sample count for n={n}")
        check(above >= 10, f"n={n}: p{s['pct']} has only {above} samples above it")
        rank = math.ceil((s["pct"] + 1) * n / 100)
        check(s["pct"] == 99 or n - rank < 10,
              f"n={n}: p{s['pct'] + 1} also has ten samples above it")
    s = summarize([float(i) for i in range(1, 21)])
    check((s["pct"], s["pct_value"]) == (50, 10.0), f"p50 of 1..20 is 10, got {s}")


def check_determinism(tmp: Path) -> None:
    payload = bytes(random.Random(0).getrandbits(8) for _ in range(4096))
    a, b = tmp / "a.bin", tmp / "b.bin"
    a.write_bytes(payload)
    for position in (0, 1234, 4095):
        flipped = bytearray(payload)
        flipped[position] ^= 0x01
        b.write_bytes(bytes(flipped))
        same = {"data_seed": 7, "hashes": {"best.ckpt": sha256(a)}}
        other = {"data_seed": 7, "hashes": {"best.ckpt": sha256(b)}}
        check(not hash_mismatches([same, dict(same)]), "identical outputs pass")
        check(len(hash_mismatches([same, dict(same), other])) == 1,
              f"a flipped byte at {position} is caught")
        check(not hash_mismatches([same, {**other, "data_seed": 8}]),
              "different seeds are not compared")


def check_layer_map() -> None:
    here = Path(__file__).resolve().parent
    spec = json.loads((here.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    mapped = [m for entry in json.loads((here / "layers.json").read_text())["map"]
              for m in entry["layer_metrics"]]
    check(sorted(mapped) == sorted(names),
          f"layers.json and BENCHMARK.json differ: {sorted(set(mapped) ^ set(names))}")


def main() -> int:
    check_self_time()
    check_percentiles()
    check_layer_map()
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        check_determinism(Path(tmp))
    print("selfcheck passed: self time, percentiles, determinism check, layer map")
    return 0


if __name__ == "__main__":
    sys.exit(main())
