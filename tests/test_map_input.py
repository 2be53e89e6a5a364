"""Malformed map input. Whatever the bytes of a map file, load_map returns a
FarmMap or raises MapSchemaError, and `farmpatrol validate` on a file that
fails to load exits 2 with one "map error:" line on stderr."""

import copy
import json
import random
from importlib import resources

import pytest

from farmpatrol.cli import main
from farmpatrol.world import FarmMap, MapSchemaError, load_map, load_map_file

SMALL = {
    "perimeter": {"min": [0, 0], "max": [60, 60]},
    "obstacles": [{"type": "circle", "center": [30, 30], "radius": 3}],
    "stations": [[5, 5]],
    "clearance_m": 2.0,
    "grid_spacing_m": 20.0,
}
REFERENCE = json.loads(
    resources.files("farmpatrol").joinpath("data/reference_farm.json").read_text())
MARK = "@raw@"


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    """A copy of doc with the value at path replaced; the empty path
    replaces the whole document."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    _parent(doc, path)[path[-1]] = value
    return doc


def removed(doc, path):
    """A copy of doc without the value at path."""
    doc = copy.deepcopy(doc)
    del _parent(doc, path)[path[-1]]
    return doc


def with_raw(doc, path, raw: str) -> bytes:
    """doc as JSON bytes with the value at path written as the raw text."""
    return json.dumps(replaced(doc, path, MARK)).replace(json.dumps(MARK), raw).encode()


def run_validate(tmp_path, capsys, data: bytes):
    p = tmp_path / "map.json"
    p.write_bytes(data)
    code = main(["validate", str(p)])
    return code, capsys.readouterr().err.splitlines()


MALFORMED = {
    "400-digit clearance": (with_raw(SMALL, ["clearance_m"], "1" * 400),
                            "clearance_m: must be finite"),
    "400-digit radius": (with_raw(SMALL, ["obstacles", 0, "radius"], "1" * 400),
                         r"obstacles\[0\]\.radius: must be finite"),
    "5000-digit clearance": (with_raw(SMALL, ["clearance_m"], "1" * 5000),
                             "clearance_m: must be finite"),
    "100000 nested arrays": (with_raw(SMALL, ["clearance_m"], "[" * 100_000 + "]" * 100_000),
                             "recursion depth"),
    "invalid UTF-8": (json.dumps(SMALL).encode().replace(b"circle", b"circ\xffle"),
                      "not valid JSON"),
}


@pytest.mark.parametrize("data,message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_is_a_map_schema_error(data, message):
    with pytest.raises(MapSchemaError, match=message):
        load_map(data)


@pytest.mark.parametrize("data,message", MALFORMED.values(), ids=MALFORMED.keys())
def test_validate_reports_a_malformed_document_on_one_line(tmp_path, capsys, data, message):
    code, err = run_validate(tmp_path, capsys, data)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("map error: ")


@pytest.mark.parametrize("sign", [1, -1])
def test_parsed_integer_past_the_float_range(sign):
    with pytest.raises(MapSchemaError, match="clearance_m: must be finite"):
        load_map({**SMALL, "clearance_m": sign * 10**400})


def test_nan_token_reads_the_same_through_the_cli(tmp_path, capsys):
    data = with_raw(SMALL, ["clearance_m"], "NaN")
    with pytest.raises(MapSchemaError) as exc:
        load_map(data)
    assert run_validate(tmp_path, capsys, data) == (2, [f"map error: {exc.value}"])


def _paths(node, prefix=()):
    """Every path into node, the empty path (the node itself) first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


PATHS = list(_paths(REFERENCE))
OTHER_VALUES = [None, True, "x", 0, 2.5, -7, [], {}, [1, 2], {"x": 1}]
RAW_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", "1" * 400, "-" + "1" * 400,
              "1" * 5000, "[" * 100_000 + "]" * 100_000, "[" * 900 + "]" * 900]
BAD_UTF8 = [b"\xff", b"\xc3\x28", b"\xe2\x82", b"\xed\xa0\x80"]


def mutant(rng: random.Random) -> tuple[str, bytes]:
    """One seeded mutation of the reference map document."""
    kind = rng.choice(["remove", "retype", "raw", "truncate", "utf8"])
    path = rng.choice(PATHS)
    text = json.dumps(REFERENCE).encode()
    if kind == "remove" and path:
        return f"remove {path}", json.dumps(removed(REFERENCE, path)).encode()
    if kind in ("remove", "retype"):  # the whole document cannot be removed
        value = rng.choice(OTHER_VALUES)
        return f"{path} = {value!r}", json.dumps(replaced(REFERENCE, path, value)).encode()
    if kind == "raw":
        raw = rng.choice(RAW_TOKENS)
        return f"{path} = {raw[:12]}... ({len(raw)} chars)", with_raw(REFERENCE, path, raw)
    cut = rng.randrange(len(text))
    if kind == "truncate":
        return f"truncated at {cut}", text[:cut]
    bad = rng.choice(BAD_UTF8)
    return f"{bad!r} at {cut}", text[:cut] + bad + text[cut:]


def test_seeded_map_mutations_load_or_fail_typed(tmp_path, capsys):
    rng = random.Random(9)
    failed = []
    for _ in range(300):
        what, data = mutant(rng)
        try:
            assert isinstance(load_map(data), FarmMap)
        except MapSchemaError:
            failed.append((what, data))
    assert 0 < len(failed) < 300  # both outcomes are exercised
    # only documents that fail to load: one that loads may lay a huge graph
    for what, data in failed:
        code, err = run_validate(tmp_path, capsys, data)
        assert code == 2 and len(err) == 1 and err[0].startswith("map error: "), what


def test_load_map_file_reads_through_the_same_parser(tmp_path):
    p = tmp_path / "map.json"
    p.write_bytes(MALFORMED["invalid UTF-8"][0])
    with pytest.raises(MapSchemaError, match="not valid JSON"):
        load_map_file(p)
    with pytest.raises(OSError):
        load_map_file(tmp_path / "missing.json")
