"""Tests for reading and writing run manifests as strict JSON."""

import hashlib
import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confdop
from confdop import ConfdopError, ManifestMismatch, verify_manifest
from confdop.cli import main
from confdop.manifest import _file_digest, _strict_json, _write_over

MISSION = {"r0": 4.5e12, "v_radial": 12200.0, "t_start": 0.0, "t_end": 1e8, "n_obs": 20}


@pytest.fixture
def manifest_path(tmp_path):
    """A verified manifest of a small simulate run."""
    config = tmp_path / "mission.json"
    config.write_text(json.dumps(MISSION))
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    path = tmp_path / "run.csv.manifest.json"
    verify_manifest(path)
    return path


@pytest.mark.parametrize("data, error, cause", [
    # {} and [1] used to end in a TypeError, the other two in a JSONDecodeError
    (b"{}", ManifestMismatch, "not a run manifest (missing keys ['command', 'config', "
     "'config_digest', 'outputs', 'rng_algorithm', 'seed', 'tool_version'], unknown keys [])"),
    (b"[1]", ConfdopError, "must hold a JSON object, got [1]"),
    (b"{x", ConfdopError, "not valid UTF-8 JSON (Expecting property name"),
    (b"\xff{}", ConfdopError, "not valid UTF-8 JSON ('utf-8' codec can't decode byte 0xff"),
])
def test_unreadable_manifest_names_the_file(tmp_path, data, error, cause):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    with pytest.raises(error) as excinfo:
        verify_manifest(path)
    assert str(excinfo.value).startswith(f"{path}: {cause}")


@pytest.mark.parametrize("drop, add, cause", [
    ("outputs", {}, "missing keys ['outputs'], unknown keys []"),
    (None, {"extra": 1}, "missing keys [], unknown keys ['extra']"),
    # the values below used to end in a TypeError or KeyError traceback
    (None, {"outputs": 5}, "outputs: must be list, got 5"),
    (None, {"outputs": [{"sha256": "x"}]},
     "outputs[0]: missing keys ['path', 'size_bytes'], unknown keys []"),
    (None, {"outputs": ["x"]}, 'outputs[0]: must be an object, got "x"'),
    (None, {"outputs": [{"path": 5, "sha256": "x", "size_bytes": 1}]},
     "outputs[0].path: must be str, got 5"),
    (None, {"outputs": [{"path": "run.csv", "sha256": "x", "size_bytes": True}]},
     "outputs[0].size_bytes: must be int, got true"),
    (None, {"seed": True}, "seed: must be int | None, got true"),
    (None, {"seed": 1.5}, "seed: must be int | None, got 1.5"),
    (None, {"config": []}, "config: must be dict, got []"),
])
def test_manifest_with_other_keys_is_a_mismatch(manifest_path, drop, add, cause):
    doc = json.loads(manifest_path.read_text())
    doc.pop(drop, None)
    manifest_path.write_text(json.dumps({**doc, **add}))
    with pytest.raises(ManifestMismatch) as excinfo:
        verify_manifest(manifest_path)
    assert str(excinfo.value) == f"{manifest_path}: not a run manifest ({cause})"


def test_write_manifest_names_the_non_finite_config_field(manifest_path):
    manifest = confdop.load_manifest(manifest_path)
    bad = confdop.RunManifest(**{**vars(manifest), "config": {**manifest.config, "r0": math.nan}})
    path = manifest_path.with_name("bad.json")
    with pytest.raises(ConfdopError, match=r"^config\.r0 is not finite \(nan\); strict JSON"):
        confdop.write_manifest(bad, path)
    assert not path.exists()


def test_refused_manifest_leaves_an_existing_file_untouched(manifest_path):
    # the text is built before the file is opened
    old = manifest_path.read_bytes()
    manifest = confdop.load_manifest(manifest_path)
    bad = confdop.RunManifest(**{**vars(manifest), "config": {**manifest.config, "r0": math.nan}})
    with pytest.raises(ConfdopError, match=r"^config\.r0 is not finite"):
        confdop.write_manifest(bad, manifest_path)
    assert manifest_path.read_bytes() == old


def test_simulate_twice_to_one_out_leaves_a_verified_manifest(tmp_path):
    # the second, shorter run is written over the first and cut at its length
    for name, runs in [("again", (200, 20)), ("fresh", (20,))]:
        (tmp_path / name).mkdir()
        for n_obs in runs:
            config = tmp_path / name / "mission.json"
            config.write_text(json.dumps({**MISSION, "n_obs": n_obs}))
            out = tmp_path / name / "run.csv"
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert verify_manifest(tmp_path / "again" / "run.csv.manifest.json").config["n_obs"] == 20
    for file in ("run.csv", "run.csv.manifest.json"):
        assert (tmp_path / "again" / file).read_bytes() == (tmp_path / "fresh" / file).read_bytes()


def test_file_digest_holds_one_chunk(tmp_path):
    path = tmp_path / "big.bin"
    data = np.random.default_rng(9).integers(0, 256, 20 * 2**20, dtype=np.uint8).tobytes()
    path.write_bytes(data)
    expected = (hashlib.sha256(data).hexdigest(), len(data))
    del data
    tracemalloc.start()
    try:
        digest = _file_digest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == expected
    assert peak < 4 * 2**20


def test_write_over_cuts_the_file_where_writing_stopped(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"x" * 100)

    def chunks():
        yield b"abc"
        raise RuntimeError("stopped")

    with pytest.raises(RuntimeError, match="stopped"):
        _write_over(path, chunks())
    assert path.read_bytes() == b"abc"
    _write_over(os.devnull, [b"abc"])  # a device is written, never cut


@pytest.mark.parametrize("old", [b"abcd", b"xyz"], ids=["one_byte_longer", "same_size"])
def test_write_over_leaves_exactly_the_written_bytes(tmp_path, old):
    path = tmp_path / "out.bin"
    path.write_bytes(old)
    _write_over(path, [b"a", b"bc"])
    assert path.read_bytes() == b"abc"


@pytest.mark.parametrize("r0, token", [(math.nan, "NaN"), (math.inf, "Infinity"),
                                       (-math.inf, "-Infinity")])
def test_manifest_strict_json_cannot_hold_is_a_mismatch(manifest_path, r0, token):
    # with a matching config digest, a NaN r0 used to verify and return r0 = nan
    doc = json.loads(manifest_path.read_text())
    config = {**doc["config"], "r0": r0}
    manifest_path.write_text(json.dumps(
        {**doc, "config": config, "config_digest": confdop.manifest.config_digest(config)}))
    assert token in manifest_path.read_text()
    with pytest.raises(ManifestMismatch) as excinfo:
        verify_manifest(manifest_path)
    assert str(excinfo.value) == (
        f"{manifest_path}: not a run manifest (config.r0 is not finite "
        f"({r0}); strict JSON cannot hold it)"
    )


def test_manifest_round_trips_byte_for_byte(manifest_path, tmp_path):
    copy = tmp_path / "copy.json"
    confdop.write_manifest(confdop.load_manifest(manifest_path), copy)
    assert copy.read_bytes() == manifest_path.read_bytes()
    text = manifest_path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_absolute_output_path_and_null_seed_verify(manifest_path):
    doc = json.loads(manifest_path.read_text())
    doc["outputs"][0]["path"] = str(manifest_path.with_name("run.csv"))
    manifest_path.write_text(json.dumps({**doc, "seed": None}))
    manifest = verify_manifest(manifest_path)
    assert manifest.seed is None and manifest.outputs == doc["outputs"]
    # an output outside base_dir is stored by its absolute path
    out = manifest_path.with_name("run.csv")
    base_dir = manifest_path.parent / "elsewhere"
    base_dir.mkdir()
    built = confdop.build_manifest(
        command="simulate", tool_version=manifest.tool_version,
        rng_algorithm=manifest.rng_algorithm, seed=None, config=manifest.config,
        output_paths=[out], base_dir=base_dir,
    )
    assert built.outputs == [{**doc["outputs"][0], "path": str(out.resolve())}]
    path = base_dir / "run.csv.manifest.json"
    confdop.write_manifest(built, path)
    assert verify_manifest(path) == built


def test_changed_config_value_is_a_digest_mismatch(manifest_path):
    doc = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**doc, "config": {**doc["config"], "n_obs": 21}}))
    recomputed = confdop.manifest.config_digest({**doc["config"], "n_obs": 21})
    with pytest.raises(ManifestMismatch) as excinfo:
        verify_manifest(manifest_path)
    assert str(excinfo.value) == (
        f"config digest mismatch: manifest says {doc['config_digest']}, recomputed {recomputed}"
    )


def test_changed_output_size_is_a_mismatch(manifest_path):
    # the file and its digest are unchanged; only the recorded size is wrong
    doc = json.loads(manifest_path.read_text())
    doc["outputs"][0]["size_bytes"] += 1
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestMismatch, match="^output file changed: run.csv "):
        verify_manifest(manifest_path)


@pytest.mark.parametrize("entry", ["", ".", "missing.csv"])
def test_output_that_is_not_a_file_is_a_mismatch(manifest_path, entry):
    # "" and "." name the manifest's directory; both used to raise IsADirectoryError
    doc = json.loads(manifest_path.read_text())
    doc["outputs"][0]["path"] = entry
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestMismatch) as excinfo:
        verify_manifest(manifest_path)
    assert str(excinfo.value) == f"output file missing or not a file: {entry!r}"


FLOAT_EDGES = [-0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max]


class ReprFloat(float):
    """A float subclass whose own repr json.dumps ignores: it writes float.__repr__."""

    def __repr__(self):
        return "ReprFloat"


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**1024, 2**1100),  # past the float range
    st.integers(-(2**1100), -(2**1024)),
    finite_floats,
    finite_floats.map(np.float64),  # a float subclass
    finite_floats.map(ReprFloat),
    st.sampled_from(FLOAT_EDGES),
    st.sampled_from(FLOAT_EDGES).map(np.float64),
    st.sampled_from(FLOAT_EDGES).map(ReprFloat),
    st.text(),  # non-ASCII, and characters that need escaping
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é☃𝄞", "\u2028"]),
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.dictionaries(st.text(), json_values, max_size=5),
    st.booleans(),
    st.none() | st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
)
def test_strict_json_writes_json_dumps_bytes(doc, sort_keys, bad):
    assert _strict_json(doc, sort_keys) == json.dumps(
        doc, indent=2, sort_keys=sort_keys, allow_nan=False
    )
    if bad is not None:
        # the only non-finite float, two dicts deep, beside a finite one
        doc = {**doc, "a": {"0": 1.5, "b": bad}}
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=False)
        with pytest.raises(ConfdopError) as excinfo:
            _strict_json(doc, sort_keys)
        assert str(excinfo.value) == f"a.b is not finite ({bad}); strict JSON cannot hold it"


@pytest.mark.parametrize("doc, field, shown", [
    ({"r0": math.inf}, "r0", "inf"),
    ({"r0": np.float64(-math.inf)}, "r0", "-inf"),
    ({"hill": {"r_prime": math.nan}}, "hill.r_prime", "nan"),
    ({"config": {"a": 1.0, "deep": {"x": math.inf}}}, "config.deep.x", "inf"),
    # json.dumps raised a bare ValueError for these, which a dict-only scan never reached
    ({"outputs": [{"x": math.nan}]}, "outputs[0].x", "nan"),
    ({"a": [1.0, [2.0, -math.inf]]}, "a[1][1]", "-inf"),
])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_non_finite_float_is_named_at_any_depth(doc, field, shown, sort_keys):
    with pytest.raises(ConfdopError) as excinfo:
        _strict_json(doc, sort_keys)
    assert str(excinfo.value) == f"{field} is not finite ({shown}); strict JSON cannot hold it"


def test_first_non_finite_field_in_written_order_is_named():
    doc = {"b": math.nan, "a": math.inf}
    with pytest.raises(ConfdopError, match=r"^b is not finite \(nan\)"):
        _strict_json(doc)
    with pytest.raises(ConfdopError, match=r"^a is not finite \(inf\)"):
        _strict_json(doc, sort_keys=True)


@pytest.mark.parametrize("doc, message", [
    ({"x": np.int64(1)}, "Object of type int64 is not JSON serializable"),
    ({"x": {1.5}}, "Object of type set is not JSON serializable"),
    ({"x": {1: 2}}, "keys must be str, not int"),  # json.dumps would write the key as "1"
])
def test_unwritable_value_or_non_str_key_raises_type_error(doc, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        _strict_json(doc)
