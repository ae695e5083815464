"""serialize.dumps against the standard library, the operator pair codec and the readers."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spintomo import (
    RunStats,
    completeness_check,
    dual_via_gram_schmidt,
    random_density,
    random_hermitian,
    serialize,
    verify_spanning_definitions,
)
from spintomo.cli import _report_json
from spintomo.spin import pauli_quorum

from conftest import SX, SZ, random_quorum
from test_frames import interleaved_quorum


def stdlib_dumps(doc) -> str:
    return json.dumps(doc) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e300, -1e300, 0.1, 1 / 3,
               float("nan"), float("inf"), -float("inf")]


class TestDumps:
    @pytest.mark.parametrize(
        "doc",
        [
            {}, [], [[]], [[], [1]], [[1], []], [1, [2, 3]], [[1, 2], 3], [[1], 2, [3]],
            [[[1.0]]], [[1, [2]], [3]], [[1, "x"]], ["a, b", "[c]"], [{"a": [1, 2]}],
            {1: [2.5], 2.5: {None: True}, "x": [[1.0, -0.0]]}, (1.0, 2.0), [(1.0, 2.0)],
            [np.float64(0.1), np.float64(-0.0)], [[np.float64(1e-7), 1]],
            EDGE_FLOATS, [[x, x] for x in EDGE_FLOATS], 5, -0.0, "ü", None, True,
            {"a\nb": ["c\r\nd"]},
        ],
    )
    def test_edge_documents(self, doc):
        text = serialize.dumps(doc)
        assert text == stdlib_dumps(doc)
        assert text.count("\n") == 1  # one line, even for a string holding a newline

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            serialize.dumps({"a": [1, object()]})


class TestPackageDocuments:
    def test_quorum_and_dual(self):
        q = interleaved_quorum(3, 5)
        dual = dual_via_gram_schmidt(q)
        assert not all(dual.kept_mask)
        for doc in (serialize.quorum_to_json_dict(q),
                    serialize.dual_to_json_dict(dual),
                    serialize.dual_to_json_dict(dual, labels=[f"ü_{n}" for n in range(len(q))])):
            assert serialize.dumps(doc) == stdlib_dumps(doc)

    def test_operator(self, rng):
        for doc in (serialize.op_to_json_dict(random_hermitian(5, rng)),
                    serialize.op_to_json_dict(random_density(1, rng)),
                    serialize.op_to_json_dict(np.array([[-0.0, 5e-324], [1e300, np.nan]]))):
            assert serialize.dumps(doc) == stdlib_dumps(doc)

    def test_reports_with_and_without_witness(self):
        q, dual = pauli_quorum()
        complete = verify_spanning_definitions(q, dual, trials=5)
        traceless = random_quorum(2, 3, seed=1)
        incomplete = verify_spanning_definitions(
            traceless, dual_via_gram_schmidt(traceless, allow_subspace=True), trials=5
        )
        assert complete.defect_witness is None and incomplete.defect_witness is not None
        for report in (complete, incomplete, completeness_check(traceless)):
            doc = _report_json(report)
            assert serialize.dumps(doc) == stdlib_dumps(doc)

    def test_run_stats_and_checkpoints(self):
        stats = RunStats(n_samples=2000, n_blocks=3, block_means=(0.1, -0.0, 1e-7), mean=1 / 3,
                         error_bar=5e-324, estimator="discrete", seed=7,
                         convention="per_setting_quota")
        doc = serialize.run_stats_to_json_dict(stats)
        doc["exact"] = 0.25
        bare = serialize.run_stats_to_json_dict(RunStats(10, 2, (0.5, 1.5), 1.0, 0.5))
        config = {"spin_two_s": 1, "quorum": "pauli", "checkpoints": [200, 1000, 2000],
                  "state": "coherent:1", "directions": serialize.directions_to_json_list([])}
        for d in (doc, bare, config):
            assert serialize.dumps(d) == stdlib_dumps(d)


def complex_arrays(dim):
    # any bit pattern, including -0.0, subnormals, inf and nan payloads
    return hnp.arrays(np.uint64, (dim, dim, 2)).map(
        lambda bits: np.ascontiguousarray(bits).view(np.float64).view(complex)[..., 0]
    )


class TestOperatorPairs:
    @given(st.integers(1, 5).flatmap(complex_arrays))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bit_exact(self, a):
        back = serialize.op_from_pairs(serialize.op_to_pairs(a), a.shape[0])
        assert back.dtype == complex and back.shape == a.shape
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))

    @given(st.integers(1, 4).flatmap(lambda d: hnp.arrays(
        float, (d, d, 2), elements=st.floats(allow_nan=False, allow_infinity=False)
    )))
    @settings(max_examples=100, deadline=None)
    def test_json_text_round_trip_bit_exact(self, parts):
        a = parts[..., 0] + 1j * parts[..., 1]
        a.real, a.imag = parts[..., 0], parts[..., 1]  # keep -0.0 in both parts
        text = serialize.dumps(serialize.op_to_json_dict(a))
        back = serialize.op_from_json_dict(json.loads(text))
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))

    def test_pairs_are_python_floats(self):
        pairs = serialize.op_to_pairs(np.array([[1 + 2j, -3j], [0.5, 4]]))
        assert all(type(x) is float for p in pairs for x in p)
        assert pairs == [[1.0, 2.0], [0.0, -3.0], [0.5, 0.0], [4.0, 0.0]]

    def test_non_contiguous_input(self):
        a = (SX + 0.5j * SZ).T
        assert np.array_equal(serialize.op_from_pairs(serialize.op_to_pairs(a), 2), a)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            serialize.op_from_pairs([[1.0, 0.0]] * 3, 2)
        with pytest.raises(ValueError, match="pairs"):
            serialize.op_from_pairs([[1.0, 0.0, 0.0]] * 4, 2)


def _replaced(doc: dict, key: str, value) -> dict:
    return {**doc, key: value}


PAULI_QUORUM = serialize.quorum_to_json_dict(pauli_quorum()[0])
PAULI_DUAL = serialize.dual_to_json_dict(pauli_quorum()[1])
SX_DOC = serialize.op_to_json_dict(SX)
TEXT_PAIRS = [["0.5", 0.0]] + [[0.0, 0.0]] * 3
BOOL_PAIRS = [[True, False]] * 4


class TestReadersCheckTypes:
    """Each reader refuses a value of the wrong type; none is converted."""

    @pytest.mark.parametrize("doc, message", [
        (_replaced(SX_DOC, "dim", 2.0), "dim must be an integer, got 2.0"),
        (_replaced(SX_DOC, "entries", TEXT_PAIRS), "entries must be a number, got '0.5'"),
        (_replaced(SX_DOC, "entries", BOOL_PAIRS), "entries must be a number, got True"),
    ], ids=["float-dim", "text-entry", "bool-entries"])
    def test_operator(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize.op_from_json_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        (_replaced(PAULI_QUORUM, "dim", 2.9), "dim must be an integer, got 2.9"),
        (_replaced(PAULI_QUORUM, "elements", [TEXT_PAIRS] * 4),
         "elements must be a number, got '0.5'"),
        (_replaced(PAULI_QUORUM, "labels", [0, 1, 2, 3]), "labels must be a string, got 0"),
    ], ids=["float-dim", "text-element", "number-label"])
    def test_quorum(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize.quorum_from_json_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        (_replaced(PAULI_DUAL, "dim", "2"), "dim must be an integer, got '2'"),
        (_replaced(PAULI_DUAL, "elements", [BOOL_PAIRS] * 4), "elements must be a number, got True"),
        (_replaced(PAULI_DUAL, "kept_mask", ["false"] * 4),
         "kept_mask must be true or false, got 'false'"),
        (_replaced(PAULI_DUAL, "kept_mask", [1] * 4), "kept_mask must be true or false, got 1"),
    ], ids=["text-dim", "bool-elements", "text-mask", "number-mask"])
    def test_dual(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize.dual_from_json_dict(doc)

    @pytest.mark.parametrize("item, message", [
        ({"theta": True, "phi": 1.5}, "theta must be a number, got True"),
        ({"theta": 1.0, "phi": "1.5"}, "phi must be a number, got '1.5'"),
    ], ids=["bool-theta", "text-phi"])
    def test_directions(self, item, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize.directions_from_json_list([{"theta": 0.5, "phi": 0.0}, item])

    def test_integer_pairs_and_angles_still_read(self):
        doc = {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}
        assert np.array_equal(serialize.op_from_json_dict(doc), SX)
        (d,) = serialize.directions_from_json_list([{"theta": 1, "phi": 0}])
        assert (d.theta, d.phi) == (1.0, 0.0)


class TestLoadJsonFile:
    def test_long_line_quoted_near_the_error(self, tmp_path):
        # a damaged one-line file of 1.2 MB, such as a dual frame written by dumps
        text = serialize.dumps({"elements": [[0.1, -0.25]] * 80000})
        assert len(text) >= 2**20
        pos = text.index(",", len(text) // 2)
        path = tmp_path / "dual.json"
        path.write_text(text[:pos] + "?" + text[pos + 1:])
        with pytest.raises(ValueError) as info:
            serialize.load_json_file(str(path))
        head, quoted = str(info.value).split("\n")
        assert head == f"{path}:1:{pos + 1}: Expecting ',' delimiter"
        assert quoted.startswith("  ") and len(quoted) <= 2 + 80
        assert quoted[2:] == text[pos - 40:pos] + "?" + text[pos + 1:pos + 40]

    @pytest.mark.parametrize("text, where, quoted", [
        ('{"a": 1,\n "b": ]\n}\n', "2:7: Expecting value", ' "b": ]'),
        ("", "1:1: Expecting value", ""),
        ('[1, 2', "1:6: Expecting ',' delimiter", "[1, 2"),
    ], ids=["second-line", "empty", "truncated"])
    def test_short_lines_quoted_whole(self, tmp_path, text, where, quoted):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            serialize.load_json_file(str(path))
        assert str(info.value) == f"{path}:{where}\n  {quoted}"
