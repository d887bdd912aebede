"""The annotation-driven JSON codec shared by every journal record type.

``tests/data/journal_records_v1.json`` is the compatibility reference: one
record per type, written by the hand-written ``to_json`` methods that
:class:`repro.records.JsonRecord` replaced (``git show f90ade3``), for the
instances in ``tests/record_examples.py``.  It must never be regenerated
from the codec itself — journals already on disk were written that way,
and result digests hash the canonical encoding checked here.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pathlib
import pkgutil
from dataclasses import dataclass, field

import pytest

import repro
from repro.experiments.series import Series
from repro.records import JsonRecord
from repro.resilience.report import ResilienceSummary
from tests.record_examples import example_records

FIXTURE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "data"
    / "journal_records_v1.json"
)


def canonical(data: dict) -> str:
    """The journal's canonical encoding (what result digests hash)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def record_types() -> set[type]:
    """Every JsonRecord subclass, after importing all of ``repro``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, pending = set(), [JsonRecord]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith("repro."):
                found.add(sub)
            pending.append(sub)
    return found


EXAMPLES = {type(record): record for record in example_records()}
V1 = json.loads(FIXTURE.read_text())


class TestFrozenV1Format:
    @pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
    def test_v1_record_decodes_to_the_example(self, cls):
        assert cls.from_json(V1[cls.__name__]) == EXAMPLES[cls]

    @pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
    def test_reencoding_is_byte_identical(self, cls):
        expected = canonical(V1[cls.__name__])
        assert canonical(EXAMPLES[cls].to_json()) == expected
        assert canonical(cls.from_json(V1[cls.__name__]).to_json()) == expected

    def test_fixture_covers_every_example(self):
        assert set(V1) == {cls.__name__ for cls in EXAMPLES}


class TestEveryRecordType:
    def test_every_record_type_has_an_example(self):
        assert record_types() == set(EXAMPLES)

    @pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
    def test_round_trip_through_json_text(self, cls):
        record = EXAMPLES[cls]
        text = json.dumps(record.to_json())
        assert cls.from_json(json.loads(text)) == record


class TestCodecContract:
    def test_unknown_keys_are_ignored(self):
        data = EXAMPLES[Series].to_json()
        data["from_the_future"] = {"nested": [1, 2]}
        assert Series.from_json(data) == EXAMPLES[Series]

    def test_missing_keys_take_the_field_default(self):
        assert ResilienceSummary.from_json({}) == ResilienceSummary()

    def test_missing_required_key_names_class_and_key(self):
        data = EXAMPLES[Series].to_json()
        del data["label"]
        with pytest.raises(KeyError, match=r"Series.*'label'"):
            Series.from_json(data)

    def test_json_scalars_pass_through_unchanged(self):
        series = Series.from_json({"label": "s", "x": [1, 10], "y": [2, 3.5]})
        assert [type(v) for v in series.x] == [int, int]
        assert [type(v) for v in series.y] == [int, float]

    def test_containers_and_nested_records_are_rebuilt(self):
        summary = ResilienceSummary.from_json(
            EXAMPLES[ResilienceSummary].to_json()
        )
        assert type(summary.fault_plan.outages) is tuple
        assert type(summary.fault_plan.outages[0].receivers) is tuple
        assert type(summary.ejected_by_domain["root/a"]) is tuple

    def test_encoding_copies_containers(self):
        series = EXAMPLES[Series]
        data = series.to_json()
        data["x"].append(1000)
        assert series.x == [1, 10, 100]

    def test_local_record_types_work_too(self):
        @dataclass(frozen=True)
        class Inner(JsonRecord):
            values: tuple[int, ...] = ()

        @dataclass
        class Outer(JsonRecord):
            name: str
            inner: Inner | None = None
            by_key: dict[str, list[Inner]] = field(default_factory=dict)

        outer = Outer("o", Inner((1, 2)), {"a": [Inner((3,))]})
        data = json.loads(json.dumps(outer.to_json()))
        assert data == {
            "name": "o",
            "inner": {"values": [1, 2]},
            "by_key": {"a": [{"values": [3]}]},
        }
        assert Outer.from_json(data) == outer
        assert [f.name for f in dataclasses.fields(Outer)] == list(data)
