"""Tiny declarative schema validation for bench and report JSON.

No external schema library is used (the container pins its dependency
set); instead each document kind declares the fields it must carry as
``(name, allowed types, required)`` triples plus an optional per-kind
check. Validation is **fail-soft by design**: it returns a list of
problem strings rather than raising, so the report pipeline can ingest a
directory containing missing or legacy bench files and render what it can
with warnings — while CI, which controls its inputs, treats a non-empty
problem list as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SchemaField:
    """One required (or optional) field of a JSON document."""

    name: str
    types: Tuple[type, ...]
    required: bool = True

    def problems(self, document: Mapping[str, object]) -> List[str]:
        """Validation problems of this field against ``document``."""
        if self.name not in document:
            if self.required:
                return [f"missing required field {self.name!r}"]
            return []
        value = document[self.name]
        # bool is an int subclass: an int-typed field must not silently
        # accept True/False, and a bool-typed field must not accept 1/0.
        if bool not in self.types and isinstance(value, bool):
            pass
        elif isinstance(value, self.types):
            if bool in self.types and not isinstance(value, bool):
                return [f"field {self.name!r} must be a bool, got "
                        f"{type(value).__name__}"]
            return []
        expected = "/".join(t.__name__ for t in self.types)
        return [f"field {self.name!r} must be {expected}, got "
                f"{type(value).__name__}"]


#: Fields every BENCH_*.json shares, whatever the benchmark.
GENERIC_BENCH_FIELDS: Tuple[SchemaField, ...] = (
    SchemaField("benchmark", (str,)),
    SchemaField("python", (str,)),
    SchemaField("seed", (int,)),
    SchemaField("runs", (list,)),
)

#: Per-benchmark extra fields (keyed by the ``benchmark`` value).
BENCH_EXTRA_FIELDS: Dict[str, Tuple[SchemaField, ...]] = {
    "distcache": (
        SchemaField("scheme", (str,)),
        SchemaField("tenant_count", (int,)),
        SchemaField("query_count", (int,)),
        SchemaField("unsharded", (dict,)),
        SchemaField("jobs_runs", (list,)),
        SchemaField("speedup", (dict,)),
    ),
    "placement": (
        SchemaField("scheme", (str,)),
        SchemaField("tenant_count", (int,)),
        SchemaField("query_count", (int,)),
        SchemaField("partitions", (int,)),
        SchemaField("handoff_threshold", (int, float)),
    ),
    "planner": (
        SchemaField("scheme", (str,)),
        SchemaField("query_count", (int,)),
        SchemaField("repetitions", (int,)),
        SchemaField("outcomes_identical", (bool,)),
        SchemaField("speedup", (dict,)),
    ),
    "shocks": (
        SchemaField("tenants", (int,)),
        SchemaField("query_count", (int,)),
        SchemaField("grammar", (str,)),
        SchemaField("conservation_exact", (bool,)),
    ),
}

#: Per-benchmark gate: a predicate over the document that must hold for
#: the perf history to count as healthy (rendered in the summary table).
BENCH_GATES: Dict[str, Tuple[str, Callable[[Mapping[str, object]], bool]]] = {
    "distcache": ("runs_recorded",
                  lambda doc: bool(doc.get("runs"))),
    "placement": ("handoffs_applied",
                  lambda doc: any(run.get("handoffs", 0) > 0
                                  for run in doc.get("runs", ())
                                  if isinstance(run, Mapping)
                                  and run.get("placement") == "adaptive")),
    "planner": ("outcomes_identical",
                lambda doc: doc.get("outcomes_identical") is True),
    "shocks": ("conservation_exact",
               lambda doc: doc.get("conservation_exact") is True),
}


def validate_fields(document: object,
                    fields: Sequence[SchemaField],
                    context: str = "document") -> List[str]:
    """Validate ``document`` against ``fields``; return problem strings."""
    if not isinstance(document, Mapping):
        return [f"{context} is not a JSON object "
                f"(got {type(document).__name__})"]
    problems: List[str] = []
    for schema_field in fields:
        problems.extend(schema_field.problems(document))
    return problems


def validate_bench(document: object,
                   expected_kind: Optional[str] = None) -> List[str]:
    """Validate one BENCH_*.json document (generic + per-kind fields).

    Args:
        document: the parsed JSON.
        expected_kind: when set, the ``benchmark`` field must equal it
            (catches a file renamed over a different benchmark's output).

    Returns:
        Problem strings; empty means the document is schema-valid.
    """
    problems = validate_fields(document, GENERIC_BENCH_FIELDS, "bench file")
    if problems:
        return problems
    kind = document["benchmark"]
    if expected_kind is not None and kind != expected_kind:
        problems.append(
            f"field 'benchmark' is {kind!r} but the file name says "
            f"{expected_kind!r}")
    extra = BENCH_EXTRA_FIELDS.get(kind)
    if extra is None:
        problems.append(f"unknown benchmark kind {kind!r}")
    else:
        problems.extend(validate_fields(document, extra, "bench file"))
    if not document["runs"]:
        problems.append("field 'runs' is empty: no runs recorded")
    return problems


#: The report document's own schema (self-checked before writing).
#: ``grids`` is an optional section: present only when the report ran
#: with ``--grids``.
REPORT_FIELDS: Tuple[SchemaField, ...] = (
    SchemaField("schema_version", (int,)),
    SchemaField("generator", (str,)),
    SchemaField("benches", (dict,)),
    SchemaField("summary", (list,)),
    SchemaField("traces", (list,)),
    SchemaField("warnings", (list,)),
    SchemaField("grids", (dict,), required=False),
)

REPORT_BENCH_FIELDS: Tuple[SchemaField, ...] = (
    SchemaField("path", (str,)),
    SchemaField("valid", (bool,)),
    SchemaField("problems", (list,)),
    SchemaField("headline", (dict,)),
)


def validate_report(document: object) -> List[str]:
    """Validate a rendered report document against its own schema."""
    problems = validate_fields(document, REPORT_FIELDS, "report")
    if problems:
        return problems
    for name, entry in sorted(document["benches"].items()):
        problems.extend(validate_fields(
            entry, REPORT_BENCH_FIELDS, f"benches[{name!r}]"))
    return problems
