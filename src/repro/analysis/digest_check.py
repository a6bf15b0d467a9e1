"""Digest-completeness rules (REPRO-C3xx).

The cache/session stack is only sound if *every result-affecting knob*
reaches the content digests and cache keys that address persisted
state.  A knob that misses the digest is a silent-staleness bug: two
different configurations collide on one cache entry and the second one
serves the first one's results.  A field deliberately kept out of a key
(a pre-memo dispatch field such as ``bus_strategy``) is a decision that
must be recorded in the baseline with a justification, not left
implicit.

These checks are semantic rather than syntactic, so they run against
the real classes:

* **REPRO-C301** — *digest probe*: for every
  :class:`~repro.runtime.config.RuntimeConfig` field, construct two
  configs differing only in that field and require
  :meth:`RuntimeConfig.digest` to differ.  A field whose variation does
  not move the digest — or that the probe cannot vary at all — fails.
* **REPRO-C302** — the same probe over every
  :class:`~repro.mapping.sabre.SabreParameters` field through the
  embedded ``routing`` payload.
* **REPRO-C304** — static key coverage: every
  :class:`~repro.design.engine.DesignOptions` field must appear in a
  stage cache-key expression (``key = (...)`` tuples referencing
  ``options.<field>``) in ``design/engine.py``; fields consumed by
  pre-memo dispatch instead are accepted via the baseline, each with a
  justification.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.findings import Finding

_CONFIG_PATH = "src/repro/runtime/config.py"
_SABRE_PATH = "src/repro/mapping/sabre.py"
_ENGINE_PATH = "src/repro/design/engine.py"

#: Known alternate values for strategy-style strings (validated fields
#: reject the generic ``value + suffix`` variant).
_STRATEGY_NAMES = ("bfs-greedy", "coordinate-descent")


def _generic_variant(value: Any) -> Any:
    """A value different from ``value`` under the same rough type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        if value in _STRATEGY_NAMES:
            return next(name for name in _STRATEGY_NAMES if name != value)
        return value + "-lint-probe"
    if isinstance(value, tuple):
        return value + (991_991,)
    if isinstance(value, list):
        return list(value) + [991_991]
    if value is None:
        return "lint-probe-store.json"
    if dataclasses.is_dataclass(value):
        return _vary_first_field(value)
    return None


def _vary_first_field(value: Any) -> Any:
    """A dataclass value with one probeable field changed."""
    for sub in dataclasses.fields(value):
        variant = _generic_variant(getattr(value, sub.name))
        if variant is None:
            continue
        try:
            return dataclasses.replace(value, **{sub.name: variant})
        except Exception:
            continue
    return None


#: Field-specific probe setup: extra base-field overrides applied to
#: *both* sides of the comparison, plus an explicit variant factory.
#: Needed where validation couples fields (``resume`` requires a
#: checkpoint) or constrains values (``passes`` must stay odd).
_SPECIAL_PROBES: Dict[str, Tuple[Dict[str, Any], Callable[[Any], Any]]] = {
    "resume": ({"checkpoint_path": "lint-probe-ck.sqlite"}, lambda value: not value),
    "passes": ({}, lambda value: value + 2),
    "restarts": ({}, lambda value: value + 1),
    "stall_threshold": ({}, lambda value: 9 if value is None else value + 1),
}


def probe_digest_fields(
    cls: type,
    *,
    digest: Optional[Callable[[Any], str]] = None,
    path: str = _CONFIG_PATH,
    rule: str = "REPRO-C301",
) -> List[Finding]:
    """Findings for every ``cls`` field whose variation leaves the digest fixed.

    ``cls`` must be a dataclass constructible with no arguments whose
    instances expose ``digest()`` (or pass an explicit ``digest``
    callable).  This is the check the mutation suite drives with a
    synthetic undigested field: popping a field from the digest payload
    must produce exactly one finding here.
    """
    digest_of = digest or (lambda obj: obj.digest())
    line = 1
    findings: List[Finding] = []
    for field in dataclasses.fields(cls):
        if not field.init:
            continue
        overrides, variant_of = _SPECIAL_PROBES.get(field.name, ({}, _generic_variant))
        try:
            base = cls(**overrides)
            variant_value = variant_of(getattr(base, field.name))
            if variant_value is None:
                raise ValueError("no generic variant for this field type")
            variant = dataclasses.replace(base, **{field.name: variant_value})
        except Exception as error:
            findings.append(Finding(
                rule=rule, path=path, line=line,
                message=(
                    f"field {field.name!r} of {cls.__name__} cannot be probed "
                    f"({error}); add an alternate value to "
                    "repro.analysis.digest_check so digest coverage stays "
                    "machine-checked"
                ),
                context=f"field {field.name}",
            ))
            continue
        if digest_of(base) == digest_of(variant):
            findings.append(Finding(
                rule=rule, path=path, line=line,
                message=(
                    f"field {field.name!r} of {cls.__name__} does not reach "
                    "the content digest: two configs differing only in it "
                    "collide on one cache/session key"
                ),
                context=f"field {field.name}",
            ))
    return findings


def runtime_config_findings() -> List[Finding]:
    """REPRO-C301 over the real :class:`RuntimeConfig`."""
    from repro.runtime.config import RuntimeConfig

    return probe_digest_fields(RuntimeConfig)


def routing_params_findings() -> List[Finding]:
    """REPRO-C302: every SabreParameters field must move the config digest."""
    from repro.mapping.sabre import SabreParameters
    from repro.runtime.config import RuntimeConfig

    findings: List[Finding] = []
    base_config = RuntimeConfig()
    base_digest = base_config.digest()
    for field in dataclasses.fields(SabreParameters):
        if not field.init:
            continue
        overrides, variant_of = _SPECIAL_PROBES.get(field.name, ({}, _generic_variant))
        del overrides  # routing fields never need base coupling
        try:
            variant_value = variant_of(getattr(base_config.routing, field.name))
            if variant_value is None:
                raise ValueError("no generic variant for this field type")
            routing = dataclasses.replace(
                base_config.routing, **{field.name: variant_value}
            )
            variant_digest = dataclasses.replace(base_config, routing=routing).digest()
        except Exception as error:
            findings.append(Finding(
                rule="REPRO-C302", path=_SABRE_PATH, line=1,
                message=(
                    f"routing field {field.name!r} cannot be probed ({error}); "
                    "add an alternate value to repro.analysis.digest_check"
                ),
                context=f"field {field.name}",
            ))
            continue
        if variant_digest == base_digest:
            findings.append(Finding(
                rule="REPRO-C302", path=_SABRE_PATH, line=1,
                message=(
                    f"SabreParameters field {field.name!r} does not reach "
                    "RuntimeConfig.digest(): routing results keyed by the "
                    "config digest would collide across different router "
                    "tunings"
                ),
                context=f"field {field.name}",
            ))
    return findings


def design_options_key_findings(
    root: Path,
    *,
    engine_source: Optional[str] = None,
    options_fields: Optional[Tuple[str, ...]] = None,
) -> List[Finding]:
    """REPRO-C304: every DesignOptions field in a stage cache key (or baselined).

    Statically collects ``options.<attr>`` references inside ``key =
    (...)`` assignments of ``design/engine.py``.  ``engine_source`` /
    ``options_fields`` exist for the mutation tests, which feed a
    doctored engine source.
    """
    if engine_source is None:
        engine_file = root / _ENGINE_PATH
        if not engine_file.exists():
            return []
        engine_source = engine_file.read_text(encoding="utf-8")
    if options_fields is None:
        from repro.design.engine import DesignOptions

        options_fields = tuple(
            field.name for field in dataclasses.fields(DesignOptions)
        )
    consumed = set()
    tree = ast.parse(engine_source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == "key" for t in node.targets):
            continue
        for child in ast.walk(node.value):
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "options"
            ):
                consumed.add(child.attr)
    findings: List[Finding] = []
    for name in options_fields:
        if name in consumed:
            continue
        findings.append(Finding(
            rule="REPRO-C304", path=_ENGINE_PATH, line=1,
            message=(
                f"DesignOptions field {name!r} appears in no stage cache-key "
                "expression in design/engine.py: a plan cached under one "
                "value would be served for another; key it, or baseline it "
                "with a justification if it is provably result-transparent "
                "or consumed by pre-memo dispatch"
            ),
            context=f"field {name}",
        ))
    return findings


def project_findings(root: Path) -> List[Finding]:
    """All digest-completeness findings for the repository at ``root``.

    Returns nothing when the runtime package is not importable (linting
    a tree that is not this repo), so the AST rules still work anywhere.
    """
    if not (root / _CONFIG_PATH).exists():
        return []
    findings: List[Finding] = []
    findings.extend(runtime_config_findings())
    findings.extend(routing_params_findings())
    findings.extend(design_options_key_findings(root))
    return findings
