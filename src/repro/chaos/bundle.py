"""Repro bundles: a failed campaign as a one-command replay.

A bundle is a JSON file holding the failing :class:`CampaignSpec` (seed +
config -- everything the run is a pure function of), the violations, the
fingerprint, and the decoded tail of the packet trace.  Replaying is just

    python -m repro.chaos --replay chaos_bundles/bundle_c007.json

which re-runs the spec and must reproduce the identical verdict.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from .campaign import CampaignSpec

__all__ = ["write_bundle", "load_bundle", "DEFAULT_BUNDLE_DIR"]

DEFAULT_BUNDLE_DIR = "chaos_bundles"

#: Schema 2 adds the ``metrics`` section: the full ``repro.obs`` registry
#: snapshot of the failing bed, so a bundle carries component health
#: (drops, evictions, checksum errors) alongside the trace tail.
BUNDLE_SCHEMA = 2


def write_bundle(verdict: Dict[str, Any],
                 directory: str = DEFAULT_BUNDLE_DIR) -> str:
    """Persist a failing verdict; returns the bundle path."""
    os.makedirs(directory, exist_ok=True)
    spec = verdict["spec"]
    path = os.path.join(directory, "bundle_%s.json" % spec["name"])
    bundle = {
        "schema": BUNDLE_SCHEMA,
        "replay": "python -m repro.chaos --replay %s" % path,
        "spec": spec,
        "violations": verdict["violations"],
        "fingerprint": verdict["fingerprint"],
        "events": verdict.get("events"),
        "impairments": verdict.get("impairments", {}),
        "metrics": verdict.get("metrics", {}),
        "errors": verdict.get("errors", []),
        "trace_tail": verdict.get("trace_tail", ""),
    }
    with open(path, "w") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bundle(path: str) -> CampaignSpec:
    """Read a bundle back into the spec that reproduces it."""
    with open(path) as handle:
        bundle = json.load(handle)
    if bundle.get("schema") != BUNDLE_SCHEMA:
        raise ValueError("unknown bundle schema %r" % bundle.get("schema"))
    return CampaignSpec.from_dict(bundle["spec"])
