"""Regenerate (or check) every committed golden fixture.

One entry point for all golden-baseline families::

    PYTHONPATH=src python scripts/regen_golden.py traces
    PYTHONPATH=src python scripts/regen_golden.py interfaces
    PYTHONPATH=src python scripts/regen_golden.py campaign
    PYTHONPATH=src python scripts/regen_golden.py paper
    PYTHONPATH=src python scripts/regen_golden.py all

Families:

* ``traces`` — ``tests/fixtures/golden_traces.json`` (scalar per-trial
  completion-trace digests) and ``tests/fixtures/golden_batched_metrics.json``
  (the same configurations through the batch entry points on the
  batched backend).  The two must stay consistent, so they always
  regenerate together.
* ``interfaces`` — ``tests/fixtures/golden_interfaces.json``: the
  selected ``(Π, Θ)`` per quadtree level for the canonical topologies,
  produced by the exact test oracle (``tests/analysis/oracle.py``)
  rather than the engine it checks.
* ``campaign`` — ``tests/fixtures/golden_campaign.json``: the golden
  baseline of the committed CI campaign spec (``campaigns/ci.json``),
  diffed in CI by ``repro campaign diff``.
* ``paper`` — ``tests/fixtures/golden_paper.json``: the per-trial,
  per-design inputs of the paper's simulation-backed claims (Figs. 6–7,
  the ablations, DRAM sensitivity, the scalability sweep), which
  ``tests/experiments/test_paper_claims.py`` reduces and checks.  The
  slowest family: a few minutes of simulation.

``--check`` regenerates every requested fixture in memory and compares
it byte-for-byte against the committed file without writing anything;
any drift (or a missing fixture) exits 1.  CI runs ``all --check`` so a
stale golden is a failing job, not a ritual someone forgot.

Regenerate only after a *deliberate* behavioural change, and review the
fixture diff together with the change that caused it — an unexpected
flip means observable behaviour changed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "tests"))

FIXTURES = REPO / "tests" / "fixtures"
CI_SPEC = REPO / "campaigns" / "ci.json"


def build_traces() -> dict[Path, str]:
    """Both trace fixtures: scalar digests + batched metrics."""
    from tests.experiments.test_golden_batched import (
        GOLDEN_BATCHED_PATH,
        collect_batched_metrics,
    )
    from tests.experiments.test_golden_traces import (
        GOLDEN_PATH,
        collect_digests,
    )

    digests = collect_digests()
    payload = {
        "comment": (
            "Completion-trace sha256 digests of the pinned fig6/fig7 "
            "configurations (see tests/experiments/test_golden_traces.py). "
            "Regenerate with scripts/regen_golden.py traces."
        ),
        "digests": digests,
    }
    batched = collect_batched_metrics()
    batched_payload = {
        "comment": (
            "Per-trial scalars and trace digests of the pinned fig6/fig7 "
            "and fault-injection isolation configurations run through the "
            "batch entry points on the batched backend (see "
            "tests/experiments/test_golden_batched.py). "
            "Regenerate with scripts/regen_golden.py traces."
        ),
        **batched,
    }
    return {
        GOLDEN_PATH: json.dumps(payload, indent=2, sort_keys=True) + "\n",
        GOLDEN_BATCHED_PATH: json.dumps(
            batched_payload, indent=2, sort_keys=True
        )
        + "\n",
    }


def build_interfaces() -> dict[Path, str]:
    """The composition snapshots, selected by the test oracle."""
    from repro.analysis import AnalysisContext, compose
    from repro.analysis.cache import DISABLED

    from analysis.golden_utils import (
        FIXTURE_PATH,
        GOLDEN_SIZES,
        composition_snapshot,
        golden_system,
    )
    from tests.analysis import oracle

    snapshots = {}
    for n_clients in GOLDEN_SIZES:
        topology, tasksets = golden_system(n_clients)
        with oracle.installed():
            result = compose(
                topology, tasksets, ctx=AnalysisContext(cache=DISABLED)
            )
        snapshots[str(n_clients)] = composition_snapshot(result)
    return {FIXTURE_PATH: json.dumps(snapshots, indent=2) + "\n"}


def build_campaign() -> dict[Path, str]:
    """The golden baseline of the committed CI campaign spec."""
    from repro.campaigns import (
        golden_payload,
        load_artifacts,
        load_campaign_spec,
        run_campaign,
    )
    from repro.campaigns.spec import canonical_json

    spec = load_campaign_spec(CI_SPEC)
    with tempfile.TemporaryDirectory(prefix="golden-campaign-") as tmp:
        run_campaign(spec, tmp, workers=1, resume=False)
        payload = golden_payload(
            load_artifacts(tmp),
            comment=(
                f"Golden baseline of the committed campaign spec "
                f"{CI_SPEC.relative_to(REPO)} (spec digest "
                f"{spec.digest()}). Regenerate with "
                "scripts/regen_golden.py campaign; CI diffs fresh runs "
                "against this file with `repro campaign diff`."
            ),
        )
    return {
        FIXTURES
        / "golden_campaign.json": canonical_json(payload) + "\n"
    }


def build_paper() -> dict[Path, str]:
    """The recorded inputs of the paper's simulation-backed claims."""
    from tests.experiments.test_paper_claims import (
        GOLDEN_PAPER_PATH,
        collect_paper,
    )

    payload = {
        "comment": (
            "Per-trial, per-design reducer inputs of the paper's "
            "simulation-backed claims, with the arguments that produced "
            "them (see tests/experiments/test_paper_claims.py). "
            "Regenerate with scripts/regen_golden.py paper."
        ),
        "runs": collect_paper(),
    }
    return {
        GOLDEN_PAPER_PATH: json.dumps(payload, indent=2, sort_keys=True)
        + "\n"
    }


BUILDERS = {
    "traces": build_traces,
    "interfaces": build_interfaces,
    "campaign": build_campaign,
    "paper": build_paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate or verify the committed golden fixtures"
    )
    parser.add_argument(
        "family",
        choices=(*BUILDERS, "all"),
        help="which fixture family to regenerate",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing: rebuild and diff against the committed "
        "fixtures, exit 1 on any drift",
    )
    args = parser.parse_args(argv)
    families = list(BUILDERS) if args.family == "all" else [args.family]

    drifted: list[Path] = []
    for family in families:
        for path, text in BUILDERS[family]().items():
            rel = path.relative_to(REPO)
            if args.check:
                committed = (
                    path.read_text(encoding="utf-8")
                    if path.exists()
                    else None
                )
                if committed != text:
                    status = "MISSING" if committed is None else "DRIFTED"
                    print(f"{status}: {rel}")
                    drifted.append(path)
                else:
                    print(f"ok: {rel}")
            else:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
                print(f"wrote {rel}")
    if drifted:
        print(
            f"\n{len(drifted)} fixture(s) out of date; regenerate with "
            f"`PYTHONPATH=src python scripts/regen_golden.py "
            f"{args.family}` and review the diff",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
