"""The six HDTR application categories of Table 1.

The paper's high-diversity training set (HDTR) spans 593 applications
in six categories. Each category here carries (a) the paper's
application count and (b) a phase-family mixture that biases which
archetypes its applications draw. Counts are scaled by ``REPRO_SCALE``
when building the corpus.

The ``store_burst`` blindspot family appears only lightly in HDTR
(cloud/security logging behaviour) so that models trained on expert
counter sets — which cannot see store-queue pressure — develop the
systematic mispredictions the paper reports on ``roms_s`` (Figure 9).
The PF-selected counters include Store Queue Occupancy, so models
trained per Section 6 handle these phases.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro import rng as rng_mod
from repro.config import active_exec_config
from repro.workloads.generator import ApplicationSpec, generate_application

#: Table 1 application counts per category.
PAPER_CATEGORY_COUNTS: dict[str, int] = {
    "hpc_perf": 176,
    "cloud_security": 75,
    "ai_analytics": 34,
    "web_productivity": 171,
    "multimedia": 80,
    "games_rendering_ar": 57,
}

#: Table 1 trace count and application count.
PAPER_HDTR_TRACES = 2648
PAPER_HDTR_APPS = 593


@dataclasses.dataclass(frozen=True)
class Category:
    """One Table-1 application category."""

    name: str
    display_name: str
    server: bool
    paper_app_count: int
    family_weights: Mapping[str, float]


CATEGORIES: tuple[Category, ...] = (
    Category(
        name="hpc_perf",
        display_name="HPC & Perf.",
        server=True,
        paper_app_count=PAPER_CATEGORY_COUNTS["hpc_perf"],
        family_weights={
            "compute_fp": 0.30,
            "sparse_fp": 0.25,
            "bandwidth": 0.20,
            "dep_chain": 0.10,
            "compute_int": 0.10,
            "balanced": 0.05,
        },
    ),
    Category(
        name="cloud_security",
        display_name="Cloud & Security",
        server=True,
        paper_app_count=PAPER_CATEGORY_COUNTS["cloud_security"],
        family_weights={
            "frontend": 0.25,
            "branchy": 0.20,
            "compute_int": 0.20,
            "pointer_chase": 0.15,
            "balanced": 0.17,
            # Store bursts are rare in the training corpus — exactly
            # the long-tail behaviour the paper's blindspot analysis is
            # about. Expert counters cannot separate the few training
            # examples from abundant gateable memory phases; the PF set
            # (Store Queue Occupancy) can.
            "store_burst": 0.03,
        },
    ),
    Category(
        name="ai_analytics",
        display_name="AI & Analytics",
        server=True,
        paper_app_count=PAPER_CATEGORY_COUNTS["ai_analytics"],
        family_weights={
            "ai_kernel": 0.40,
            "bandwidth": 0.20,
            "pointer_chase": 0.20,
            "balanced": 0.10,
            "compute_fp": 0.10,
        },
    ),
    Category(
        name="web_productivity",
        display_name="Web & Productivity",
        server=False,
        paper_app_count=PAPER_CATEGORY_COUNTS["web_productivity"],
        family_weights={
            "branchy": 0.25,
            "frontend": 0.22,
            "balanced": 0.25,
            "low_activity": 0.13,
            "pointer_chase": 0.15,
        },
    ),
    Category(
        name="multimedia",
        display_name="Multimedia",
        server=False,
        paper_app_count=PAPER_CATEGORY_COUNTS["multimedia"],
        family_weights={
            "media": 0.50,
            "balanced": 0.20,
            "compute_fp": 0.15,
            "bandwidth": 0.15,
        },
    ),
    Category(
        name="games_rendering_ar",
        display_name="Games, Rendering & Aug. Reality",
        server=False,
        paper_app_count=PAPER_CATEGORY_COUNTS["games_rendering_ar"],
        family_weights={
            "media": 0.30,
            "compute_fp": 0.25,
            "branchy": 0.20,
            "balanced": 0.15,
            "ai_kernel": 0.10,
        },
    ),
)

_BY_NAME = {cat.name: cat for cat in CATEGORIES}


def get_category(name: str) -> Category:
    """Look up a category by name."""
    return _BY_NAME[name]


def scaled_category_counts(scale: float | None = None,
                           min_per_category: int = 4) -> dict[str, int]:
    """Per-category app counts scaled by ``REPRO_SCALE``.

    The paper's 593 applications shrink proportionally; every category
    keeps at least ``min_per_category`` applications so the corpus
    remains diverse at small scales.
    """
    scale = active_exec_config().scale if scale is None else scale
    # The default scale targets ~130 applications, enough for the
    # diversity experiment's trend while staying laptop-fast.
    base_fraction = 0.22 * scale
    return {
        cat.name: max(min_per_category,
                      int(round(cat.paper_app_count * base_fraction)))
        for cat in CATEGORIES
    }


def hdtr_corpus(seed: int,
                counts: Mapping[str, int] | None = None,
                ) -> list[ApplicationSpec]:
    """Generate the scaled HDTR application corpus.

    Returns one :class:`ApplicationSpec` per application, named
    ``{category}_{index:03d}``, in a stable order.
    """
    counts = dict(counts) if counts is not None else scaled_category_counts()
    apps: list[ApplicationSpec] = []
    for cat in CATEGORIES:
        n_apps = counts.get(cat.name, 0)
        for i in range(n_apps):
            app = generate_application(
                name=f"{cat.name}_{i:03d}",
                category=cat.name,
                families_weights=cat.family_weights,
                seed=rng_mod.derive_seed(seed, "hdtr", cat.name, i),
            )
            apps.append(app)
    return apps
