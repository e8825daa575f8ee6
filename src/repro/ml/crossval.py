"""Per-application cross validation (Section 4.3).

The paper partitions the HDTR corpus *by application*: all telemetry
from one application lands in either the tuning or the validation set,
never both, so validation measures generalisation to unseen programs
rather than to unseen intervals of seen programs. Folds are randomized
80/20 partitions, repeated k = 32 times; metric means and standard
deviations across folds drive design-time model selection.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro import rng as rng_mod
from repro.errors import DatasetError


@dataclasses.dataclass(frozen=True)
class Fold:
    """One cross-validation fold at application granularity."""

    fold_id: int
    tuning_apps: tuple[str, ...]
    validation_apps: tuple[str, ...]
    tuning_idx: np.ndarray
    validation_idx: np.ndarray


def _group_indices(groups: Sequence[str]) -> dict[str, np.ndarray]:
    arr = np.asarray(groups)
    return {name: np.flatnonzero(arr == name) for name in np.unique(arr)}


def app_kfold(groups: Sequence[str], k: int = 32,
              validation_fraction: float = 0.2, seed: int = 0,
              max_tuning_apps: int | None = None) -> list[Fold]:
    """Randomized per-application 80/20 folds (paper default k=32).

    Parameters
    ----------
    groups:
        Application name for each data row.
    max_tuning_apps:
        Cap on tuning-set applications, used by the training-diversity
        experiment (Figure 4) to vary tuning-set size while keeping the
        validation fraction fixed.
    """
    if not 0.0 < validation_fraction < 1.0:
        raise DatasetError(
            f"validation_fraction must be in (0,1): {validation_fraction}"
        )
    by_app = _group_indices(groups)
    apps = sorted(by_app)
    if len(apps) < 2:
        raise DatasetError("need at least two applications for app folds")
    n_val = max(1, int(round(len(apps) * validation_fraction)))
    folds: list[Fold] = []
    for fold_id in range(k):
        rng = rng_mod.stream(seed, "app-kfold", fold_id)
        order = rng.permutation(len(apps))
        val_apps = tuple(apps[i] for i in order[:n_val])
        tune_apps = [apps[i] for i in order[n_val:]]
        if max_tuning_apps is not None:
            tune_apps = tune_apps[:max_tuning_apps]
        tune_apps_t = tuple(tune_apps)
        tuning_idx = np.concatenate([by_app[a] for a in tune_apps_t])
        validation_idx = np.concatenate([by_app[a] for a in val_apps])
        folds.append(Fold(
            fold_id=fold_id,
            tuning_apps=tune_apps_t,
            validation_apps=val_apps,
            tuning_idx=np.sort(tuning_idx),
            validation_idx=np.sort(validation_idx),
        ))
    return folds


def leave_one_app_out(groups: Sequence[str]) -> list[Fold]:
    """Leave-one-application-out folds (Section 7 footnote 2)."""
    by_app = _group_indices(groups)
    apps = sorted(by_app)
    if len(apps) < 2:
        raise DatasetError("need at least two applications")
    folds: list[Fold] = []
    for fold_id, held_out in enumerate(apps):
        tune_apps = tuple(a for a in apps if a != held_out)
        folds.append(Fold(
            fold_id=fold_id,
            tuning_apps=tune_apps,
            validation_apps=(held_out,),
            tuning_idx=np.sort(np.concatenate(
                [by_app[a] for a in tune_apps])),
            validation_idx=by_app[held_out],
        ))
    return folds
