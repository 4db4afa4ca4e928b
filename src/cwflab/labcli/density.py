"""Polarization density-matrix scenario, evaluated on exact arithmetic.

One photon's polarization is reconstructed entrywise from weak values while
a second photon's position either stays uncorrelated (beam splitter off) or
records which polarization branch the first photon took (beam splitter on).
Conditioning on the recorded position then either leaves the half-identity
reduced matrix untouched or collapses it to a single branch projector.
"""

import numpy as np

from .. import polar
from ..errors import OffGridError, ValidationError
from ..qgrid import Grid1D
from .config import ScenarioConfig
from .reports import check_record

EXACT_TOL = 1e-10
AVERAGING_TOL = 1e-12
# binomially resampled post-selection rates move the off-diagonals by
# O(1/sqrt(n)); the factor covers the two rate draws at 3 sigma each
RESAMPLE_TOL_FACTOR = 6.0


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _estimate_json(m: np.ndarray) -> dict:
    """Raw reconstruction entries; resampled estimates need not be Hermitian."""
    return {"basis": ["H", "V"], "re": m.real.tolist(), "im": m.imag.tolist(),
            "trace": float(np.trace(m).real)}


def run_density_dm(cfg: ScenarioConfig) -> dict:
    """Direct matrix reconstruction vs the reduced and conditioned targets."""
    g, st, pr = cfg.grid, cfg.state, cfg.protocol
    spec = polar.HilbertSpec(Grid1D(g["y_min"], g["y_max"], g["n_y"]))
    shift, width = st["shift"], st["width"]
    bs = bool(pr["bs_inserted"])
    resample_n = pr["resample_n"]

    dy = spec.pos2.dx
    try:
        polar.pos_index(spec.pos2, 0.0)   # so are +-shift, if whole cells
    except OffGridError:
        raise ValidationError(
            f"config.grid: Y = 0 is not a y grid point (y_min = "
            f"{spec.pos2.x_min:g}, dy = {dy:g})") from None

    rho = polar.make_state_psi1(spec, width)
    if bs:
        # the splitter moves the branches to Y = +-shift, where they are read
        if not spec.pos2.x_min <= -abs(shift) <= abs(shift) < spec.pos2.x_max:
            raise ValidationError(
                f"config.state.shift: Y = +-{shift:g} outside the y grid "
                f"[{spec.pos2.x_min:g}, {spec.pos2.x_max:g})")
        try:
            rho = polar.apply_beam_splitter(rho, shift)
        except ValidationError as e:
            raise ValidationError(
                f"config.state.shift: {e} (dy = {dy:g})") from None

    rdm = polar.reduced_dm(rho)
    half_identity = np.eye(2) / 2.0

    tol = EXACT_TOL
    if resample_n is not None:
        tol = max(tol, RESAMPLE_TOL_FACTOR / np.sqrt(resample_n))

    direct_all = polar.direct_dm_measurement(
        rho, None, resample_n=resample_n, seed=cfg.seed)

    checks = [
        check_record("direct_equals_rdm",
                     distance=_distance(direct_all, rdm.matrix), tol=tol),
        check_record("rdm_is_half_identity",
                     distance=_distance(rdm.matrix, half_identity),
                     tol=EXACT_TOL),
    ]
    matrices = {"unconditioned": _estimate_json(direct_all)}
    targets = {"rdm": polar.dm_to_json_dict(rdm)}

    if bs:
        y_points = {"Y_plus": +shift, "Y_minus": -shift}
        branch_targets = {"Y_plus": np.diag([1.0, 0.0]),
                          "Y_minus": np.diag([0.0, 1.0])}
    else:
        y_points = {"Y_zero": 0.0}
        branch_targets = {"Y_zero": half_identity}

    for label, Y in y_points.items():
        cdm = polar.normalize_dm(polar.conditional_dm(rho, Y))
        direct_Y = polar.direct_dm_measurement(
            rho, Y, resample_n=resample_n, seed=cfg.seed)
        checks.append(check_record(
            f"direct_equals_cdm_{label}",
            distance=_distance(direct_Y, cdm.matrix), tol=tol))
        checks.append(check_record(
            f"cdm_{label}_matches_branch_target",
            distance=_distance(cdm.matrix, branch_targets[label]),
            tol=EXACT_TOL))
        matrices[label] = _estimate_json(direct_Y)
        targets[f"cdm_{label}"] = polar.dm_to_json_dict(cdm)

    # unnormalized conditioned blocks over every Y cell resum to the
    # reduced matrix; this is the partial-trace decomposition identity
    total = np.zeros((2, 2), dtype=np.complex128)
    for y in spec.pos2.points:
        total += polar.conditional_dm(rho, float(y)).matrix
    checks.append(check_record("averaging_law",
                               distance=_distance(total, rdm.matrix),
                               tol=AVERAGING_TOL))

    report = {
        "bs_inserted": bs,
        "resample_n": resample_n,
        # the wrong-branch amplitude at Y = +-shift decays as exp(-r r) with
        # r = shift / width (r ** 2 raises where r r overflows to inf)
        "well_separated": bool(
            bs and np.exp(-(shift / width) * (shift / width)) < EXACT_TOL),
        "matrices": matrices,
        "targets": targets,
        "checks": checks,
    }
    return {"report": report, "records": None, "wf_tables": {}}
