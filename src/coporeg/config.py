"""Run configuration: tolerances, grid resolution, box bounds, caps."""

import math
import os
from dataclasses import asdict, dataclass, fields
from numbers import Real

from .model import _load_json


@dataclass(frozen=True)
class RunConfig:
    """All numeric knobs in one place; echoed verbatim into every report.

    Tolerances are absolute unless noted.  ``h`` is the simplex grid
    resolution used by the restricted-region oracle; ``box_r`` bounds the
    decision variables (and the slack variable) in every cutting-plane
    master.  ``iteration_cap`` of ``None`` means 2n+2 for an n-variable
    program.
    """

    tol_feas: float = 1e-9       # feasibility residuals / cut violation
    tol_support: float = 1e-7    # positive-support threshold for simplex points
    tol_rank: float = 1e-10      # rank and span tests
    tol_cop: float = 1e-9        # copositivity margin
    tol_lp: float = 1e-9         # LP optimality / duality gap
    tol_mult: float = 1e-7       # multipliers at or below this are zero
    tol_cert: float = 1e-7       # certificate stationarity / kernel residual
    tol_zero: float = 1e-7       # |mu*| below this counts as a zero optimum
    tol_neg: float = 1e-6        # mu* below -tol_neg counts as negative
    tol_band: float = 1e-6       # tie band for the feasibility equivalence check
    p_max: int = 14              # exact-oracle dimension cap (2^p supports)
    h: float = 2.0 ** -7         # grid resolution (scaled down for p >= 4)
    box_r: float = 1e3           # box |x_j| <= R and mu >= -R in masters
    iteration_cap: int | None = None
    seed: int = 0
    samples: int = 1000          # default sample count for equivalence checks

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.name == "iteration_cap":
                continue
            if isinstance(v, bool) or not isinstance(v, Real):
                raise ValueError(f"{f.name} must be a number, got {v!r}")
            if f.type in (int, int | None) and not isinstance(v, int):
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
            if not isinstance(v, int) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
            if f.name.startswith("tol_") and not (v > 0.0):
                raise ValueError(f"{f.name} must be positive, got {v}")
        if not (0.0 < self.h <= 0.25):
            raise ValueError(f"h must lie in (0, 1/4], got {self.h}")
        if not self.box_r > 0.0:
            raise ValueError(f"box_r must be positive, got {self.box_r}")
        for name, least in (("iteration_cap", 1), ("p_max", 2),
                            ("samples", 1), ("seed", 0)):
            v = getattr(self, name)
            if v is not None and v < least:
                raise ValueError(f"{name} must be >= {least}, got {v}")

    def cap_for(self, n):
        return self.iteration_cap if self.iteration_cap is not None else 2 * n + 2

    def grid_h(self, p):
        """Grid resolution scaled so point counts stay at desk scale."""
        if p <= 3:
            return self.h
        shrink = 4 ** (p - 3)           # roughly constant point budget
        return min(0.25, self.h * shrink)

    def replace(self, **kw):
        d = asdict(self)
        d.update(kw)
        return RunConfig(**d)

    def to_dict(self):
        return asdict(self)


def load_env_config(base=None):
    """Merge the JSON config file named by ``COPOREG_CONFIG`` under `base`
    values.

    File values fill in anything not explicitly set in ``base`` (a dict of
    overrides); unknown keys are rejected.
    """
    base = dict(base or {})
    path = os.environ.get("COPOREG_CONFIG")
    merged = {}
    if path:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise ValueError(f"config file {path!r}: {e}") from e
        file_cfg = _load_json(data, f"config file {path!r}")
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {path!r} must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_cfg) - known
        if unknown:
            raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
        merged.update(file_cfg)
    merged.update(base)
    return RunConfig(**merged)


DEFAULT = RunConfig()
