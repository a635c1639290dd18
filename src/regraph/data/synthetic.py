"""Synthetic truck-parking dataset generator.

Produces a sites table and an occupancy record stream with the structure
the forecasting pipeline expects from a real archive: regional clusters of
sites, overnight-peaking diurnal demand, weekday/weekend modulation,
per-site noise, and overflow that spills to same-region neighbors when a
site fills up. Fully deterministic under its seed: the same config writes
byte-identical CSVs.

Site attribute draws come from one master stream; each site's time series
uses its own child stream keyed by (seed, site index), so series are
independent given the seed and the coupling term only mixes them after
all draws are done.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..files import atomic_open, write_json
from ..graph.build import SITES_HEADER
from .ingest import RECORDS_HEADER

__all__ = ["SyntheticConfig", "generate_synthetic"]

REGION_BASE_LAT = 38.0
REGION_BASE_LON = -96.0
# Adjacent region centers sit ~43 miles apart: intra-region pairs are well
# inside the 40-mile edge threshold, boundary pairs of neighboring regions
# just barely make it, and farther regions never connect.
REGION_LAT_STEP = 0.45
REGION_LON_STEP = 0.55
SITE_JITTER_DEG = 0.15
# Region r sits at latitude REGION_BASE_LAT + r * REGION_LAT_STEP, give or
# take the jitter; past this many regions the last one crosses the pole.
MAX_REGIONS = int((90.0 - SITE_JITTER_DEG - REGION_BASE_LAT) // REGION_LAT_STEP) + 1
OVERFLOW_CEILING = 1.1


@dataclass(frozen=True)
class SyntheticConfig:
    n_sites: int = 105
    n_regions: int = 8
    days: int = 14
    seed: int = 0
    start_date: str = "2024-01-01"
    grid_step_min: int = 10
    base_range: tuple[float, float] = (0.4, 0.65)
    amplitude_range: tuple[float, float] = (0.25, 0.45)
    phase_range: tuple[float, float] = (-4.0, 4.0)
    weekend_range: tuple[float, float] = (-0.25, -0.05)
    noise_level: float = 0.02
    coupling: float = 0.5
    capacity_range: tuple[int, int] = (20, 120)
    drop_rate: float = 0.0
    forced_full: tuple[int, ...] = ()
    forced_level: float = 1.25

    def __post_init__(self):
        if self.n_sites < 1:
            raise ConfigError(f"n_sites must be >= 1, got {self.n_sites}")
        if not 1 <= self.n_regions <= min(self.n_sites, MAX_REGIONS):
            raise ConfigError(
                f"n_regions must be in [1, {min(self.n_sites, MAX_REGIONS)}] (at most "
                f"n_sites, and at most {MAX_REGIONS} regions fit the latitude layout), "
                f"got {self.n_regions}")
        if self.days < 1:
            raise ConfigError(f"days must be >= 1, got {self.days}")
        if self.seed < 0:
            raise ConfigError(f"synth seed must be >= 0, got {self.seed}")
        if self.grid_step_min < 1:
            raise ConfigError(f"grid_step_min must be >= 1, got {self.grid_step_min}")
        if not 0.0 <= self.coupling <= 1.0:
            raise ConfigError(f"coupling must be in [0, 1], got {self.coupling}")
        if not self.noise_level >= 0:
            raise ConfigError(f"noise_level must be >= 0, got {self.noise_level}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        for name in ("base_range", "amplitude_range", "phase_range",
                     "weekend_range", "capacity_range"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ConfigError(f"{name} must be a finite (lo, hi) pair, got ({lo}, {hi})")
        if self.capacity_range[0] < 1:
            raise ConfigError("capacity_range minimum must be >= 1")
        for idx in self.forced_full:
            if not 0 <= idx < self.n_sites:
                raise ConfigError(f"forced_full index {idx} outside 0..{self.n_sites - 1}")
        if not self.forced_level > 1.0:
            raise ConfigError(f"forced_level must exceed 1.0, got {self.forced_level}")
        try:
            date.fromisoformat(self.start_date)
        except ValueError as exc:
            raise ConfigError(f"start_date: {exc}") from exc


def _site_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def generate_synthetic(cfg: SyntheticConfig, out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Write sites.csv, records.csv, and a synth_config.json sidecar."""
    out_dir = Path(out_dir)

    master = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    region_phase = master.uniform(cfg.phase_range[0], cfg.phase_range[1], size=cfg.n_regions)

    n = cfg.n_sites
    region_idx = np.arange(n) % cfg.n_regions
    capacity = master.integers(cfg.capacity_range[0], cfg.capacity_range[1] + 1, size=n)
    travel_time = np.round(master.uniform(3.0, 45.0, size=n), 1)
    owner = master.integers(0, 2, size=n)
    amenities = master.integers(0, 9, size=n)
    lat = REGION_BASE_LAT + region_idx * REGION_LAT_STEP + \
        master.uniform(-SITE_JITTER_DEG, SITE_JITTER_DEG, size=n)
    lon = REGION_BASE_LON + region_idx * REGION_LON_STEP + \
        master.uniform(-SITE_JITTER_DEG, SITE_JITTER_DEG, size=n)

    start = datetime.combine(date.fromisoformat(cfg.start_date), time())
    steps_per_day = (24 * 60) // cfg.grid_step_min
    n_steps = cfg.days * steps_per_day
    times = [start + k * timedelta(minutes=cfg.grid_step_min) for k in range(n_steps)]
    hour_frac = np.array([t.hour + t.minute / 60.0 for t in times])
    weekend = np.array([1.0 if t.weekday() >= 5 else 0.0 for t in times])

    # Per-site demand before any interaction. Peak sits overnight near 2am,
    # shifted by the region's phase plus a small per-site offset.
    demand = np.empty((n, n_steps))
    site_params = []
    drop_masks = np.zeros((n, n_steps), dtype=bool)
    for i in range(n):
        rng = _site_rng(cfg.seed, i)
        base = rng.uniform(*cfg.base_range)
        amp = rng.uniform(*cfg.amplitude_range)
        phase = float(region_phase[region_idx[i]]) + rng.uniform(-0.5, 0.5)
        wk = rng.uniform(*cfg.weekend_range)
        noise = rng.normal(0.0, cfg.noise_level, size=n_steps)
        peak_hour = 2.0 + phase
        series = base + amp * np.cos(2.0 * np.pi * (hour_frac - peak_hour) / 24.0)
        series = series * (1.0 + wk * weekend) + noise
        demand[i] = series
        site_params.append({"base": base, "amplitude": amp,
                            "peak_hour": peak_hour, "weekend_delta": wk})
        if cfg.drop_rate > 0:
            mask = rng.uniform(size=n_steps) < cfg.drop_rate
            mask[0] = mask[-1] = False
            drop_masks[i] = mask

    for idx in cfg.forced_full:
        demand[idx, :] = cfg.forced_level

    # Overflow: each over-full site pushes coupling * excess, split equally
    # across the other sites of its region.
    occupancy = demand.copy()
    if cfg.coupling > 0:
        for r in range(cfg.n_regions):
            members = np.where(region_idx == r)[0]
            m = len(members)
            if m < 2:
                continue
            block = demand[members]
            excess = np.maximum(block - 1.0, 0.0)
            total = np.sum(excess, axis=0)
            received = cfg.coupling * (total[None, :] - excess) / (m - 1)
            occupancy[members] = block + received
    occupancy = np.clip(occupancy, 0.0, OVERFLOW_CEILING)

    available = np.rint(capacity[:, None] * (1.0 - occupancy)).astype(np.int64)

    sites_path = out_dir / "sites.csv"
    with atomic_open(sites_path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SITES_HEADER)
        for i in range(n):
            writer.writerow([
                f"site_{i:03d}", f"R{region_idx[i]}",
                repr(float(lat[i])), repr(float(lon[i])),
                repr(float(travel_time[i])), int(owner[i]),
                int(amenities[i]), int(capacity[i]),
            ])

    records_path = out_dir / "records.csv"
    with atomic_open(records_path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORDS_HEADER)
        for k, t in enumerate(times):
            stamp = t.isoformat()
            for i in range(n):
                if drop_masks[i, k]:
                    continue
                writer.writerow([f"site_{i:03d}", stamp, int(available[i, k])])

    sidecar_path = out_dir / "synth_config.json"
    payload = {
        "config": dataclasses.asdict(cfg),
        "regions": [f"R{r}" for r in range(cfg.n_regions)],
        "region_peak_phase": [float(x) for x in region_phase],
        "sites": [
            {
                "site_id": f"site_{i:03d}",
                "region": f"R{region_idx[i]}",
                "capacity": int(capacity[i]),
                **{k: float(v) for k, v in site_params[i].items()},
            }
            for i in range(n)
        ],
    }
    write_json(sidecar_path, payload)

    return sites_path, records_path, sidecar_path
