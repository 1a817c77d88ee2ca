"""Shared fixtures. The two campaign fixtures are session-scoped because
they cost tens of seconds each; every test that needs desk-scale Monte
Carlo statistics reads from these instead of launching its own campaign.
"""

import pytest

from zchurst import CampaignSpec, figure3_data, run_campaign

CAMPAIGN_SEED = 20240801
DESK_REPLICATIONS = 5000


@pytest.fixture(scope="session")
def benchmark_campaign():
    """Desk-scale estimator benchmark: both estimators, 5000 reps per cell."""
    spec = CampaignSpec(
        hurst_grid=(0.55, 0.65, 0.75, 0.85, 0.95),
        lengths=(128, 1024),
        replications=DESK_REPLICATIONS,
        base_seed=CAMPAIGN_SEED,
    )
    return spec, run_campaign(spec)


@pytest.fixture(scope="session")
def normality_study():
    """Standardized-sample study at n=8192 for one short-memory and one
    long-memory point; returns (samples_rows, summary_rows)."""
    spec = CampaignSpec(
        hurst_grid=(0.55, 0.95),
        lengths=(8192,),
        replications=DESK_REPLICATIONS,
        base_seed=CAMPAIGN_SEED,
    )
    return figure3_data(spec)
