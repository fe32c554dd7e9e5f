"""Portfolio screening: mixed-direction criteria, why-not, windows.

An end-to-end tour of the post-1.0 extensions on a realistic task:
screen investment funds where some criteria are minimised (fees, risk)
and others maximised (returns, liquidity), explain why a fund missed
the shortlist, and track the shortlist over a sliding window of
quarterly updates.

Run:  python examples/portfolio_screening.py
"""

import numpy as np

from repro import run_plan
from repro.core.dataset import Dataset
from repro.extensions import rank_skyline, why_not
from repro.streaming import WindowSkyline, WindowSpec
from repro.zorder import ZGridCodec, quantize_dataset

CRITERIA = ["fee_pct", "volatility", "neg_return", "neg_liquidity"]
DIRECTIONS = ["min", "min", "max", "max"]  # of the raw columns


def make_funds(n: int, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    fee = rng.gamma(2.0, 0.4, n)                     # %
    volatility = rng.gamma(3.0, 4.0, n)              # %
    returns = 2.0 + 0.35 * volatility + rng.normal(0, 3.0, n)
    liquidity = np.clip(rng.normal(70, 20, n) - 5 * fee, 1, 100)
    raw = np.column_stack([fee, volatility, returns, liquidity])
    return Dataset(raw, name=f"funds(n={n})")


def main() -> None:
    funds = make_funds(15_000, seed=8)
    print(f"universe: {funds.size} funds x {len(CRITERIA)} criteria")

    # Orient: returns/liquidity are maximised -> flip to minimisation.
    oriented = funds.oriented(["min", "min", "max", "max"])

    report = run_plan(
        "ZDG+ZS+ZM", oriented, num_groups=16, num_workers=4, seed=0
    )
    print(f"skyline shortlist: {report.skyline_size} funds")

    # Rank the shortlist by how much of the universe each fund beats.
    snapped, _ = quantize_dataset(oriented, bits_per_dim=12)
    _, ranked_ids, scores = rank_skyline(
        report.skyline.points, report.skyline.ids, snapped.points,
        method="dominance",
    )
    print("\ntop funds by dominance score:")
    for fund_id, score in list(zip(ranked_ids, scores))[:3]:
        fee, vol, ret, liq = funds.points[fund_id]
        print(
            f"  fund#{fund_id}: beats {int(score)} funds "
            f"(fee {fee:.2f}%, vol {vol:.1f}%, ret {ret:.1f}%, "
            f"liq {liq:.0f})"
        )

    # Why is some non-shortlisted fund out?
    shortlist = set(report.skyline.ids.tolist())
    loser = next(
        int(i) for i in snapped.ids if int(i) not in shortlist
    )
    explanation = why_not(
        snapped.points[loser], snapped.points, snapped.ids
    )
    dim, reduction = explanation.cheapest_fix()
    print(
        f"\nwhy not fund#{loser}? dominated by "
        f"{explanation.num_dominators} funds; cheapest fix: improve "
        f"'{CRITERIA[dim]}' by {reduction:.0f} grid cells"
    )

    # Quarterly updates: shortlist over the last 2000 filings.
    codec = ZGridCodec.grid_identity(4, bits_per_dim=12)
    window = WindowSkyline(codec, WindowSpec.count(2000))
    window.extend(snapped.points[:3000], snapped.ids[:3000])
    print(
        f"\nsliding window: {window.size} live filings, "
        f"{window.skyline_size} on the rolling shortlist"
    )
    window.verify()
    print("rolling shortlist verified against the oracle: OK")


if __name__ == "__main__":
    main()
