"""The committed code listings of Figures 10-15 are what the generator
emits today.

``benchmarks/bench_fig10_15_codegen.py`` writes the listings to
``benchmarks/results/generated_code/`` and checks them against the
library; this test regenerates every one in memory and compares it with
the committed text, so a generator change that does not regenerate them
fails here instead of leaving stale figures behind.
"""

from benchmarks.bench_fig10_15_codegen import LISTINGS_DIR, listings


def test_committed_listings_match_the_generator():
    current = listings()
    assert sorted(p.name for p in LISTINGS_DIR.iterdir()) == sorted(current)
    for name, source in current.items():
        assert (LISTINGS_DIR / name).read_text() == source, (
            f"{name} is stale; regenerate the listings with "
            "`python -m pytest benchmarks/bench_fig10_15_codegen.py`"
        )
