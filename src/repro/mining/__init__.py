"""Mining substrates: Apriori, decision trees, and clustering."""

from repro.mining.apriori import apriori, apriori_from_index
from repro.mining.itemsets import (
    brute_force_frequent,
    brute_force_support_count,
    frequent_items,
    sort_itemsets,
    support_counts,
    supports,
)

__all__ = [
    "apriori",
    "apriori_from_index",
    "brute_force_frequent",
    "brute_force_support_count",
    "frequent_items",
    "sort_itemsets",
    "support_counts",
    "supports",
]
