"""Non-spatial operators still kept beside the spatial engine:
approximate column sketches (HyperLogLog distinct count, quantiles,
Misra-Gries heavy hitters, Bloom semi-join filters) and training-sequence
packing/shard shuffling. No spatial module imports this package, and no
registry row or benchmark workload uses it.
"""
