"""Regional graph forecasting for truck parking occupancy.

Subpackages:
    numerics    autodiff tensors and the optimizer
    graph       site graphs, distance kernels, regional decomposition
    data        ingestion, feature grid, windowing, synthetic generator
    models      forecasting architectures and checkpoints
    training    the training loop
    evaluation  metrics and report writers
"""

__version__ = "0.1.0"
