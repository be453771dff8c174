"""collapse-lab: a generator-agnostic laboratory for studying distribution
shift under recursive training.

Modules:

- ``toy``         histogram toy model of biased recursive fitting
- ``chain``       the iterative chain over an accumulation pool
- ``generators``  trainable generator backends (resampler, remote adapter)
- ``metrics``     text / embedding / projection metric suite
- ``clustering``  cluster-suite construction for property sweeps
- ``regression``  standardized OLS, VIF, grouped shift regressions
- ``judge``       quality and political-lean annotation client
- ``experiments`` sweep orchestration, result store, plot data

Importing the package loads none of them; import one by name, as in
``from collapse_lab import toy``.
"""

__version__ = "0.1.0"
