"""Color recognition under varying illumination.

Pipeline: locate the dominant object (gray, blur, threshold or edges on
plain arrays, row-run component labelling of a `BinaryMask`, bounding
box), cut a 3x3 grid of 32x32 color cubes from it, classify each cube with
a small from-scratch CNN, and majority-vote the results.  A fixed-range
HSV classifier serves as the comparison baseline, and a deterministic
synthetic generator provides data.

The package root re-exports nothing: import from the submodules
(`rcc.net`, `rcc.harness`, `rcc.segment`, ...).
"""

__version__ = "0.1.0"
