"""Monte Carlo simulator and analysis toolkit for quantum-enhanced parallel
LiDAR: correlated photon-pair time-tag generation through a pump / source /
dispersion / grating / target / detector chain, plus the full coincidence
analysis stack (CAR, classical and quantum SNR, calibration, target
reconstruction, Fisher information) with closed-form cross-checks."""

__version__ = "0.1.0"
