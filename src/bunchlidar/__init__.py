"""Photon-bunching lidar toolkit.

Simulates photon-detection timestamp streams from a narrowband thermal
source, computes second-order correlation histograms at high throughput, and
fits the bunching peak for time-of-flight ranging and SNR analysis.
"""

__version__ = "0.1.0"
