"""Desk-scale simulator of task-oriented semantic links between LEO satellites
and ground terminals: link budgets, fading channels, a discrete joint
source-channel pipeline, and covariance-guided cross-node adaptation."""

__version__ = "0.1.0"
