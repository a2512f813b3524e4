"""Pinned benchmark of the scheduling solver, its pool and its service.

Run ``python3 perfbench/run.py --help`` from the root of a checkout; see
``perfbench/README.md``.
"""
