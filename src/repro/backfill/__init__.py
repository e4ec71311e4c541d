"""Backfilling: EASY (head-of-queue reservation)."""

from .easy import BackfillPlan, EasyBackfill, PlannedRelease

__all__ = ["EasyBackfill", "BackfillPlan", "PlannedRelease"]
