//! Worker-tagged telemetry for distributed campaigns.
//!
//! A multi-process hunt shards its islands across worker processes; the
//! coordinator records per-worker activity into a [`FleetTelemetry`] so the
//! daemon's status endpoint can show where the work (and the panics) is
//! happening. Fleet restarts are not per worker: the supervisor respawns
//! the whole fleet, and the hunt's status counts each respawn once. Like
//! the rest of this crate, recording is lock-free counter bumps;
//! serialization happens only at snapshot time.

use crate::metrics::Counter;
use serde::{Deserialize, Serialize};

/// Lock-free per-worker counters.
#[derive(Debug, Default)]
pub struct WorkerLane {
    /// Evaluations this worker's islands have made (reused outcomes included).
    pub evaluations: Counter,
    /// Evaluation panics caught inside this worker.
    pub panics: Counter,
    /// Migrants routed *out of* this worker's islands.
    pub migrants_out: Counter,
}

impl WorkerLane {
    fn snapshot(&self, worker: usize) -> WorkerLaneSnapshot {
        WorkerLaneSnapshot {
            worker,
            evaluations: self.evaluations.get(),
            panics: self.panics.get(),
            migrants_out: self.migrants_out.get(),
        }
    }
}

/// Point-in-time copy of one worker's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerLaneSnapshot {
    /// Worker index (0-based, stable across restarts).
    pub worker: usize,
    /// Evaluations this worker's islands have made (reused outcomes included).
    pub evaluations: u64,
    /// Evaluation panics caught inside this worker.
    pub panics: u64,
    /// Migrants routed out of this worker's islands.
    pub migrants_out: u64,
}

/// Fleet-wide, worker-tagged counters for one distributed hunt.
#[derive(Debug)]
pub struct FleetTelemetry {
    lanes: Vec<WorkerLane>,
}

impl FleetTelemetry {
    /// A fleet of `n_workers` zeroed lanes.
    pub fn new(n_workers: usize) -> Self {
        FleetTelemetry {
            lanes: (0..n_workers).map(|_| WorkerLane::default()).collect(),
        }
    }

    /// Number of worker lanes.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// The counters of worker `w`. Panics if `w` is out of range.
    pub fn lane(&self, w: usize) -> &WorkerLane {
        &self.lanes[w]
    }

    /// Point-in-time copy of every lane, in worker order.
    pub fn snapshot(&self) -> Vec<WorkerLaneSnapshot> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(w, lane)| lane.snapshot(w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_record_independently_and_snapshot_in_order() {
        let fleet = FleetTelemetry::new(3);
        fleet.lane(0).evaluations.add(10);
        fleet.lane(1).panics.add(2);
        fleet.lane(2).migrants_out.add(7);
        let snap = fleet.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].worker, 0);
        assert_eq!(snap[0].evaluations, 10);
        assert_eq!(snap[1].panics, 2);
        assert_eq!(snap[2].migrants_out, 7);
        assert_eq!(snap[0].panics, 0);
    }

    #[test]
    fn lane_snapshot_roundtrips_through_json() {
        let fleet = FleetTelemetry::new(1);
        fleet.lane(0).evaluations.add(42);
        let snap = fleet.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: Vec<WorkerLaneSnapshot> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
