//! Rolling-window latency histograms.
//!
//! A cumulative [`Histogram`] answers "what were latencies like since
//! the process started"; a live dashboard wants "what are they like
//! *right now*". [`RollingWindow`] keeps a wheel of histogram slots,
//! each covering `slot_ns` nanoseconds; recording a sample lands it in
//! the slot for the sample's epoch (`now_ns / slot_ns`), lazily
//! resetting slots whose epoch has rotated out. A snapshot merges the
//! slots still inside the window, so p50/p95/p99 reflect only the last
//! `slots * slot_ns` nanoseconds.
//!
//! Time is always an explicit `now_ns` argument — callers feed a
//! monotonic clock in production and literal integers in tests, which
//! makes rotation-boundary behaviour deterministic to assert.
//!
//! [`RollingSet`] is the keyed form (one window per op kind or per
//! session) the server uses.

use crate::metrics::Histogram;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Slot {
    /// Which epoch this slot's samples belong to. Starts at `u64::MAX`
    /// (never written) so epoch 0 is usable.
    epoch: u64,
    hist: Histogram,
}

/// A wheel of histogram slots covering the last `slots * slot_ns`
/// nanoseconds (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct RollingWindow {
    slot_ns: u64,
    slots: Vec<Slot>,
}

impl RollingWindow {
    /// A window of `slots` slots, each `slot_ns` wide. Both are clamped
    /// to at least 1.
    pub fn new(slot_ns: u64, slots: usize) -> Self {
        RollingWindow {
            slot_ns: slot_ns.max(1),
            slots: vec![
                Slot {
                    epoch: u64::MAX,
                    hist: Histogram::new(),
                };
                slots.max(1)
            ],
        }
    }

    /// Total window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.slot_ns.saturating_mul(self.slots.len() as u64)
    }

    fn epoch(&self, now_ns: u64) -> u64 {
        now_ns / self.slot_ns
    }

    /// Records a sample observed at `now_ns`.
    pub fn record(&mut self, now_ns: u64, v: u64) {
        let epoch = self.epoch(now_ns);
        let n = self.slots.len();
        let slot = &mut self.slots[(epoch % n as u64) as usize];
        if slot.epoch != epoch {
            slot.hist = Histogram::new();
            slot.epoch = epoch;
        }
        slot.hist.record(v);
    }

    /// Merges the slots still inside the window ending at `now_ns` into
    /// one histogram. Slots whose epoch rotated out (or was never
    /// written) contribute nothing.
    pub fn snapshot(&self, now_ns: u64) -> Histogram {
        let epoch = self.epoch(now_ns);
        let oldest = epoch.saturating_sub(self.slots.len() as u64 - 1);
        let mut out = Histogram::new();
        for slot in &self.slots {
            if slot.epoch != u64::MAX && (oldest..=epoch).contains(&slot.epoch) {
                out.merge(&slot.hist);
            }
        }
        out
    }
}

/// Keyed rolling windows: one [`RollingWindow`] per name (op kind,
/// session), all sharing one geometry.
#[derive(Debug, Clone)]
pub struct RollingSet {
    slot_ns: u64,
    slots: usize,
    windows: BTreeMap<String, RollingWindow>,
}

impl RollingSet {
    /// An empty set whose windows span `slots * slot_ns` nanoseconds.
    pub fn new(slot_ns: u64, slots: usize) -> Self {
        RollingSet {
            slot_ns: slot_ns.max(1),
            slots: slots.max(1),
            windows: BTreeMap::new(),
        }
    }

    /// Total window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.slot_ns.saturating_mul(self.slots as u64)
    }

    /// Records a sample for `key` observed at `now_ns`, allocating the
    /// key only the first time.
    pub fn record(&mut self, key: &str, now_ns: u64, v: u64) {
        if let Some(window) = self.windows.get_mut(key) {
            return window.record(now_ns, v);
        }
        let mut window = RollingWindow::new(self.slot_ns, self.slots);
        window.record(now_ns, v);
        self.windows.insert(key.to_string(), window);
    }

    /// Snapshots every key's window at `now_ns`, in name order. Keys
    /// whose window is currently empty are skipped.
    pub fn snapshots(&self, now_ns: u64) -> Vec<(String, Histogram)> {
        self.windows
            .iter()
            .map(|(k, w)| (k.clone(), w.snapshot(now_ns)))
            .filter(|(_, h)| h.count() > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000; // slot width for tests

    #[test]
    fn empty_window_snapshots_to_empty_histogram() {
        let w = RollingWindow::new(S, 4);
        let h = w.snapshot(123);
        assert_eq!(h.count(), 0);
        assert_eq!((h.p50(), h.p95(), h.p99()), (0, 0, 0));
    }

    #[test]
    fn single_sample_is_visible_until_it_ages_out() {
        let mut w = RollingWindow::new(S, 4);
        w.record(0, 42);
        assert_eq!(w.snapshot(0).count(), 1);
        // Still inside the 4-slot window three epochs later...
        assert_eq!(w.snapshot(3 * S).count(), 1);
        assert_eq!(w.snapshot(3 * S).p95(), 42);
        // ...gone one epoch after that, even though the slot was never
        // physically overwritten.
        assert_eq!(w.snapshot(4 * S).count(), 0);
    }

    #[test]
    fn rotation_boundary_resets_reused_slot() {
        let mut w = RollingWindow::new(S, 2);
        w.record(0, 10); // epoch 0 → slot 0
        w.record(S, 20); // epoch 1 → slot 1
                         // Epoch 2 reuses slot 0; the old epoch-0 sample must not leak
                         // into the new epoch's histogram.
        w.record(2 * S, 30);
        let h = w.snapshot(2 * S);
        assert_eq!(h.count(), 2, "window holds epochs 1..=2 only");
        assert_eq!(h.sum(), 50);
        // One nanosecond before the boundary the old epoch was intact.
        let mut w2 = RollingWindow::new(S, 2);
        w2.record(0, 10);
        w2.record(S, 20);
        assert_eq!(w2.snapshot(2 * S - 1).count(), 2);
    }

    #[test]
    fn stale_slot_is_ignored_without_being_written() {
        let mut w = RollingWindow::new(S, 3);
        w.record(0, 7);
        // Jump far ahead: the epoch-0 slot still physically holds the
        // sample but its epoch is outside [8-2, 8].
        w.record(8 * S, 9);
        let h = w.snapshot(8 * S);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 9);
    }

    #[test]
    fn keyed_set_tracks_windows_independently() {
        let mut set = RollingSet::new(S, 4);
        set.record("check", 0, 100);
        set.record("check", S, 200);
        set.record("update", S, 5);
        let snaps = set.snapshots(S);
        assert_eq!(
            snaps.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["check", "update"]
        );
        assert_eq!(snaps[0].1.count(), 2);
        assert_eq!(snaps[1].1.count(), 1);
        // After "update"'s sample ages out, only "check"'s fresh slot
        // remains and empty windows disappear from the snapshots.
        set.record("check", 5 * S, 300);
        let later = set.snapshots(5 * S);
        assert_eq!(
            later.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["check"]
        );
    }
}
