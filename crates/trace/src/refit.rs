//! Refit timelines: durable phase-duration records for model refits.
//!
//! A refit is too slow and too rare to trace like a request — what
//! operators need is a retained *timeline* per refit: how long the
//! snapshot, the adaptive phases (label-drain, channel-learn, augment),
//! the retrain, the persist, and the install each took, and whether the
//! result was actually swapped into serving. `holo_stream::LiveModel`
//! keeps a bounded [`TimelineRing`] of these and holo-serve exposes the
//! last K as `GET /v1/models/{name}/refits`.

use std::collections::VecDeque;

/// One named phase of a refit with its measured duration.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitPhase {
    /// Phase name, e.g. `"snapshot"`, `"adapt"`, `"refit_with"`. A
    /// dotted name (`"adapt.augment"`) is a sub-phase whose time is
    /// already inside its parent's.
    pub name: String,
    /// Duration in microseconds (≥ 1 for phases that ran; phases that
    /// never ran are simply absent).
    pub micros: u64,
}

/// The phase-by-phase record of one refit attempt.
#[derive(Debug, Clone)]
pub struct RefitTimeline {
    /// The model this refit belongs to.
    pub model: String,
    /// What initiated it: `"manual"` (the refit endpoint) or `"drift"`
    /// (the background scheduler).
    pub trigger: String,
    /// The epoch the refit snapshot was taken at; the install step is
    /// matched back to its timeline through this.
    pub base_epoch: u64,
    /// Phases in execution order.
    pub phases: Vec<RefitPhase>,
    /// True once the refitted artifact was swapped into serving (the
    /// `"install"` phase is appended at that point).
    pub installed: bool,
}

impl RefitTimeline {
    /// A timeline with no phases yet.
    pub fn new(model: &str, trigger: &str, base_epoch: u64) -> Self {
        RefitTimeline {
            model: model.to_string(),
            trigger: trigger.to_string(),
            base_epoch,
            phases: Vec::new(),
            installed: false,
        }
    }

    /// Appends a phase in execution order.
    pub fn push_phase(&mut self, name: &str, micros: u64) {
        self.phases.push(RefitPhase {
            name: name.to_string(),
            micros,
        });
    }

    /// The duration of the first phase named `name`, if it ran.
    pub fn phase_micros(&self, name: &str) -> Option<u64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.micros)
    }

    /// Sum of the top-level phase durations. A `parent.child` phase is
    /// already counted inside `parent`, so it is skipped.
    pub fn total_micros(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| !p.name.contains('.'))
            .fold(0u64, |acc, p| acc.saturating_add(p.micros))
    }
}

/// A bounded newest-last ring of [`RefitTimeline`]s (overwrite-oldest).
#[derive(Debug)]
pub struct TimelineRing {
    entries: VecDeque<RefitTimeline>,
    cap: usize,
}

impl TimelineRing {
    /// An empty ring retaining at most `cap` timelines.
    pub fn new(cap: usize) -> Self {
        TimelineRing {
            entries: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Appends a timeline, evicting the oldest when full.
    pub fn push(&mut self, timeline: RefitTimeline) {
        if self.entries.len() >= self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(timeline);
    }

    /// The newest `k` timelines, newest first.
    pub fn last(&self, k: usize) -> Vec<RefitTimeline> {
        self.entries.iter().rev().take(k).cloned().collect()
    }

    /// Attaches the `"install"` phase to the newest not-yet-installed
    /// timeline for `base_epoch`, marking it installed. Returns whether
    /// a matching timeline was found (it may have been evicted).
    pub fn mark_installed(&mut self, base_epoch: u64, micros: u64) -> bool {
        if let Some(t) = self
            .entries
            .iter_mut()
            .rev()
            .find(|t| t.base_epoch == base_epoch && !t.installed)
        {
            t.push_phase("install", micros);
            t.installed = true;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_phases_accumulate_in_order() {
        let mut t = RefitTimeline::new("food", "drift", 42);
        t.push_phase("snapshot", 10);
        t.push_phase("adapt", 200);
        t.push_phase("refit_with", 3_000);
        assert_eq!(t.phase_micros("adapt"), Some(200));
        assert_eq!(t.phase_micros("install"), None);
        assert_eq!(t.total_micros(), 3_210);
        assert!(!t.installed);
    }

    #[test]
    fn total_counts_sub_phases_once() {
        let mut t = RefitTimeline::new("food", "manual", 3);
        t.push_phase("snapshot", 10);
        t.push_phase("adapt", 1_282);
        t.push_phase("adapt.label-drain", 34);
        t.push_phase("adapt.channel-learn", 127);
        t.push_phase("adapt.augment", 1_121);
        t.push_phase("refit_with", 3_000);
        assert_eq!(t.total_micros(), 10 + 1_282 + 3_000);
    }

    #[test]
    fn ring_bounds_and_orders() {
        let mut ring = TimelineRing::new(2);
        for epoch in 0..5 {
            ring.push(RefitTimeline::new("m", "manual", epoch));
        }
        let last = ring.last(10);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].base_epoch, 4); // newest first
        assert_eq!(last[1].base_epoch, 3);
    }

    #[test]
    fn install_matches_by_epoch() {
        let mut ring = TimelineRing::new(4);
        ring.push(RefitTimeline::new("m", "drift", 7));
        ring.push(RefitTimeline::new("m", "drift", 9));
        assert!(ring.mark_installed(7, 55));
        assert!(!ring.mark_installed(7, 55)); // already installed
        assert!(!ring.mark_installed(999, 1)); // unknown epoch
        let seven = ring
            .last(10)
            .into_iter()
            .find(|t| t.base_epoch == 7)
            .expect("epoch 7 retained");
        assert!(seven.installed);
        assert_eq!(seven.phase_micros("install"), Some(55));
    }
}
