//! Refit timelines: the span trees of model refits, kept per live model.
//!
//! A refit is too slow and too rare to trace like a request — what
//! operators need is a retained *timeline* per refit: how long the
//! snapshot, the adaptive phases (label-drain, channel-learn, augment),
//! the retrain, the persist, and the install each took, and whether the
//! result was actually swapped into serving. A refit runs under its
//! own [`crate::ActiveTrace`], so those phases are ordinary
//! [`crate::stage`] spans; `holo_stream::LiveModel` keeps a bounded
//! [`TimelineRing`] of the finished traces and holo-serve exposes the
//! last K as `GET /v1/models/{name}/refits`.

use crate::span::Trace;
use std::collections::VecDeque;

/// The record of one refit attempt (each live model keeps its own).
#[derive(Debug, Clone)]
pub struct RefitTimeline {
    /// What initiated it: `"manual"` (the refit endpoint) or `"drift"`
    /// (the background scheduler).
    pub trigger: String,
    /// The epoch the refit snapshot was taken at; the install step is
    /// matched back to its timeline through this.
    pub base_epoch: u64,
    /// The refit's span tree; every span below the root is a phase.
    pub trace: Trace,
    /// How long the install took, once the refitted artifact was
    /// swapped into serving.
    pub install_micros: Option<u64>,
}

impl RefitTimeline {
    /// A timeline for the refit traced by `trace`, not yet installed.
    pub fn new(trigger: &str, base_epoch: u64, trace: Trace) -> Self {
        RefitTimeline {
            trigger: trigger.to_string(),
            base_epoch,
            trace,
            install_micros: None,
        }
    }

    /// True once the refitted artifact was swapped into serving.
    pub fn installed(&self) -> bool {
        self.install_micros.is_some()
    }

    /// The phases in execution order as `(name, micros)`: every span
    /// below the trace's root, a span nested under another prefixed
    /// with its parent's name (`augment` under `adapt` is
    /// `adapt.augment`, and its time is already inside its parent's),
    /// then `install` once installed. A phase that ran reports at least 1µs, however
    /// fast it was; a phase that never ran is absent.
    pub fn phases(&self) -> Vec<(String, u64)> {
        let spans = &self.trace.spans;
        let mut phases: Vec<(String, u64)> = spans
            .iter()
            .skip(1)
            .map(|s| {
                let name = match s.parent.and_then(|p| spans.get(p)) {
                    Some(parent) if parent.parent.is_some() => {
                        format!("{}.{}", parent.name, s.name)
                    }
                    _ => s.name.clone(),
                };
                (name, s.duration_micros.max(1))
            })
            .collect();
        phases.extend(
            self.install_micros
                .map(|m| ("install".to_string(), m.max(1))),
        );
        phases
    }

    /// Sum of the top-level phase durations. A `parent.child` phase is
    /// already counted inside `parent`, so it is skipped.
    pub fn total_micros(&self) -> u64 {
        self.phases()
            .iter()
            .filter(|(name, _)| !name.contains('.'))
            .fold(0u64, |acc, (_, micros)| acc.saturating_add(*micros))
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

    /// Records the install's duration on the newest not-yet-installed
    /// timeline for `base_epoch`, marking it installed. Returns whether
    /// a matching timeline was found (it may have been evicted).
    pub fn mark_installed(&mut self, base_epoch: u64, micros: u64) -> bool {
        if let Some(t) = self
            .entries
            .iter_mut()
            .rev()
            .find(|t| t.base_epoch == base_epoch && !t.installed())
        {
            t.install_micros = Some(micros);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    /// A refit timeline whose trace spans are `(name, parent, micros)`;
    /// parent 0 is the root.
    fn timeline(epoch: u64, spans: &[(&str, usize, u64)]) -> RefitTimeline {
        let span = |name: &str, parent, duration_micros| Span {
            name: name.to_string(),
            parent,
            start_micros: 0,
            duration_micros,
            notes: Vec::new(),
        };
        let mut all = vec![span("refit", None, 0)];
        all.extend(spans.iter().map(|&(n, p, m)| span(n, Some(p), m)));
        let trace = Trace {
            spans: all,
            ..Trace::default()
        };
        RefitTimeline::new("manual", epoch, trace)
    }

    #[test]
    fn timeline_phases_accumulate_in_order() {
        let t = timeline(
            42,
            &[
                ("snapshot", 0, 10),
                ("adapt", 0, 200),
                ("refit_with", 0, 3_000),
            ],
        );
        let want = [("snapshot", 10), ("adapt", 200), ("refit_with", 3_000)];
        assert_eq!(t.phases(), want.map(|(n, m)| (n.to_string(), m)));
        assert_eq!(t.total_micros(), 3_210);
        assert!(!t.installed());
    }

    #[test]
    fn total_counts_sub_phases_once() {
        let t = timeline(
            3,
            &[
                ("snapshot", 0, 10),
                ("adapt", 0, 1_282),
                ("label-drain", 2, 34),
                ("augment", 2, 0),
                ("refit_with", 0, 3_000),
            ],
        );
        // A phase that ran reports at least 1us, however fast it was.
        let want = [
            ("snapshot", 10),
            ("adapt", 1_282),
            ("adapt.label-drain", 34),
            ("adapt.augment", 1),
            ("refit_with", 3_000),
        ];
        assert_eq!(t.phases(), want.map(|(n, m)| (n.to_string(), m)));
        assert_eq!(t.total_micros(), 10 + 1_282 + 3_000);
    }

    #[test]
    fn ring_bounds_and_orders() {
        let mut ring = TimelineRing::new(2);
        for epoch in 0..5 {
            ring.push(timeline(epoch, &[]));
        }
        let epochs: Vec<u64> = ring.last(10).iter().map(|t| t.base_epoch).collect();
        assert_eq!(epochs, [4, 3], "newest first");
    }

    #[test]
    fn install_matches_by_epoch() {
        let mut ring = TimelineRing::new(4);
        ring.push(timeline(7, &[]));
        ring.push(timeline(9, &[]));
        assert!(ring.mark_installed(7, 55));
        assert!(!ring.mark_installed(7, 55)); // already installed
        assert!(!ring.mark_installed(999, 1)); // unknown epoch
        let seven = ring
            .last(10)
            .into_iter()
            .find(|t| t.base_epoch == 7)
            .expect("epoch 7 retained");
        assert!(seven.installed());
        assert_eq!(seven.phases(), [("install".to_string(), 55)]);
        assert_eq!(seven.total_micros(), 55);
    }
}
