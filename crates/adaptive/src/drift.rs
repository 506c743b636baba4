//! Profile drift: how far current behavior has moved from the behavior the
//! code was last optimized under.

use pgmp_profiler::ProfileInformation;
use pgmp_syntax::SourceObject;
use std::collections::HashSet;

/// Distance measure between two weight vectors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriftMetric {
    /// Plain L1 distance over the union of profile points:
    /// `Σ |w_a(p) − w_b(p)|`. Unbounded above (grows with the number of
    /// points that moved), which makes it useful for absolute "how much
    /// churn" telemetry.
    L1,
    /// Total-variation distance: each weight vector is normalized to a
    /// probability distribution over its points, and the result is
    /// `½ Σ |P_a(p) − P_b(p)| ∈ [0, 1]`. Scale-free, so one threshold
    /// works across programs of very different sizes; `1.0` means the two
    /// profiles share no mass (e.g. one side is empty and the other is
    /// not).
    #[default]
    TotalVariation,
}

fn union_points(a: &ProfileInformation, b: &ProfileInformation) -> HashSet<SourceObject> {
    a.iter().map(|(p, _)| p).chain(b.iter().map(|(p, _)| p)).collect()
}

/// Distance from `a` to `b` under `metric`. Symmetric; 0.0 when both are
/// empty.
pub fn drift(a: &ProfileInformation, b: &ProfileInformation, metric: DriftMetric) -> f64 {
    match metric {
        DriftMetric::L1 => union_points(a, b)
            .into_iter()
            .map(|p| (a.weight(p) - b.weight(p)).abs())
            .sum(),
        DriftMetric::TotalVariation => {
            let mass = |w: &ProfileInformation| w.iter().map(|(_, x)| x).sum::<f64>();
            let (ma, mb) = (mass(a), mass(b));
            match (ma > 0.0, mb > 0.0) {
                (false, false) => 0.0,
                (true, false) | (false, true) => 1.0,
                (true, true) => {
                    0.5 * union_points(a, b)
                        .into_iter()
                        .map(|p| (a.weight(p) / ma - b.weight(p) / mb).abs())
                        .sum::<f64>()
                }
            }
        }
    }
}

/// What one drift observation concluded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftReading {
    /// The measured distance.
    pub value: f64,
    /// Whether it crossed the detector's threshold.
    pub fired: bool,
}

/// Compares live weights against the weights the running code was last
/// optimized under, and fires when the distance crosses a threshold.
///
/// # Example
///
/// ```
/// use pgmp_adaptive::{DriftDetector, DriftMetric};
/// use pgmp_profiler::{Dataset, ProfileInformation};
/// use pgmp_syntax::SourceObject;
///
/// let p = SourceObject::new("d.scm", 0, 1);
/// let q = SourceObject::new("d.scm", 2, 3);
/// let hot_p = ProfileInformation::from_dataset(&[(p, 90), (q, 10)].into_iter().collect::<Dataset>());
/// let hot_q = ProfileInformation::from_dataset(&[(p, 10), (q, 90)].into_iter().collect::<Dataset>());
///
/// let mut detector = DriftDetector::new(DriftMetric::TotalVariation, 0.2);
/// detector.rebase(hot_p.clone());
/// assert!(!detector.observe(&hot_p).fired);
/// assert!(detector.observe(&hot_q).fired);
/// ```
#[derive(Clone, Debug)]
pub struct DriftDetector {
    metric: DriftMetric,
    threshold: f64,
    baseline: ProfileInformation,
}

impl DriftDetector {
    /// A detector with an empty baseline (any nonempty profile reads as
    /// full drift under [`DriftMetric::TotalVariation`]).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    pub fn new(metric: DriftMetric, threshold: f64) -> DriftDetector {
        assert!(threshold >= 0.0, "threshold must be nonnegative");
        DriftDetector {
            metric,
            threshold,
            baseline: ProfileInformation::empty(),
        }
    }

    /// The metric in use.
    pub fn metric(&self) -> DriftMetric {
        self.metric
    }

    /// The firing threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The weights the code was last optimized under.
    pub fn baseline(&self) -> &ProfileInformation {
        &self.baseline
    }

    /// Measures drift of `current` from the baseline.
    pub fn observe(&self, current: &ProfileInformation) -> DriftReading {
        let value = drift(current, &self.baseline, self.metric);
        DriftReading {
            value,
            fired: value > self.threshold,
        }
    }

    /// Replaces the baseline — called right after re-optimizing, with the
    /// weights the new code was compiled under.
    pub fn rebase(&mut self, new_baseline: ProfileInformation) {
        self.baseline = new_baseline;
    }
}

/// A [`DriftDetector`] with flap damping: it fires only after the raw
/// threshold has been exceeded for `consecutive` epochs in a row, and then
/// not again until `cooldown` further observations have passed.
///
/// A workload hovering *at* the threshold makes the raw detector fire on
/// every noise spike, and each firing is a full re-optimization plus a
/// program swap. Hysteresis demands sustained drift; the cooldown bounds
/// the re-optimization rate even when drift genuinely persists. This is
/// the drift policy [`crate::AdaptiveEngine`] runs every epoch.
///
/// # Example
///
/// ```
/// use pgmp_adaptive::{DriftMetric, HysteresisDetector};
/// use pgmp_profiler::{Dataset, ProfileInformation};
/// use pgmp_syntax::SourceObject;
///
/// let p = SourceObject::new("h.scm", 0, 1);
/// let q = SourceObject::new("h.scm", 2, 3);
/// let hot_q = ProfileInformation::from_dataset(&[(p, 10), (q, 90)].into_iter().collect::<Dataset>());
///
/// // Require two consecutive over-threshold epochs.
/// let mut det = HysteresisDetector::new(DriftMetric::TotalVariation, 0.2, 2, 0);
/// assert!(!det.observe(&hot_q).fired, "first spike: armed, not fired");
/// assert!(det.observe(&hot_q).fired, "sustained drift fires");
/// ```
#[derive(Clone, Debug)]
pub struct HysteresisDetector {
    inner: DriftDetector,
    consecutive: u32,
    cooldown: u32,
    streak: u32,
    cooldown_left: u32,
}

impl HysteresisDetector {
    /// A damped detector: `consecutive` over-threshold epochs arm it
    /// (values ≤ 1 behave like the raw detector), `cooldown` observations
    /// are skipped after each firing (0 disables the cooldown).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN (see [`DriftDetector::new`]).
    pub fn new(
        metric: DriftMetric,
        threshold: f64,
        consecutive: u32,
        cooldown: u32,
    ) -> HysteresisDetector {
        HysteresisDetector {
            inner: DriftDetector::new(metric, threshold),
            consecutive: consecutive.max(1),
            cooldown,
            streak: 0,
            cooldown_left: 0,
        }
    }

    /// The weights the code was last optimized under.
    pub fn baseline(&self) -> &ProfileInformation {
        self.inner.baseline()
    }

    /// The undamped detector: one reading against the same baseline and
    /// threshold, with no effect on the streak or the cooldown.
    pub fn undamped(&self) -> &DriftDetector {
        &self.inner
    }

    /// Consecutive over-threshold observations so far.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Observations still to be skipped before detection resumes.
    pub fn cooldown_left(&self) -> u32 {
        self.cooldown_left
    }

    /// Measures drift of `current` from the baseline; `fired` is set only
    /// when the raw threshold has been exceeded for the configured number
    /// of consecutive observations and no cooldown is pending.
    pub fn observe(&mut self, current: &ProfileInformation) -> DriftReading {
        self.observe_epoch(current, false)
    }

    /// [`observe`](Self::observe) for one epoch of traffic. An `idle`
    /// epoch (one that counted no hits) is measured but cannot arm the
    /// detector: an idle system decaying toward an empty profile is not
    /// behavior change worth recompiling for, so it resets the streak
    /// like an under-threshold reading.
    pub fn observe_epoch(&mut self, current: &ProfileInformation, idle: bool) -> DriftReading {
        let raw = self.inner.observe(current);
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return DriftReading {
                value: raw.value,
                fired: false,
            };
        }
        if raw.fired && !idle {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        DriftReading {
            value: raw.value,
            fired: self.streak >= self.consecutive,
        }
    }

    /// Replaces the baseline after re-optimizing and starts the cooldown
    /// window.
    pub fn rebase(&mut self, new_baseline: ProfileInformation) {
        self.inner.rebase(new_baseline);
        self.streak = 0;
        self.cooldown_left = self.cooldown;
    }

    /// Replaces the baseline and clears the streak and the cooldown, for
    /// resuming saved state: no code was just swapped in, so nothing is
    /// cooling down.
    pub fn restore(&mut self, baseline: ProfileInformation) {
        self.inner.rebase(baseline);
        self.streak = 0;
        self.cooldown_left = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_profiler::Dataset;
    use proptest::prelude::*;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("drift.scm", n, n + 1)
    }

    fn info(entries: &[(u32, u64)]) -> ProfileInformation {
        ProfileInformation::from_dataset(&entries.iter().map(|(i, c)| (p(*i), *c)).collect::<Dataset>())
    }

    #[test]
    fn identical_profiles_have_zero_drift() {
        let w = info(&[(0, 5), (1, 10)]);
        assert_eq!(drift(&w, &w, DriftMetric::L1), 0.0);
        assert_eq!(drift(&w, &w, DriftMetric::TotalVariation), 0.0);
    }

    #[test]
    fn both_empty_is_zero_one_empty_is_full() {
        let empty = ProfileInformation::empty();
        let w = info(&[(0, 5)]);
        assert_eq!(drift(&empty, &empty, DriftMetric::TotalVariation), 0.0);
        assert_eq!(drift(&w, &empty, DriftMetric::TotalVariation), 1.0);
        assert_eq!(drift(&empty, &w, DriftMetric::TotalVariation), 1.0);
    }

    #[test]
    fn metrics_are_symmetric() {
        let a = info(&[(0, 10), (1, 3)]);
        let b = info(&[(1, 10), (2, 4)]);
        for m in [DriftMetric::L1, DriftMetric::TotalVariation] {
            assert!((drift(&a, &b, m) - drift(&b, &a, m)).abs() < 1e-12);
        }
    }

    #[test]
    fn tv_is_bounded_and_scale_free() {
        let a = info(&[(0, 100), (1, 1)]);
        let b = info(&[(0, 1_000_000), (1, 10_000)]);
        let d = drift(&a, &b, DriftMetric::TotalVariation);
        assert!((0.0..=1.0).contains(&d));
        // Same shape at different scales: tiny distance.
        assert!(d < 1e-9, "scale alone should not register as drift: {d}");
    }

    #[test]
    fn disjoint_profiles_are_maximally_distant_under_tv() {
        let a = info(&[(0, 10)]);
        let b = info(&[(1, 10)]);
        let d = drift(&a, &b, DriftMetric::TotalVariation);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_counts_absolute_weight_movement() {
        let a = info(&[(0, 10), (1, 5)]); // weights 1.0, 0.5
        let b = info(&[(0, 10), (1, 10)]); // weights 1.0, 1.0
        assert!((drift(&a, &b, DriftMetric::L1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn borderline_workload_no_longer_flaps() {
        // A workload oscillating around the threshold: one noisy epoch
        // over, then back under, repeatedly. The raw detector fires on
        // every spike; with hysteresis of 2 it never does.
        let baseline = info(&[(0, 90), (1, 10)]);
        let spike = info(&[(0, 55), (1, 45)]); // TV ≈ 0.35, over 0.3
        let calm = info(&[(0, 85), (1, 15)]); // TV ≈ 0.05, under 0.3

        let raw = DriftDetector::new(DriftMetric::TotalVariation, 0.3);
        let mut damped = HysteresisDetector::new(DriftMetric::TotalVariation, 0.3, 2, 0);
        let mut raw2 = raw.clone();
        raw2.rebase(baseline.clone());
        damped.rebase(baseline.clone());

        let mut raw_firings = 0;
        let mut damped_firings = 0;
        for _ in 0..5 {
            if raw2.observe(&spike).fired {
                raw_firings += 1;
            }
            raw2.observe(&calm);
            if damped.observe(&spike).fired {
                damped_firings += 1;
            }
            damped.observe(&calm);
        }
        assert_eq!(raw_firings, 5, "raw detector flaps on every spike");
        assert_eq!(damped_firings, 0, "hysteresis rides out isolated spikes");
    }

    #[test]
    fn sustained_drift_still_fires_through_hysteresis() {
        let mut det = HysteresisDetector::new(DriftMetric::TotalVariation, 0.3, 3, 0);
        det.rebase(info(&[(0, 90), (1, 10)]));
        let shifted = info(&[(0, 10), (1, 90)]);
        assert!(!det.observe(&shifted).fired);
        assert!(!det.observe(&shifted).fired);
        let reading = det.observe(&shifted);
        assert!(reading.fired, "third consecutive epoch fires");
        assert!(reading.value > 0.3);
    }

    #[test]
    fn cooldown_suppresses_immediate_refire() {
        let mut det = HysteresisDetector::new(DriftMetric::TotalVariation, 0.3, 1, 2);
        let baseline = info(&[(0, 90), (1, 10)]);
        det.rebase(baseline.clone());
        // rebase arms the cooldown (it models a fresh deploy): ride it out
        // with steady traffic first.
        assert!(!det.observe(&baseline).fired);
        assert!(!det.observe(&baseline).fired);
        let shifted = info(&[(0, 10), (1, 90)]);
        assert!(det.observe(&shifted).fired);
        // Re-optimized: rebase onto the new behavior, cooldown starts.
        det.rebase(shifted.clone());
        // Behavior shifts again immediately — but we just swapped code.
        let back = info(&[(0, 90), (1, 10)]);
        assert!(!det.observe(&back).fired, "within cooldown");
        assert!(!det.observe(&back).fired, "within cooldown");
        assert!(det.observe(&back).fired, "cooldown expired, drift persists");
    }

    #[test]
    fn hysteresis_of_one_matches_raw_detector() {
        let baseline = info(&[(0, 90), (1, 10)]);
        let wild = info(&[(0, 10), (1, 90)]);
        let mut raw = DriftDetector::new(DriftMetric::TotalVariation, 0.3);
        raw.rebase(baseline.clone());
        let mut damped = HysteresisDetector::new(DriftMetric::TotalVariation, 0.3, 1, 0);
        damped.rebase(baseline);
        assert_eq!(raw.observe(&wild).fired, damped.observe(&wild).fired);
        assert_eq!(
            raw.observe(&wild).value,
            damped.observe(&wild).value
        );
    }

    #[test]
    fn detector_fires_only_past_threshold() {
        let mut det = DriftDetector::new(DriftMetric::TotalVariation, 0.3);
        det.rebase(info(&[(0, 90), (1, 10)]));
        let mild = info(&[(0, 80), (1, 20)]);
        let wild = info(&[(0, 10), (1, 90)]);
        assert!(!det.observe(&mild).fired);
        let reading = det.observe(&wild);
        assert!(reading.fired);
        assert!(reading.value > 0.3);
        // Rebasing onto the new behavior silences the detector.
        det.rebase(wild.clone());
        assert!(!det.observe(&wild).fired);
    }

    /// The damping rule the adaptive engine ran inline before it used
    /// [`HysteresisDetector`]: per epoch, `over` is "drift past the
    /// threshold and at least one hit"; a re-optimization zeroes the streak
    /// and starts the cooldown; a snapshot restore zeroes both.
    #[derive(Debug, Default)]
    struct InlineRule {
        hysteresis: u32,
        cooldown_epochs: u32,
        streak: u32,
        cooldown_left: u32,
    }

    impl InlineRule {
        fn epoch(&mut self, over_threshold: bool, hits: u64) -> bool {
            let over = over_threshold && hits >= 1;
            if self.cooldown_left > 0 {
                self.cooldown_left -= 1;
                false
            } else {
                if over {
                    self.streak += 1;
                } else {
                    self.streak = 0;
                }
                self.streak >= self.hysteresis.max(1)
            }
        }

        fn reoptimized(&mut self) {
            self.streak = 0;
            self.cooldown_left = self.cooldown_epochs;
        }

        fn restored(&mut self) {
            self.streak = 0;
            self.cooldown_left = 0;
        }
    }

    proptest! {
        /// The detector and the inline rule agree on every firing, streak
        /// and cooldown over random epoch sequences: readings over or under
        /// the threshold, idle or active, followed by a rebase (only ever
        /// after a firing, as the engine does), a restore, or nothing.
        #[test]
        fn detector_matches_the_inline_epoch_rule(
            hysteresis in 0u32..4,
            cooldown in 0u32..4,
            epochs in proptest::collection::vec((any::<bool>(), 0u64..3, 0u8..4), 0..48),
        ) {
            let baseline = info(&[(0, 90), (1, 10)]);
            let shifted = info(&[(0, 10), (1, 90)]);
            let mut det = HysteresisDetector::new(DriftMetric::TotalVariation, 0.3, hysteresis, cooldown);
            det.restore(baseline.clone());
            let mut model = InlineRule {
                hysteresis,
                cooldown_epochs: cooldown,
                ..InlineRule::default()
            };
            for (over, hits, after) in epochs {
                let current = if over { &shifted } else { &baseline };
                let fired = det.observe_epoch(current, hits == 0).fired;
                prop_assert_eq!(fired, model.epoch(over, hits));
                prop_assert_eq!(det.streak(), model.streak);
                prop_assert_eq!(det.cooldown_left(), model.cooldown_left);
                match after {
                    // A firing the engine re-optimized on.
                    0 | 1 if fired => {
                        det.rebase(baseline.clone());
                        model.reoptimized();
                    }
                    2 => {
                        det.restore(baseline.clone());
                        model.restored();
                    }
                    _ => {}
                }
                prop_assert_eq!(det.streak(), model.streak);
                prop_assert_eq!(det.cooldown_left(), model.cooldown_left);
            }
        }
    }
}
