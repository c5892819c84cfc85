//! Fault-injected views of a spot market: a degraded [`MarketView`] for
//! the resilient replay (`spotbid_engine::run_job_resilient`), and corrupted raw record feeds for the
//! validating trace ingest.

use crate::schedule::FaultSchedule;
use spotbid_engine::MarketView;
use spotbid_market::units::Price;
use spotbid_trace::{RawRecord, SpotPriceHistory};

/// A [`MarketView`] that degrades a clean price history according to a
/// [`FaultSchedule`]. The provider side (`true_price`, acceptance,
/// charging) always uses the clean prices — faults only corrupt what the
/// *client* observes, plus bid-independent reclamations:
///
/// - a trace gap, NaN, or negative record makes the slot unobservable
///   (the validating ingest would have dropped the record, so the client's
///   monitor sees an outage);
/// - a stale observation of delay `d` shows the price from `d` slots ago;
/// - a reclamation kills the instance that slot regardless of the bid.
///
/// With [`crate::FaultConfig::NONE`] the view is indistinguishable from
/// the clean history.
#[derive(Debug, Clone, Copy)]
pub struct FaultyMarket<'a> {
    clean: &'a SpotPriceHistory,
    schedule: &'a FaultSchedule,
}

impl<'a> FaultyMarket<'a> {
    /// Wraps `clean` under `schedule`. The view covers
    /// `min(clean.len(), schedule.n_slots())` slots.
    pub fn new(clean: &'a SpotPriceHistory, schedule: &'a FaultSchedule) -> Self {
        FaultyMarket { clean, schedule }
    }
}

impl MarketView for FaultyMarket<'_> {
    fn len(&self) -> usize {
        self.clean.len().min(self.schedule.n_slots())
    }

    fn observed_price(&self, slot: usize) -> Option<Price> {
        let s = self.schedule;
        if s.gap(slot) || s.nan_price(slot) || s.negative_price(slot) {
            return None;
        }
        let seen = slot - s.stale_delay(slot).min(slot);
        Some(self.clean.prices()[seen])
    }

    fn true_price(&self, slot: usize) -> Price {
        self.clean.prices()[slot]
    }

    fn reclaimed(&self, slot: usize) -> bool {
        self.schedule.reclaimed(slot)
    }
}

/// Renders a clean history as the raw record feed a fault-ridden collector
/// would deliver: gapped slots are omitted, NaN/negative faults corrupt
/// the price value, duplicated slots are emitted twice, and out-of-order
/// slots are delivered before their predecessor. With a zero schedule the
/// output is exactly the clean grid, and `trace::ingest` reconstructs the
/// original history from it bit-for-bit.
pub fn corrupt_records(clean: &SpotPriceHistory, schedule: &FaultSchedule) -> Vec<RawRecord> {
    let step = clean.slot_len().as_f64();
    let n = clean.len().min(schedule.n_slots());
    let mut out: Vec<RawRecord> = Vec::with_capacity(n);
    for (i, price) in clean.prices().iter().take(n).enumerate() {
        if schedule.gap(i) {
            continue;
        }
        let mut value = price.as_f64();
        if schedule.nan_price(i) {
            value = f64::NAN;
        } else if schedule.negative_price(i) {
            // Offset so a $0 price still turns negative.
            value = -value.abs() - 0.01;
        }
        let rec = RawRecord {
            time_hours: i as f64 * step,
            price: value,
        };
        if schedule.out_of_order(i) && !out.is_empty() {
            out.insert(out.len() - 1, rec);
        } else {
            out.push(rec);
        }
        if schedule.duplicate(i) {
            out.push(RawRecord {
                time_hours: i as f64 * step,
                price: value,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultConfig, FaultSchedule};
    use spotbid_market::units::Hours;

    fn clean_history(n: usize) -> SpotPriceHistory {
        let prices = (0..n)
            .map(|i| Price::new(0.01 + 0.001 * i as f64))
            .collect();
        SpotPriceHistory::new(Hours::from_minutes(5.0), prices).unwrap()
    }

    #[test]
    fn zero_schedule_view_matches_the_clean_history() {
        let h = clean_history(50);
        let s = FaultSchedule::generate(1, 50, 0, &FaultConfig::NONE);
        let v = FaultyMarket::new(&h, &s);
        assert_eq!(v.len(), 50);
        for t in 0..50 {
            assert_eq!(v.observed_price(t), Some(h.prices()[t]));
            assert_eq!(v.true_price(t), h.prices()[t]);
            assert!(!v.reclaimed(t));
        }
    }

    #[test]
    fn zero_schedule_records_are_the_clean_grid() {
        let h = clean_history(40);
        let s = FaultSchedule::generate(1, 40, 0, &FaultConfig::NONE);
        let recs = corrupt_records(&h, &s);
        assert_eq!(recs.len(), 40);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.time_hours, i as f64 * h.slot_len().as_f64());
            assert_eq!(r.price, h.prices()[i].as_f64());
        }
    }

    #[test]
    fn faulty_observation_never_leaks_corrupt_values() {
        // Whatever the schedule does, observed prices are either None or a
        // genuine (finite, non-negative) price from the clean history.
        let h = clean_history(300);
        let s = FaultSchedule::generate(0xBEEF, 300, 0, &FaultConfig::default());
        let v = FaultyMarket::new(&h, &s);
        let mut outages = 0;
        let mut stale = 0;
        for t in 0..300 {
            match v.observed_price(t) {
                None => outages += 1,
                Some(p) => {
                    assert!(p.is_valid_price(), "corrupt observation at {t}");
                    assert!(h.prices().contains(&p));
                    if s.stale_delay(t) > 0 {
                        stale += 1;
                    }
                }
            }
        }
        assert!(outages > 0, "default config should produce some outages");
        assert!(stale > 0, "default config should produce stale reads");
    }

    #[test]
    fn stale_reads_show_the_delayed_price() {
        let cfg = FaultConfig {
            stale_observation: 1.0,
            max_stale_delay: 2,
            ..FaultConfig::NONE
        };
        let h = clean_history(20);
        let s = FaultSchedule::generate(5, 20, 0, &cfg);
        let v = FaultyMarket::new(&h, &s);
        for t in 0..20 {
            let d = s.stale_delay(t);
            assert!(d >= 1, "p=1.0 must stale every slot");
            let expect = h.prices()[t - d.min(t)];
            assert_eq!(v.observed_price(t), Some(expect));
            // Truth is unaffected: the provider always settles on the
            // current price.
            assert_eq!(v.true_price(t), h.prices()[t]);
        }
    }

    #[test]
    fn corrupt_records_reflect_each_wire_fault() {
        let h = clean_history(200);
        let s = FaultSchedule::generate(0xFEED, 200, 0, &FaultConfig::default());
        let recs = corrupt_records(&h, &s);

        let gaps = (0..200).filter(|&i| s.gap(i)).count();
        let dups = (0..200).filter(|&i| !s.gap(i) && s.duplicate(i)).count();
        assert_eq!(recs.len(), 200 - gaps + dups);

        let nans = recs.iter().filter(|r| r.price.is_nan()).count();
        let negs = recs.iter().filter(|r| r.price < 0.0).count();
        let disorder = recs
            .windows(2)
            .filter(|w| w[1].time_hours < w[0].time_hours)
            .count();
        assert!(nans > 0 && negs > 0 && disorder > 0, "default config should corrupt the wire: {nans} NaN, {negs} negative, {disorder} out-of-order");
    }
}
