//! Cluster sessions: two-instance-type price sources and the shared
//! per-slot billing helper for master/slave clusters.
//!
//! The §6 MapReduce deployment bids on two markets at once — one
//! never-interrupted master and `m` slaves on a cheaper instance type —
//! so its kernel sessions quote a price *pair* per slot ([`ClusterQuote`]).
//! [`cluster_slot_events`] is the one place a cluster slot turns into
//! billing events; it replaces the two near-identical `for t in
//! 0..slots_elapsed` loops that used to live in `spotbid_mapred::spot`
//! (spot billing and on-demand billing differed only in where the prices
//! came from and whether nodes could be down).

use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::source::PriceSource;
use spotbid_market::units::{Hours, Price};
use spotbid_trace::SpotPriceHistory;

/// One slot's prices for a master/slave cluster. `None` means that
/// instance type has no quote this slot (trace gap — the node is treated
/// as unavailable and nothing is billed for it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterQuote {
    /// The master instance type's price, if quoted.
    pub master: Option<Price>,
    /// The slave instance type's price, if quoted.
    pub slave: Option<Price>,
}

/// Replays two price traces in lock-step, one per instance type; exhausts
/// at the shorter trace's end.
#[derive(Debug)]
pub struct DualTraceSource<'a> {
    master: &'a SpotPriceHistory,
    slave: &'a SpotPriceHistory,
    horizon: usize,
}

impl<'a> DualTraceSource<'a> {
    /// Replays `master` and `slave` from their first slots.
    pub fn new(master: &'a SpotPriceHistory, slave: &'a SpotPriceHistory) -> Self {
        let horizon = master.len().min(slave.len());
        DualTraceSource {
            master,
            slave,
            horizon,
        }
    }

    /// Number of slots before the shorter trace runs out.
    pub fn horizon(&self) -> usize {
        self.horizon
    }
}

impl PriceSource for DualTraceSource<'_> {
    type Quote = ClusterQuote;

    fn post(&mut self, slot: u64) -> Option<ClusterQuote> {
        let i = slot as usize;
        if i >= self.horizon {
            return None;
        }
        Some(ClusterQuote {
            master: self.master.price_at_slot(i),
            slave: self.slave.price_at_slot(i),
        })
    }

    fn quote_events(&self, slot: u64, quote: &ClusterQuote, emit: &mut dyn FnMut(Event)) {
        if let Some(price) = quote.master {
            emit(Event::PricePosted { slot, price });
        }
    }
}

/// Fixed on-demand prices for both instance types, quoted forever — the
/// source behind all-on-demand baseline runs.
#[derive(Debug, Clone, Copy)]
pub struct ConstantClusterSource {
    /// The master instance type's on-demand price.
    pub master: Price,
    /// The slave instance type's on-demand price.
    pub slave: Price,
}

impl PriceSource for ConstantClusterSource {
    type Quote = ClusterQuote;

    fn post(&mut self, _slot: u64) -> Option<ClusterQuote> {
        Some(ClusterQuote {
            master: Some(self.master),
            slave: Some(self.slave),
        })
    }
}

/// Emits the billing events for one cluster slot: one line item for the
/// master if it is up (and priced), then one aggregated item for the
/// `slaves_up` slaves (billed at `slave_price × slaves_up`, matching the
/// paper's per-slot accounting of `m` identical instances).
///
/// Pass `master_price: None` when the master is down (or unpriced) this
/// slot; no master item is emitted. Same for the slaves via
/// `slaves_up == 0` or `slave_price: None`.
#[allow(clippy::too_many_arguments)]
pub fn cluster_slot_events(
    slot: u64,
    duration: Hours,
    master_price: Option<Price>,
    slave_price: Option<Price>,
    slaves_up: u32,
    kind: UsageKind,
    master_tag: u32,
    slave_tag: u32,
    emit: &mut dyn FnMut(Event),
) {
    if let Some(price) = master_price {
        emit(Event::Charged {
            item: LineItem {
                slot,
                price,
                duration,
                kind,
                tag: master_tag,
            },
        });
    }
    if slaves_up > 0 {
        if let Some(price) = slave_price {
            emit(Event::Charged {
                item: LineItem {
                    slot,
                    price: price * slaves_up as f64,
                    duration,
                    kind,
                    tag: slave_tag,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_market::units::Hours;

    fn history(prices: &[f64]) -> SpotPriceHistory {
        SpotPriceHistory::new(
            Hours::from_minutes(5.0),
            prices.iter().copied().map(Price::new).collect(),
        )
        .unwrap()
    }

    #[test]
    fn dual_trace_exhausts_at_shorter() {
        let m = history(&[0.10, 0.11, 0.12]);
        let s = history(&[0.03, 0.04]);
        let mut src = DualTraceSource::new(&m, &s);
        assert_eq!(src.horizon(), 2);
        let q = src.post(0).unwrap();
        assert_eq!(q.master, Some(Price::new(0.10)));
        assert_eq!(q.slave, Some(Price::new(0.03)));
        assert!(src.post(2).is_none());
    }

    #[test]
    fn constant_source_never_exhausts() {
        let mut src = ConstantClusterSource {
            master: Price::new(0.266),
            slave: Price::new(0.84),
        };
        let q = src.post(1_000_000).unwrap();
        assert_eq!(q.master, Some(Price::new(0.266)));
        assert_eq!(q.slave, Some(Price::new(0.84)));
    }

    #[test]
    fn slot_events_bill_master_then_aggregated_slaves() {
        let mut seen = Vec::new();
        cluster_slot_events(
            4,
            Hours::from_minutes(5.0),
            Some(Price::new(0.10)),
            Some(Price::new(0.03)),
            3,
            UsageKind::Spot,
            0,
            1,
            &mut |e| seen.push(e),
        );
        assert_eq!(seen.len(), 2);
        let Event::Charged { item } = seen[0] else {
            panic!("{:?}", seen[0])
        };
        assert_eq!((item.tag, item.price), (0, Price::new(0.10)));
        let Event::Charged { item } = seen[1] else {
            panic!("{:?}", seen[1])
        };
        assert_eq!(item.tag, 1);
        assert!(
            (item.price.as_f64() - 0.09).abs() < 1e-12,
            "3 slaves aggregated"
        );
    }

    #[test]
    fn slot_events_skip_down_nodes() {
        let mut seen = Vec::new();
        cluster_slot_events(
            0,
            Hours::from_minutes(5.0),
            None,
            Some(Price::new(0.03)),
            0,
            UsageKind::Spot,
            0,
            1,
            &mut |e| seen.push(e),
        );
        assert!(seen.is_empty(), "down master + no slaves → nothing billed");
    }
}
