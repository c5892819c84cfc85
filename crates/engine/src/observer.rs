//! Observers: pluggable sinks for the kernel's event stream.
//!
//! The kernel forwards every [`Event`] to each registered observer in
//! emission order. Observers are how sessions grow bookkeeping without the
//! drivers knowing:
//!
//! - [`BillingObserver`] folds [`Event::Charged`] items into a [`Bill`],
//!   one line item per charge — for sessions whose callers read the items
//!   (single-job replays, MapReduce);
//! - `CostTotals` folds the same charges into one running total per
//!   tenant tag — what the closed loops report, in O(tenants) memory
//!   instead of one item per running tenant-slot (the dense fleets feed
//!   it events; the wakeup fleets own one and add to it directly);
//! - [`EventLog`] keeps everything for offline inspection.

use crate::billing::{Bill, LineItem};
use crate::event::Event;
use crate::EngineError;
use spotbid_market::units::Cost;

/// A sink for simulation events.
pub trait Observer {
    /// Handles one event. An `Err` aborts the session — the kernel
    /// propagates it to the caller with the event already delivered to
    /// earlier observers (billing validation uses this to refuse
    /// fault-corrupted charges).
    ///
    /// # Errors
    ///
    /// Implementation-defined; the kernel stops the session on the first
    /// error.
    fn on_event(&mut self, event: &Event) -> Result<(), EngineError>;
}

/// Folds [`Event::Charged`] items into a [`Bill`]; ignores everything else.
#[derive(Debug, Clone, Default)]
pub struct BillingObserver {
    bill: Bill,
    validate: bool,
}

impl BillingObserver {
    /// A billing observer that validates every charge, refusing
    /// pathological items with [`EngineError::Billing`] (use on paths fed
    /// by untrusted or fault-injected data — mirrors `Bill::try_charge`).
    pub fn validated() -> Self {
        BillingObserver {
            bill: Bill::new(),
            validate: true,
        }
    }

    /// A billing observer that panics on pathological charges (mirrors
    /// `Bill::charge` — internal misuse, not survivable input).
    pub fn unvalidated() -> Self {
        BillingObserver {
            bill: Bill::new(),
            validate: false,
        }
    }

    /// The accumulated bill so far.
    pub fn bill(&self) -> &Bill {
        &self.bill
    }

    /// Consumes the observer, returning the accumulated bill.
    pub fn into_bill(self) -> Bill {
        self.bill
    }
}

impl Observer for BillingObserver {
    fn on_event(&mut self, event: &Event) -> Result<(), EngineError> {
        if let Event::Charged { item } = event {
            if self.validate {
                self.bill.try_charge(*item)?;
            } else {
                self.bill.charge(*item);
            }
        }
        Ok(())
    }
}

/// Folds [`Event::Charged`] items into one running cost per tenant tag;
/// ignores everything else.
///
/// Each charge is validated exactly as [`Bill::try_charge`] validates it
/// (same [`EngineError::Billing`], refused on the same event), then its
/// amount is added to its tag's total in charge order — the float-addition
/// sequence [`Bill::totals_by_tag`] performs over the same items, so the
/// totals are bit-identical to the ledger's. Like `totals_by_tag`, a
/// validated charge tagged `>= n` is dropped.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CostTotals {
    totals: Vec<Cost>,
}

impl CostTotals {
    /// Zero totals for tags `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        CostTotals {
            totals: vec![Cost::ZERO; n],
        }
    }

    /// Validates `item` and adds its amount to its tag's total.
    ///
    /// # Errors
    ///
    /// [`EngineError::Billing`] when the item's price or duration is NaN,
    /// infinite, or negative; every total is left untouched.
    pub(crate) fn try_charge(&mut self, item: &LineItem) -> Result<(), EngineError> {
        item.validate()?;
        if let Some(t) = self.totals.get_mut(item.tag as usize) {
            *t += item.amount();
        }
        Ok(())
    }

    /// Adds an amount whose charge was already validated to `tag`'s total
    /// (the lazy settlement of spot charges validated once per slot).
    pub(crate) fn add(&mut self, tag: u32, amount: Cost) {
        self.totals[tag as usize] += amount;
    }

    /// `tag`'s total so far.
    pub(crate) fn total(&self, tag: u32) -> Cost {
        self.totals[tag as usize]
    }

    /// Consumes the accumulator, returning the totals indexed by tag.
    #[cfg(test)]
    pub(crate) fn into_totals(self) -> Vec<Cost> {
        self.totals
    }
}

impl Observer for CostTotals {
    fn on_event(&mut self, event: &Event) -> Result<(), EngineError> {
        if let Event::Charged { item } = event {
            self.try_charge(item)?;
        }
        Ok(())
    }
}

/// Records every event, in order.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the log, returning the recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Observer for EventLog {
    fn on_event(&mut self, event: &Event) -> Result<(), EngineError> {
        self.events.push(*event);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::{LineItem, UsageKind};
    use spotbid_market::units::{Hours, Price};
    use spotbid_numerics::rng::Rng;

    fn item(price: f64) -> LineItem {
        LineItem {
            slot: 0,
            price: Price::new(price),
            duration: Hours::from_minutes(5.0),
            kind: UsageKind::Spot,
            tag: 1,
        }
    }

    #[test]
    fn billing_observer_folds_charges() {
        let mut obs = BillingObserver::validated();
        obs.on_event(&Event::PricePosted {
            slot: 0,
            price: Price::new(0.04),
        })
        .unwrap();
        obs.on_event(&Event::Charged { item: item(0.04) }).unwrap();
        obs.on_event(&Event::Charged { item: item(0.08) }).unwrap();
        let bill = obs.into_bill();
        assert_eq!(bill.items().len(), 2);
        assert!((bill.total().as_f64() - 0.12 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn validated_observer_refuses_nan_charge() {
        let mut obs = BillingObserver::validated();
        let r = obs.on_event(&Event::Charged {
            item: item(f64::NAN),
        });
        assert!(matches!(r, Err(EngineError::Billing { .. })));
        assert!(obs.bill().items().is_empty());
    }

    #[test]
    #[should_panic(expected = "pathological")]
    fn unvalidated_observer_panics_on_nan_charge() {
        let mut obs = BillingObserver::unvalidated();
        let _ = obs.on_event(&Event::Charged {
            item: item(f64::NAN),
        });
    }

    /// A charge with an awkward magnitude: prices spanning nine decades
    /// (so float addition order shows in the bits), 5-minute slots or
    /// arbitrary on-demand remainders, occasional exact zeros.
    fn random_item(rng: &mut Rng, n: u32) -> LineItem {
        let spot = rng.chance(0.7);
        let price = match rng.range_usize(4) {
            0 => 0.0,
            1 => rng.range_f64(0.0, 1.0) * 1e-6,
            2 => rng.range_f64(0.01, 0.35),
            _ => rng.range_f64(0.0, 1.0) * 1e3,
        };
        let duration = if spot {
            Hours::from_minutes(5.0)
        } else {
            Hours::new(rng.range_f64(0.0, 4.0))
        };
        LineItem {
            slot: rng.next_u64() % 10_000,
            price: Price::new(price),
            duration,
            kind: if spot {
                UsageKind::Spot
            } else {
                UsageKind::OnDemand
            },
            tag: rng.range_usize(n as usize) as u32,
        }
    }

    fn bits(costs: &[Cost]) -> Vec<u64> {
        costs.iter().map(|c| c.as_f64().to_bits()).collect()
    }

    #[test]
    fn cost_totals_match_the_ledger_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0xC057);
        for case in 0..300 {
            let n = 1 + rng.range_usize(40) as u32;
            let charges = rng.range_usize(600);
            let mut totals = CostTotals::new(n as usize);
            let mut bill = Bill::new();
            for _ in 0..charges {
                let item = random_item(&mut rng, n);
                let event = Event::Charged { item };
                totals.on_event(&event).unwrap();
                bill.try_charge(item).unwrap();
                // Non-charge events are ignored.
                totals
                    .on_event(&Event::PricePosted {
                        slot: item.slot,
                        price: item.price,
                    })
                    .unwrap();
            }
            assert_eq!(
                bits(&totals.clone().into_totals()),
                bits(&bill.totals_by_tag(n as usize)),
                "case {case}: running totals diverged from the ledger"
            );
        }
    }

    #[test]
    fn cost_totals_refuse_what_the_ledger_refuses() {
        let mut totals = CostTotals::new(3);
        let mut bill = Bill::new();
        for tag in 0..3 {
            let ok = LineItem { tag, ..item(0.04) };
            totals.try_charge(&ok).unwrap();
            bill.try_charge(ok).unwrap();
        }
        let before = totals.clone();
        for (price, duration) in [
            (f64::NAN, 0.1),
            (f64::INFINITY, 0.1),
            (f64::NEG_INFINITY, 0.1),
            (-0.04, 0.1),
            (0.04, f64::NAN),
            (0.04, f64::INFINITY),
            (0.04, -1.0),
        ] {
            for kind in [UsageKind::Spot, UsageKind::OnDemand] {
                let bad = LineItem {
                    slot: 9,
                    price: Price::new(price),
                    duration: Hours::new(duration),
                    kind,
                    tag: 1,
                };
                let got = totals.on_event(&Event::Charged { item: bad });
                let want = bill.clone().try_charge(bad);
                match (got, want) {
                    (
                        Err(EngineError::Billing { what: g }),
                        Err(EngineError::Billing { what: w }),
                    ) => assert_eq!(g, w, "({price}, {duration}): error text differs"),
                    (g, w) => panic!("({price}, {duration}): {g:?} vs ledger {w:?}"),
                }
                assert_eq!(totals, before, "a refused charge moved a total");
            }
        }
        // Out-of-range tags are validated, then dropped — as
        // `totals_by_tag` ignores items tagged >= n.
        let stray = LineItem {
            tag: 3,
            ..item(0.5)
        };
        totals.try_charge(&stray).unwrap();
        bill.try_charge(stray).unwrap();
        assert_eq!(totals, before);
        assert_eq!(
            bits(&totals.clone().into_totals()),
            bits(&bill.totals_by_tag(3))
        );
        let stray_nan = LineItem {
            tag: 7,
            ..item(f64::NAN)
        };
        assert!(matches!(
            totals.try_charge(&stray_nan),
            Err(EngineError::Billing { .. })
        ));
        assert!(CostTotals::new(0).into_totals().is_empty());
    }

    #[test]
    fn event_log_records_in_order() {
        let mut log = EventLog::new();
        log.on_event(&Event::PricePosted {
            slot: 0,
            price: Price::new(0.04),
        })
        .unwrap();
        log.on_event(&Event::Completed { slot: 3, tenant: 2 })
            .unwrap();
        let events = log.into_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::PricePosted { slot: 0, .. }));
        assert!(matches!(events[1], Event::Completed { slot: 3, tenant: 2 }));
    }
}
