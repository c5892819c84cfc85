//! The kernel: the one slot loop every session in the workspace runs on.
//!
//! One iteration of [`Kernel::run`] is one pricing slot:
//!
//! 1. stop if the slot budget is spent or every driver is done;
//! 2. give each active driver its `before_slot` hook (bid submission in
//!    closed-loop mode);
//! 3. ask the [`PriceSource`] to post a quote for the aggregate demand —
//!    `None` stops the session (trace exhausted);
//! 4. advance each active driver one slot with the quote;
//! 5. tick the clock.
//!
//! Drivers and the source emit [`Event`]s through a buffer that the kernel
//! flushes to every [`Observer`] after each hook, in emission order. An
//! observer error aborts the session *after* the flush completes, so the
//! billing ledger has already recorded everything up to (not including) the
//! refused charge — matching the legacy `try_charge` semantics. A session
//! with no observers drops events as they are emitted: nobody reads them,
//! so nothing is buffered.

use crate::clock::SimClock;
use crate::event::Event;
use crate::observer::Observer;
use crate::source::PriceSource;
use crate::EngineError;

/// Whether a driver wants more slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverStatus {
    /// Keep advancing this driver.
    Active,
    /// The driver is finished; skip it for the rest of the session.
    Done,
}

/// Why a session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every driver reported [`DriverStatus::Done`].
    AllDone,
    /// The price source returned `None` (e.g. end of trace).
    SourceExhausted,
    /// The `max_slots` budget was spent.
    MaxSlots,
}

/// A per-tenant component advanced one slot at a time.
pub trait JobDriver<S: PriceSource> {
    /// How many units of capacity this driver demands while active.
    /// Aggregate demand across drivers is handed to [`PriceSource::post`]
    /// (it moves the price in the endogenous Section-4 market).
    fn demand(&self) -> usize {
        1
    }

    /// Capacity this driver demands from market `m` when the source quotes
    /// several markets ([`PriceSource::markets`] > 1). The default places
    /// the whole [`JobDriver::demand`] in market 0, so single-market
    /// drivers never need to override; portfolio drivers split it.
    fn demand_in(&self, market: usize) -> usize {
        if market == 0 {
            self.demand()
        } else {
            0
        }
    }

    /// Hook before the slot's quote is posted — where closed-loop bidders
    /// observe history and submit bids into the source.
    ///
    /// # Errors
    ///
    /// Aborts the session; buffered events are flushed first.
    fn before_slot(
        &mut self,
        _slot: u64,
        _source: &mut S,
        _emit: &mut dyn FnMut(Event),
    ) -> Result<(), EngineError> {
        Ok(())
    }

    /// Advances the driver one slot with the posted quote.
    ///
    /// # Errors
    ///
    /// Aborts the session; buffered events are flushed first.
    fn on_slot(
        &mut self,
        slot: u64,
        quote: &S::Quote,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError>;
}

/// The simulation kernel: a clock plus a price source, driving any set of
/// [`JobDriver`]s and fanning events out to any set of [`Observer`]s.
#[derive(Debug)]
pub struct Kernel<S: PriceSource> {
    clock: SimClock,
    source: S,
}

impl<S: PriceSource> Kernel<S> {
    /// A kernel at slot 0 over `source`.
    pub fn new(slot_len: spotbid_market::units::Hours, source: S) -> Self {
        Kernel {
            clock: SimClock::new(slot_len),
            source,
        }
    }

    /// The clock (current slot, slot length).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The price source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Mutable access to the price source.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Consumes the kernel, returning the source (e.g. to recover a market
    /// moved into a session).
    pub fn into_source(self) -> S {
        self.source
    }

    /// Runs the session until every driver is done, the source is
    /// exhausted, or `max_slots` slots have elapsed.
    ///
    /// # Errors
    ///
    /// The first error from a driver hook or an observer, with all events
    /// emitted before the failure already delivered.
    pub fn run(
        &mut self,
        drivers: &mut [&mut dyn JobDriver<S>],
        observers: &mut [&mut dyn Observer],
        max_slots: Option<u64>,
    ) -> Result<StopReason, EngineError> {
        let mut done = vec![false; drivers.len()];
        let mut buf: Vec<Event> = Vec::new();
        let listening = !observers.is_empty();
        // Multi-market sources get per-market demand; the single-market
        // path below is byte-identical to the pre-promotion kernel.
        let markets = self.source.markets();
        let mut demands = vec![0usize; markets];
        loop {
            let slot = self.clock.now();
            if max_slots.is_some_and(|m| slot >= m) {
                return Ok(StopReason::MaxSlots);
            }
            if !drivers.is_empty() && done.iter().all(|&d| d) {
                return Ok(StopReason::AllDone);
            }
            for (driver, done) in drivers.iter_mut().zip(&done) {
                if *done {
                    continue;
                }
                let r = driver.before_slot(slot, &mut self.source, &mut sink(&mut buf, listening));
                flush(&mut buf, observers)?;
                r?;
            }
            let posted = if markets <= 1 {
                let demand: usize = drivers
                    .iter()
                    .zip(&done)
                    .filter(|(_, &d)| !d)
                    .map(|(driver, _)| driver.demand())
                    .sum();
                self.source.post(slot, demand)
            } else {
                demands.iter_mut().for_each(|d| *d = 0);
                for (driver, _) in drivers.iter().zip(&done).filter(|(_, &d)| !d) {
                    for (m, d) in demands.iter_mut().enumerate() {
                        *d += driver.demand_in(m);
                    }
                }
                self.source.post_many(slot, &demands)
            };
            let Some(quote) = posted else {
                return Ok(StopReason::SourceExhausted);
            };
            self.source
                .quote_events(slot, &quote, &mut sink(&mut buf, listening));
            flush(&mut buf, observers)?;
            for (driver, done) in drivers.iter_mut().zip(&mut done) {
                if *done {
                    continue;
                }
                let r = driver.on_slot(slot, &quote, &mut sink(&mut buf, listening));
                flush(&mut buf, observers)?;
                if r? == DriverStatus::Done {
                    *done = true;
                }
            }
            // Hand the spent quote back so arena-backed sources can reuse
            // its buffers next slot.
            self.source.reclaim(quote);
            self.clock.tick();
        }
    }
}

/// The emit callback of one hook: buffers each event for the next flush,
/// or drops it when no observer is `listening`.
fn sink(buf: &mut Vec<Event>, listening: bool) -> impl FnMut(Event) + '_ {
    move |e| {
        if listening {
            buf.push(e);
        }
    }
}

/// Drains the event buffer to every observer, in emission order; each event
/// reaches every observer (in registration order) before the next event.
/// The first observer error propagates after the buffer is cleared.
fn flush(buf: &mut Vec<Event>, observers: &mut [&mut dyn Observer]) -> Result<(), EngineError> {
    let mut first_err = Ok(());
    for event in buf.drain(..) {
        for obs in observers.iter_mut() {
            let r = obs.on_event(&event);
            if first_err.is_ok() {
                if let Err(e) = r {
                    first_err = Err(e);
                }
            }
        }
        if first_err.is_err() {
            break;
        }
    }
    buf.clear();
    first_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::EventLog;
    use crate::source::{MarketView, SlotPrice, ViewSource};
    use spotbid_market::units::{Hours, Price};
    use spotbid_trace::SpotPriceHistory;

    fn history(prices: &[f64]) -> SpotPriceHistory {
        SpotPriceHistory::new(
            Hours::from_minutes(5.0),
            prices.iter().copied().map(Price::new).collect(),
        )
        .unwrap()
    }

    /// Runs for `n` slots then reports done; records quotes it saw.
    struct CountDriver {
        n: u64,
        seen: Vec<Price>,
    }

    impl<M: MarketView + ?Sized> JobDriver<ViewSource<'_, M>> for CountDriver {
        fn on_slot(
            &mut self,
            slot: u64,
            quote: &SlotPrice,
            emit: &mut dyn FnMut(Event),
        ) -> Result<DriverStatus, EngineError> {
            self.seen.push(quote.truth);
            if slot + 1 >= self.n {
                emit(Event::Completed { slot, tenant: 0 });
                return Ok(DriverStatus::Done);
            }
            Ok(DriverStatus::Active)
        }
    }

    #[test]
    fn stops_when_all_drivers_done() {
        let h = history(&[0.04, 0.05, 0.06, 0.07]);
        let mut k = Kernel::new(h.slot_len(), ViewSource::new(&h));
        let mut d = CountDriver {
            n: 2,
            seen: Vec::new(),
        };
        let mut log = EventLog::new();
        let stop = k.run(&mut [&mut d], &mut [&mut log], None).unwrap();
        assert_eq!(stop, StopReason::AllDone);
        assert_eq!(d.seen, vec![Price::new(0.04), Price::new(0.05)]);
        assert_eq!(k.clock().now(), 2);
        // PricePosted ×2 interleaved with the driver's Completed.
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[2], Event::Completed { slot: 1, .. }));
    }

    #[test]
    fn stops_when_source_exhausts() {
        let h = history(&[0.04, 0.05]);
        let mut k = Kernel::new(h.slot_len(), ViewSource::new(&h));
        let mut d = CountDriver {
            n: 10,
            seen: Vec::new(),
        };
        let stop = k.run(&mut [&mut d], &mut [], None).unwrap();
        assert_eq!(stop, StopReason::SourceExhausted);
        assert_eq!(d.seen.len(), 2);
    }

    #[test]
    fn stops_at_max_slots() {
        let h = history(&[0.04, 0.05, 0.06]);
        let mut k = Kernel::new(h.slot_len(), ViewSource::new(&h));
        let mut d = CountDriver {
            n: 10,
            seen: Vec::new(),
        };
        let stop = k.run(&mut [&mut d], &mut [], Some(1)).unwrap();
        assert_eq!(stop, StopReason::MaxSlots);
        assert_eq!(d.seen.len(), 1);
    }

    #[test]
    fn no_drivers_runs_source_to_exhaustion() {
        let h = history(&[0.04, 0.05, 0.06]);
        let mut k = Kernel::new(h.slot_len(), ViewSource::new(&h));
        let mut log = EventLog::new();
        let stop = k.run(&mut [], &mut [&mut log], None).unwrap();
        assert_eq!(stop, StopReason::SourceExhausted);
        assert_eq!(log.events().len(), 3, "one PricePosted per slot");
    }

    /// A toy two-market source that records the per-market demand vector
    /// it was quoted with.
    struct TwoMarketFeed {
        slots: u64,
        seen: Vec<Vec<usize>>,
    }

    impl PriceSource for TwoMarketFeed {
        type Quote = u64;

        fn markets(&self) -> usize {
            2
        }

        fn post(&mut self, slot: u64, demand: usize) -> Option<u64> {
            self.post_many(slot, &[demand, 0])
        }

        fn post_many(&mut self, slot: u64, demands: &[usize]) -> Option<u64> {
            if slot >= self.slots {
                return None;
            }
            self.seen.push(demands.to_vec());
            Some(slot)
        }
    }

    /// Demands one unit from every market; never finishes.
    struct SplitDriver;

    impl JobDriver<TwoMarketFeed> for SplitDriver {
        fn demand_in(&self, _market: usize) -> usize {
            1
        }

        fn on_slot(
            &mut self,
            _slot: u64,
            _quote: &u64,
            _emit: &mut dyn FnMut(Event),
        ) -> Result<DriverStatus, EngineError> {
            Ok(DriverStatus::Active)
        }
    }

    /// Default `demand_in` places the whole demand in market 0; never
    /// finishes.
    struct HomeDriver;

    impl JobDriver<TwoMarketFeed> for HomeDriver {
        fn on_slot(
            &mut self,
            _slot: u64,
            _quote: &u64,
            _emit: &mut dyn FnMut(Event),
        ) -> Result<DriverStatus, EngineError> {
            Ok(DriverStatus::Active)
        }
    }

    #[test]
    fn multi_market_source_sees_per_market_demand() {
        let src = TwoMarketFeed {
            slots: 2,
            seen: Vec::new(),
        };
        let mut k = Kernel::new(Hours::from_minutes(5.0), src);
        let mut split = SplitDriver;
        let mut home = HomeDriver;
        let stop = k.run(&mut [&mut split, &mut home], &mut [], None).unwrap();
        assert_eq!(stop, StopReason::SourceExhausted);
        // split contributes 1 to each market, home's default lands in
        // market 0: [1+1, 1+0] per slot.
        assert_eq!(k.source().seen, vec![vec![2, 1], vec![2, 1]]);
    }

    #[test]
    fn observer_error_aborts_after_flush() {
        struct Refuser;
        impl Observer for Refuser {
            fn on_event(&mut self, event: &Event) -> Result<(), EngineError> {
                if matches!(event, Event::Completed { .. }) {
                    return Err(EngineError::Billing {
                        what: "refused".into(),
                    });
                }
                Ok(())
            }
        }
        let h = history(&[0.04, 0.05]);
        let mut k = Kernel::new(h.slot_len(), ViewSource::new(&h));
        let mut d = CountDriver {
            n: 1,
            seen: Vec::new(),
        };
        let mut log = EventLog::new();
        let mut refuser = Refuser;
        let r = k.run(&mut [&mut d], &mut [&mut log, &mut refuser], None);
        assert!(matches!(r, Err(EngineError::Billing { .. })));
        // The log (registered first) still saw the event that was refused.
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, Event::Completed { .. })));
    }
}
