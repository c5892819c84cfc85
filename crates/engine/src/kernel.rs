//! The kernel: the one slot loop every session in the workspace runs on.
//!
//! One iteration of [`run`] is one pricing slot:
//!
//! 1. stop if the slot budget is spent;
//! 2. give the driver its `before_slot` hook (bid submission in
//!    closed-loop mode);
//! 3. ask the [`PriceSource`] to post the slot's quote — `None` stops the
//!    session (trace exhausted);
//! 4. advance the driver one slot with the quote;
//! 5. hand the spent quote back to the source, and stop if the driver
//!    reported [`DriverStatus::Done`].
//!
//! The driver and the source emit [`Event`]s through a buffer that the
//! kernel flushes to every [`Observer`] after each hook, in emission order.
//! An observer error aborts the session *after* the flush completes, so the
//! billing ledger has already recorded everything up to (not including) the
//! refused charge — matching the legacy `try_charge` semantics. A session
//! with no observers drops events as they are emitted: nobody reads them,
//! so nothing is buffered.
//!
//! The kernel owns nothing: the caller keeps its source and driver and
//! reads them after the run.

use crate::event::Event;
use crate::observer::Observer;
use crate::source::PriceSource;
use crate::EngineError;

/// Whether a driver wants more slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverStatus {
    /// Keep advancing this driver.
    Active,
    /// The driver is finished; the session ends after this slot.
    Done,
}

/// The component a session advances one slot at a time (a single spot
/// job, a MapReduce cluster, a closed loop's whole tenant fleet).
pub trait JobDriver<S: PriceSource> {
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

/// Runs `driver` against `source` from slot 0 until the driver reports
/// [`DriverStatus::Done`], the source is exhausted, or `max_slots` slots
/// have elapsed, fanning every event out to `observers`.
///
/// # Errors
///
/// The first error from a driver hook or an observer, with all events
/// emitted before the failure already delivered.
pub fn run<S: PriceSource, D: JobDriver<S>>(
    source: &mut S,
    driver: &mut D,
    observers: &mut [&mut dyn Observer],
    max_slots: Option<u64>,
) -> Result<(), EngineError> {
    let mut buf: Vec<Event> = Vec::new();
    let listening = !observers.is_empty();
    let mut slot = 0;
    while max_slots.is_none_or(|m| slot < m) {
        let r = driver.before_slot(slot, source, &mut sink(&mut buf, listening));
        flush(&mut buf, observers)?;
        r?;
        let Some(quote) = source.post(slot) else {
            return Ok(());
        };
        source.quote_events(slot, &quote, &mut sink(&mut buf, listening));
        flush(&mut buf, observers)?;
        let r = driver.on_slot(slot, &quote, &mut sink(&mut buf, listening));
        flush(&mut buf, observers)?;
        let status = r?;
        // Hand the spent quote back so arena-backed sources can reuse
        // its buffers next slot.
        source.reclaim(quote);
        if status == DriverStatus::Done {
            return Ok(());
        }
        slot += 1;
    }
    Ok(())
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
        let mut d = CountDriver {
            n: 2,
            seen: Vec::new(),
        };
        let mut log = EventLog::new();
        run(&mut ViewSource::new(&h), &mut d, &mut [&mut log], None).unwrap();
        assert_eq!(d.seen, vec![Price::new(0.04), Price::new(0.05)]);
        // PricePosted ×2 interleaved with the driver's Completed.
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[2], Event::Completed { slot: 1, .. }));
    }

    #[test]
    fn stops_when_source_exhausts() {
        let h = history(&[0.04, 0.05]);
        let mut d = CountDriver {
            n: 10,
            seen: Vec::new(),
        };
        run(&mut ViewSource::new(&h), &mut d, &mut [], None).unwrap();
        assert_eq!(d.seen.len(), 2);
    }

    #[test]
    fn stops_at_max_slots() {
        let h = history(&[0.04, 0.05, 0.06]);
        let mut d = CountDriver {
            n: 10,
            seen: Vec::new(),
        };
        run(&mut ViewSource::new(&h), &mut d, &mut [], Some(1)).unwrap();
        assert_eq!(d.seen.len(), 1);
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
        let mut d = CountDriver {
            n: 1,
            seen: Vec::new(),
        };
        let mut log = EventLog::new();
        let mut refuser = Refuser;
        let r = run(
            &mut ViewSource::new(&h),
            &mut d,
            &mut [&mut log, &mut refuser],
            None,
        );
        assert!(matches!(r, Err(EngineError::Billing { .. })));
        // The log (registered first) still saw the event that was refused.
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, Event::Completed { .. })));
    }
}
