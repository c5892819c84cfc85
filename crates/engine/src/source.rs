//! Price sources: where each slot's market signal comes from.
//!
//! A [`PriceSource`] is the kernel's supply side. Each slot the kernel asks
//! it to `post` the slot's quote; `None` means the source is exhausted (end
//! of trace) and the session stops. The quote type is
//! source-specific — a degraded per-slot view for trace replay
//! ([`SlotPrice`]), a full `SlotReport` for the live Section-4 market —
//! so drivers are written against the quote they understand.
//!
//! The [`MarketView`] trait is the
//! replay-side abstraction: a possibly-degraded window onto a price trace,
//! with ground truth kept separate from what the client observes. The
//! faults crate's `FaultyMarket` implements it; [`ViewSource`] adapts any
//! view into a `PriceSource`.

use crate::event::Event;
use spotbid_market::units::Price;
use spotbid_trace::SpotPriceHistory;

/// A client's window onto the spot market, possibly degraded by faults.
///
/// `true_price` is the provider-side ground truth used for acceptance and
/// billing; `observed_price` is what the client's price feed reports (and
/// may be `None` during an outage, or stale under fault injection).
pub trait MarketView {
    /// Number of slots in the window.
    fn len(&self) -> usize;

    /// Whether the window is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The price the client's feed reports for `slot`, if any.
    fn observed_price(&self, slot: usize) -> Option<Price>;

    /// The provider-side ground-truth price for `slot`.
    fn true_price(&self, slot: usize) -> Price;

    /// Whether the provider reclaims the client's capacity at `slot`
    /// regardless of the bid (fault injection).
    fn reclaimed(&self, slot: usize) -> bool;
}

/// A clean history is a view with a perfect feed and no reclamations.
impl MarketView for SpotPriceHistory {
    fn len(&self) -> usize {
        SpotPriceHistory::len(self)
    }

    fn observed_price(&self, slot: usize) -> Option<Price> {
        self.price_at_slot(slot)
    }

    fn true_price(&self, slot: usize) -> Price {
        self.prices()[slot]
    }

    fn reclaimed(&self, _slot: usize) -> bool {
        false
    }
}

/// One slot's market signal from a replayed [`MarketView`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotPrice {
    /// Provider-side ground truth (acceptance and billing).
    pub truth: Price,
    /// What the client's feed observed, if anything.
    pub observed: Option<Price>,
    /// Whether the provider reclaims capacity this slot.
    pub reclaimed: bool,
}

/// The supply side of a kernel session.
///
/// Replayed sources ignore the bidders entirely (price-takers, §5–7);
/// the closed loops' endogenous markets price on the bids actually in
/// their books (Eq. 3's L(t)), which the driver submits in `before_slot`.
pub trait PriceSource {
    /// What the source posts each slot.
    type Quote;

    /// Posts the quote for `slot`. `None` ends the session (source
    /// exhausted).
    fn post(&mut self, slot: u64) -> Option<Self::Quote>;

    /// Emits the market-wide events describing a posted quote (e.g.
    /// [`Event::PricePosted`]). Called once per slot, before the driver sees
    /// the quote.
    fn quote_events(&self, _slot: u64, _quote: &Self::Quote, _emit: &mut dyn FnMut(Event)) {}

    /// Takes a fully-consumed quote back after the driver has seen it,
    /// so arena-backed sources (the live market's `SlotReport` buffers)
    /// can reuse its allocations next slot. The default drops it.
    fn reclaim(&mut self, _quote: Self::Quote) {}
}

/// Adapts any [`MarketView`] into a [`PriceSource`] replaying it slot by
/// slot. Bids do not move the price — replayed bidders are
/// price-takers, exactly as in the paper's Sections 5–7.
#[derive(Debug)]
pub struct ViewSource<'a, M: MarketView + ?Sized> {
    view: &'a M,
}

impl<'a, M: MarketView + ?Sized> ViewSource<'a, M> {
    /// Replays `view` from its first slot.
    pub fn new(view: &'a M) -> Self {
        ViewSource { view }
    }

    /// The underlying view.
    pub fn view(&self) -> &M {
        self.view
    }
}

impl<M: MarketView + ?Sized> PriceSource for ViewSource<'_, M> {
    type Quote = SlotPrice;

    fn post(&mut self, slot: u64) -> Option<SlotPrice> {
        let i = slot as usize;
        if i >= self.view.len() {
            return None;
        }
        Some(SlotPrice {
            truth: self.view.true_price(i),
            observed: self.view.observed_price(i),
            reclaimed: self.view.reclaimed(i),
        })
    }

    fn quote_events(&self, slot: u64, quote: &SlotPrice, emit: &mut dyn FnMut(Event)) {
        emit(Event::PricePosted {
            slot,
            price: quote.truth,
        });
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
    fn clean_history_is_a_perfect_view() {
        let h = history(&[0.04, 0.05, 0.06]);
        assert_eq!(MarketView::len(&h), 3);
        assert!(!MarketView::is_empty(&h));
        assert_eq!(h.observed_price(1), Some(Price::new(0.05)));
        assert_eq!(h.true_price(2), Price::new(0.06));
        assert!(!h.reclaimed(0));
    }

    #[test]
    fn view_source_replays_then_exhausts() {
        let h = history(&[0.04, 0.05]);
        let mut src = ViewSource::new(&h);
        let q = src.post(0).unwrap();
        assert_eq!(q.truth, Price::new(0.04));
        assert_eq!(q.observed, Some(Price::new(0.04)));
        assert!(!q.reclaimed);
        assert!(src.post(1).is_some());
        assert!(src.post(2).is_none(), "past the trace end");
    }

    #[test]
    fn view_source_emits_price_posted() {
        let h = history(&[0.04]);
        let src = ViewSource::new(&h);
        let q = SlotPrice {
            truth: Price::new(0.04),
            observed: None,
            reclaimed: false,
        };
        let mut seen = Vec::new();
        src.quote_events(7, &q, &mut |e| seen.push(e));
        assert_eq!(
            seen,
            vec![Event::PricePosted {
                slot: 7,
                price: Price::new(0.04)
            }]
        );
    }
}
