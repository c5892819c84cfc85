//! Billing: the auditable substitute for the paper's Amazon bills.
//!
//! §7's costs are read off real AWS bills ("to ensure accuracy, we use our
//! bills from Amazon to calculate the job costs"). Here every charge is a
//! line item — one per (partial) slot of usage — so experiments can report
//! exact costs and break them down by source (spot vs on-demand, master vs
//! slave). The ledger lives in the engine crate because every layer bills
//! through the kernel's [`crate::Event::Charged`] stream; `spotbid-client`
//! re-exports these types unchanged.

use crate::EngineError;
use spotbid_json::{FromJson, Json, JsonError, ToJson};
use spotbid_market::units::{Cost, Hours, Price};

/// What a line item pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsageKind {
    /// Spot-instance usage, charged at the slot's spot price.
    Spot,
    /// On-demand usage, charged at the on-demand price.
    OnDemand,
}

impl ToJson for UsageKind {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                UsageKind::Spot => "Spot",
                UsageKind::OnDemand => "OnDemand",
            }
            .to_owned(),
        )
    }
}

impl FromJson for UsageKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str()? {
            "Spot" => Ok(UsageKind::Spot),
            "OnDemand" => Ok(UsageKind::OnDemand),
            other => Err(JsonError::new(format!("unknown usage kind `{other}`"))),
        }
    }
}

/// One charge: a duration of usage at a price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineItem {
    /// Slot index when the usage occurred.
    pub slot: u64,
    /// Price charged per hour.
    pub price: Price,
    /// Duration charged.
    pub duration: Hours,
    /// Spot or on-demand usage.
    pub kind: UsageKind,
    /// Free-form tag, e.g. `"master"` / `"slave-3"`.
    pub tag: u32,
}

impl LineItem {
    /// The dollar amount of this item.
    pub fn amount(&self) -> Cost {
        self.price * self.duration
    }

    /// Validates the charge: price and duration must be finite and
    /// non-negative, so every accepted item has a non-negative, finite
    /// amount and bill totals stay monotone under accrual.
    ///
    /// # Errors
    ///
    /// [`EngineError::Billing`] describing the pathological field.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !self.price.is_valid_price() {
            return Err(EngineError::Billing {
                what: format!(
                    "invalid price {:?} in charge at slot {}",
                    self.price, self.slot
                ),
            });
        }
        if !self.duration.is_valid_duration() {
            return Err(EngineError::Billing {
                what: format!(
                    "invalid duration {:?} in charge at slot {}",
                    self.duration, self.slot
                ),
            });
        }
        Ok(())
    }
}

impl ToJson for LineItem {
    fn to_json(&self) -> Json {
        Json::Obj(
            [
                ("slot".to_owned(), self.slot.to_json()),
                ("price".to_owned(), self.price.to_json()),
                ("duration".to_owned(), self.duration.to_json()),
                ("kind".to_owned(), self.kind.to_json()),
                ("tag".to_owned(), self.tag.to_json()),
            ]
            .into(),
        )
    }
}

impl FromJson for LineItem {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(LineItem {
            slot: u64::from_json(v.field("slot")?)?,
            price: Price::from_json(v.field("price")?)?,
            duration: Hours::from_json(v.field("duration")?)?,
            kind: UsageKind::from_json(v.field("kind")?)?,
            tag: u32::from_json(v.field("tag")?)?,
        })
    }
}

/// An accumulating bill.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bill {
    items: Vec<LineItem>,
}

impl ToJson for Bill {
    fn to_json(&self) -> Json {
        Json::Obj([("items".to_owned(), self.items.to_json())].into())
    }
}

impl FromJson for Bill {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Bill {
            items: Vec::from_json(v.field("items")?)?,
        })
    }
}

impl Bill {
    /// An empty bill.
    pub fn new() -> Self {
        Bill::default()
    }

    /// Records a validated charge, refusing pathological items.
    ///
    /// # Errors
    ///
    /// [`EngineError::Billing`] when the item's price or duration is NaN,
    /// infinite, or negative; the bill is left untouched.
    pub fn try_charge(&mut self, item: LineItem) -> Result<(), EngineError> {
        item.validate()?;
        self.items.push(item);
        Ok(())
    }

    /// Records a charge.
    ///
    /// # Panics
    ///
    /// Panics on a pathological item (NaN/negative price or duration) —
    /// internal misuse, not survivable input. Paths fed by untrusted or
    /// fault-injected data must use [`Bill::try_charge`] instead.
    pub fn charge(&mut self, item: LineItem) {
        self.try_charge(item).expect("pathological line item");
    }

    /// Validated convenience: records spot usage.
    ///
    /// # Errors
    ///
    /// Same contract as [`Bill::try_charge`].
    pub fn try_charge_spot(
        &mut self,
        slot: u64,
        price: Price,
        duration: Hours,
        tag: u32,
    ) -> Result<(), EngineError> {
        self.try_charge(LineItem {
            slot,
            price,
            duration,
            kind: UsageKind::Spot,
            tag,
        })
    }

    /// Validated convenience: records on-demand usage.
    ///
    /// # Errors
    ///
    /// Same contract as [`Bill::try_charge`].
    pub fn try_charge_on_demand(
        &mut self,
        slot: u64,
        price: Price,
        duration: Hours,
        tag: u32,
    ) -> Result<(), EngineError> {
        self.try_charge(LineItem {
            slot,
            price,
            duration,
            kind: UsageKind::OnDemand,
            tag,
        })
    }

    /// Convenience: records spot usage (panicking on pathological input,
    /// like [`Bill::charge`]).
    pub fn charge_spot(&mut self, slot: u64, price: Price, duration: Hours, tag: u32) {
        self.try_charge_spot(slot, price, duration, tag)
            .expect("pathological spot charge");
    }

    /// Convenience: records on-demand usage (panicking on pathological
    /// input, like [`Bill::charge`]).
    pub fn charge_on_demand(&mut self, slot: u64, price: Price, duration: Hours, tag: u32) {
        self.try_charge_on_demand(slot, price, duration, tag)
            .expect("pathological on-demand charge");
    }

    /// All line items, in charge order.
    pub fn items(&self) -> &[LineItem] {
        &self.items
    }

    /// Total amount.
    pub fn total(&self) -> Cost {
        self.items.iter().map(LineItem::amount).sum()
    }

    /// Total for one usage kind.
    pub fn total_for_kind(&self, kind: UsageKind) -> Cost {
        self.items
            .iter()
            .filter(|i| i.kind == kind)
            .map(LineItem::amount)
            .sum()
    }

    /// Total for one tag (e.g. one node of a MapReduce job).
    pub fn total_for_tag(&self, tag: u32) -> Cost {
        self.items
            .iter()
            .filter(|i| i.tag == tag)
            .map(LineItem::amount)
            .sum()
    }

    /// Per-tag totals for every tag in `0..n`, in one pass over the bill.
    ///
    /// Bit-identical to calling [`Bill::total_for_tag`] once per tag: each
    /// tag's items are accumulated in charge order either way, and float
    /// addition order is all that matters. Items tagged `>= n` are ignored.
    /// The closed loops keep the same totals running as charges arrive
    /// (`observer::CostTotals`) instead of holding the items.
    pub fn totals_by_tag(&self, n: usize) -> Vec<Cost> {
        let mut totals = vec![Cost::ZERO; n];
        for i in &self.items {
            if let Some(t) = totals.get_mut(i.tag as usize) {
                *t += i.amount();
            }
        }
        totals
    }

    /// Total charged duration.
    pub fn total_duration(&self) -> Hours {
        self.items.iter().map(|i| i.duration).sum()
    }

    /// Merges another bill into this one.
    pub fn absorb(&mut self, other: Bill) {
        self.items.extend(other.items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_breakdowns() {
        let mut b = Bill::new();
        let slot = Hours::from_minutes(5.0);
        b.charge_spot(0, Price::new(0.036), slot, 0);
        b.charge_spot(1, Price::new(0.048), slot, 1);
        b.charge_on_demand(2, Price::new(0.350), Hours::new(1.0), 0);
        let expected = 0.036 / 12.0 + 0.048 / 12.0 + 0.35;
        assert!((b.total().as_f64() - expected).abs() < 1e-12);
        assert!(
            (b.total_for_kind(UsageKind::Spot).as_f64() - (0.036 + 0.048) / 12.0).abs() < 1e-12
        );
        assert!((b.total_for_kind(UsageKind::OnDemand).as_f64() - 0.35).abs() < 1e-12);
        assert!((b.total_for_tag(0).as_f64() - (0.036 / 12.0 + 0.35)).abs() < 1e-12);
        assert!((b.total_duration().as_f64() - (2.0 / 12.0 + 1.0)).abs() < 1e-12);
        assert_eq!(b.items().len(), 3);
    }

    #[test]
    fn totals_by_tag_is_bit_identical_to_per_tag_scans() {
        // Interleave tags with awkward magnitudes so any change in float
        // accumulation order would actually show up in the bits.
        let mut b = Bill::new();
        let slot = Hours::from_minutes(5.0);
        for i in 0..200u32 {
            let tag = i % 7;
            b.charge_spot(
                u64::from(i),
                Price::new(0.01 + f64::from(i) * 0.003_7),
                slot,
                tag,
            );
            if i % 3 == 0 {
                b.charge_on_demand(u64::from(i), Price::new(0.35), Hours::new(0.1), tag);
            }
        }
        // One out-of-range tag: ignored by the vectorized pass.
        b.charge_spot(999, Price::new(0.2), slot, 7);
        let totals = b.totals_by_tag(7);
        assert_eq!(totals.len(), 7);
        for (tag, total) in totals.iter().enumerate() {
            let scanned = b.total_for_tag(tag as u32);
            assert_eq!(
                total.as_f64().to_bits(),
                scanned.as_f64().to_bits(),
                "tag {tag}: one-pass total diverged from the scan"
            );
        }
        assert!(b.totals_by_tag(0).is_empty());
    }

    #[test]
    fn empty_bill() {
        let b = Bill::new();
        assert_eq!(b.total(), Cost::ZERO);
        assert_eq!(b.total_duration(), Hours::ZERO);
        assert!(b.items().is_empty());
    }

    #[test]
    fn absorb_merges() {
        let mut a = Bill::new();
        a.charge_spot(0, Price::new(0.04), Hours::from_minutes(5.0), 0);
        let mut b = Bill::new();
        b.charge_spot(1, Price::new(0.05), Hours::from_minutes(5.0), 1);
        a.absorb(b);
        assert_eq!(a.items().len(), 2);
        assert!((a.total().as_f64() - 0.09 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn pathological_charges_are_refused() {
        let mut b = Bill::new();
        b.charge_spot(0, Price::new(0.04), Hours::from_minutes(5.0), 0);
        let before = b.clone();
        for (price, duration) in [
            (f64::NAN, 0.1),
            (f64::INFINITY, 0.1),
            (-0.04, 0.1),
            (0.04, f64::NAN),
            (0.04, -1.0),
            (0.04, f64::INFINITY),
        ] {
            let r = b.try_charge_spot(1, Price::new(price), Hours::new(duration), 0);
            assert!(
                matches!(r, Err(EngineError::Billing { .. })),
                "({price}, {duration}) accepted"
            );
            let r = b.try_charge_on_demand(1, Price::new(price), Hours::new(duration), 0);
            assert!(r.is_err(), "({price}, {duration}) accepted on-demand");
        }
        // Refused charges leave the bill untouched.
        assert_eq!(b, before);
        // Zero price/duration are legitimate (free slots, empty usage).
        assert!(b.try_charge_spot(2, Price::ZERO, Hours::ZERO, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "pathological")]
    fn infallible_charge_panics_on_nan() {
        let mut b = Bill::new();
        b.charge_spot(0, Price::new(f64::NAN), Hours::new(0.1), 0);
    }

    #[test]
    fn accrual_keeps_totals_monotone_and_finite() {
        let mut b = Bill::new();
        let mut prev = Cost::ZERO;
        for i in 0..100u64 {
            b.try_charge_spot(
                i,
                Price::new(0.01 * (i % 7) as f64),
                Hours::from_minutes(5.0),
                0,
            )
            .unwrap();
            let t = b.total();
            assert!(t.as_f64().is_finite());
            assert!(t >= prev, "total regressed at item {i}");
            prev = t;
        }
    }

    #[test]
    fn json_roundtrip() {
        let mut b = Bill::new();
        b.charge_spot(3, Price::new(0.04), Hours::from_minutes(5.0), 7);
        let s = spotbid_json::encode(&b);
        let back: Bill = spotbid_json::decode(&s).unwrap();
        assert_eq!(b, back);
        assert!(s.contains(r#""kind":"Spot""#), "{s}");
    }
}
