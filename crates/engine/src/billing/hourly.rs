//! EC2's 2014 hourly billing rules, as an alternative to per-slot
//! charging.
//!
//! The paper reads costs off real AWS bills, which followed instance-hour
//! granularity with two famous spot-market quirks:
//!
//! - a partial final hour is **free** when *Amazon* interrupts the
//!   instance (outbid);
//! - a partial final hour is charged as a **full hour** when the *user*
//!   terminates (e.g. the job completes and shuts the instance down);
//! - each instance-hour is charged at the spot price in force when the
//!   hour *began*.
//!
//! The workspace's default accounting ([`run_job`](crate::run_job)) charges
//! per-slot — the model the paper's analysis uses. This module rebills a
//! finished run under the hourly rules so experiments can report both and
//! quantify the gap (small for multi-hour jobs, visible for short ones).

use super::{Bill, UsageKind};
use crate::EngineError;
use spotbid_market::units::Hours;
use spotbid_trace::SpotPriceHistory;

/// Why a usage session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The provider outbid/interrupted the instance: the partial final
    /// hour is forgiven.
    ProviderInterrupted,
    /// The user terminated the instance (job done): the partial final
    /// hour is charged in full.
    UserTerminated,
}

/// One contiguous stretch of instance usage, in slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageSession {
    /// First slot of usage (inclusive).
    pub start_slot: u64,
    /// One past the last slot of usage.
    pub end_slot: u64,
    /// How the session ended.
    pub end: SessionEnd,
}

impl UsageSession {
    /// Number of slots used.
    pub fn slots(&self) -> u64 {
        self.end_slot.saturating_sub(self.start_slot)
    }
}

/// Extracts usage sessions from a per-slot bill: consecutive charged
/// slots form one session. Every session but the last ended in a provider
/// interruption (that is the only way a persistent job stops using an
/// instance mid-run); the last ends according to `completed` — a
/// completed job is a user termination, an unfinished final session was
/// an interruption.
pub fn sessions_from_bill(bill: &Bill, completed: bool) -> Vec<UsageSession> {
    let mut slots: Vec<u64> = bill
        .items()
        .iter()
        .filter(|i| i.kind == UsageKind::Spot)
        .map(|i| i.slot)
        .collect();
    slots.sort_unstable();
    slots.dedup();
    let mut sessions = Vec::new();
    let mut start = match slots.first() {
        Some(&s) => s,
        None => return sessions,
    };
    let mut prev = start;
    for &s in &slots[1..] {
        if s != prev + 1 {
            sessions.push(UsageSession {
                start_slot: start,
                end_slot: prev + 1,
                end: SessionEnd::ProviderInterrupted,
            });
            start = s;
        }
        prev = s;
    }
    sessions.push(UsageSession {
        start_slot: start,
        end_slot: prev + 1,
        end: if completed {
            SessionEnd::UserTerminated
        } else {
            SessionEnd::ProviderInterrupted
        },
    });
    sessions
}

/// Bills usage sessions under the hourly rules against a price trace.
///
/// Hours are anchored at each session's launch slot; each started hour is
/// charged at the spot price of its first slot. The final partial hour is
/// forgiven or charged per [`SessionEnd`].
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] when a session extends past the trace
/// or is malformed.
pub fn hourly_bill(
    sessions: &[UsageSession],
    prices: &SpotPriceHistory,
    tag: u32,
) -> Result<Bill, EngineError> {
    let exact = Hours::new(1.0) / prices.slot_len();
    let slots_per_hour = exact.round();
    if slots_per_hour < 1.0 || !slots_per_hour.is_finite() || (exact - slots_per_hour).abs() > 1e-9
    {
        return Err(EngineError::InvalidConfig {
            what: format!("slot length {} does not divide an hour", prices.slot_len()),
        });
    }
    let sph = slots_per_hour as u64;
    let mut bill = Bill::new();
    for s in sessions {
        if s.end_slot <= s.start_slot {
            return Err(EngineError::InvalidConfig {
                what: format!("empty session at slot {}", s.start_slot),
            });
        }
        if s.end_slot as usize > prices.len() {
            return Err(EngineError::InvalidConfig {
                what: format!(
                    "session ends at slot {} past trace end {}",
                    s.end_slot,
                    prices.len()
                ),
            });
        }
        let used = s.slots();
        let full_hours = used / sph;
        let partial = used % sph;
        for h in 0..full_hours {
            let anchor = s.start_slot + h * sph;
            let price = prices
                .price_at_slot(anchor as usize)
                .expect("bounds checked");
            bill.try_charge_spot(anchor, price, Hours::new(1.0), tag)?;
        }
        if partial > 0 && s.end == SessionEnd::UserTerminated {
            // Charged as a full hour at the partial hour's opening price.
            let anchor = s.start_slot + full_hours * sph;
            let price = prices
                .price_at_slot(anchor as usize)
                .expect("bounds checked");
            bill.try_charge_spot(anchor, price, Hours::new(1.0), tag)?;
        }
        // Partial hour after a provider interruption: free.
    }
    Ok(bill)
}

/// Convenience: rebills a per-slot outcome bill under the hourly rules.
///
/// # Errors
///
/// Propagates [`hourly_bill`] errors.
pub fn rebill_hourly(
    per_slot: &Bill,
    completed: bool,
    prices: &SpotPriceHistory,
    tag: u32,
) -> Result<Bill, EngineError> {
    hourly_bill(&sessions_from_bill(per_slot, completed), prices, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_job, RunStatus};
    use spotbid_core::{BidDecision, JobSpec};
    use spotbid_market::units::Price;
    use spotbid_trace::history::default_slot_len;

    fn hist(prices: &[f64]) -> SpotPriceHistory {
        SpotPriceHistory::new(
            default_slot_len(),
            prices.iter().map(|&p| Price::new(p)).collect(),
        )
        .unwrap()
    }

    fn session(a: u64, b: u64, end: SessionEnd) -> UsageSession {
        UsageSession {
            start_slot: a,
            end_slot: b,
            end,
        }
    }

    #[test]
    fn full_hours_charged_at_opening_prices() {
        // 24 slots = 2 hours; price changes at slot 12.
        let mut prices = vec![0.04; 12];
        prices.extend(vec![0.08; 12]);
        let h = hist(&prices);
        let bill = hourly_bill(&[session(0, 24, SessionEnd::UserTerminated)], &h, 0).unwrap();
        assert_eq!(bill.items().len(), 2);
        assert!((bill.total().as_f64() - (0.04 + 0.08)).abs() < 1e-12);
    }

    #[test]
    fn interrupted_partial_hour_is_free() {
        let h = hist(&vec![0.05; 30]);
        // 17 slots = 1 full hour + 5 slots, interrupted.
        let forgiven =
            hourly_bill(&[session(0, 17, SessionEnd::ProviderInterrupted)], &h, 0).unwrap();
        assert!((forgiven.total().as_f64() - 0.05).abs() < 1e-12);
        // Same usage, user-terminated: the partial hour bills in full.
        let charged = hourly_bill(&[session(0, 17, SessionEnd::UserTerminated)], &h, 0).unwrap();
        assert!((charged.total().as_f64() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn sub_hour_session_boundary_cases() {
        let h = hist(&vec![0.05; 30]);
        // 3 slots, interrupted → completely free.
        let free = hourly_bill(&[session(0, 3, SessionEnd::ProviderInterrupted)], &h, 0).unwrap();
        assert_eq!(free.total().as_f64(), 0.0);
        // 3 slots, user-terminated → one full hour.
        let one = hourly_bill(&[session(0, 3, SessionEnd::UserTerminated)], &h, 0).unwrap();
        assert!((one.total().as_f64() - 0.05).abs() < 1e-12);
        // Exactly one hour: no partial to forgive — same either way.
        let a = hourly_bill(&[session(0, 12, SessionEnd::ProviderInterrupted)], &h, 0).unwrap();
        let b = hourly_bill(&[session(0, 12, SessionEnd::UserTerminated)], &h, 0).unwrap();
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn validation_errors() {
        let h = hist(&[0.05; 10]);
        assert!(hourly_bill(&[session(5, 5, SessionEnd::UserTerminated)], &h, 0).is_err());
        assert!(hourly_bill(&[session(0, 11, SessionEnd::UserTerminated)], &h, 0).is_err());
        let weird = SpotPriceHistory::new(Hours::new(0.7), vec![Price::new(0.1); 4]).unwrap();
        assert!(hourly_bill(&[session(0, 1, SessionEnd::UserTerminated)], &weird, 0).is_err());
    }

    #[test]
    fn sessions_extracted_from_replay_bill() {
        // Price spike at slots 4–5 interrupts a persistent job.
        let mut prices = vec![0.03; 4];
        prices.extend(vec![0.50; 2]);
        prices.extend(vec![0.03; 20]);
        let h = hist(&prices);
        let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
        let out = run_job(
            &h,
            BidDecision::Spot {
                price: Price::new(0.10),
                persistent: true,
            },
            &job,
            0,
        )
        .unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        let sessions = sessions_from_bill(&out.bill, true);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].end, SessionEnd::ProviderInterrupted);
        assert_eq!(sessions[1].end, SessionEnd::UserTerminated);
        assert_eq!(sessions[0].start_slot, 0);
        assert_eq!(sessions[0].end_slot, 4);
        assert_eq!(sessions[1].start_slot, 6);

        // Hourly rebill: session 1 (4 slots = 20 min, interrupted) is
        // entirely forgiven. Session 2 finishes the remaining 40 min of
        // work plus 30 s of recovery — 9 slots, under an hour — and is
        // user-terminated, so it bills exactly one full hour at its
        // opening price. Note the contrast with per-slot billing, which
        // charges ≈ 61 min in total: forgiveness and rounding pull in
        // opposite directions.
        let hourly = rebill_hourly(&out.bill, true, &h, 0).unwrap();
        assert!(
            (hourly.total().as_f64() - 0.03).abs() < 1e-12,
            "{}",
            hourly.total()
        );
    }

    #[test]
    fn empty_bill_has_no_sessions() {
        let b = Bill::new();
        assert!(sessions_from_bill(&b, true).is_empty());
    }
}
