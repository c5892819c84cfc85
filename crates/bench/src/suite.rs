//! Section selection and the A/B schedule for the `benchsuite` binary.
//!
//! Kept in the library so the `--only` matching rules are unit-testable:
//! the substring match is case-insensitive, and an `--only` that matches
//! nothing is an error carrying the list of available sections (the
//! binary turns it into a non-zero exit) rather than a silently empty
//! run that would write a hollow `BENCH_*.json`.

/// Filters `sections` down to those whose name contains `only`
/// (case-insensitively); `None` keeps everything.
///
/// # Errors
///
/// When `only` matches no section, an error message naming the filter and
/// every available section — callers print it and exit non-zero.
pub fn select<'a, T>(
    sections: &'a [(&'static str, T)],
    only: Option<&str>,
) -> Result<Vec<&'a (&'static str, T)>, String> {
    let selected: Vec<&(&'static str, T)> = match only {
        None => sections.iter().collect(),
        Some(s) => {
            let needle = s.to_lowercase();
            sections
                .iter()
                .filter(|(name, _)| name.to_lowercase().contains(&needle))
                .collect()
        }
    };
    if selected.is_empty() {
        let names: Vec<&str> = sections.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--only `{}` matches no section (have: {})",
            only.unwrap_or(""),
            names.join(", ")
        ));
    }
    Ok(selected)
}

/// Which build a run of an A/B measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The parent build.
    Parent,
    /// The change under test.
    Change,
}

/// The runs of an A/B over `sections`, in order, as `(pair, section,
/// side)` with pairs counted from 1: every pair runs each section once in
/// each build, the parent first in odd pairs and the change first in
/// even ones, so a drift over the whole run reaches both sides alike.
pub fn ab_schedule<'a>(pairs: usize, sections: &[&'a str]) -> Vec<(usize, &'a str, Side)> {
    let mut runs = Vec::with_capacity(2 * pairs * sections.len());
    for pair in 1..=pairs {
        let order = if pair % 2 == 1 {
            [Side::Parent, Side::Change]
        } else {
            [Side::Change, Side::Parent]
        };
        for &section in sections {
            runs.extend(order.map(|side| (pair, section, side)));
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::{ab_schedule, select, Side};

    const SECTIONS: &[(&str, u8)] = &[
        ("price_model", 0),
        ("market", 1),
        ("market_scale", 2),
        ("engine_scale", 3),
    ];

    fn names(selected: &[&(&'static str, u8)]) -> Vec<&'static str> {
        selected.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn no_filter_keeps_every_section_in_order() {
        let all = select(SECTIONS, None).unwrap();
        assert_eq!(
            names(&all),
            ["price_model", "market", "market_scale", "engine_scale"]
        );
    }

    #[test]
    fn substring_selects_all_matching_sections() {
        let scale = select(SECTIONS, Some("scale")).unwrap();
        assert_eq!(names(&scale), ["market_scale", "engine_scale"]);
        let exact = select(SECTIONS, Some("engine_scale")).unwrap();
        assert_eq!(names(&exact), ["engine_scale"]);
    }

    #[test]
    fn matching_is_case_insensitive_both_ways() {
        // The regression `--only Engine_Scale` used to run an empty suite.
        let upper = select(SECTIONS, Some("Engine_Scale")).unwrap();
        assert_eq!(names(&upper), ["engine_scale"]);
        let shouted = select(SECTIONS, Some("MARKET")).unwrap();
        assert_eq!(names(&shouted), ["market", "market_scale"]);
    }

    #[test]
    fn an_ab_alternates_the_builds_section_by_section() {
        use Side::{Change as C, Parent as P};
        assert_eq!(
            ab_schedule(2, &["a", "b"]),
            [
                (1, "a", P),
                (1, "a", C),
                (1, "b", P),
                (1, "b", C),
                (2, "a", C),
                (2, "a", P),
                (2, "b", C),
                (2, "b", P),
            ]
        );
        assert!(ab_schedule(3, &[]).is_empty());
    }

    #[test]
    fn no_match_is_an_error_listing_the_sections() {
        let err = select(SECTIONS, Some("nope")).unwrap_err();
        assert!(err.contains("`nope`"), "filter missing from: {err}");
        for (name, _) in SECTIONS {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
        // Empty filter string matches everything, so only a non-empty
        // mismatch can error.
        assert!(select(SECTIONS, Some("")).is_ok());
    }
}
