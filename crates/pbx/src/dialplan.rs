//! Dial plan: the extension ranges a switch owns.
//!
//! The partitioning constraints the paper describes ("a particular PBX
//! accepts updates for phone numbers beginning with +1 908-582-9…") are the
//! directory-side reflection of these ranges.

use crate::error::{PbxError, Result};
use std::fmt;

/// An inclusive extension range expressed as a digit prefix plus length,
/// e.g. prefix `9`, length 4 owns `9000`–`9999`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Range {
    pub prefix: String,
    pub length: usize,
}

/// The set of extension ranges one switch owns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DialPlan {
    ranges: Vec<Range>,
}

impl DialPlan {
    pub(crate) fn new() -> DialPlan {
        DialPlan::default()
    }

    /// A plan owning all `length`-digit extensions starting with `prefix`.
    pub fn with_prefix(prefix: &str, length: usize) -> DialPlan {
        let mut p = DialPlan::new();
        p.add_range(prefix, length);
        p
    }

    pub(crate) fn add_range(&mut self, prefix: &str, length: usize) {
        self.ranges.push(Range {
            prefix: prefix.to_string(),
            length,
        });
    }

    /// Does this switch own `extension`? An empty plan owns everything
    /// (unpartitioned deployments).
    pub(crate) fn owns(&self, extension: &str) -> bool {
        if self.ranges.is_empty() {
            return true;
        }
        self.ranges.iter().any(|r| {
            extension.len() == r.length
                && extension.starts_with(&r.prefix)
                && extension.chars().all(|c| c.is_ascii_digit())
        })
    }

    /// Validate at the admin boundary.
    pub fn check(&self, extension: &str, plan_name: &str) -> Result<()> {
        if extension.is_empty() || !extension.chars().all(|c| c.is_ascii_digit()) {
            return Err(PbxError::InvalidField {
                field: "Extension".into(),
                detail: format!("`{extension}` is not a digit string"),
            });
        }
        if !self.owns(extension) {
            return Err(PbxError::OutsideDialPlan {
                extension: extension.to_string(),
                plan: plan_name.to_string(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for DialPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ranges.is_empty() {
            return f.write_str("any");
        }
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}{}", r.prefix, "x".repeat(r.length - r.prefix.len()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_ownership() {
        let p = DialPlan::with_prefix("9", 4);
        assert!(p.owns("9123"));
        assert!(p.owns("9000"));
        assert!(!p.owns("8123"));
        assert!(!p.owns("91234"), "wrong length");
        assert!(!p.owns("9x23"), "non-digit");
    }

    #[test]
    fn multiple_ranges() {
        let mut p = DialPlan::new();
        p.add_range("9", 4);
        p.add_range("35", 4);
        assert!(p.owns("9123"));
        assert!(p.owns("3555"));
        assert!(!p.owns("3455"));
        assert_eq!(p.to_string(), "9xxx,35xx");
    }

    #[test]
    fn empty_plan_owns_everything() {
        let p = DialPlan::new();
        assert!(p.owns("12345"));
        assert_eq!(p.to_string(), "any");
    }

    #[test]
    fn check_errors() {
        let p = DialPlan::with_prefix("9", 4);
        assert!(matches!(
            p.check("abcd", "west"),
            Err(PbxError::InvalidField { .. })
        ));
        assert!(matches!(
            p.check("8000", "west"),
            Err(PbxError::OutsideDialPlan { .. })
        ));
        p.check("9001", "west").unwrap();
    }
}
