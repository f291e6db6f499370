//! Runtime values of the lexpress VM.

use std::fmt;

/// A lexpress runtime value.
///
/// `Null` is the absence of a value: an unset attribute reference yields
/// `Null`, and string operations propagate it (the basis of the `||`
/// alternate-mapping operator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Null,
    Str(String),
    List(Vec<String>),
    Bool(bool),
}

impl Value {
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness for `when` guards and `if`: `Bool(b)` is `b`; a non-empty
    /// string or list is true; `Null` is false.
    pub(crate) fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Str(s) => !s.is_empty(),
            Value::List(v) => !v.is_empty(),
        }
    }

    /// String content, or `None` for `Null` (lists/bools stringify).
    pub(crate) fn as_str(&self) -> Option<String> {
        match self {
            Value::Null => None,
            Value::Str(s) => Some(s.clone()),
            Value::List(v) => Some(v.join(" ")),
            Value::Bool(b) => Some(b.to_string()),
        }
    }

    /// The values this produces when assigned to a target attribute:
    /// `Null` → nothing, `Str` → one value, `List` → many.
    pub(crate) fn into_values(self) -> Vec<String> {
        match self {
            Value::Null => Vec::new(),
            Value::Str(s) => vec![s],
            Value::List(v) => v,
            Value::Bool(b) => vec![b.to_string()],
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Str(s) => f.write_str(s),
            Value::List(v) => write!(f, "[{}]", v.join(", ")),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Glob matching with `*` (any run) and `?` (any one char), used by
/// `matches(...)` and `match` arms — the paper's "pattern matching".
pub fn glob_match(value: &str, pattern: &str) -> bool {
    fn inner(v: &[char], p: &[char]) -> bool {
        match p.first() {
            None => v.is_empty(),
            Some('*') => {
                // Greedy with backtracking.
                for skip in 0..=v.len() {
                    if inner(&v[skip..], &p[1..]) {
                        return true;
                    }
                }
                false
            }
            Some('?') => !v.is_empty() && inner(&v[1..], &p[1..]),
            Some(c) => v.first() == Some(c) && inner(&v[1..], &p[1..]),
        }
    }
    let v: Vec<char> = value.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    inner(&v, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::List(vec!["a".into()]).truthy());
        assert!(!Value::List(vec![]).truthy());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Null.into_values(), Vec::<String>::new());
        assert_eq!(Value::Str("a".into()).into_values(), vec!["a"]);
    }

    #[test]
    fn globs() {
        assert!(glob_match("+1 908 582 9123", "+1 908 582 9*"));
        assert!(!glob_match("+1 908 582 8123", "+1 908 582 9*"));
        assert!(glob_match("John Doe", "* *"));
        assert!(!glob_match("Cher", "* *"));
        assert!(glob_match("2B-401", "2?-*"));
        assert!(glob_match("anything", "*"));
        assert!(glob_match("", "*"));
        assert!(!glob_match("", "?"));
        assert!(glob_match("abc", "a*c"));
        assert!(glob_match("ac", "a*c"));
        assert!(!glob_match("ab", "a*c"));
        assert!(glob_match("a*b", "a*b")); // literal chars still match themselves
    }
}
