//! Runtime values of the lexpress VM.

use crate::descriptor::{List, Values};
use std::borrow::Cow;
use std::fmt;

/// A lexpress runtime value. It borrows from the frame it was computed
/// from and from the program: loading an attribute, pushing a constant and
/// slicing a borrowed string copy nothing, and only an operation that
/// makes new text allocates, once, for exactly that text.
///
/// `Null` is the absence of a value: an unset attribute reference yields
/// `Null`, and string operations propagate it (the basis of the `||`
/// alternate-mapping operator).
#[derive(Clone)]
pub enum Value<'a> {
    Null,
    Str(Cow<'a, str>),
    /// Every value of a frame attribute (`values(attr)`).
    List(List<'a>),
    Bool(bool),
}

impl PartialEq for Value<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a.iter().eq(b.iter()),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}
impl Eq for Value<'_> {}

impl fmt::Debug for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("Null"),
            Value::Str(s) => f.debug_tuple("Str").field(s).finish(),
            Value::List(v) => f.debug_tuple("List").field(&join(*v, ", ")).finish(),
            Value::Bool(b) => f.debug_tuple("Bool").field(b).finish(),
        }
    }
}

/// `list`'s values with `sep` between them, in one string.
pub(crate) fn join(list: List<'_>, sep: &str) -> String {
    let mut out = String::new();
    join_into(list, sep, &mut out);
    out
}

/// Append `list`'s values to `out`, with `sep` between them.
fn join_into(list: List<'_>, sep: &str, out: &mut String) {
    for (i, item) in list.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(item);
    }
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

impl<'a> Value<'a> {
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

    /// String content, or `None` for `Null`: what the value borrows stays
    /// borrowed and what it owns moves; only a list, whose items are joined
    /// with spaces, is copied.
    pub(crate) fn into_str(self) -> Option<Cow<'a, str>> {
        match self {
            Value::Str(s) => Some(s),
            Value::Null => None,
            Value::List(v) => Some(Cow::Owned(join(v, " "))),
            Value::Bool(b) => Some(Cow::Borrowed(bool_str(b))),
        }
    }

    /// Bytes of the string form; 0 for `Null`.
    fn str_len(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Str(s) => s.len(),
            Value::List(v) => v.iter().map(str::len).sum::<usize>() + v.len().saturating_sub(1),
            Value::Bool(b) => bool_str(*b).len(),
        }
    }

    /// Append the string form to `out`.
    fn push_to(&self, out: &mut String) {
        match self {
            Value::Null => {}
            Value::Str(s) => out.push_str(s),
            Value::List(v) => join_into(*v, " ", out),
            Value::Bool(b) => out.push_str(bool_str(*b)),
        }
    }

    /// The concatenation of `parts`' string forms, written once into a
    /// string of exactly their length; `Null` if any part is.
    pub(crate) fn concat(parts: &[Value<'_>]) -> Value<'a> {
        if parts.iter().any(Value::is_null) {
            return Value::Null;
        }
        let mut out = String::with_capacity(parts.iter().map(Value::str_len).sum());
        parts.iter().for_each(|p| p.push_to(&mut out));
        Value::Str(Cow::Owned(out))
    }

    /// The values this produces when assigned to a target attribute:
    /// `Null` or an empty list → none, `Str` → one value, `List` → many.
    pub(crate) fn into_values(self) -> Option<Values> {
        match self {
            Value::List(v) if v.is_empty() => None,
            Value::List(v) => Some(v.iter().map(str::to_string).collect::<Vec<_>>().into()),
            other => other.into_str().map(|s| Values::One(s.into_owned())),
        }
    }
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Str(s) => f.write_str(s),
            Value::List(v) => write!(f, "[{}]", join(*v, ", ")),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Glob matching with `*` (any run) and `?` (any one char), used by
/// `matches(...)` and `match` arms — the paper's "pattern matching".
///
/// One walk over both strings in place: on a mismatch only the last `*`
/// seen takes one more character of the value and the pattern resumes
/// after it, so a match costs O(|value| · |pattern|) however many stars
/// the pattern holds, and allocates nothing.
pub fn glob_match(value: &str, pattern: &str) -> bool {
    // Byte offsets. A literal compares byte by byte, which UTF-8 makes the
    // same as char by char; `?` and a star's growth step a whole char, from
    // offsets that are always char boundaries.
    let (bytes, pat) = (value.as_bytes(), pattern.as_bytes());
    let char_at = |i: usize| value[i..].chars().next().map_or(1, char::len_utf8);
    let (mut v, mut p) = (0, 0);
    // Where the pattern resumes after the last `*`, and where in the value
    // that star's match currently ends.
    let mut star: Option<(usize, usize)> = None;
    while v < bytes.len() {
        match pat.get(p) {
            Some(b'*') => {
                p += 1;
                star = Some((p, v));
                continue;
            }
            Some(b'?') => {
                p += 1;
                v += char_at(v);
                continue;
            }
            Some(&b) if b == bytes[v] => {
                p += 1;
                v += 1;
                continue;
            }
            _ => {}
        }
        let Some((resume, taken)) = star else {
            return false;
        };
        let grown = taken + char_at(taken);
        star = Some((resume, grown));
        (p, v) = (resume, grown);
    }
    pat[p..].iter().all(|&b| b == b'*')
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
        assert!(!Value::Str("".into()).truthy());
        let img = crate::Image::from_pairs([("l", "a")]);
        assert!(Value::List(List::new(&img, "L")).truthy());
        assert!(!Value::List(List::new(&img, "cn")).truthy());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Null.into_values(), None);
        let one = Value::Str("a".into()).into_values().unwrap();
        assert_eq!(one.as_slice(), ["a"]);
        let img = crate::Image::from_pairs([("l", "a"), ("l", "b")]);
        let items = List::new(&img, "l");
        assert_eq!(Value::List(items).into_str().as_deref(), Some("a b"));
        let parts = [
            Value::Str("x=".into()),
            Value::List(items),
            Value::Bool(true),
        ];
        assert_eq!(Value::concat(&parts), Value::Str("x=a btrue".into()));
        assert_eq!(Value::concat(&[Value::Null]), Value::Null);
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
        assert!(glob_match("é", "?"));
        assert!(glob_match("aéb", "a?b"));
        assert!(!glob_match("ab", "a?b"));
    }
}
