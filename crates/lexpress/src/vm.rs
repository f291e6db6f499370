//! The byte-code interpreter.
//!
//! Programs evaluate against a [`Frame`] — an attribute
//! [`Image`](crate::Image), or a record read in place — and yield
//! a single [`Value`]. The interpreter is a plain stack machine whose values
//! borrow from the frame and the program, so an evaluation allocates only
//! the strings it produces: loading an attribute or pushing a constant
//! copies nothing, slicing a borrowed string (`substr`, `split`, `trim`,
//! `before`, `after`, `item`) stays borrowed, an operation that makes new
//! text writes it once at its exact size, and one value stack serves every
//! program a [`Vm`] runs.

use crate::bytecode::{Bundle, Instr, Program};
use crate::descriptor::{Frame, List};
use crate::error::RuntimeError;
use crate::value::{glob_match, join, Value};
use std::borrow::Cow;
use std::ops::Range;

/// Evaluates programs of one bundle, reusing its value stack between them.
pub(crate) struct Vm<'a> {
    bundle: &'a Bundle,
    stack: Vec<Value<'a>>,
}

impl<'a> Vm<'a> {
    pub(crate) fn new(bundle: &'a Bundle) -> Vm<'a> {
        Vm {
            bundle,
            stack: Vec::with_capacity(8),
        }
    }

    /// Evaluate `prog` against `frame`, resolving tables from the bundle.
    pub(crate) fn eval(
        &mut self,
        prog: &'a Program,
        frame: &'a dyn Frame,
    ) -> Result<Value<'a>, RuntimeError> {
        let stack = &mut self.stack;
        stack.clear();
        let mut pc = 0usize;
        let fuel_limit = prog.instrs.len().saturating_mul(16).max(1024);
        let mut fuel = 0usize;
        while pc < prog.instrs.len() {
            fuel += 1;
            if fuel > fuel_limit {
                return Err(RuntimeError::BadBytecode(
                    "instruction budget exceeded".into(),
                ));
            }
            let instr = &prog.instrs[pc];
            pc += 1;
            let v = match instr {
                Instr::PushStr(s) => Value::Str(Cow::Borrowed(s)),
                Instr::PushNull => Value::Null,
                Instr::PushBool(b) => Value::Bool(*b),
                Instr::LoadAttr(name) => frame
                    .value(name, 0)
                    .map_or(Value::Null, |s| Value::Str(Cow::Borrowed(s))),
                Instr::LoadAttrAll(name) => match List::new(frame, name) {
                    vs if vs.is_empty() => Value::Null,
                    vs => Value::List(vs),
                },
                Instr::Dup => top(stack)?.clone(),
                Instr::Pop => {
                    pop(stack)?;
                    continue;
                }
                Instr::JumpIfNotNull(target) => {
                    if top(stack)?.is_null() {
                        stack.pop();
                    } else {
                        pc = *target;
                    }
                    continue;
                }
                Instr::JumpIfFalse(target) => {
                    if !pop(stack)?.truthy() {
                        pc = *target;
                    }
                    continue;
                }
                Instr::Jump(target) => {
                    pc = *target;
                    continue;
                }
                Instr::Concat(n) => {
                    let at = stack
                        .len()
                        .checked_sub(*n)
                        .ok_or_else(|| RuntimeError::BadBytecode("concat underflow".into()))?;
                    let joined = Value::concat(&stack[at..]);
                    stack.truncate(at);
                    joined
                }
                Instr::Substr => {
                    let len = int_arg(pop(stack)?)?;
                    let start = int_arg(pop(stack)?)?;
                    str_op(pop(stack)?, |s| {
                        let n = s.chars().count() as i64;
                        let start = if start < 0 {
                            (n + start).max(0)
                        } else {
                            start.min(n)
                        };
                        let end = start.saturating_add(len.max(0)).min(n);
                        let at = |i: i64| s.char_indices().nth(i as usize).map_or(s.len(), |c| c.0);
                        let range = at(start)..at(end);
                        Value::Str(slice(s, range))
                    })
                }
                Instr::Split => {
                    let idx = int_arg(pop(stack)?)?;
                    let sep = pop(stack)?.into_str();
                    match (pop(stack)?.into_str(), sep) {
                        (Some(s), Some(sep)) if !sep.is_empty() => {
                            // Only an index from the end needs the count.
                            let idx = if idx < 0 {
                                s.split(&*sep).count() as i64 + idx
                            } else {
                                idx
                            };
                            let field = usize::try_from(idx)
                                .ok()
                                .and_then(|i| s.split(&*sep).nth(i));
                            match field.map(|f| range_in(&s, f)) {
                                Some(range) => Value::Str(slice(s, range)),
                                None => Value::Null,
                            }
                        }
                        _ => Value::Null,
                    }
                }
                Instr::Before | Instr::After => {
                    let sep = pop(stack)?.into_str();
                    match (pop(stack)?.into_str(), sep) {
                        (Some(s), Some(sep)) if !sep.is_empty() => match s.find(&*sep) {
                            Some(i) => {
                                let range = match instr {
                                    Instr::Before => 0..i,
                                    _ => i + sep.len()..s.len(),
                                };
                                Value::Str(slice(s, range))
                            }
                            None => Value::Null,
                        },
                        _ => Value::Null,
                    }
                }
                Instr::Upper => str_op(pop(stack)?, |s| Value::Str(s.to_uppercase().into())),
                Instr::Lower => str_op(pop(stack)?, |s| Value::Str(s.to_lowercase().into())),
                Instr::Trim => str_op(pop(stack)?, |s| {
                    let range = range_in(&s, s.trim());
                    Value::Str(slice(s, range))
                }),
                Instr::Digits => str_op(pop(stack)?, |s| {
                    let n = s.bytes().filter(u8::is_ascii_digit).count();
                    if n == s.len() {
                        return Value::Str(s);
                    }
                    let mut out = String::with_capacity(n);
                    out.extend(s.chars().filter(char::is_ascii_digit));
                    Value::Str(out.into())
                }),
                Instr::Replace => {
                    let to = pop(stack)?.into_str();
                    let from = pop(stack)?.into_str();
                    match (pop(stack)?.into_str(), from, to) {
                        (Some(s), Some(from), Some(to))
                            if !from.is_empty() && s.contains(&*from) =>
                        {
                            Value::Str(s.replace(&*from, &to).into())
                        }
                        (Some(s), _, _) => Value::Str(s),
                        _ => Value::Null,
                    }
                }
                Instr::PadLeft => {
                    let fill = pop(stack)?.into_str();
                    let width = int_arg(pop(stack)?)?;
                    match (pop(stack)?.into_str(), fill) {
                        (Some(s), Some(fill)) => {
                            let fill_char = fill.chars().next().unwrap_or(' ');
                            let short = (width.max(0) as usize).saturating_sub(s.chars().count());
                            if short == 0 {
                                Value::Str(s)
                            } else {
                                let mut out =
                                    String::with_capacity(short * fill_char.len_utf8() + s.len());
                                out.extend(std::iter::repeat_n(fill_char, short));
                                out.push_str(&s);
                                Value::Str(out.into())
                            }
                        }
                        _ => Value::Null,
                    }
                }
                Instr::TableLookup(idx) => {
                    let key = pop(stack)?;
                    let table = self.bundle.tables.get(*idx).ok_or_else(|| {
                        RuntimeError::BadBytecode(format!("no table at index {idx}"))
                    })?;
                    key.into_str()
                        .and_then(|k| table.lookup(&k))
                        .map_or(Value::Null, |v| Value::Str(Cow::Borrowed(v)))
                }
                Instr::MatchGlob(pat) => {
                    let v = pop(stack)?.into_str();
                    Value::Bool(v.is_some_and(|s| glob_match(&s, pat)))
                }
                Instr::MatchDyn => {
                    let pat = pop(stack)?.into_str();
                    match (pop(stack)?.into_str(), pat) {
                        (Some(s), Some(p)) => Value::Bool(glob_match(&s, &p)),
                        _ => Value::Bool(false),
                    }
                }
                Instr::Eq => {
                    let b = pop(stack)?;
                    let a = pop(stack)?;
                    Value::Bool(a == b)
                }
                Instr::Not => Value::Bool(!pop(stack)?.truthy()),
                Instr::Select => {
                    let else_v = pop(stack)?;
                    let then_v = pop(stack)?;
                    if pop(stack)?.truthy() {
                        then_v
                    } else {
                        else_v
                    }
                }
                Instr::Join => {
                    let sep = pop(stack)?.into_str();
                    match (pop(stack)?, sep) {
                        (Value::List(items), Some(sep)) => Value::Str(join(items, &sep).into()),
                        (Value::Str(s), Some(_)) => Value::Str(s),
                        (Value::Null, _) => Value::Null,
                        _ => {
                            return Err(RuntimeError::Type(
                                "join needs a list and separator".into(),
                            ))
                        }
                    }
                }
                Instr::Item => {
                    let idx = int_arg(pop(stack)?)?;
                    match pop(stack)? {
                        Value::List(items) => {
                            let n = items.len() as i64;
                            let idx = if idx < 0 { n + idx } else { idx };
                            usize::try_from(idx)
                                .ok()
                                .and_then(|i| items.get(i))
                                .map_or(Value::Null, |s| Value::Str(Cow::Borrowed(s)))
                        }
                        Value::Str(s) if idx == 0 || idx == -1 => Value::Str(s),
                        Value::Str(_) | Value::Null => Value::Null,
                        Value::Bool(_) => return Err(RuntimeError::Type("item over bool".into())),
                    }
                }
                Instr::Count => match pop(stack)? {
                    Value::List(items) => Value::Str(items.len().to_string().into()),
                    Value::Str(_) => Value::Str("1".into()),
                    Value::Null => Value::Str("0".into()),
                    Value::Bool(_) => return Err(RuntimeError::Type("count over bool".into())),
                },
                Instr::First => match pop(stack)? {
                    Value::List(items) => items
                        .get(0)
                        .map_or(Value::Null, |s| Value::Str(Cow::Borrowed(s))),
                    other => other,
                },
            };
            stack.push(v);
        }
        if stack.len() != 1 {
            return Err(RuntimeError::BadBytecode(format!(
                "program left {} values on the stack",
                stack.len()
            )));
        }
        Ok(stack.pop().expect("len checked"))
    }
}

fn top<'s, 'a>(stack: &'s [Value<'a>]) -> Result<&'s Value<'a>, RuntimeError> {
    stack
        .last()
        .ok_or_else(|| RuntimeError::BadBytecode("stack underflow".into()))
}

fn pop<'a>(stack: &mut Vec<Value<'a>>) -> Result<Value<'a>, RuntimeError> {
    stack
        .pop()
        .ok_or_else(|| RuntimeError::BadBytecode("stack underflow".into()))
}

fn int_arg(v: Value<'_>) -> Result<i64, RuntimeError> {
    let n = match &v {
        Value::Str(s) => s.trim().parse().ok(),
        Value::List(_) => v.clone().into_str().and_then(|s| s.trim().parse().ok()),
        Value::Null | Value::Bool(_) => None,
    };
    n.ok_or_else(|| RuntimeError::Type(format!("expected integer, got `{v}`")))
}

/// A null-propagating string operation.
fn str_op<'a>(v: Value<'a>, f: impl FnOnce(Cow<'a, str>) -> Value<'a>) -> Value<'a> {
    v.into_str().map_or(Value::Null, f)
}

/// `range` of `s`: still borrowed when `s` is; an owned `s` is kept whole
/// or its part copied into a string of exactly that size.
fn slice(s: Cow<'_, str>, range: Range<usize>) -> Cow<'_, str> {
    match s {
        Cow::Borrowed(b) => Cow::Borrowed(&b[range]),
        Cow::Owned(o) if range == (0..o.len()) => Cow::Owned(o),
        Cow::Owned(o) => Cow::Owned(o[range].to_owned()),
    }
}

/// Where `part`, a subslice of `whole`, sits in it.
fn range_in(whole: &str, part: &str) -> Range<usize> {
    let start = part.as_ptr() as usize - whole.as_ptr() as usize;
    start..start + part.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::descriptor::Image;

    /// Compile a single-rule mapping and evaluate the rule against a frame.
    /// The bundle is leaked: the value may borrow from it.
    fn eval_expr<'f>(expr: &str, frame: &'f Image) -> Result<Value<'f>, RuntimeError> {
        let src = format!(
            "mapping m {{ source a; target b; key source K; key target T; map K -> T : {expr}; }}"
        );
        let bundle = compile(&src).unwrap_or_else(|e| panic!("compile `{expr}`: {e}"));
        let bundle: &'static Bundle = Box::leak(Box::new(bundle));
        let prog = &bundle.mapping("m").unwrap().rules[0].prog;
        Vm::new(bundle).eval(prog, frame)
    }

    fn frame() -> Image {
        Image::from_pairs([
            ("Extension", "9123"),
            ("Name", "Doe, John"),
            ("Room", "2B-401"),
            ("ou", "a"),
            ("ou", "b"),
        ])
    }

    #[test]
    fn string_functions() {
        let f = frame();
        assert_eq!(
            eval_expr(r#"concat("+1 908 582 ", Extension)"#, &f).unwrap(),
            Value::Str("+1 908 582 9123".into())
        );
        assert_eq!(
            eval_expr(r#"substr(Extension, 0, 2)"#, &f).unwrap(),
            Value::Str("91".into())
        );
        assert_eq!(
            eval_expr(r#"substr(Extension, -2, 2)"#, &f).unwrap(),
            Value::Str("23".into())
        );
        assert_eq!(
            eval_expr(r#"split(Name, ",", 0)"#, &f).unwrap(),
            Value::Str("Doe".into())
        );
        assert_eq!(
            eval_expr(r#"trim(split(Name, ",", -1))"#, &f).unwrap(),
            Value::Str("John".into())
        );
        assert_eq!(
            eval_expr(r#"upper(Room)"#, &f).unwrap(),
            Value::Str("2B-401".into())
        );
        assert_eq!(
            eval_expr(r#"lower(Name)"#, &f).unwrap(),
            Value::Str("doe, john".into())
        );
        assert_eq!(
            eval_expr(r#"replace(Room, "-", "/")"#, &f).unwrap(),
            Value::Str("2B/401".into())
        );
        assert_eq!(
            eval_expr(r#"pad_left(Extension, 6, "0")"#, &f).unwrap(),
            Value::Str("009123".into())
        );
        assert_eq!(
            eval_expr(r#"digits(concat("x", Extension, "y9"))"#, &f).unwrap(),
            Value::Str("91239".into())
        );
    }

    #[test]
    fn null_propagation_and_or_else() {
        let f = frame();
        assert_eq!(eval_expr("Missing", &f).unwrap(), Value::Null);
        assert_eq!(
            eval_expr(r#"concat("a", Missing)"#, &f).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_expr(r#"Missing || Extension"#, &f).unwrap(),
            Value::Str("9123".into())
        );
        assert_eq!(
            eval_expr(r#"Missing || AlsoMissing || "fallback""#, &f).unwrap(),
            Value::Str("fallback".into())
        );
        assert_eq!(
            eval_expr(r#"Extension || "never""#, &f).unwrap(),
            Value::Str("9123".into())
        );
        assert_eq!(
            eval_expr(r#"coalesce(Missing, Name)"#, &f).unwrap(),
            Value::Str("Doe, John".into())
        );
    }

    #[test]
    fn match_expression() {
        let f = frame();
        let expr = r#"match Name {
            "*,*" => trim(split(Name, ",", 0));
            "* *" => split(Name, " ", -1);
            _     => Name;
        }"#;
        assert_eq!(eval_expr(expr, &f).unwrap(), Value::Str("Doe".into()));
        let mut f2 = Image::new();
        f2.set("Name", vec!["John Doe".into()]);
        assert_eq!(eval_expr(expr, &f2).unwrap(), Value::Str("Doe".into()));
        let mut f3 = Image::new();
        f3.set("Name", vec!["Cher".into()]);
        assert_eq!(eval_expr(expr, &f3).unwrap(), Value::Str("Cher".into()));
    }

    #[test]
    fn match_without_wildcard_yields_null() {
        let f = frame();
        let expr = r#"match Extension { "8*" => "eight"; }"#;
        assert_eq!(eval_expr(expr, &f).unwrap(), Value::Null);
    }

    #[test]
    fn booleans_and_conditionals() {
        let f = frame();
        assert_eq!(
            eval_expr(r#"matches(Extension, "9*")"#, &f).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_expr(r#"matches(Missing, "*")"#, &f).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_expr(r#"eq(Extension, "9123")"#, &f).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_expr(r#"not(eq(Extension, "0"))"#, &f).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_expr(r#"if(matches(Room, "2?-*"), "bldg2", "other")"#, &f).unwrap(),
            Value::Str("bldg2".into())
        );
        assert_eq!(
            eval_expr(r#"matches(Extension, replace("9*", "", ""))"#, &f).unwrap(),
            Value::Bool(true),
            "dynamic pattern"
        );
    }

    #[test]
    fn multi_valued() {
        let f = frame();
        assert_eq!(
            eval_expr(r#"values(ou)"#, &f).unwrap(),
            Value::List(List::new(&f, "ou"))
        );
        assert_eq!(
            eval_expr(r#"join(values(ou), "+")"#, &f).unwrap(),
            Value::Str("a+b".into())
        );
        assert_eq!(
            eval_expr(r#"item(values(ou), 1)"#, &f).unwrap(),
            Value::Str("b".into())
        );
        assert_eq!(
            eval_expr(r#"item(values(ou), -1)"#, &f).unwrap(),
            Value::Str("b".into())
        );
        assert_eq!(
            eval_expr(r#"count(values(ou))"#, &f).unwrap(),
            Value::Str("2".into())
        );
        assert_eq!(
            eval_expr(r#"first(values(ou))"#, &f).unwrap(),
            Value::Str("a".into())
        );
        assert_eq!(
            eval_expr(r#"count(Missing)"#, &f).unwrap(),
            Value::Str("0".into())
        );
    }

    #[test]
    fn tables() {
        let src = r#"
table area { "9" -> "+1 908 582 9"; "3" -> "+1 908 582 3"; default "+1 ?"; }
mapping m { source a; target b; key source K; key target T;
    map Extension -> T : concat(table(area, substr(Extension, 0, 1)), substr(Extension, 1, 9));
}"#;
        let bundle = compile(src).unwrap();
        let prog = &bundle.mapping("m").unwrap().rules[0].prog;
        let f = frame();
        assert_eq!(
            Vm::new(&bundle).eval(prog, &f).unwrap(),
            Value::Str("+1 908 582 9123".into())
        );
        let mut f2 = Image::new();
        f2.set("Extension", vec!["7777".into()]);
        assert_eq!(
            Vm::new(&bundle).eval(prog, &f2).unwrap(),
            Value::Str("+1 ?777".into())
        );
    }

    #[test]
    fn type_errors_surface() {
        let f = frame();
        assert!(matches!(
            eval_expr(r#"substr(Extension, Name, 2)"#, &f),
            Err(RuntimeError::Type(_))
        ));
    }

    #[test]
    fn before_and_after() {
        let f = frame();
        assert_eq!(
            eval_expr(r#"before(Name, ",")"#, &f).unwrap(),
            Value::Str("Doe".into())
        );
        assert_eq!(
            eval_expr(r#"after(Name, ", ")"#, &f).unwrap(),
            Value::Str("John".into())
        );
        // Separator absent → Null (feeds the || alternate-mapping operator).
        assert_eq!(
            eval_expr(r#"before(Extension, "-")"#, &f).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_expr(r#"before(Extension, "-") || Extension"#, &f).unwrap(),
            Value::Str("9123".into())
        );
        // Null input propagates; empty separator is Null.
        assert_eq!(
            eval_expr(r#"after(Missing, "-")"#, &f).unwrap(),
            Value::Null
        );
        assert_eq!(eval_expr(r#"after(Name, "")"#, &f).unwrap(), Value::Null);
        // First occurrence wins.
        let mut f2 = Image::new();
        f2.set("X", vec!["a-b-c".into()]);
        assert_eq!(
            eval_expr(r#"before(X, "-")"#, &f2).unwrap(),
            Value::Str("a".into())
        );
        assert_eq!(
            eval_expr(r#"after(X, "-")"#, &f2).unwrap(),
            Value::Str("b-c".into())
        );
    }

    #[test]
    fn split_edge_cases() {
        let f = frame();
        assert_eq!(
            eval_expr(r#"split(Name, ",", 5)"#, &f).unwrap(),
            Value::Null
        );
        assert_eq!(eval_expr(r#"split(Name, "", 0)"#, &f).unwrap(), Value::Null);
        assert_eq!(
            eval_expr(r#"split(Missing, ",", 0)"#, &f).unwrap(),
            Value::Null
        );
    }
}
