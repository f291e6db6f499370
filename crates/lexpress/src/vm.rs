//! The byte-code interpreter.
//!
//! Programs evaluate against a *frame* — an attribute [`Image`] — and yield
//! a single [`Value`]. The interpreter is a plain stack machine with no
//! allocation beyond the value stack.

use crate::bytecode::{Bundle, Instr, Program};
use crate::descriptor::Image;
use crate::error::RuntimeError;
use crate::value::{glob_match, Value};

/// Evaluate `prog` against `frame`, resolving tables from `bundle`.
pub(crate) fn eval(bundle: &Bundle, prog: &Program, frame: &Image) -> Result<Value, RuntimeError> {
    let mut stack: Vec<Value> = Vec::with_capacity(8);
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
        match instr {
            Instr::PushStr(s) => stack.push(Value::Str(s.clone())),
            Instr::PushInt(n) => stack.push(Value::Str(n.to_string())),
            Instr::PushNull => stack.push(Value::Null),
            Instr::PushBool(b) => stack.push(Value::Bool(*b)),
            Instr::LoadAttr(name) => {
                let v = frame
                    .first(name)
                    .map(|s| Value::Str(s.to_string()))
                    .unwrap_or(Value::Null);
                stack.push(v);
            }
            Instr::LoadAttrAll(name) => {
                let vs = frame.values(name);
                stack.push(if vs.is_empty() {
                    Value::Null
                } else {
                    Value::List(vs.to_vec())
                });
            }
            Instr::Dup => {
                let v = top(&stack)?.clone();
                stack.push(v);
            }
            Instr::Pop => {
                pop(&mut stack)?;
            }
            Instr::JumpIfNotNull(target) => {
                if top(&stack)?.is_null() {
                    stack.pop();
                } else {
                    pc = *target;
                }
            }
            Instr::JumpIfFalse(target) => {
                let v = pop(&mut stack)?;
                if !v.truthy() {
                    pc = *target;
                }
            }
            Instr::Jump(target) => pc = *target,
            Instr::Concat(n) => {
                let at = stack
                    .len()
                    .checked_sub(*n)
                    .ok_or_else(|| RuntimeError::BadBytecode("concat underflow".into()))?;
                let parts: Vec<Value> = stack.split_off(at);
                if parts.iter().any(Value::is_null) {
                    stack.push(Value::Null);
                } else {
                    let mut out = String::new();
                    for p in parts {
                        out.push_str(&p.as_str().expect("non-null"));
                    }
                    stack.push(Value::Str(out));
                }
            }
            Instr::Substr => {
                let len = int_arg(pop(&mut stack)?)?;
                let start = int_arg(pop(&mut stack)?)?;
                let s = pop(&mut stack)?;
                stack.push(match s.as_str() {
                    None => Value::Null,
                    Some(s) => {
                        let chars: Vec<char> = s.chars().collect();
                        let n = chars.len() as i64;
                        let start = if start < 0 {
                            (n + start).max(0)
                        } else {
                            start.min(n)
                        };
                        let end = (start + len.max(0)).min(n);
                        Value::Str(chars[start as usize..end as usize].iter().collect())
                    }
                });
            }
            Instr::Split => {
                let idx = int_arg(pop(&mut stack)?)?;
                let sep = pop(&mut stack)?;
                let s = pop(&mut stack)?;
                stack.push(match (s.as_str(), sep.as_str()) {
                    (Some(s), Some(sep)) if !sep.is_empty() => {
                        let fields: Vec<&str> = s.split(sep.as_str()).collect();
                        let n = fields.len() as i64;
                        let idx = if idx < 0 { n + idx } else { idx };
                        if idx >= 0 && idx < n {
                            Value::Str(fields[idx as usize].to_string())
                        } else {
                            Value::Null
                        }
                    }
                    _ => Value::Null,
                });
            }
            Instr::Before | Instr::After => {
                let is_before = matches!(instr, Instr::Before);
                let sep = pop(&mut stack)?;
                let s = pop(&mut stack)?;
                stack.push(match (s.as_str(), sep.as_str()) {
                    (Some(s), Some(sep)) if !sep.is_empty() => match s.find(&sep) {
                        Some(i) if is_before => Value::Str(s[..i].to_string()),
                        Some(i) => Value::Str(s[i + sep.len()..].to_string()),
                        None => Value::Null,
                    },
                    _ => Value::Null,
                });
            }
            Instr::Upper => unary_str(&mut stack, |s| s.to_uppercase())?,
            Instr::Lower => unary_str(&mut stack, |s| s.to_lowercase())?,
            Instr::Trim => unary_str(&mut stack, |s| s.trim().to_string())?,
            Instr::Digits => unary_str(&mut stack, |s| {
                s.chars().filter(char::is_ascii_digit).collect()
            })?,
            Instr::Replace => {
                let to = pop(&mut stack)?;
                let from = pop(&mut stack)?;
                let s = pop(&mut stack)?;
                stack.push(match (s.as_str(), from.as_str(), to.as_str()) {
                    (Some(s), Some(from), Some(to)) if !from.is_empty() => {
                        Value::Str(s.replace(&from, &to))
                    }
                    (Some(s), _, _) => Value::Str(s),
                    _ => Value::Null,
                });
            }
            Instr::PadLeft => {
                let fill = pop(&mut stack)?;
                let width = int_arg(pop(&mut stack)?)?;
                let s = pop(&mut stack)?;
                stack.push(match (s.as_str(), fill.as_str()) {
                    (Some(s), Some(fill)) => {
                        let fill_char = fill.chars().next().unwrap_or(' ');
                        let mut out = s.clone();
                        let target = width.max(0) as usize;
                        while out.chars().count() < target {
                            out.insert(0, fill_char);
                        }
                        Value::Str(out)
                    }
                    _ => Value::Null,
                });
            }
            Instr::TableLookup(idx) => {
                let key = pop(&mut stack)?;
                let table = bundle
                    .tables
                    .get(*idx)
                    .ok_or_else(|| RuntimeError::BadBytecode(format!("no table at index {idx}")))?;
                stack.push(match key.as_str() {
                    Some(k) => match table.lookup(&k) {
                        Some(v) => Value::Str(v.to_string()),
                        None => Value::Null,
                    },
                    None => Value::Null,
                });
            }
            Instr::MatchGlob(pat) => {
                let v = pop(&mut stack)?;
                stack.push(match v.as_str() {
                    Some(s) => Value::Bool(glob_match(&s, pat)),
                    None => Value::Bool(false),
                });
            }
            Instr::MatchDyn => {
                let pat = pop(&mut stack)?;
                let v = pop(&mut stack)?;
                stack.push(match (v.as_str(), pat.as_str()) {
                    (Some(s), Some(p)) => Value::Bool(glob_match(&s, &p)),
                    _ => Value::Bool(false),
                });
            }
            Instr::Eq => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                stack.push(Value::Bool(a == b));
            }
            Instr::Not => {
                let v = pop(&mut stack)?;
                stack.push(Value::Bool(!v.truthy()));
            }
            Instr::Select => {
                let else_v = pop(&mut stack)?;
                let then_v = pop(&mut stack)?;
                let cond = pop(&mut stack)?;
                stack.push(if cond.truthy() { then_v } else { else_v });
            }
            Instr::Join => {
                let sep = pop(&mut stack)?;
                let list = pop(&mut stack)?;
                stack.push(match (list, sep.as_str()) {
                    (Value::List(items), Some(sep)) => Value::Str(items.join(&sep)),
                    (Value::Str(s), Some(_)) => Value::Str(s),
                    (Value::Null, _) => Value::Null,
                    _ => return Err(RuntimeError::Type("join needs a list and separator".into())),
                });
            }
            Instr::Item => {
                let idx = int_arg(pop(&mut stack)?)?;
                let list = pop(&mut stack)?;
                stack.push(match list {
                    Value::List(items) => {
                        let n = items.len() as i64;
                        let idx = if idx < 0 { n + idx } else { idx };
                        if idx >= 0 && idx < n {
                            Value::Str(items[idx as usize].clone())
                        } else {
                            Value::Null
                        }
                    }
                    Value::Str(s) if idx == 0 || idx == -1 => Value::Str(s),
                    Value::Str(_) => Value::Null,
                    Value::Null => Value::Null,
                    Value::Bool(_) => return Err(RuntimeError::Type("item over bool".into())),
                });
            }
            Instr::Count => {
                let v = pop(&mut stack)?;
                stack.push(match v {
                    Value::List(items) => Value::Str(items.len().to_string()),
                    Value::Str(_) => Value::Str("1".into()),
                    Value::Null => Value::Str("0".into()),
                    Value::Bool(_) => return Err(RuntimeError::Type("count over bool".into())),
                });
            }
            Instr::First => {
                let v = pop(&mut stack)?;
                stack.push(match v {
                    Value::List(items) => items
                        .into_iter()
                        .next()
                        .map(Value::Str)
                        .unwrap_or(Value::Null),
                    other => other,
                });
            }
        }
    }
    if stack.len() != 1 {
        return Err(RuntimeError::BadBytecode(format!(
            "program left {} values on the stack",
            stack.len()
        )));
    }
    Ok(stack.pop().expect("len checked"))
}

fn top(stack: &[Value]) -> Result<&Value, RuntimeError> {
    stack
        .last()
        .ok_or_else(|| RuntimeError::BadBytecode("stack underflow".into()))
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, RuntimeError> {
    stack
        .pop()
        .ok_or_else(|| RuntimeError::BadBytecode("stack underflow".into()))
}

fn int_arg(v: Value) -> Result<i64, RuntimeError> {
    match v.as_str().and_then(|s| s.trim().parse::<i64>().ok()) {
        Some(n) => Ok(n),
        None => Err(RuntimeError::Type(format!("expected integer, got `{v}`"))),
    }
}

/// Helper for unary string ops (null-propagating).
fn unary_str(stack: &mut Vec<Value>, f: impl FnOnce(String) -> String) -> Result<(), RuntimeError> {
    let v = pop(stack)?;
    stack.push(match v.as_str() {
        Some(s) => Value::Str(f(s)),
        None => Value::Null,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    /// Compile a single-rule mapping and evaluate the rule against a frame.
    fn eval_expr(expr: &str, frame: &Image) -> Result<Value, RuntimeError> {
        let src = format!(
            "mapping m {{ source a; target b; key source K; key target T; map K -> T : {expr}; }}"
        );
        let bundle = compile(&src).unwrap_or_else(|e| panic!("compile `{expr}`: {e}"));
        let prog = &bundle.mapping("m").unwrap().rules[0].prog;
        eval(&bundle, prog, frame)
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
            Value::List(vec!["a".into(), "b".into()])
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
            eval(&bundle, prog, &f).unwrap(),
            Value::Str("+1 908 582 9123".into())
        );
        let mut f2 = Image::new();
        f2.set("Extension", vec!["7777".into()]);
        assert_eq!(
            eval(&bundle, prog, &f2).unwrap(),
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
