//! Compiler: AST → byte code.
//!
//! Transforms are inlined at their call sites (beta reduction with a
//! recursion check); tables become indices into the bundle's table pool;
//! `match` desugars into test/branch chains; attribute names a program
//! reads are lowercased here, once, and the names rules write are shared.

use crate::ast::{Expr, File, MappingDef, Pattern, TransformDef};
use crate::bytecode::{Bundle, CompiledMapping, CompiledRule, CompiledTable, Instr, Program};
use crate::descriptor::shared_name;
use crate::error::CompileError;
use crate::parser::parse;
use std::collections::BTreeMap;

/// Compile a description source text into a bundle.
pub(crate) fn compile(src: &str) -> Result<Bundle, CompileError> {
    compile_file(&parse(src)?)
}

/// Compile a parsed file.
pub(crate) fn compile_file(file: &File) -> Result<Bundle, CompileError> {
    let mut tables = Vec::new();
    let mut table_idx: BTreeMap<String, usize> = BTreeMap::new();
    for t in &file.tables {
        if table_idx.contains_key(&t.name) {
            return Err(CompileError::Semantic(format!(
                "duplicate table `{}`",
                t.name
            )));
        }
        table_idx.insert(t.name.clone(), tables.len());
        tables.push(CompiledTable {
            name: t.name.clone(),
            rows: t.rows.clone(),
            default: t.default.clone(),
        });
    }
    let mut transforms: BTreeMap<String, &TransformDef> = BTreeMap::new();
    for t in &file.transforms {
        if transforms.insert(t.name.clone(), t).is_some() {
            return Err(CompileError::Semantic(format!(
                "duplicate transform `{}`",
                t.name
            )));
        }
    }
    let ctx = Ctx {
        table_idx,
        transforms,
    };
    let mut mappings = Vec::new();
    let mut names = Vec::new();
    for m in &file.mappings {
        if names.contains(&m.name) {
            return Err(CompileError::Semantic(format!(
                "duplicate mapping `{}`",
                m.name
            )));
        }
        names.push(m.name.clone());
        mappings.push(compile_mapping(&ctx, m)?);
    }
    Ok(Bundle { tables, mappings })
}

struct Ctx<'a> {
    table_idx: BTreeMap<String, usize>,
    transforms: BTreeMap<String, &'a TransformDef>,
}

fn compile_mapping(ctx: &Ctx, m: &MappingDef) -> Result<CompiledMapping, CompileError> {
    let mut rules = Vec::new();
    for r in &m.rules {
        let expr = match &r.expr {
            Some(e) => e.clone(),
            None => Expr::Attr(r.input.clone()),
        };
        let expr = inline_transforms(ctx, &expr, &mut Vec::new())?;
        let mut inputs = vec![r.input.clone()];
        expr.referenced_attrs(&mut inputs);
        let mut prog = Program::default();
        emit(ctx, &expr, &mut prog)?;
        let guard = match &r.guard {
            Some(g) => {
                let g = inline_transforms(ctx, g, &mut Vec::new())?;
                g.referenced_attrs(&mut inputs);
                let mut p = Program::default();
                emit(ctx, &g, &mut p)?;
                Some(p)
            }
            None => None,
        };
        inputs.iter_mut().for_each(|i| i.make_ascii_lowercase());
        inputs.dedup();
        rules.push(CompiledRule {
            inputs,
            target: shared_name(&r.target),
            prog,
            guard,
            default: r.default.clone(),
        });
    }
    let target_key_prog = match &m.target_key.1 {
        Some(e) => {
            let e = inline_transforms(ctx, e, &mut Vec::new())?;
            let mut p = Program::default();
            emit(ctx, &e, &mut p)?;
            Some(p)
        }
        None => None,
    };
    let partition = match &m.partition {
        Some(e) => {
            let e = inline_transforms(ctx, e, &mut Vec::new())?;
            let mut p = Program::default();
            emit(ctx, &e, &mut p)?;
            Some(p)
        }
        None => None,
    };
    Ok(CompiledMapping {
        name: m.name.clone(),
        source: m.source.clone(),
        target: m.target.clone(),
        source_key: m.source_key.clone(),
        target_key_attr: m.target_key.0.clone(),
        target_key_prog,
        originator: m.originator.as_deref().map(shared_name),
        origin_check: m.origin_check.clone(),
        rules,
        partition,
    })
}

/// Replace transform calls with their bodies (param substituted).
fn inline_transforms(ctx: &Ctx, e: &Expr, stack: &mut Vec<String>) -> Result<Expr, CompileError> {
    Ok(match e {
        Expr::Lit(_) | Expr::Int(_) | Expr::Attr(_) => e.clone(),
        Expr::OrElse(a, b) => Expr::OrElse(
            Box::new(inline_transforms(ctx, a, stack)?),
            Box::new(inline_transforms(ctx, b, stack)?),
        ),
        Expr::Match { scrutinee, arms } => Expr::Match {
            scrutinee: Box::new(inline_transforms(ctx, scrutinee, stack)?),
            arms: arms
                .iter()
                .map(|(p, e)| Ok((p.clone(), inline_transforms(ctx, e, stack)?)))
                .collect::<Result<Vec<_>, CompileError>>()?,
        },
        Expr::Call { name, args } => {
            if let Some(t) = ctx.transforms.get(name) {
                if args.len() != 1 {
                    return Err(CompileError::Semantic(format!(
                        "transform `{name}` takes 1 argument, got {}",
                        args.len()
                    )));
                }
                if stack.contains(name) {
                    return Err(CompileError::Semantic(format!(
                        "recursive transform `{name}`"
                    )));
                }
                stack.push(name.clone());
                let arg = inline_transforms(ctx, &args[0], stack)?;
                let body = substitute(&t.body, &t.param, &arg);
                let out = inline_transforms(ctx, &body, stack)?;
                stack.pop();
                out
            } else {
                Expr::Call {
                    name: name.clone(),
                    args: args
                        .iter()
                        .map(|a| inline_transforms(ctx, a, stack))
                        .collect::<Result<Vec<_>, CompileError>>()?,
                }
            }
        }
    })
}

/// Substitute `param` with `arg` in `e`.
fn substitute(e: &Expr, param: &str, arg: &Expr) -> Expr {
    match e {
        Expr::Attr(a) if a == param => arg.clone(),
        Expr::Lit(_) | Expr::Int(_) | Expr::Attr(_) => e.clone(),
        Expr::OrElse(a, b) => Expr::OrElse(
            Box::new(substitute(a, param, arg)),
            Box::new(substitute(b, param, arg)),
        ),
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| substitute(a, param, arg)).collect(),
        },
        Expr::Match { scrutinee, arms } => Expr::Match {
            scrutinee: Box::new(substitute(scrutinee, param, arg)),
            arms: arms
                .iter()
                .map(|(p, e)| (p.clone(), substitute(e, param, arg)))
                .collect(),
        },
    }
}

fn emit(ctx: &Ctx, e: &Expr, prog: &mut Program) -> Result<(), CompileError> {
    match e {
        Expr::Lit(s) => prog.instrs.push(Instr::PushStr(s.clone())),
        Expr::Int(n) => prog.instrs.push(Instr::PushStr(n.to_string())),
        Expr::Attr(a) => prog.instrs.push(Instr::LoadAttr(a.to_ascii_lowercase())),
        Expr::OrElse(a, b) => {
            emit(ctx, a, prog)?;
            let jump_at = prog.instrs.len();
            prog.instrs.push(Instr::JumpIfNotNull(usize::MAX));
            emit(ctx, b, prog)?;
            let end = prog.instrs.len();
            prog.instrs[jump_at] = Instr::JumpIfNotNull(end);
        }
        Expr::Match { scrutinee, arms } => {
            emit(ctx, scrutinee, prog)?;
            // Scrutinee on stack; each arm: Dup, MatchGlob, JumpIfFalse next.
            let mut end_jumps = Vec::new();
            let mut matched_wildcard = false;
            for (pat, body) in arms {
                match pat {
                    Pattern::Glob(g) => {
                        prog.instrs.push(Instr::Dup);
                        prog.instrs.push(Instr::MatchGlob(g.clone()));
                        let fail_at = prog.instrs.len();
                        prog.instrs.push(Instr::JumpIfFalse(usize::MAX));
                        prog.instrs.push(Instr::Pop); // drop scrutinee
                        emit(ctx, body, prog)?;
                        end_jumps.push(prog.instrs.len());
                        prog.instrs.push(Instr::Jump(usize::MAX));
                        let next = prog.instrs.len();
                        prog.instrs[fail_at] = Instr::JumpIfFalse(next);
                    }
                    Pattern::Wildcard => {
                        prog.instrs.push(Instr::Pop);
                        emit(ctx, body, prog)?;
                        matched_wildcard = true;
                        break; // arms after `_` are unreachable
                    }
                }
            }
            if !matched_wildcard {
                // No arm matched: drop scrutinee, yield Null.
                prog.instrs.push(Instr::Pop);
                prog.instrs.push(Instr::PushNull);
            }
            let end = prog.instrs.len();
            for j in end_jumps {
                prog.instrs[j] = Instr::Jump(end);
            }
        }
        Expr::Call { name, args } => {
            let arity = |n: usize| -> Result<(), CompileError> {
                if args.len() != n {
                    Err(CompileError::Semantic(format!(
                        "`{name}` takes {n} argument(s), got {}",
                        args.len()
                    )))
                } else {
                    Ok(())
                }
            };
            match name.as_str() {
                "concat" => {
                    if args.is_empty() {
                        return Err(CompileError::Semantic("concat needs arguments".into()));
                    }
                    for a in args {
                        emit(ctx, a, prog)?;
                    }
                    prog.instrs.push(Instr::Concat(args.len()));
                }
                "coalesce" => {
                    // coalesce(a, b, …) ≡ a || b || …
                    if args.is_empty() {
                        return Err(CompileError::Semantic("coalesce needs arguments".into()));
                    }
                    let mut it = args.iter();
                    let mut acc = it.next().expect("non-empty").clone();
                    for next in it {
                        acc = Expr::OrElse(Box::new(acc), Box::new(next.clone()));
                    }
                    emit(ctx, &acc, prog)?;
                }
                "substr" => {
                    arity(3)?;
                    for a in args {
                        emit(ctx, a, prog)?;
                    }
                    prog.instrs.push(Instr::Substr);
                }
                "split" => {
                    arity(3)?;
                    for a in args {
                        emit(ctx, a, prog)?;
                    }
                    prog.instrs.push(Instr::Split);
                }
                "upper" | "lower" | "trim" | "digits" | "first" | "count" => {
                    arity(1)?;
                    emit(ctx, &args[0], prog)?;
                    prog.instrs.push(match name.as_str() {
                        "upper" => Instr::Upper,
                        "lower" => Instr::Lower,
                        "trim" => Instr::Trim,
                        "digits" => Instr::Digits,
                        "first" => Instr::First,
                        _ => Instr::Count,
                    });
                }
                "replace" => {
                    arity(3)?;
                    for a in args {
                        emit(ctx, a, prog)?;
                    }
                    prog.instrs.push(Instr::Replace);
                }
                "before" | "after" => {
                    arity(2)?;
                    for a in args {
                        emit(ctx, a, prog)?;
                    }
                    prog.instrs.push(if name == "before" {
                        Instr::Before
                    } else {
                        Instr::After
                    });
                }
                "pad_left" => {
                    arity(3)?;
                    for a in args {
                        emit(ctx, a, prog)?;
                    }
                    prog.instrs.push(Instr::PadLeft);
                }
                "table" => {
                    arity(2)?;
                    let table_name = match &args[0] {
                        Expr::Attr(n) | Expr::Lit(n) => n.clone(),
                        _ => {
                            return Err(CompileError::Semantic(
                                "table() first argument must be a table name".into(),
                            ))
                        }
                    };
                    let idx = *ctx.table_idx.get(&table_name).ok_or_else(|| {
                        CompileError::Semantic(format!("unknown table `{table_name}`"))
                    })?;
                    emit(ctx, &args[1], prog)?;
                    prog.instrs.push(Instr::TableLookup(idx));
                }
                "matches" => {
                    arity(2)?;
                    emit(ctx, &args[0], prog)?;
                    match &args[1] {
                        Expr::Lit(pat) => prog.instrs.push(Instr::MatchGlob(pat.clone())),
                        other => {
                            emit(ctx, other, prog)?;
                            prog.instrs.push(Instr::MatchDyn);
                        }
                    }
                }
                "eq" => {
                    arity(2)?;
                    emit(ctx, &args[0], prog)?;
                    emit(ctx, &args[1], prog)?;
                    prog.instrs.push(Instr::Eq);
                }
                "not" => {
                    arity(1)?;
                    emit(ctx, &args[0], prog)?;
                    prog.instrs.push(Instr::Not);
                }
                "if" => {
                    arity(3)?;
                    emit(ctx, &args[0], prog)?;
                    emit(ctx, &args[1], prog)?;
                    emit(ctx, &args[2], prog)?;
                    prog.instrs.push(Instr::Select);
                }
                "values" => {
                    arity(1)?;
                    match &args[0] {
                        Expr::Attr(a) => {
                            prog.instrs.push(Instr::LoadAttrAll(a.to_ascii_lowercase()));
                        }
                        _ => {
                            return Err(CompileError::Semantic(
                                "values() takes an attribute name".into(),
                            ))
                        }
                    }
                }
                "join" => {
                    arity(2)?;
                    emit(ctx, &args[0], prog)?;
                    emit(ctx, &args[1], prog)?;
                    prog.instrs.push(Instr::Join);
                }
                "item" => {
                    arity(2)?;
                    emit(ctx, &args[0], prog)?;
                    emit(ctx, &args[1], prog)?;
                    prog.instrs.push(Instr::Item);
                }
                other => {
                    return Err(CompileError::Semantic(format!(
                        "unknown function or transform `{other}`"
                    )))
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_sample_bundle() {
        let src = r#"
table area { "9" -> "+1 908 582 9"; default "?"; }
transform ext4(x) { substr(digits(x), -4, 4) }
mapping m {
    source pbx;
    target ldap;
    key source Extension;
    key target dn : concat("cn=", Name);
    map Extension -> telephoneNumber : concat(table(area, substr(Extension, 0, 1)), substr(Extension, 1, 3));
    map Name -> cn;
    map Phone -> definityExtension : ext4(Phone);
    partition when matches(telephoneNumber, "+1 908*");
}
"#;
        let b = compile(src).unwrap();
        assert_eq!(b.tables.len(), 1);
        let m = b.mapping("m").unwrap();
        assert_eq!(m.rules.len(), 3);
        assert!(m.partition.is_some());
        assert!(m.target_key_prog.is_some());
        // identity rule
        assert_eq!(m.rules[1].prog.instrs, vec![Instr::LoadAttr("name".into())]);
        // transform was inlined: no Call remains, only instrs
        assert!(m.rules[2]
            .prog
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Digits)));
        // dependency tracking includes expression references
        assert!(m.rules[0].inputs.contains(&"extension".to_string()));
        assert_eq!(&*m.rules[0].target, "telephoneNumber");
    }

    #[test]
    fn unknown_function_rejected() {
        let src =
            "mapping m { source a; target b; key source K; key target T; map K -> T : frob(K); }";
        let err = compile(src).unwrap_err();
        assert!(err.to_string().contains("frob"));
    }

    #[test]
    fn unknown_table_rejected() {
        let src = r#"mapping m { source a; target b; key source K; key target T; map K -> T : table(zzz, K); }"#;
        assert!(compile(src).is_err());
    }

    #[test]
    fn recursive_transform_rejected() {
        let src = "transform f(x) { f(x) } mapping m { source a; target b; key source K; key target T; map K -> T : f(K); }";
        let err = compile(src).unwrap_err();
        assert!(err.to_string().contains("recursive"));
    }

    #[test]
    fn arity_checked() {
        let src =
            "mapping m { source a; target b; key source K; key target T; map K -> T : substr(K); }";
        assert!(compile(src).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(compile("table t {} table t {}").is_err());
        assert!(compile("transform f(x) { x } transform f(y) { y }").is_err());
        let m = "mapping m { source a; target b; key source K; key target T; }";
        assert!(compile(&format!("{m} {m}")).is_err());
    }

    #[test]
    fn match_emits_branches() {
        let src = r#"mapping m { source a; target b; key source K; key target T;
            map K -> T : match K { "x*" => "ex"; _ => "other"; }; }"#;
        let b = compile(src).unwrap();
        let prog = &b.mapping("m").unwrap().rules[0].prog;
        assert!(prog.instrs.iter().any(|i| matches!(i, Instr::MatchGlob(_))));
        assert!(prog.instrs.iter().any(|i| matches!(i, Instr::Jump(_))));
    }
}
