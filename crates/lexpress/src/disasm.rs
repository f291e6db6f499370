//! Disassembler / pretty-printer for compiled bundles.
//!
//! The paper's lexpress shipped as "a subroutine library that can be called
//! from any program"; operators debugging a deployment need to see what a
//! mapping compiled to. `describe` renders a whole bundle; `disassemble`
//! renders one program's byte code.

use crate::bytecode::{Bundle, CompiledMapping, Instr, Program};
use std::fmt::Write as _;

/// Render one program as one-instruction-per-line assembly.
pub(crate) fn disassemble(prog: &Program) -> String {
    let mut out = String::new();
    for (i, instr) in prog.instrs.iter().enumerate() {
        let text = match instr {
            Instr::PushStr(s) => format!("push       {s:?}"),
            Instr::PushNull => "push       null".into(),
            Instr::PushBool(b) => format!("push       {b}"),
            Instr::LoadAttr(a) => format!("load       {a}"),
            Instr::LoadAttrAll(a) => format!("load-all   {a}"),
            Instr::Dup => "dup".into(),
            Instr::Pop => "pop".into(),
            Instr::JumpIfNotNull(t) => format!("jnn        -> {t}"),
            Instr::JumpIfFalse(t) => format!("jf         -> {t}"),
            Instr::Jump(t) => format!("jmp        -> {t}"),
            Instr::Concat(n) => format!("concat     {n}"),
            Instr::Substr => "substr".into(),
            Instr::Split => "split".into(),
            Instr::Before => "before".into(),
            Instr::After => "after".into(),
            Instr::Upper => "upper".into(),
            Instr::Lower => "lower".into(),
            Instr::Trim => "trim".into(),
            Instr::Replace => "replace".into(),
            Instr::PadLeft => "pad-left".into(),
            Instr::Digits => "digits".into(),
            Instr::TableLookup(t) => format!("table      #{t}"),
            Instr::MatchGlob(p) => format!("match      {p:?}"),
            Instr::MatchDyn => "match-dyn".into(),
            Instr::Eq => "eq".into(),
            Instr::Not => "not".into(),
            Instr::Select => "select".into(),
            Instr::Join => "join".into(),
            Instr::Item => "item".into(),
            Instr::Count => "count".into(),
            Instr::First => "first".into(),
        };
        writeln!(out, "{i:>4}  {text}").expect("write");
    }
    out
}

/// Render a mapping: metadata, rules (with dependencies), key and
/// partition programs.
pub(crate) fn describe_mapping(m: &CompiledMapping) -> String {
    let mut out = String::new();
    writeln!(out, "mapping {} ({} -> {})", m.name, m.source, m.target).expect("write");
    writeln!(out, "  key source: {}", m.source_key).expect("write");
    writeln!(
        out,
        "  key target: {}{}",
        m.target_key_attr,
        if m.target_key_prog.is_some() {
            " (computed)"
        } else {
            ""
        }
    )
    .expect("write");
    if let Some(o) = &m.originator {
        writeln!(out, "  originator: {o}").expect("write");
    }
    if let Some(o) = &m.origin_check {
        writeln!(out, "  origin-check: {o}").expect("write");
    }
    for (i, rule) in m.rules.iter().enumerate() {
        writeln!(
            out,
            "  rule {i}: [{}] -> {}{}{}",
            rule.inputs.join(", "),
            rule.target,
            if rule.guard.is_some() {
                " when <guard>"
            } else {
                ""
            },
            rule.default
                .as_ref()
                .map(|d| format!(" default {d:?}"))
                .unwrap_or_default(),
        )
        .expect("write");
        for line in disassemble(&rule.prog).lines() {
            writeln!(out, "    {line}").expect("write");
        }
    }
    if m.partition.is_some() {
        writeln!(out, "  partition: <constraint program>").expect("write");
    }
    out
}

/// Render a whole bundle: tables + mappings.
pub fn describe(bundle: &Bundle) -> String {
    let mut out = String::new();
    for (i, t) in bundle.tables.iter().enumerate() {
        writeln!(
            out,
            "table #{i} {} ({} rows{})",
            t.name,
            t.rows.len(),
            if t.default.is_some() { ", default" } else { "" }
        )
        .expect("write");
    }
    for m in &bundle.mappings {
        out.push_str(&describe_mapping(m));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    const SRC: &str = r#"
table area { "9" -> "+1 908 582 9"; default "?"; }
mapping m {
    source pbx; target ldap;
    key source Extension;
    key target dn : concat("cn=", Name);
    originator lastUpdater;
    map Extension -> telephoneNumber : concat(table(area, substr(Extension, 0, 1)), Extension) when matches(Extension, "9*") default "none";
    map Name -> cn;
    partition when matches(telephoneNumber, "+1*");
}
"#;

    #[test]
    fn describe_covers_every_section() {
        let bundle = compile(SRC).unwrap();
        let text = describe(&bundle);
        for needle in [
            "table #0 area (1 rows, default)",
            "mapping m (pbx -> ldap)",
            "key source: Extension",
            "key target: dn (computed)",
            "originator: lastUpdater",
            "rule 0:",
            "when <guard>",
            "default \"none\"",
            "partition: <constraint program>",
            "table      #0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn disassemble_every_instruction_renders() {
        // A program touching the representative instruction classes.
        let src = r#"mapping d { source a; target b; key source K; key target T;
            map K -> T : match K {
                "x*" => join(values(K), item(values(K), 0));
                _    => if(eq(upper(K), lower(K)), pad_left(digits(K), 4, "0"),
                           replace(trim(K), before(K, "-") || after(K, "-"), substr(K, 0, first(values(K)))));
            };
        }"#;
        let bundle = compile(src).unwrap();
        let text = disassemble(&bundle.mapping("d").unwrap().rules[0].prog);
        for needle in [
            "match", "jf", "jmp", "join", "select", "pad-left", "before", "after",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Line numbers are sequential from 0.
        let first = text.lines().next().unwrap();
        assert!(first.trim_start().starts_with('0'));
    }
}
