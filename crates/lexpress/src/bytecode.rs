//! The machine-independent byte code the lexpress compiler emits
//! (paper §4.2: "a compiler that generates machine-independent byte code
//! from the declarative language, and an interpreter for executing the
//! byte codes").

use std::sync::Arc;

/// One instruction of the stack machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push a string constant (an integer literal is pushed as its text).
    PushStr(String),
    PushNull,
    PushBool(bool),
    /// Push the first value of a frame attribute, or Null. The name is
    /// lowercased at compile time, as every attribute name a program
    /// holds is.
    LoadAttr(String),
    /// Push all values of a frame attribute as a List (empty → Null).
    LoadAttrAll(String),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// If TOS is non-null, jump to `target` (TOS kept); else pop and fall
    /// through — implements the `||` alternate-mapping operator.
    JumpIfNotNull(usize),
    /// Pop TOS; jump when falsy.
    JumpIfFalse(usize),
    Jump(usize),
    /// Pop n values, push their concatenation (Null if any is Null).
    Concat(usize),
    /// substr(s, start, len)
    Substr,
    /// split(s, sep, idx)
    Split,
    Upper,
    Lower,
    Trim,
    /// replace(s, from, to)
    Replace,
    /// before(s, sep): substring before the first occurrence of sep
    /// (Null when sep is absent).
    Before,
    /// after(s, sep): substring after the first occurrence of sep
    /// (Null when sep is absent).
    After,
    /// pad_left(s, width, fill-char)
    PadLeft,
    /// keep decimal digits
    Digits,
    /// Table translation by table index.
    TableLookup(usize),
    /// Pop value; push Bool(glob-match against the pattern operand).
    MatchGlob(String),
    /// matches(s, pat) with a dynamic pattern: pops pat, then s.
    MatchDyn,
    /// Pop b, a; push Bool(a == b) (string comparison; Null == Null).
    Eq,
    /// Pop; push logical negation.
    Not,
    /// Pop else, then, cond; push cond ? then : else.
    Select,
    /// join(list, sep): pop sep, list.
    Join,
    /// item(list, idx): pop idx, list.
    Item,
    /// count(list)
    Count,
    /// first(x): first element of a list / identity on strings.
    First,
}

/// A compiled expression.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub instrs: Vec<Instr>,
}

/// A compiled translation table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledTable {
    pub name: String,
    pub rows: Vec<(String, String)>,
    pub default: Option<String>,
}

impl CompiledTable {
    pub(crate) fn lookup(&self, key: &str) -> Option<&str> {
        self.rows
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .or(self.default.as_deref())
    }
}

/// One compiled mapping rule.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRule {
    /// Source attributes the rule reads (dependency set: the named input
    /// plus every attribute referenced by the expression/guard), lowercased.
    pub inputs: Vec<String>,
    /// Target attribute written, as the description spells it: the one
    /// copy every image the rule writes names it by.
    pub target: Arc<str>,
    pub prog: Program,
    pub guard: Option<Program>,
    pub default: Option<String>,
}

/// A compiled mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMapping {
    pub name: String,
    pub source: String,
    pub target: String,
    pub source_key: String,
    pub target_key_attr: String,
    /// Program computing the target key from a *source* image; when `None`
    /// the target key is the value the rules produced for `target_key_attr`.
    pub target_key_prog: Option<Program>,
    /// Attribute stamped with the update's origin, shared as a rule's
    /// target is.
    pub originator: Option<Arc<str>>,
    pub origin_check: Option<String>,
    pub rules: Vec<CompiledRule>,
    pub partition: Option<Program>,
}

/// A compiled description file: mappings plus shared tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bundle {
    pub tables: Vec<CompiledTable>,
    pub mappings: Vec<CompiledMapping>,
}

impl Bundle {
    pub(crate) fn mapping(&self, name: &str) -> Option<&CompiledMapping> {
        self.mappings.iter().find(|m| m.name == name)
    }

    /// Merge another bundle into this one (dynamic loading into a running
    /// program, paper §4.2). Table indices in `other`'s programs are
    /// rebased; redefining an existing mapping name is an error.
    pub(crate) fn absorb(&mut self, mut other: Bundle) -> Result<(), crate::error::CompileError> {
        for m in &other.mappings {
            if self.mapping(&m.name).is_some() {
                return Err(crate::error::CompileError::Semantic(format!(
                    "mapping `{}` is already loaded",
                    m.name
                )));
            }
        }
        let base = self.tables.len();
        for m in &mut other.mappings {
            for rule in &mut m.rules {
                rebase_tables(&mut rule.prog, base);
                if let Some(g) = &mut rule.guard {
                    rebase_tables(g, base);
                }
            }
            if let Some(p) = &mut m.partition {
                rebase_tables(p, base);
            }
            if let Some(p) = &mut m.target_key_prog {
                rebase_tables(p, base);
            }
        }
        self.tables.extend(other.tables);
        self.mappings.extend(other.mappings);
        Ok(())
    }
}

fn rebase_tables(prog: &mut Program, base: usize) {
    for instr in &mut prog.instrs {
        if let Instr::TableLookup(idx) = instr {
            *idx += base;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup_with_default() {
        let t = CompiledTable {
            name: "t".into(),
            rows: vec![("a".into(), "1".into())],
            default: Some("d".into()),
        };
        assert_eq!(t.lookup("a"), Some("1"));
        assert_eq!(t.lookup("zzz"), Some("d"));
        let t2 = CompiledTable {
            name: "t2".into(),
            rows: vec![],
            default: None,
        };
        assert_eq!(t2.lookup("a"), None);
    }

    #[test]
    fn absorb_rebases_table_indices() {
        let mut a = Bundle {
            tables: vec![CompiledTable::default(), CompiledTable::default()],
            mappings: vec![],
        };
        let b = Bundle {
            tables: vec![CompiledTable {
                name: "x".into(),
                ..Default::default()
            }],
            mappings: vec![CompiledMapping {
                name: "m".into(),
                source: "s".into(),
                target: "t".into(),
                source_key: "k".into(),
                target_key_attr: "k2".into(),
                target_key_prog: None,
                originator: None,
                origin_check: None,
                rules: vec![CompiledRule {
                    inputs: vec!["k".into()],
                    target: "k2".into(),
                    prog: Program {
                        instrs: vec![Instr::LoadAttr("k".into()), Instr::TableLookup(0)],
                    },
                    guard: None,
                    default: None,
                }],
                partition: None,
            }],
        };
        a.absorb(b.clone()).unwrap();
        assert_eq!(a.tables.len(), 3);
        // Loading the same mapping name again is rejected.
        assert!(a.absorb(b).is_err());
        match &a.mappings[0].rules[0].prog.instrs[1] {
            Instr::TableLookup(idx) => assert_eq!(*idx, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
