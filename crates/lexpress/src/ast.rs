//! Abstract syntax of the lexpress description language.

/// A whole description file.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct File {
    pub tables: Vec<TableDef>,
    pub transforms: Vec<TransformDef>,
    pub mappings: Vec<MappingDef>,
}

/// `table name { "k" -> "v"; … ; default "d"; }`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableDef {
    pub name: String,
    pub rows: Vec<(String, String)>,
    pub default: Option<String>,
}

/// `transform name(param) { expr }`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TransformDef {
    pub name: String,
    pub param: String,
    pub body: Expr,
}

/// `mapping name { … }`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MappingDef {
    pub name: String,
    pub source: String,
    pub target: String,
    /// Source key attribute name.
    pub source_key: String,
    /// Target key attribute + optional expression computing it.
    pub target_key: (String, Option<Expr>),
    /// Target attribute to *stamp* with the update's origin
    /// (device→directory side of the paper's `Originator` characteristic /
    /// `LastUpdater` attribute).
    pub originator: Option<String>,
    /// Source attribute to *read* the original updater from
    /// (directory→device side): when its value names this mapping's target,
    /// the translated operation is conditional (a reapplication).
    pub origin_check: Option<String>,
    pub rules: Vec<RuleDef>,
    /// Partitioning constraint over target attributes.
    pub partition: Option<Expr>,
}

/// `map <input> -> attr [: expr] [when expr] [default "v"];`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RuleDef {
    /// The single input attribute named on the left of `->` (used for
    /// dependency tracking even when `expr` consults more attributes).
    pub input: String,
    pub target: String,
    /// Value expression (identity copy of `input` when absent).
    pub expr: Option<Expr>,
    pub guard: Option<Expr>,
    pub default: Option<String>,
    pub line: u32,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    Lit(String),
    Int(i64),
    /// Reference to a source attribute (or transform parameter).
    Attr(String),
    /// `a || b` — alternate mapping.
    OrElse(Box<Expr>, Box<Expr>),
    /// Function or transform call.
    Call {
        name: String,
        args: Vec<Expr>,
    },
    /// `match scrutinee { pat => expr; … ; _ => expr; }`
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<(Pattern, Expr)>,
    },
}

/// A `match` arm pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Pattern {
    /// Glob pattern string.
    Glob(String),
    /// `_` — always matches.
    Wildcard,
}

impl Expr {
    /// Attribute names this expression reads (dependency analysis).
    pub(crate) fn referenced_attrs(&self, out: &mut Vec<String>) {
        match self {
            Expr::Lit(_) | Expr::Int(_) => {}
            Expr::Attr(a) => {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
            Expr::OrElse(a, b) => {
                a.referenced_attrs(out);
                b.referenced_attrs(out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.referenced_attrs(out);
                }
            }
            Expr::Match { scrutinee, arms } => {
                scrutinee.referenced_attrs(out);
                for (_, e) in arms {
                    e.referenced_attrs(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_attrs_dedup() {
        let e = Expr::Call {
            name: "concat".into(),
            args: vec![
                Expr::Attr("A".into()),
                Expr::OrElse(
                    Box::new(Expr::Attr("B".into())),
                    Box::new(Expr::Attr("A".into())),
                ),
                Expr::Lit("x".into()),
            ],
        };
        let mut attrs = Vec::new();
        e.referenced_attrs(&mut attrs);
        assert_eq!(attrs, vec!["A".to_string(), "B".to_string()]);
    }
}
