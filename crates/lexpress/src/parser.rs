//! Recursive-descent parser for the lexpress description language.

use crate::ast::*;
use crate::error::CompileError;
use crate::lexer::{lex, Tok, Token};

/// Parse a description file.
pub(crate) fn parse(src: &str) -> Result<File, CompileError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.parse_file()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> CompileError {
        CompileError::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), CompileError> {
        if *self.peek() == tok {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, CompileError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn string(&mut self, what: &str) -> Result<String, CompileError> {
        match self.peek().clone() {
            Tok::Str(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn parse_file(&mut self) -> Result<File, CompileError> {
        let mut file = File {
            tables: Vec::new(),
            transforms: Vec::new(),
            mappings: Vec::new(),
        };
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(kw) if kw == "table" => {
                    self.advance();
                    file.tables.push(self.parse_table()?);
                }
                Tok::Ident(kw) if kw == "transform" => {
                    self.advance();
                    file.transforms.push(self.parse_transform()?);
                }
                Tok::Ident(kw) if kw == "mapping" => {
                    self.advance();
                    file.mappings.push(self.parse_mapping()?);
                }
                other => {
                    return Err(self.err(format!(
                        "expected `table`, `transform` or `mapping`, found {other:?}"
                    )))
                }
            }
        }
        Ok(file)
    }

    fn parse_table(&mut self) -> Result<TableDef, CompileError> {
        let name = self.ident("table name")?;
        self.expect(Tok::LBrace, "`{`")?;
        let mut rows = Vec::new();
        let mut default = None;
        loop {
            match self.peek().clone() {
                Tok::RBrace => {
                    self.advance();
                    break;
                }
                Tok::Ident(kw) if kw == "default" => {
                    self.advance();
                    default = Some(self.string("default value")?);
                    self.expect(Tok::Semi, "`;`")?;
                }
                Tok::Str(k) => {
                    self.advance();
                    self.expect(Tok::Arrow, "`->`")?;
                    let v = self.string("table value")?;
                    self.expect(Tok::Semi, "`;`")?;
                    rows.push((k, v));
                }
                other => return Err(self.err(format!("bad table row: {other:?}"))),
            }
        }
        Ok(TableDef {
            name,
            rows,
            default,
        })
    }

    fn parse_transform(&mut self) -> Result<TransformDef, CompileError> {
        let name = self.ident("transform name")?;
        self.expect(Tok::LParen, "`(`")?;
        let param = self.ident("parameter")?;
        self.expect(Tok::RParen, "`)`")?;
        self.expect(Tok::LBrace, "`{`")?;
        let body = self.parse_expr()?;
        // optional trailing `;`
        if *self.peek() == Tok::Semi {
            self.advance();
        }
        self.expect(Tok::RBrace, "`}`")?;
        Ok(TransformDef { name, param, body })
    }

    fn parse_mapping(&mut self) -> Result<MappingDef, CompileError> {
        let name = self.ident("mapping name")?;
        self.expect(Tok::LBrace, "`{`")?;
        let mut source = None;
        let mut target = None;
        let mut source_key = None;
        let mut target_key = None;
        let mut originator = None;
        let mut origin_check = None;
        let mut rules = Vec::new();
        let mut partition = None;
        loop {
            match self.peek().clone() {
                Tok::RBrace => {
                    self.advance();
                    break;
                }
                Tok::Ident(kw) => match kw.as_str() {
                    "source" => {
                        self.advance();
                        source = Some(self.ident("source name")?);
                        self.expect(Tok::Semi, "`;`")?;
                    }
                    "target" => {
                        self.advance();
                        target = Some(self.ident("target name")?);
                        self.expect(Tok::Semi, "`;`")?;
                    }
                    "key" => {
                        self.advance();
                        let side = self.ident("`source` or `target`")?;
                        let attr = self.ident("key attribute")?;
                        match side.as_str() {
                            "source" => {
                                source_key = Some(attr);
                                self.expect(Tok::Semi, "`;`")?;
                            }
                            "target" => {
                                let expr = if *self.peek() == Tok::Colon {
                                    self.advance();
                                    Some(self.parse_expr()?)
                                } else {
                                    None
                                };
                                target_key = Some((attr, expr));
                                self.expect(Tok::Semi, "`;`")?;
                            }
                            other => {
                                return Err(self
                                    .err(format!("key side must be source/target, got `{other}`")))
                            }
                        }
                    }
                    "originator" => {
                        self.advance();
                        originator = Some(self.ident("originator attribute")?);
                        self.expect(Tok::Semi, "`;`")?;
                    }
                    "origin-check" => {
                        self.advance();
                        origin_check = Some(self.ident("origin-check attribute")?);
                        self.expect(Tok::Semi, "`;`")?;
                    }
                    "map" => {
                        let line = self.line();
                        self.advance();
                        let input = self.ident("input attribute")?;
                        self.expect(Tok::Arrow, "`->`")?;
                        let target_attr = self.ident("target attribute")?;
                        let mut expr = None;
                        let mut guard = None;
                        let mut default = None;
                        if *self.peek() == Tok::Colon {
                            self.advance();
                            expr = Some(self.parse_expr()?);
                        }
                        while let Tok::Ident(kw) = self.peek().clone() {
                            match kw.as_str() {
                                "when" => {
                                    self.advance();
                                    guard = Some(self.parse_expr()?);
                                }
                                "default" => {
                                    self.advance();
                                    default = Some(self.string("default value")?);
                                }
                                _ => break,
                            }
                        }
                        self.expect(Tok::Semi, "`;`")?;
                        rules.push(RuleDef {
                            input,
                            target: target_attr,
                            expr,
                            guard,
                            default,
                            line,
                        });
                    }
                    "partition" => {
                        self.advance();
                        let kw = self.ident("`when`")?;
                        if kw != "when" {
                            return Err(self.err("expected `when` after `partition`"));
                        }
                        partition = Some(self.parse_expr()?);
                        self.expect(Tok::Semi, "`;`")?;
                    }
                    other => return Err(self.err(format!("unknown mapping item `{other}`"))),
                },
                other => return Err(self.err(format!("bad mapping item: {other:?}"))),
            }
        }
        Ok(MappingDef {
            name: name.clone(),
            source: source.ok_or_else(|| {
                CompileError::Semantic(format!("mapping `{name}` missing `source`"))
            })?,
            target: target.ok_or_else(|| {
                CompileError::Semantic(format!("mapping `{name}` missing `target`"))
            })?,
            source_key: source_key.ok_or_else(|| {
                CompileError::Semantic(format!("mapping `{name}` missing `key source`"))
            })?,
            target_key: target_key.ok_or_else(|| {
                CompileError::Semantic(format!("mapping `{name}` missing `key target`"))
            })?,
            originator,
            origin_check,
            rules,
            partition,
        })
    }

    /// expr := cmp ("||" cmp)*
    fn parse_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_primary()?;
        while *self.peek() == Tok::OrElse {
            self.advance();
            let rhs = self.parse_primary()?;
            lhs = Expr::OrElse(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> Result<Expr, CompileError> {
        match self.peek().clone() {
            Tok::Str(s) => {
                self.advance();
                Ok(Expr::Lit(s))
            }
            Tok::Int(n) => {
                self.advance();
                Ok(Expr::Int(n))
            }
            Tok::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(id) if id == "match" => {
                self.advance();
                let scrutinee = self.parse_primary()?;
                self.expect(Tok::LBrace, "`{`")?;
                let mut arms = Vec::new();
                loop {
                    match self.peek().clone() {
                        Tok::RBrace => {
                            self.advance();
                            break;
                        }
                        Tok::Underscore => {
                            self.advance();
                            self.expect(Tok::FatArrow, "`=>`")?;
                            let e = self.parse_expr()?;
                            self.expect(Tok::Semi, "`;`")?;
                            arms.push((Pattern::Wildcard, e));
                        }
                        Tok::Str(pat) => {
                            self.advance();
                            self.expect(Tok::FatArrow, "`=>`")?;
                            let e = self.parse_expr()?;
                            self.expect(Tok::Semi, "`;`")?;
                            arms.push((Pattern::Glob(pat), e));
                        }
                        other => return Err(self.err(format!("bad match arm: {other:?}"))),
                    }
                }
                if arms.is_empty() {
                    return Err(self.err("match needs at least one arm"));
                }
                Ok(Expr::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                })
            }
            Tok::Ident(id) => {
                self.advance();
                if *self.peek() == Tok::LParen {
                    self.advance();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.parse_expr()?);
                            if *self.peek() == Tok::Comma {
                                self.advance();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    Ok(Expr::Call { name: id, args })
                } else {
                    Ok(Expr::Attr(id))
                }
            }
            other => Err(self.err(format!("bad expression start: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
table area {
    "9" -> "+1 908 582 9";
    default "+1 908 582 ";
}

transform surname(n) {
    match n {
        "*,*" => trim(split(n, ",", 0));
        "* *" => split(n, " ", -1);
        _     => n;
    }
}

mapping pbx_to_ldap {
    source pbx-west;
    target ldap;
    key source Extension;
    key target dn : concat("cn=", Name, ",o=Lucent");
    originator lastUpdater;

    map Extension -> definityExtension;
    map Extension -> telephoneNumber : concat("+1 908 582 ", Extension);
    map Name -> sn : surname(Name) when matches(Name, "*") default "Unknown";

    partition when matches(telephoneNumber, "+1 908 582 9*");
}
"#;

    #[test]
    fn parses_sample() {
        let f = parse(SAMPLE).unwrap();
        assert_eq!(f.tables.len(), 1);
        assert_eq!(f.tables[0].rows.len(), 1);
        assert_eq!(f.tables[0].default.as_deref(), Some("+1 908 582 "));
        assert_eq!(f.transforms.len(), 1);
        assert_eq!(f.transforms[0].param, "n");
        let m = &f.mappings[0];
        assert_eq!(m.source, "pbx-west");
        assert_eq!(m.target, "ldap");
        assert_eq!(m.source_key, "Extension");
        assert_eq!(m.target_key.0, "dn");
        assert!(m.target_key.1.is_some());
        assert_eq!(m.originator.as_deref(), Some("lastUpdater"));
        assert_eq!(m.rules.len(), 3);
        assert!(m.partition.is_some());
        // identity rule has no expr
        assert!(m.rules[0].expr.is_none());
        // rule with guard and default
        assert!(m.rules[2].guard.is_some());
        assert_eq!(m.rules[2].default.as_deref(), Some("Unknown"));
    }

    #[test]
    fn match_arms_parse() {
        let f = parse(SAMPLE).unwrap();
        match &f.transforms[0].body {
            Expr::Match { arms, .. } => {
                assert_eq!(arms.len(), 3);
                assert_eq!(arms[0].0, Pattern::Glob("*,*".into()));
                assert_eq!(arms[2].0, Pattern::Wildcard);
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn or_else_chains() {
        let f = parse(
            "mapping m { source a; target b; key source K; key target K2; map K -> x : A || B || \"z\"; }",
        )
        .unwrap();
        match f.mappings[0].rules[0].expr.as_ref().unwrap() {
            Expr::OrElse(lhs, _) => match lhs.as_ref() {
                Expr::OrElse(a, b) => {
                    assert_eq!(**a, Expr::Attr("A".into()));
                    assert_eq!(**b, Expr::Attr("B".into()));
                }
                other => panic!("left-assoc expected, got {other:?}"),
            },
            other => panic!("expected or-else, got {other:?}"),
        }
    }

    #[test]
    fn missing_required_fields() {
        let e = parse("mapping m { source a; target b; key source K; }").unwrap_err();
        assert!(matches!(e, CompileError::Semantic(_)));
        let e = parse("mapping m { target b; key source K; key target T; }").unwrap_err();
        assert!(e.to_string().contains("source"));
    }

    #[test]
    fn syntax_errors_carry_lines() {
        let err = parse("mapping m {\n  source a\n}").unwrap_err();
        match err {
            CompileError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_file_ok() {
        let f = parse("  # nothing here\n").unwrap();
        assert!(f.mappings.is_empty());
    }
}
