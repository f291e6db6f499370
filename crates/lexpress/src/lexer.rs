//! Tokenizer for the lexpress description language.

use crate::error::CompileError;

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    // punctuation
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Semi,
    Colon,
    Arrow,    // ->
    FatArrow, // =>
    OrElse,   // ||
    Underscore,
    Dash, // bare `-` (LDIF-style separators never appear, but negative ints do)
    Eof,
}

/// A token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Tokenize a description file.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // comment to end of line
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => {
                out.push(Token {
                    tok: Tok::LBrace,
                    line,
                });
                chars.next();
            }
            '}' => {
                out.push(Token {
                    tok: Tok::RBrace,
                    line,
                });
                chars.next();
            }
            '(' => {
                out.push(Token {
                    tok: Tok::LParen,
                    line,
                });
                chars.next();
            }
            ')' => {
                out.push(Token {
                    tok: Tok::RParen,
                    line,
                });
                chars.next();
            }
            ',' => {
                out.push(Token {
                    tok: Tok::Comma,
                    line,
                });
                chars.next();
            }
            ';' => {
                out.push(Token {
                    tok: Tok::Semi,
                    line,
                });
                chars.next();
            }
            ':' => {
                out.push(Token {
                    tok: Tok::Colon,
                    line,
                });
                chars.next();
            }
            '|' => {
                chars.next();
                if chars.peek() == Some(&'|') {
                    chars.next();
                    out.push(Token {
                        tok: Tok::OrElse,
                        line,
                    });
                } else {
                    return Err(CompileError::Lex {
                        line,
                        message: "expected `||`".into(),
                    });
                }
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some('>') => {
                        chars.next();
                        out.push(Token {
                            tok: Tok::Arrow,
                            line,
                        });
                    }
                    Some(d) if d.is_ascii_digit() => {
                        let mut n = String::from("-");
                        while let Some(&d) = chars.peek() {
                            if d.is_ascii_digit() {
                                n.push(d);
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        out.push(Token {
                            tok: Tok::Int(n.parse().expect("digits")),
                            line,
                        });
                    }
                    _ => out.push(Token {
                        tok: Tok::Dash,
                        line,
                    }),
                }
            }
            '=' => {
                chars.next();
                if chars.peek() == Some(&'>') {
                    chars.next();
                    out.push(Token {
                        tok: Tok::FatArrow,
                        line,
                    });
                } else {
                    return Err(CompileError::Lex {
                        line,
                        message: "expected `=>`".into(),
                    });
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => match chars.next() {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('\\') => s.push('\\'),
                            Some('"') => s.push('"'),
                            Some(other) => {
                                return Err(CompileError::Lex {
                                    line,
                                    message: format!("bad escape `\\{other}`"),
                                })
                            }
                            None => break,
                        },
                        '\n' => {
                            return Err(CompileError::Lex {
                                line,
                                message: "unterminated string".into(),
                            })
                        }
                        other => s.push(other),
                    }
                }
                if !closed {
                    return Err(CompileError::Lex {
                        line,
                        message: "unterminated string".into(),
                    });
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let mut n = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        n.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    tok: Tok::Int(n.parse().expect("digits")),
                    line,
                });
            }
            '_' => {
                chars.next();
                // `_` alone is the match wildcard; `_x` is an identifier.
                if chars
                    .peek()
                    .is_some_and(|c| c.is_alphanumeric() || *c == '_')
                {
                    let mut id = String::from("_");
                    while let Some(&c) = chars.peek() {
                        if c.is_alphanumeric() || c == '_' || c == '-' {
                            id.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    out.push(Token {
                        tok: Tok::Ident(id),
                        line,
                    });
                } else {
                    out.push(Token {
                        tok: Tok::Underscore,
                        line,
                    });
                }
            }
            c if c.is_alphabetic() => {
                let mut id = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        id.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    tok: Tok::Ident(id),
                    line,
                });
            }
            other => {
                return Err(CompileError::Lex {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds(r#"map A -> b : concat("x", A);"#),
            vec![
                Tok::Ident("map".into()),
                Tok::Ident("A".into()),
                Tok::Arrow,
                Tok::Ident("b".into()),
                Tok::Colon,
                Tok::Ident("concat".into()),
                Tok::LParen,
                Tok::Str("x".into()),
                Tok::Comma,
                Tok::Ident("A".into()),
                Tok::RParen,
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let toks = lex("a # comment\nb").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("0 42 -1"),
            vec![Tok::Int(0), Tok::Int(42), Tok::Int(-1), Tok::Eof]
        );
    }

    #[test]
    fn arrows_and_ops() {
        assert_eq!(
            kinds("-> => || _ _x"),
            vec![
                Tok::Arrow,
                Tok::FatArrow,
                Tok::OrElse,
                Tok::Underscore,
                Tok::Ident("_x".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""a\"b\\c\n""#),
            vec![Tok::Str("a\"b\\c\n".into()), Tok::Eof]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("|x").is_err());
        assert!(lex("€").is_err() || !lex("€").unwrap().is_empty()); // alphabetic unicode ok
        assert!(lex("@").is_err());
    }

    #[test]
    fn hyphenated_identifiers() {
        // repository names like `pbx-west`
        assert_eq!(
            kinds("pbx-west"),
            vec![Tok::Ident("pbx-west".into()), Tok::Eof]
        );
    }
}
