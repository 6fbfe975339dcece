//! Derived-metric formula evaluator.
//!
//! LIKWID's preconfigured event groups define their derived metrics as
//! arithmetic formulas over counter names (`1.0E-06*(PMC0*2.0+PMC1)/time`).
//! This module implements the small expression language those formulas use:
//! numbers (including scientific notation), identifiers bound to counter
//! values or to the helper variables `time` and `inverseClock`, the four
//! arithmetic operators and parentheses.

use std::collections::HashMap;
use std::ops::Range;

use crate::error::{LikwidError, Result};

/// A parsed formula, ready to evaluate against different variable bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    source: String,
    /// A variable is the byte range of its name in `source`.
    nodes: Vec<Node<Range<usize>>>,
}

/// One expression node of a formula. The nodes of a formula live in one
/// vector in post-order: children come before their parent (referenced by
/// index) and the root is the last node. `V` is how a variable is held —
/// by name when parsed, by value position once bound.
#[derive(Debug, Clone, PartialEq)]
enum Node<V> {
    Number(f64),
    Variable(V),
    Negate(usize),
    Binary(Op, usize, usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Token {
    Number(f64),
    /// An identifier: the byte range of its name in the source.
    Ident(usize, usize),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let single = match bytes[i] {
            b' ' | b'\t' => None,
            b'+' => Some(Token::Plus),
            b'-' => Some(Token::Minus),
            b'*' => Some(Token::Star),
            b'/' => Some(Token::Slash),
            b'(' => Some(Token::LParen),
            b')' => Some(Token::RParen),
            b if b.is_ascii_digit() || b == b'.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &src[start..i];
                let value = text
                    .parse::<f64>()
                    .map_err(|_| LikwidError::Formula(format!("bad number '{text}'")))?;
                tokens.push(Token::Number(value));
                continue;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token::Ident(start, i));
                continue;
            }
            _ => {
                // Every byte consumed so far is ASCII, so `i` is a char
                // boundary.
                let other = src[i..].chars().next().expect("i < len");
                return Err(LikwidError::Formula(format!("unexpected character '{other}'")));
            }
        };
        tokens.extend(single);
        i += 1;
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    nodes: Vec<Node<Range<usize>>>,
}

impl Parser {
    fn peek(&self) -> Option<Token> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Append a node; returns its index.
    fn push(&mut self, node: Node<Range<usize>>) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// expression := term (('+' | '-') term)*
    fn expression(&mut self) -> Result<usize> {
        let mut lhs = self.term()?;
        while let Some(op) = match self.peek() {
            Some(Token::Plus) => Some(Op::Add),
            Some(Token::Minus) => Some(Op::Sub),
            _ => None,
        } {
            self.next();
            let rhs = self.term()?;
            lhs = self.push(Node::Binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    /// term := factor (('*' | '/') factor)*
    fn term(&mut self) -> Result<usize> {
        let mut lhs = self.factor()?;
        while let Some(op) = match self.peek() {
            Some(Token::Star) => Some(Op::Mul),
            Some(Token::Slash) => Some(Op::Div),
            _ => None,
        } {
            self.next();
            let rhs = self.factor()?;
            lhs = self.push(Node::Binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    /// factor := '-' factor | number | ident | '(' expression ')'
    fn factor(&mut self) -> Result<usize> {
        match self.next() {
            Some(Token::Minus) => {
                let inner = self.factor()?;
                Ok(self.push(Node::Negate(inner)))
            }
            Some(Token::Number(v)) => Ok(self.push(Node::Number(v))),
            Some(Token::Ident(start, end)) => Ok(self.push(Node::Variable(start..end))),
            Some(Token::LParen) => {
                let inner = self.expression()?;
                match self.next() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(LikwidError::Formula("missing closing parenthesis".into())),
                }
            }
            other => Err(LikwidError::Formula(format!("unexpected token {other:?}"))),
        }
    }
}

impl Formula {
    /// Parse a formula.
    pub fn parse(src: &str) -> Result<Self> {
        let tokens = tokenize(src)?;
        if tokens.is_empty() {
            return Err(LikwidError::Formula("empty formula".into()));
        }
        // Every node comes from at least one token.
        let nodes = Vec::with_capacity(tokens.len());
        let mut parser = Parser { tokens, pos: 0, nodes };
        parser.expression()?;
        if parser.pos != parser.tokens.len() {
            return Err(LikwidError::Formula(format!(
                "trailing input after position {} in '{src}'",
                parser.pos
            )));
        }
        Ok(Formula { source: src.to_string(), nodes: parser.nodes })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Variables referenced by the formula, in order of first appearance.
    pub fn variables(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for node in &self.nodes {
            if let Node::Variable(range) = node {
                let name = &self.source[range.clone()];
                if !out.iter().any(|seen| seen == name) {
                    out.push(name.to_string());
                }
            }
        }
        out
    }

    /// Resolve every variable against `names`, once: the bound formula then
    /// evaluates against a slice of values (`values[i]` binds `names[i]`)
    /// without looking any name up again. A name listed twice binds its
    /// last position; a variable missing from `names` stays unbound and
    /// fails evaluation, exactly as [`Formula::evaluate`] does.
    pub fn bind(&self, names: &[&str]) -> BoundFormula {
        let nodes = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Number(v) => Node::Number(*v),
                Node::Variable(range) => {
                    let name = &self.source[range.clone()];
                    Node::Variable(
                        names.iter().rposition(|n| *n == name).ok_or_else(|| name.to_string()),
                    )
                }
                Node::Negate(inner) => Node::Negate(*inner),
                Node::Binary(op, lhs, rhs) => Node::Binary(*op, *lhs, *rhs),
            })
            .collect();
        BoundFormula { nodes }
    }

    /// Evaluate against variable bindings. Unknown variables are an error;
    /// division by zero yields 0 (matching the real tool's behaviour of
    /// printing 0 for metrics whose events did not fire).
    pub fn evaluate(&self, vars: &HashMap<String, f64>) -> Result<f64> {
        let (names, values): (Vec<&str>, Vec<f64>) =
            vars.iter().map(|(name, &value)| (name.as_str(), value)).unzip();
        self.bind(&names).evaluate(&values)
    }
}

/// A [`Formula`] whose variables are resolved to value positions (see
/// [`Formula::bind`]): what a measurement session evaluates per cpu and
/// interval.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundFormula {
    /// A variable is its value position, or its name if `bind` found none.
    nodes: Vec<Node<std::result::Result<usize, String>>>,
}

impl BoundFormula {
    /// Evaluate with `values[i]` bound to the `i`-th name given to
    /// [`Formula::bind`]. An unbound variable (or a position past the end
    /// of `values`) is an error naming the variable; division by zero
    /// yields 0.
    pub fn evaluate(&self, values: &[f64]) -> Result<f64> {
        self.eval(self.nodes.len() - 1, values)
    }

    fn eval(&self, node: usize, values: &[f64]) -> Result<f64> {
        Ok(match &self.nodes[node] {
            Node::Number(v) => *v,
            Node::Variable(Ok(slot)) => *values.get(*slot).ok_or_else(|| {
                LikwidError::Formula(format!("unbound variable at position {slot}"))
            })?,
            Node::Variable(Err(name)) => {
                return Err(LikwidError::Formula(format!("unbound variable '{name}'")))
            }
            Node::Negate(inner) => -self.eval(*inner, values)?,
            Node::Binary(op, lhs, rhs) => {
                let l = self.eval(*lhs, values)?;
                let r = self.eval(*rhs, values)?;
                match op {
                    Op::Add => l + r,
                    Op::Sub => l - r,
                    Op::Mul => l * r,
                    Op::Div => {
                        if r == 0.0 {
                            0.0
                        } else {
                            l / r
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn arithmetic_precedence() {
        let f = Formula::parse("1+2*3").unwrap();
        assert_eq!(f.evaluate(&vars(&[])).unwrap(), 7.0);
        let f = Formula::parse("(1+2)*3").unwrap();
        assert_eq!(f.evaluate(&vars(&[])).unwrap(), 9.0);
        let f = Formula::parse("10-2-3").unwrap();
        assert_eq!(f.evaluate(&vars(&[])).unwrap(), 5.0, "subtraction is left associative");
        let f = Formula::parse("8/2/2").unwrap();
        assert_eq!(f.evaluate(&vars(&[])).unwrap(), 2.0);
    }

    #[test]
    fn scientific_notation_and_unary_minus() {
        let f = Formula::parse("1.0E-06*2000000").unwrap();
        assert!((f.evaluate(&vars(&[])).unwrap() - 2.0).abs() < 1e-12);
        let f = Formula::parse("-3+5").unwrap();
        assert_eq!(f.evaluate(&vars(&[])).unwrap(), 2.0);
        let f = Formula::parse("2*-3").unwrap();
        assert_eq!(f.evaluate(&vars(&[])).unwrap(), -6.0);
    }

    #[test]
    fn the_flops_dp_formula_from_likwid_groups() {
        // MFlops/s = 1.0E-06*(PMC0*2.0+PMC1)/time
        let f = Formula::parse("1.0E-06*(PMC0*2.0+PMC1*1.0)/time").unwrap();
        let v = vars(&[("PMC0", 8.192e6), ("PMC1", 1.0), ("time", 0.01)]);
        let mflops = f.evaluate(&v).unwrap();
        assert!((mflops - 1638.4).abs() < 0.1, "got {mflops}");
    }

    #[test]
    fn cpi_formula() {
        let f = Formula::parse("FIXC1/FIXC0").unwrap();
        let v = vars(&[("FIXC0", 18_802_400.0), ("FIXC1", 28_583_800.0)]);
        assert!((f.evaluate(&v).unwrap() - 1.5202).abs() < 0.001);
    }

    #[test]
    fn variables_are_reported() {
        let f = Formula::parse("1.0E-06*(UPMC0+UPMC1)*64.0/time").unwrap();
        let mut vs = f.variables();
        vs.sort();
        assert_eq!(vs, vec!["UPMC0", "UPMC1", "time"]);
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let f = Formula::parse("PMC0/time").unwrap();
        assert!(f.evaluate(&vars(&[("PMC0", 1.0)])).is_err());
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let f = Formula::parse("PMC0/PMC1").unwrap();
        let v = vars(&[("PMC0", 5.0), ("PMC1", 0.0)]);
        assert_eq!(f.evaluate(&v).unwrap(), 0.0);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Formula::parse("").is_err());
        assert!(Formula::parse("1+").is_err());
        assert!(Formula::parse("(1+2").is_err());
        assert!(Formula::parse("1 ? 2").is_err());
        assert!(Formula::parse("1 2").is_err());
    }

    #[test]
    fn source_is_preserved() {
        let src = "FIXC1*inverseClock";
        assert_eq!(Formula::parse(src).unwrap().source(), src);
    }

    #[test]
    fn table2_memory_bandwidth_from_unc_l3_lines() {
        // The paper's Table 2 derives Jacobi memory traffic from the Nehalem
        // uncore events: bandwidth [MB/s] = 1.0E-06*(lines_in+lines_out)*64/time.
        let f = Formula::parse("1.0E-06*(UPMC0+UPMC1)*64.0/time").unwrap();
        let v = vars(&[("UPMC0", 5.0e8), ("UPMC1", 2.5e8), ("time", 1.5)]);
        let mbs = f.evaluate(&v).unwrap();
        // (5e8 + 2.5e8) * 64 bytes / 1.5 s = 32 GB/s.
        assert!((mbs - 32_000.0).abs() < 1e-6, "got {mbs}");
    }

    #[test]
    fn zero_time_yields_zero_bandwidth_not_infinity() {
        // A region that never ran reports time = 0; the metric must print 0,
        // not inf/NaN, matching the real tool's output for idle regions.
        let f = Formula::parse("1.0E-06*(UPMC0+UPMC1)*64.0/time").unwrap();
        let v = vars(&[("UPMC0", 1.0e9), ("UPMC1", 1.0e9), ("time", 0.0)]);
        assert_eq!(f.evaluate(&v).unwrap(), 0.0);
        // Division by a zero *subexpression* behaves the same.
        let f = Formula::parse("PMC0/(PMC1-PMC1)").unwrap();
        let v = vars(&[("PMC0", 42.0), ("PMC1", 9.0)]);
        assert_eq!(f.evaluate(&v).unwrap(), 0.0);
    }

    #[test]
    fn unknown_counter_names_the_missing_variable() {
        let f = Formula::parse("UPMC0*64.0/time").unwrap();
        let err = f.evaluate(&vars(&[("time", 1.0)])).unwrap_err();
        assert!(err.to_string().contains("UPMC0"), "error must name the counter: {err}");
        // Binding every referenced variable fixes the evaluation.
        let ok = f.evaluate(&vars(&[("UPMC0", 1.0e6), ("time", 1.0)])).unwrap();
        assert!((ok - 6.4e7).abs() < 1e-3);
    }

    #[test]
    fn variables_cover_negated_and_nested_subexpressions() {
        let f = Formula::parse("-(A*(B+C))/(D-1.0)").unwrap();
        let mut vs = f.variables();
        vs.sort();
        assert_eq!(vs, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn bound_formulas_evaluate_by_position() {
        let f = Formula::parse("1.0E-06*(PMC0*2.0+PMC1)/time").unwrap();
        let bound = f.bind(&["PMC0", "PMC1", "inverseClock", "time"]);
        let by_name = f.evaluate(&vars(&[("PMC0", 8.0e6), ("PMC1", 3.0), ("time", 0.5)])).unwrap();
        assert_eq!(bound.evaluate(&[8.0e6, 3.0, 1e-9, 0.5]).unwrap().to_bits(), by_name.to_bits());
        // The last of two equal names wins, as a later map insert would.
        let twice = Formula::parse("A").unwrap().bind(&["A", "B", "A"]);
        assert_eq!(twice.evaluate(&[1.0, 2.0, 3.0]).unwrap(), 3.0);
        // Unbound names fail at evaluation and name the variable.
        let err = f.bind(&["PMC0", "PMC1"]).evaluate(&[1.0, 2.0]).unwrap_err();
        assert!(err.to_string().contains("'time'"), "{err}");
    }

    #[test]
    fn evaluation_is_repeatable_with_different_bindings() {
        // One parsed formula re-evaluated against per-thread counter sets,
        // as the session does when printing per-core metric columns.
        let f = Formula::parse("FIXC1/FIXC0").unwrap();
        for (instr, cycles, want) in [(100.0, 200.0, 2.0), (400.0, 100.0, 0.25), (7.0, 7.0, 1.0)] {
            let v = vars(&[("FIXC0", instr), ("FIXC1", cycles)]);
            assert_eq!(f.evaluate(&v).unwrap(), want);
        }
    }
}
