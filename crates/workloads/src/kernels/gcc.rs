//! `gcc` (SPEC CINT95 126.gcc analogue): a real, if small, optimizing
//! compiler pipeline — lexer, recursive-descent parser, constant
//! folding, optional CSE/DCE, stack-machine code generation, peephole
//! pass, and execution of the generated code.
//!
//! gcc is the paper's branchiest benchmark (16k static branches): its
//! branch population is spread over hundreds of pattern-matching sites.
//! This kernel models that with per-token and per-opcode dispatch sites
//! fanned out via [`Site::with_index`](crate::Site::with_index), yielding
//! a static branch count in the thousands, and data-dependent decision
//! branches that respond to correlation — exactly the benchmark the
//! paper uses for its Figure 5–7 analysis.

use std::collections::HashMap;

use bpred_trace::RecordSink;

use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Token {
    Num(i64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Assign,
    Semi,
    Lt,
    Gt,
    EqEq,
    If,
    Else,
    While,
    Print,
}

fn lex(t: &mut Tracer, src: &str) -> Vec<Token> {
    let dispatch = site!();
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while t.branch(site!(), i < bytes.len()) {
        let b = bytes[i];
        // Character-class dispatch, one site per class bucket: models the
        // lexer's big switch over character codes.
        let class = match b {
            b' ' | b'\n' | b'\t' => 0u32,
            b'0'..=b'9' => 1,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => 2,
            _ => 3 + u32::from(b % 13),
        };
        for k in 0..4u32 {
            t.branch(dispatch.with_index(k), class == k.min(3));
        }
        match class {
            0 => i += 1,
            1 => {
                let mut v: i64 = 0;
                while t.branch(site!(), i < bytes.len() && bytes[i].is_ascii_digit()) {
                    v = v * 10 + i64::from(bytes[i] - b'0');
                    i += 1;
                }
                tokens.push(Token::Num(v));
            }
            2 => {
                let start = i;
                while t.branch(
                    site!(),
                    i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_'),
                ) {
                    i += 1;
                }
                let word = &src[start..i];
                // Keyword recognition: one biased site per keyword.
                let tok = if t.branch(site!(), word == "if") {
                    Token::If
                } else if t.branch(site!(), word == "else") {
                    Token::Else
                } else if t.branch(site!(), word == "while") {
                    Token::While
                } else if t.branch(site!(), word == "print") {
                    Token::Print
                } else {
                    Token::Ident(word.to_owned())
                };
                tokens.push(tok);
            }
            _ => {
                let two = if i + 1 < bytes.len() {
                    &bytes[i..i + 2]
                } else {
                    &bytes[i..]
                };
                if t.branch(site!(), two == b"==") {
                    tokens.push(Token::EqEq);
                    i += 2;
                } else {
                    let tok = match b {
                        b'+' => Token::Plus,
                        b'-' => Token::Minus,
                        b'*' => Token::Star,
                        b'/' => Token::Slash,
                        b'%' => Token::Percent,
                        b'(' => Token::LParen,
                        b')' => Token::RParen,
                        b'{' => Token::LBrace,
                        b'}' => Token::RBrace,
                        b'=' => Token::Assign,
                        b';' => Token::Semi,
                        b'<' => Token::Lt,
                        b'>' => Token::Gt,
                        other => panic!("lexer: unexpected byte {other:#x}"),
                    };
                    tokens.push(tok);
                    i += 1;
                }
            }
        }
    }
    tokens
}

// --------------------------------------------------------------- parser

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    Num(i64),
    Var(String),
    Binary(Box<Expr>, BinOp, Box<Expr>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Gt,
    Eq,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt {
    Assign(String, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    While(Expr, Vec<Stmt>),
    Print(Expr),
}

struct Parser<'t, 's> {
    t: &'t mut Tracer<'s>,
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser<'_, '_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn eat(&mut self, expected: &Token) {
        assert_eq!(self.peek(), Some(expected), "parse error at {}", self.pos);
        self.pos += 1;
    }

    fn block(&mut self) -> Vec<Stmt> {
        self.eat(&Token::LBrace);
        let mut stmts = Vec::new();
        while self.t.branch(site!(), self.peek() != Some(&Token::RBrace)) {
            stmts.push(self.statement());
        }
        self.eat(&Token::RBrace);
        stmts
    }

    fn statement(&mut self) -> Stmt {
        let is_if = matches!(self.peek(), Some(Token::If));
        if self.t.branch(site!(), is_if) {
            self.pos += 1;
            self.eat(&Token::LParen);
            let cond = self.expr();
            self.eat(&Token::RParen);
            let then = self.block();
            let has_else = matches!(self.peek(), Some(Token::Else));
            let els = if self.t.branch(site!(), has_else) {
                self.pos += 1;
                self.block()
            } else {
                Vec::new()
            };
            return Stmt::If(cond, then, els);
        }
        let is_while = matches!(self.peek(), Some(Token::While));
        if self.t.branch(site!(), is_while) {
            self.pos += 1;
            self.eat(&Token::LParen);
            let cond = self.expr();
            self.eat(&Token::RParen);
            let body = self.block();
            return Stmt::While(cond, body);
        }
        let is_print = matches!(self.peek(), Some(Token::Print));
        if self.t.branch(site!(), is_print) {
            self.pos += 1;
            let e = self.expr();
            self.eat(&Token::Semi);
            return Stmt::Print(e);
        }
        // assignment
        let Some(Token::Ident(name)) = self.peek().cloned() else {
            panic!("parse error: expected statement at {}", self.pos);
        };
        self.pos += 1;
        self.eat(&Token::Assign);
        let e = self.expr();
        self.eat(&Token::Semi);
        Stmt::Assign(name, e)
    }

    fn expr(&mut self) -> Expr {
        let mut lhs = self.additive();
        loop {
            let op = match self.peek() {
                Some(Token::Lt) => Some(BinOp::Lt),
                Some(Token::Gt) => Some(BinOp::Gt),
                Some(Token::EqEq) => Some(BinOp::Eq),
                _ => None,
            };
            if !self.t.branch(site!(), op.is_some()) {
                return lhs;
            }
            self.pos += 1;
            let rhs = self.additive();
            lhs = Expr::Binary(
                Box::new(lhs),
                op.expect("checked via branch"), // panic-audited: the traced branch condition is op.is_some()
                Box::new(rhs),
            );
        }
    }

    fn additive(&mut self) -> Expr {
        let mut lhs = self.term();
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => Some(BinOp::Add),
                Some(Token::Minus) => Some(BinOp::Sub),
                _ => None,
            };
            if !self.t.branch(site!(), op.is_some()) {
                return lhs;
            }
            self.pos += 1;
            let rhs = self.term();
            lhs = Expr::Binary(
                Box::new(lhs),
                op.expect("checked via branch"), // panic-audited: the traced branch condition is op.is_some()
                Box::new(rhs),
            );
        }
    }

    fn term(&mut self) -> Expr {
        let mut lhs = self.factor();
        loop {
            let op = match self.peek() {
                Some(Token::Star) => Some(BinOp::Mul),
                Some(Token::Slash) => Some(BinOp::Div),
                Some(Token::Percent) => Some(BinOp::Rem),
                _ => None,
            };
            if !self.t.branch(site!(), op.is_some()) {
                return lhs;
            }
            self.pos += 1;
            let rhs = self.factor();
            lhs = Expr::Binary(
                Box::new(lhs),
                op.expect("checked via branch"), // panic-audited: the traced branch condition is op.is_some()
                Box::new(rhs),
            );
        }
    }

    fn factor(&mut self) -> Expr {
        let tok = self.peek().cloned();
        if self.t.branch(site!(), matches!(tok, Some(Token::LParen))) {
            self.pos += 1;
            let e = self.expr();
            self.eat(&Token::RParen);
            return e;
        }
        match tok {
            Some(Token::Num(n)) => {
                self.pos += 1;
                Expr::Num(n)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                Expr::Var(name)
            }
            other => panic!("parse error: unexpected {other:?}"),
        }
    }
}

// ----------------------------------------------------------- optimiser

/// Constant folding + algebraic identities, with one pattern-match site
/// per (unit, op, pattern) triple — the fan-out that gives gcc its
/// thousands-of-statics branch spread (each compiled unit behaves like a
/// separately expanded copy of the pattern matcher, as inlining and
/// generated code do in the real compiler).
fn fold(t: &mut Tracer, e: Expr, unit: u32) -> Expr {
    let pattern = site!();
    match e {
        Expr::Binary(l, op, r) => {
            let l = fold(t, *l, unit);
            let r = fold(t, *r, unit);
            let op_idx = unit * 64 + op as u32;
            // Both constants: evaluate at compile time.
            if let (Expr::Num(a), Expr::Num(b)) = (&l, &r) {
                t.branch(pattern.with_index(op_idx * 4), true);
                let (a, b) = (*a, *b);
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if t.branch(site!(), b == 0) {
                            return Expr::Binary(Box::new(l), op, Box::new(r));
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if t.branch(site!(), b == 0) {
                            return Expr::Binary(Box::new(l), op, Box::new(r));
                        }
                        a.wrapping_rem(b)
                    }
                    BinOp::Lt => i64::from(a < b),
                    BinOp::Gt => i64::from(a > b),
                    BinOp::Eq => i64::from(a == b),
                };
                return Expr::Num(v);
            }
            t.branch(pattern.with_index(op_idx * 4), false);
            // x + 0, x - 0, x * 1, x / 1 => x ; x * 0 => 0
            let ident = matches!(
                (&op, &r),
                (BinOp::Add | BinOp::Sub, Expr::Num(0)) | (BinOp::Mul | BinOp::Div, Expr::Num(1))
            );
            if t.branch(pattern.with_index(op_idx * 4 + 1), ident) {
                return l;
            }
            let zero = matches!((&op, &r), (BinOp::Mul, Expr::Num(0)));
            if t.branch(pattern.with_index(op_idx * 4 + 2), zero) {
                return Expr::Num(0);
            }
            Expr::Binary(Box::new(l), op, Box::new(r))
        }
        other => other,
    }
}

fn fold_stmts(t: &mut Tracer, stmts: Vec<Stmt>, unit: u32) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Assign(n, e) => out.push(Stmt::Assign(n, fold(t, e, unit))),
            Stmt::Print(e) => out.push(Stmt::Print(fold(t, e, unit))),
            Stmt::If(c, a, b) => {
                let c = fold(t, c, unit);
                // Branch elimination on constant conditions.
                let is_const = matches!(c, Expr::Num(_));
                if t.branch(site!(), is_const) {
                    let Expr::Num(v) = c else {
                        unreachable!("checked via branch")
                    };
                    let chosen = if v != 0 { a } else { b };
                    out.extend(fold_stmts(t, chosen, unit));
                } else {
                    out.push(Stmt::If(c, fold_stmts(t, a, unit), fold_stmts(t, b, unit)));
                }
            }
            Stmt::While(c, body) => {
                let c = fold(t, c, unit);
                let dead = matches!(c, Expr::Num(0));
                if t.branch(site!(), dead) {
                    // Dead loop eliminated.
                } else {
                    out.push(Stmt::While(c, fold_stmts(t, body, unit)));
                }
            }
        }
    }
    out
}

// ------------------------------------------------------------- codegen

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Push(i64),
    Load(u16),
    Store(u16),
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Gt,
    Eq,
    JumpIfZero(usize),
    Jump(usize),
    Print,
}

#[derive(Debug, Default)]
struct Codegen {
    code: Vec<Op>,
    vars: HashMap<String, u16>,
    unit: u32,
}

impl Codegen {
    fn slot(&mut self, t: &mut Tracer, name: &str) -> u16 {
        let known = self.vars.get(name).copied();
        if t.branch(site!(), known.is_some()) {
            known.expect("checked via branch") // panic-audited: the traced branch condition is known.is_some()
        } else {
            let s = self.vars.len() as u16;
            self.vars.insert(name.to_owned(), s);
            s
        }
    }

    fn expr(&mut self, t: &mut Tracer, e: &Expr) {
        let emit = site!();
        match e {
            Expr::Num(n) => self.code.push(Op::Push(*n)),
            Expr::Var(v) => {
                let s = self.slot(t, v);
                self.code.push(Op::Load(s));
            }
            Expr::Binary(l, op, r) => {
                self.expr(t, l);
                self.expr(t, r);
                // One emission site per (unit, operator), as in a
                // table-driven instruction selector.
                let idx = *op as u32;
                for k in 0..8u32 {
                    t.branch(emit.with_index(self.unit * 8 + k), idx == k);
                }
                self.code.push(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Rem => Op::Rem,
                    BinOp::Lt => Op::Lt,
                    BinOp::Gt => Op::Gt,
                    BinOp::Eq => Op::Eq,
                });
            }
        }
    }

    fn stmts(&mut self, t: &mut Tracer, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign(n, e) => {
                    self.expr(t, e);
                    let slot = self.slot(t, n);
                    self.code.push(Op::Store(slot));
                }
                Stmt::Print(e) => {
                    self.expr(t, e);
                    self.code.push(Op::Print);
                }
                Stmt::If(c, a, b) => {
                    self.expr(t, c);
                    let jz = self.code.len();
                    self.code.push(Op::JumpIfZero(0));
                    self.stmts(t, a);
                    if t.branch(site!(), !b.is_empty()) {
                        let jend = self.code.len();
                        self.code.push(Op::Jump(0));
                        self.code[jz] = Op::JumpIfZero(self.code.len());
                        self.stmts(t, b);
                        self.code[jend] = Op::Jump(self.code.len());
                    } else {
                        self.code[jz] = Op::JumpIfZero(self.code.len());
                    }
                }
                Stmt::While(c, body) => {
                    let top = self.code.len();
                    self.expr(t, c);
                    let jz = self.code.len();
                    self.code.push(Op::JumpIfZero(0));
                    self.stmts(t, body);
                    self.code.push(Op::Jump(top));
                    self.code[jz] = Op::JumpIfZero(self.code.len());
                }
            }
        }
    }
}

// ------------------------------------------------- dead-store elimination

/// Collects the variables an expression reads.
fn expr_reads(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Num(_) => {}
        Expr::Var(v) => out.push(v.clone()),
        Expr::Binary(l, _, r) => {
            expr_reads(l, out);
            expr_reads(r, out);
        }
    }
}

/// Dead-store elimination over a statement list: an assignment whose
/// variable is overwritten before any read (within the same straight-
/// line region, conservatively keeping everything live across control
/// flow) is dropped. One traced decision branch per assignment — the
/// liveness test a real DCE pass performs.
fn eliminate_dead_stores(t: &mut Tracer, stmts: Vec<Stmt>) -> Vec<Stmt> {
    // Backward scan; `dead` holds variables whose current value is
    // provably overwritten before being read.
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    let mut dead: Vec<String> = Vec::new();
    for s in stmts.into_iter().rev() {
        match s {
            Stmt::Assign(name, e) => {
                let is_dead = dead.contains(&name);
                if t.branch(site!(), is_dead) {
                    // Dropped; its operands are not read here either,
                    // but side-effect-free expressions need no keep.
                    continue;
                }
                // The assignment kills `name` for earlier statements and
                // makes everything it reads live.
                dead.push(name.clone());
                let mut reads = Vec::new();
                expr_reads(&e, &mut reads);
                dead.retain(|d| !reads.contains(d));
                out.push(Stmt::Assign(name, e));
            }
            Stmt::Print(e) => {
                let mut reads = Vec::new();
                expr_reads(&e, &mut reads);
                dead.retain(|d| !reads.contains(d));
                out.push(Stmt::Print(e));
            }
            control => {
                // Control flow: conservatively, everything becomes live.
                let had_dead = !dead.is_empty();
                t.branch(site!(), had_dead);
                dead.clear();
                out.push(control);
            }
        }
    }
    out.reverse();
    out
}

// ------------------------------------------- local common subexpressions

/// Local value-numbering CSE over one statement list's expressions:
/// repeated side-effect-free (expr) occurrences within a statement are
/// detected (traced per comparison) and rewritten to a temp variable.
/// Only whole-statement-local duplicates are handled — the shape of a
/// quick local CSE, not a global one.
fn cse_statement(t: &mut Tracer, stmt: Stmt, fresh: &mut u32) -> Vec<Stmt> {
    fn collect<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::Binary(l, _, r) = e {
            out.push(e);
            collect(l, out);
            collect(r, out);
        }
    }
    fn replace(e: &Expr, needle: &Expr, var: &str) -> Expr {
        if e == needle {
            return Expr::Var(var.to_owned());
        }
        match e {
            Expr::Binary(l, op, r) => Expr::Binary(
                Box::new(replace(l, needle, var)),
                *op,
                Box::new(replace(r, needle, var)),
            ),
            other => other.clone(),
        }
    }
    /// How to rebuild the statement around its (rewritten) expression.
    type Rebuild = fn(Option<String>, Expr) -> Stmt;
    let (name, e, rebuild): (Option<String>, Expr, Rebuild) = match stmt {
        Stmt::Assign(n, e) => (Some(n), e, |n, e| Stmt::Assign(n.expect("assign"), e)), // panic-audited: the Assign arm always passes Some(name) to its rebuild fn
        Stmt::Print(e) => (None, e, |_, e| Stmt::Print(e)),
        control => return vec![control],
    };
    let mut subexprs = Vec::new();
    collect(&e, &mut subexprs);
    // Find the first repeated binary subexpression, if any.
    let mut found: Option<Expr> = None;
    'outer: for (i, a) in subexprs.iter().enumerate() {
        for b in &subexprs[i + 1..] {
            if t.branch(site!(), *a == *b) {
                found = Some((*a).clone());
                break 'outer;
            }
        }
    }
    match found {
        Some(dup) => {
            let tmp = format!("_cse{fresh}");
            *fresh += 1;
            let rewritten = replace(&e, &dup, &tmp);
            vec![Stmt::Assign(tmp, dup), rebuild(name, rewritten)]
        }
        None => vec![rebuild(name, e)],
    }
}

fn cse_stmts(t: &mut Tracer, stmts: Vec<Stmt>, fresh: &mut u32) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::If(c, a, b) => {
                let a = cse_stmts(t, a, fresh);
                let b = cse_stmts(t, b, fresh);
                out.push(Stmt::If(c, a, b));
            }
            Stmt::While(c, body) => {
                let body = cse_stmts(t, body, fresh);
                out.push(Stmt::While(c, body));
            }
            simple => out.extend(cse_statement(t, simple, fresh)),
        }
    }
    out
}

/// Peephole: Push(a) Push(b) <op> never survives folding, but Load x;
/// Store x pairs do appear; remove them.
fn peephole(t: &mut Tracer, code: &mut Vec<Op>) {
    let mut i = 0;
    let mut out: Vec<Op> = Vec::with_capacity(code.len());
    // Only run the pair-removal when no jump targets the middle; for
    // simplicity (and to keep targets valid) the pass only fires when
    // the code has no jumps at all — common for straight-line functions.
    let has_jumps = code
        .iter()
        .any(|op| matches!(op, Op::Jump(_) | Op::JumpIfZero(_)));
    if t.branch(site!(), has_jumps) {
        return;
    }
    while t.branch(site!(), i < code.len()) {
        if t.branch(
            site!(),
            i + 1 < code.len()
                && matches!((code[i], code[i + 1]), (Op::Load(a), Op::Store(b)) if a == b),
        ) {
            i += 2; // drop the no-op pair
        } else {
            out.push(code[i]);
            i += 1;
        }
    }
    *code = out;
}

/// Executes the generated stack code, tracing the interpreter dispatch.
fn execute(t: &mut Tracer, code: &[Op], unit: u32, max_steps: u64) -> Vec<i64> {
    let dispatch = site!();
    let mut stack: Vec<i64> = Vec::new();
    let mut vars = vec![0i64; 256];
    let mut printed = Vec::new();
    let mut pc = 0usize;
    let mut steps = 0u64;
    while t.branch(site!(), pc < code.len() && steps < max_steps) {
        steps += 1;
        let op = code[pc];
        pc += 1;
        // Table-driven dispatch: one site per opcode family.
        let family = match op {
            Op::Push(_) => 0u32,
            Op::Load(_) | Op::Store(_) => 1,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem => 2,
            Op::Lt | Op::Gt | Op::Eq => 3,
            Op::JumpIfZero(_) | Op::Jump(_) => 4,
            Op::Print => 5,
        };
        for k in 0..6u32 {
            t.branch(dispatch.with_index(unit * 8 + k), family == k);
        }
        match op {
            Op::Push(v) => stack.push(v),
            Op::Load(s) => stack.push(vars[s as usize]),
            Op::Store(s) => vars[s as usize] = stack.pop().expect("stack underflow"), // panic-audited: own compiler emits stack-balanced bytecode
            Op::Print => printed.push(stack.pop().expect("stack underflow")), // panic-audited: own compiler emits stack-balanced bytecode
            Op::Jump(target) => pc = target,
            Op::JumpIfZero(target) => {
                let v = stack.pop().expect("stack underflow"); // panic-audited: own compiler emits stack-balanced bytecode
                if t.branch(site!(), v == 0) {
                    pc = target;
                }
            }
            binary => {
                let b = stack.pop().expect("stack underflow"); // panic-audited: own compiler emits stack-balanced bytecode
                let a = stack.pop().expect("stack underflow"); // panic-audited: own compiler emits stack-balanced bytecode
                let v = match binary {
                    Op::Add => a.wrapping_add(b),
                    Op::Sub => a.wrapping_sub(b),
                    Op::Mul => a.wrapping_mul(b),
                    Op::Div => {
                        if t.branch(site!(), b == 0) {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    Op::Rem => {
                        if t.branch(site!(), b == 0) {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    Op::Lt => i64::from(a < b),
                    Op::Gt => i64::from(a > b),
                    Op::Eq => i64::from(a == b),
                    _ => unreachable!("non-binary ops handled above"),
                };
                stack.push(v);
            }
        }
    }
    printed
}

// ------------------------------------------------------ source generator

/// Generates a random well-formed source program.
fn generate_source(rng: &mut Rng, stmts: usize, depth: u32) -> String {
    let mut src = String::new();
    let vars = ["a", "b", "c", "d", "e", "f", "g", "h"];
    // Seed all variables so expressions never read junk.
    for (i, v) in vars.iter().enumerate() {
        src.push_str(&format!("{v} = {};\n", i + 1));
    }
    fn gen_expr(rng: &mut Rng, vars: &[&str], depth: u32) -> String {
        if depth == 0 || rng.chance(0.3) {
            if rng.chance(0.5) {
                format!("{}", rng.below(100))
            } else {
                (*rng.pick(vars)).to_owned()
            }
        } else {
            let ops = ["+", "-", "*", "/", "%", "<", ">", "=="];
            format!(
                "({} {} {})",
                gen_expr(rng, vars, depth - 1),
                rng.pick(&ops),
                gen_expr(rng, vars, depth - 1)
            )
        }
    }
    fn gen_stmt(rng: &mut Rng, vars: &[&str], out: &mut String, depth: u32) {
        let choice = rng.below(10);
        if choice < 5 || depth == 0 {
            let depth = 2 + rng.below(2) as u32;
            let var = *rng.pick(vars);
            out.push_str(&format!("{var} = {};\n", gen_expr(rng, vars, depth)));
        } else if choice < 7 {
            out.push_str(&format!("print {};\n", gen_expr(rng, vars, 2)));
        } else if choice < 9 {
            out.push_str(&format!("if ({}) {{\n", gen_expr(rng, vars, 2)));
            for _ in 0..1 + rng.below(3) {
                gen_stmt(rng, vars, out, depth - 1);
            }
            if rng.chance(0.4) {
                out.push_str("} else {\n");
                for _ in 0..1 + rng.below(2) {
                    gen_stmt(rng, vars, out, depth - 1);
                }
            }
            out.push_str("}\n");
        } else {
            // Bounded counting loop, guaranteed to terminate.
            let v = rng.pick(vars);
            let bound = 2 + rng.below(10);
            out.push_str(&format!("{v} = 0;\nwhile ({v} < {bound}) {{\n"));
            for _ in 0..1 + rng.below(2) {
                gen_stmt(rng, vars, out, depth - 1);
            }
            out.push_str(&format!("{v} = {v} + 1;\n}}\n"));
        }
    }
    for _ in 0..stmts {
        gen_stmt(rng, &vars, &mut src, depth);
    }
    src
}

/// Compiles and runs one source program end to end. `unit` is the
/// translation-unit index used to fan out the pattern/dispatch sites.
pub(crate) fn compile_and_run(t: &mut Tracer, src: &str, unit: u32) -> Vec<i64> {
    let tokens = lex(t, src);
    let mut parser = Parser { t, tokens, pos: 0 };
    let mut program = Vec::new();
    while parser.t.branch(site!(), parser.peek().is_some()) {
        program.push(parser.statement());
    }
    let t = parser.t;
    let program = fold_stmts(t, program, unit);
    let mut fresh = 0;
    let program = cse_stmts(t, program, &mut fresh);
    let program = eliminate_dead_stores(t, program);
    let mut cg = Codegen {
        unit,
        ..Codegen::default()
    };
    cg.stmts(t, &program);
    let mut code = cg.code;
    peephole(t, &mut code);
    execute(t, &code, unit, 12_000)
}

fn run_workload(sink: &mut dyn RecordSink, seed: u64, programs: u64, stmts: usize) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(seed);
    for unit in 0..programs {
        let src = generate_source(&mut rng, stmts, 3);
        // 48 distinct expanded-code identities, reused cyclically.
        let _ = compile_and_run(&mut t, &src, (unit % 48) as u32);
    }
}

/// Runs the `gcc` workload at the given scale into `sink`.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    run_workload(sink, 0x6CC, 4 * scale.factor(), 60);
}

/// Runs the `real_gcc` workload (the IBS trace of gcc itself): the same
/// compiler over a larger, more statement-heavy input mix, traced with
/// kernel-ish interleaving absent (IBS real_gcc is user+kernel; the mix
/// difference is modelled by input size and seed).
pub fn trace_real_gcc(scale: Scale, sink: &mut dyn RecordSink) {
    run_workload(sink, 0x04EA_16CC, 2 * scale.factor(), 110);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    fn run_src(src: &str) -> Vec<i64> {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        compile_and_run(&mut t, src, 0)
    }

    #[test]
    fn arithmetic_pipeline_end_to_end() {
        assert_eq!(run_src("print 1 + 2 * 3;"), vec![7]);
        assert_eq!(run_src("a = 10; b = 4; print a - b;"), vec![6]);
        assert_eq!(run_src("print (8 / 2) % 3;"), vec![1]);
    }

    #[test]
    fn comparisons_and_if() {
        assert_eq!(
            run_src("if (1 < 2) { print 1; } else { print 0; }"),
            vec![1]
        );
        assert_eq!(
            run_src("if (2 < 1) { print 1; } else { print 0; }"),
            vec![0]
        );
        assert_eq!(run_src("a = 5; if (a == 5) { print 42; }"), vec![42]);
    }

    #[test]
    fn while_loop_computes() {
        // sum 0..5
        assert_eq!(
            run_src("s = 0; i = 0; while (i < 5) { s = s + i; i = i + 1; } print s;"),
            vec![10]
        );
    }

    #[test]
    fn constant_folding_preserves_semantics() {
        // 2*3+4 folds to 10 at compile time; result must match.
        assert_eq!(run_src("print 2 * 3 + 4;"), vec![10]);
        // Dead branch elimination: condition folds to 0.
        assert_eq!(
            run_src("if (1 > 2) { print 111; } else { print 222; }"),
            vec![222]
        );
        // x * 0 => 0 with a variable operand.
        assert_eq!(run_src("a = 7; print a * 0;"), vec![0]);
        // x + 0 identity.
        assert_eq!(run_src("a = 9; print a + 0;"), vec![9]);
    }

    #[test]
    fn division_by_zero_is_defined_as_zero() {
        assert_eq!(run_src("a = 3; b = 0; print a / b;"), vec![0]);
        assert_eq!(run_src("a = 3; b = 0; print a % b;"), vec![0]);
    }

    #[test]
    fn fold_handles_constant_div_by_zero_without_folding() {
        // 1/0 cannot fold; runtime defines it as 0.
        assert_eq!(run_src("print 1 / 0;"), vec![0]);
    }

    #[test]
    fn generated_sources_compile_and_run() {
        let mut rng = Rng::new(99);
        for _ in 0..5 {
            let src = generate_source(&mut rng, 20, 3);
            let _ = run_src(&src); // must not panic
        }
    }

    #[test]
    fn dead_stores_are_eliminated_semantically_safely() {
        // b's first assignment is dead (overwritten before any read).
        assert_eq!(run_src("b = 1; b = 2; print b;"), vec![2]);
        // A read in between keeps both stores live.
        assert_eq!(run_src("b = 1; a = b; b = 2; print a + b;"), vec![3]);
        // Control flow conservatively keeps stores alive.
        assert_eq!(
            run_src("b = 1; if (1 < 2) { print b; } b = 2; print b;"),
            vec![1, 2]
        );
    }

    #[test]
    fn cse_preserves_semantics_on_repeated_subexpressions() {
        assert_eq!(run_src("a = 3; print (a + 1) * (a + 1);"), vec![16]);
        assert_eq!(run_src("a = 2; b = (a * a) + (a * a); print b;"), vec![8]);
        // No duplicates: unchanged.
        assert_eq!(run_src("a = 2; print a + 1;"), vec![3]);
    }

    #[test]
    fn generated_sources_survive_all_passes() {
        let mut rng = Rng::new(4242);
        for _ in 0..8 {
            let src = generate_source(&mut rng, 25, 3);
            let _ = run_src(&src); // folding + CSE + DCE must not break programs
        }
    }

    #[test]
    fn workload_has_gcc_like_static_spread() {
        let trace = traced(trace, Scale::Smoke);
        let stats = trace.stats();
        assert!(
            stats.static_conditional > 80,
            "gcc-like workloads need a wide static spread, got {}",
            stats.static_conditional
        );
        assert!(stats.dynamic_conditional > 50_000);
    }

    #[test]
    fn real_gcc_is_bigger_than_gcc_per_program() {
        let a = traced(trace, Scale::Smoke).stats();
        let b = traced(trace_real_gcc, Scale::Smoke).stats();
        assert!(b.static_conditional >= a.static_conditional / 2);
        assert_ne!(a, b);
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(traced(trace, Scale::Smoke), traced(trace, Scale::Smoke));
    }
}
