//! `xlisp` (SPEC CINT95 130.li analogue): a real Lisp interpreter running
//! recursive list-processing programs.
//!
//! Like the original, this workload has very few static branches (the
//! paper counts 636) concentrated in the evaluator's dispatch and the
//! association-list lookup loop, with heavy recursion. The paper notes
//! that xlisp (with compress) is one of the two benchmarks where even a
//! single-PHT gshare suffers no aliasing.

use std::collections::HashMap;
use std::rc::Rc;

use bpred_trace::RecordSink;

use crate::registry::Scale;
use crate::site;
use crate::tracer::Tracer;

/// A parsed s-expression.
#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Num(i64),
    Sym(Rc<str>),
    List(Rc<[Expr]>),
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(i64),
    Nil,
    Cons(Rc<(Value, Value)>),
}

impl Value {
    fn truthy(&self) -> bool {
        !matches!(self, Value::Nil | Value::Num(0))
    }
}

fn tokenize(t: &mut Tracer, src: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in src.chars() {
        if t.branch(site!(), ch == '(' || ch == ')') {
            if t.branch(site!(), !cur.is_empty()) {
                tokens.push(std::mem::take(&mut cur));
            }
            tokens.push(ch.to_string());
        } else if t.branch(site!(), ch.is_whitespace()) {
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
        } else {
            cur.push(ch);
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

fn parse(t: &mut Tracer, tokens: &[String], pos: &mut usize) -> Expr {
    let tok = &tokens[*pos];
    *pos += 1;
    if t.branch(site!(), tok == "(") {
        let mut items = Vec::new();
        while t.branch(site!(), tokens[*pos] != ")") {
            items.push(parse(t, tokens, pos));
        }
        *pos += 1; // consume ')'
        Expr::List(items.into())
    } else if t.branch(
        site!(),
        tok.bytes()
            .next()
            .is_some_and(|b| b.is_ascii_digit() || b == b'-')
            && tok.len() < 19
            && tok.parse::<i64>().is_ok(),
    ) {
        Expr::Num(tok.parse().expect("checked above")) // panic-audited: the traced branch condition included parse::<i64>().is_ok()
    } else {
        Expr::Sym(tok.as_str().into())
    }
}

/// User-defined function: parameter names and a body.
#[derive(Debug, Clone)]
struct Defun {
    params: Vec<Rc<str>>,
    body: Expr,
}

struct Interp<'t, 's> {
    t: &'t mut Tracer<'s>,
    functions: HashMap<Rc<str>, Rc<Defun>>,
    steps: u64,
}

impl Interp<'_, '_> {
    /// Association-list variable lookup — the classic Lisp inner loop.
    fn lookup(&mut self, env: &[(Rc<str>, Value)], name: &str) -> Value {
        let mut i = env.len();
        while self.t.branch(site!(), i > 0) {
            i -= 1;
            if self.t.branch(site!(), &*env[i].0 == name) {
                return env[i].1.clone();
            }
        }
        panic!("unbound symbol `{name}`");
    }

    fn eval(&mut self, expr: &Expr, env: &mut Vec<(Rc<str>, Value)>) -> Value {
        self.steps += 1;
        assert!(self.steps < 200_000_000, "runaway lisp program");
        match expr {
            Expr::Num(n) => Value::Num(*n),
            Expr::Sym(s) => {
                if self.t.branch(site!(), &**s == "nil") {
                    Value::Nil
                } else {
                    self.lookup(env, s)
                }
            }
            Expr::List(items) => self.eval_list(items, env),
        }
    }

    fn eval_list(&mut self, items: &[Expr], env: &mut Vec<(Rc<str>, Value)>) -> Value {
        if self.t.branch(site!(), items.is_empty()) {
            return Value::Nil;
        }
        let Expr::Sym(head) = &items[0] else {
            panic!("cannot apply a non-symbol");
        };
        let t = &mut *self;
        match &**head {
            "if" => {
                let cond = t.eval(&items[1], env);
                if t.t.branch(site!(), cond.truthy()) {
                    t.eval(&items[2], env)
                } else if t.t.branch(site!(), items.len() > 3) {
                    t.eval(&items[3], env)
                } else {
                    Value::Nil
                }
            }
            "defun" => {
                let Expr::Sym(name) = &items[1] else {
                    panic!("defun needs a name")
                };
                let Expr::List(params) = &items[2] else {
                    panic!("defun needs params")
                };
                let params = params
                    .iter()
                    .map(|p| match p {
                        Expr::Sym(s) => Rc::clone(s),
                        _ => panic!("parameter must be a symbol"),
                    })
                    .collect();
                t.functions.insert(
                    Rc::clone(name),
                    Rc::new(Defun {
                        params,
                        body: items[3].clone(),
                    }),
                );
                Value::Nil
            }
            "quotelist" => {
                // (quotelist 1 2 3) builds a list of numbers.
                let mut list = Value::Nil;
                for item in items[1..].iter().rev() {
                    let v = t.eval(item, env);
                    list = Value::Cons(Rc::new((v, list)));
                }
                list
            }
            "+" | "-" | "*" | "<" | "=" | ">" => {
                let a = t.eval(&items[1], env);
                let b = t.eval(&items[2], env);
                let (Value::Num(x), Value::Num(y)) = (&a, &b) else {
                    panic!("arithmetic on non-numbers");
                };
                let (x, y) = (*x, *y);
                match &**head {
                    "+" => Value::Num(x.wrapping_add(y)),
                    "-" => Value::Num(x.wrapping_sub(y)),
                    "*" => Value::Num(x.wrapping_mul(y)),
                    "<" => {
                        if t.t.branch(site!(), x < y) {
                            Value::Num(1)
                        } else {
                            Value::Nil
                        }
                    }
                    ">" => {
                        if t.t.branch(site!(), x > y) {
                            Value::Num(1)
                        } else {
                            Value::Nil
                        }
                    }
                    _ => {
                        if t.t.branch(site!(), x == y) {
                            Value::Num(1)
                        } else {
                            Value::Nil
                        }
                    }
                }
            }
            "cons" => {
                let a = t.eval(&items[1], env);
                let b = t.eval(&items[2], env);
                Value::Cons(Rc::new((a, b)))
            }
            "car" => match t.eval(&items[1], env) {
                Value::Cons(c) => c.0.clone(),
                _ => Value::Nil,
            },
            "cdr" => match t.eval(&items[1], env) {
                Value::Cons(c) => c.1.clone(),
                _ => Value::Nil,
            },
            "null" => {
                let v = t.eval(&items[1], env);
                if t.t.branch(site!(), matches!(v, Value::Nil)) {
                    Value::Num(1)
                } else {
                    Value::Nil
                }
            }
            name => {
                // User-defined function application.
                let f = t
                    .functions
                    .get(name)
                    .unwrap_or_else(|| panic!("undefined function `{name}`"))
                    .clone();
                let mut frame = Vec::with_capacity(f.params.len());
                let mut i = 0;
                while t.t.branch(site!(), i < f.params.len()) {
                    let v = t.eval(&items[1 + i], env);
                    frame.push((Rc::clone(&f.params[i]), v));
                    i += 1;
                }
                let depth = env.len();
                env.extend(frame);
                let result = t.eval(&f.body, env);
                env.truncate(depth);
                result
            }
        }
    }
}

/// The benchmark program suite: classic list-recursion kernels.
const PROGRAM: &str = r"
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))
(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))
(defun append2 (a b) (if (null a) b (cons (car a) (append2 (cdr a) b))))
(defun rev (l) (if (null l) nil (append2 (rev (cdr l)) (cons (car l) nil))))
(defun double (l) (if (null l) nil (cons (* 2 (car l)) (double (cdr l)))))
(defun take (n l) (if (= n 0) nil (cons (car l) (take (- n 1) (cdr l)))))
(defun countdown (n) (if (= n 0) 0 (countdown (- n 1))))
(defun tak (x y z) (if (< y x) (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y)) z))
";

fn run_program(t: &mut Tracer, source: &str) -> Vec<Value> {
    let tokens = tokenize(t, source);
    let mut interp = Interp {
        t,
        functions: HashMap::new(),
        steps: 0,
    };
    let mut results = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let expr = parse(interp.t, &tokens, &mut pos);
        let mut env = Vec::new();
        results.push(interp.eval(&expr, &mut env));
    }
    results
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let reps = scale.factor();
    for rep in 0..reps {
        // Vary arguments across reps so the recursion depths differ.
        let fib_n = 13 + (rep % 3);
        let list_n = 40 + (rep % 17) * 3;
        let tak = 8 + (rep % 2);
        let driver = format!(
            r"{PROGRAM}
            (fib {fib_n})
            (sum (rev (double (quotelist 1 2 3 4 5 6 7 8 9 10 11 12))))
            (len (append2 (quotelist 1 2 3 4 5) (quotelist 6 7 8 9)))
            (countdown {list_n})
            (tak {tak} 4 2)
            (take 3 (quotelist 9 8 7 6 5))
            "
        );
        run_program(&mut t, &driver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    fn eval_one(src: &str) -> Value {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        run_program(&mut t, src).pop().expect("one result")
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval_one("(+ 2 (* 3 4))"), Value::Num(14));
        assert_eq!(eval_one("(< 1 2)"), Value::Num(1));
        assert_eq!(eval_one("(< 2 1)"), Value::Nil);
        assert_eq!(eval_one("(= 5 5)"), Value::Num(1));
    }

    #[test]
    fn fib_is_correct() {
        assert_eq!(
            eval_one("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)"),
            Value::Num(55)
        );
    }

    #[test]
    fn list_primitives() {
        assert_eq!(eval_one("(car (cons 1 2))"), Value::Num(1));
        assert_eq!(eval_one("(cdr (cons 1 2))"), Value::Num(2));
        assert_eq!(eval_one("(null nil)"), Value::Num(1));
        assert_eq!(eval_one("(null (cons 1 nil))"), Value::Nil);
    }

    #[test]
    fn recursion_over_lists() {
        assert_eq!(
            eval_one(
                "(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))
                 (sum (quotelist 1 2 3 4 5))"
            ),
            Value::Num(15)
        );
    }

    #[test]
    fn if_without_else_yields_nil() {
        assert_eq!(eval_one("(if (< 2 1) 42)"), Value::Nil);
    }

    #[test]
    fn shadowing_uses_innermost_binding() {
        // f binds n, then calls g which rebinds n: the assoc-list lookup
        // must find the innermost frame.
        assert_eq!(
            eval_one(
                "(defun g (n) (+ n 100))
                 (defun f (n) (g (* n 2)))
                 (f 3)"
            ),
            Value::Num(106)
        );
    }

    #[test]
    fn workload_shape_matches_the_original() {
        let trace = traced(trace, Scale::Smoke);
        let stats = trace.stats();
        assert!(
            stats.static_conditional < 80,
            "{}",
            stats.static_conditional
        );
        assert!(stats.dynamic_conditional > 20_000);
        assert_eq!(trace, traced(super::trace, Scale::Smoke), "determinism");
    }
}
