//! Seeded program generators and their reference outputs.
//!
//! Every generator computes the printed result of the program it emits
//! itself, in Rust. No check trusts the engine under test for the value a
//! run must print.

use crate::rng::Rng;
use std::fmt::Write as _;

/// A one-argument function whose value the generator can compute.
#[derive(Clone, Debug)]
pub struct Def {
    pub name: String,
    pub body: Body,
    /// Whether the program's entry calls it. Renames and deletes touch
    /// only uncalled definitions, so every edited program still runs.
    pub called: bool,
}

#[derive(Clone, Copy, Debug)]
pub enum Body {
    /// `(+ (* x a) b)`
    Lin { a: i64, b: i64 },
    /// §2: `(if-r (< (modulo x m) c) (+ x b) (- x b))`
    IfR { m: i64, c: i64, b: i64 },
    /// §6.1: `(case (modulo x 4) [(0) (+ x b)] [(1 2) (* x 2)] [else b])`
    Case { b: i64 },
    /// §6.1: `(exclusive-cond [(< x c) (+ x b)] [(>= x c) (- x b)])`
    Excl { c: i64, b: i64 },
}

impl Body {
    pub fn eval(self, x: i64) -> i64 {
        match self {
            Body::Lin { a, b } => x * a + b,
            Body::IfR { m, c, b } => {
                if x.rem_euclid(m) < c {
                    x + b
                } else {
                    x - b
                }
            }
            Body::Case { b } => match x.rem_euclid(4) {
                0 => x + b,
                1 | 2 => x * 2,
                _ => b,
            },
            Body::Excl { c, b } => {
                if x < c {
                    x + b
                } else {
                    x - b
                }
            }
        }
    }

    fn render(self) -> String {
        match self {
            Body::Lin { a, b } => format!("(+ (* x {a}) {b})"),
            Body::IfR { m, c, b } => format!("(if-r (< (modulo x {m}) {c}) (+ x {b}) (- x {b}))"),
            Body::Case { b } => {
                format!("(case (modulo x 4) [(0) (+ x {b})] [(1 2) (* x 2)] [else {b}])")
            }
            Body::Excl { c, b } => {
                format!("(exclusive-cond [(< x {c}) (+ x {b})] [(>= x {c}) (- x {b})])")
            }
        }
    }

    fn bump(self, d: i64) -> Body {
        match self {
            Body::Lin { a, b } => Body::Lin { a, b: b + d },
            Body::IfR { m, c, b } => Body::IfR { m, c, b: b + d },
            Body::Case { b } => Body::Case { b: b + d },
            Body::Excl { c, b } => Body::Excl { c, b: b + d },
        }
    }
}

/// One top-level form of a generated program.
#[derive(Clone, Debug)]
pub enum Form {
    /// Fixed program text; never edited.
    Raw(String),
    Def(Def),
}

/// The printed result a run must end with.
#[derive(Clone, Debug)]
pub enum Expect {
    Fixed(String),
    /// `Σ_{start <= i < end} Σ_{called defs} f(i)`, recomputed from the
    /// (possibly edited) definitions.
    DefSum {
        start: i64,
        end: i64,
    },
}

/// The final form of a program, which calls into the others with one
/// input mix.
#[derive(Clone, Debug)]
pub struct Entry {
    pub text: String,
    pub expect: Expect,
}

/// A generated program: top-level forms followed by one of its entries.
/// The entry comes last, so every mix of one program shares the spans of
/// every other form and their profiles merge point by point.
#[derive(Clone, Debug)]
pub struct Program {
    pub name: &'static str,
    /// `pgmp-run --libs` value; empty for none.
    pub libs: &'static str,
    pub forms: Vec<Form>,
    /// One entry per training mix; mix 0 is also the one the optimized
    /// runs use.
    pub entries: Vec<Entry>,
}

impl Program {
    pub fn source(&self, mix: usize) -> String {
        let mut out = String::new();
        for form in &self.forms {
            match form {
                Form::Raw(text) => out.push_str(text),
                Form::Def(d) => {
                    let _ = write!(out, "(define ({} x) {})", d.name, d.body.render());
                }
            }
            out.push('\n');
        }
        out.push_str(&self.entries[mix].text);
        out.push('\n');
        out
    }

    /// The last line a run of mix `mix` must print.
    pub fn expected(&self, mix: usize) -> String {
        match &self.entries[mix].expect {
            Expect::Fixed(s) => s.clone(),
            Expect::DefSum { start, end } => {
                let called: Vec<Body> = self
                    .forms
                    .iter()
                    .filter_map(|f| match f {
                        Form::Def(d) if d.called => Some(d.body),
                        _ => None,
                    })
                    .collect();
                let total: i64 = (*start..*end)
                    .map(|i| called.iter().map(|b| b.eval(i)).sum::<i64>())
                    .sum();
                total.to_string()
            }
        }
    }

    /// This program with `edit` applied. Only definitions change, so the
    /// entries stay valid.
    pub fn edited(&self, edit: &Edit) -> Program {
        let mut p = self.clone();
        let pick = |n: usize| ((edit.at * n as f64) as usize).min(n.saturating_sub(1));
        let defs = |called_ok: bool| -> Vec<usize> {
            p.forms
                .iter()
                .enumerate()
                .filter(|(_, f)| matches!(f, Form::Def(d) if called_ok || !d.called))
                .map(|(i, _)| i)
                .collect()
        };
        match edit.kind {
            EditKind::Insert => {
                let at = pick(p.forms.len() + 1);
                p.forms.insert(
                    at,
                    Form::Def(Def {
                        name: "inserted".into(),
                        body: Body::Lin {
                            a: 3,
                            b: edit.delta,
                        },
                        called: false,
                    }),
                );
            }
            EditKind::Rename => {
                let c = defs(false);
                if let Form::Def(d) = &mut p.forms[c[pick(c.len())]] {
                    d.name.push_str("-renamed");
                }
            }
            EditKind::Constant => {
                let c = defs(true);
                if let Form::Def(d) = &mut p.forms[c[pick(c.len())]] {
                    d.body = d.body.bump(edit.delta);
                }
            }
            EditKind::Delete => {
                let c = defs(false);
                p.forms.remove(c[pick(c.len())]);
            }
        }
        p
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    Insert,
    Rename,
    Constant,
    Delete,
}

impl EditKind {
    pub const ALL: [EditKind; 4] = [
        EditKind::Insert,
        EditKind::Rename,
        EditKind::Constant,
        EditKind::Delete,
    ];

    pub fn label(self) -> &'static str {
        match self {
            EditKind::Insert => "insert",
            EditKind::Rename => "rename",
            EditKind::Constant => "constant",
            EditKind::Delete => "delete",
        }
    }
}

/// One small source edit at a relative position `at` in `[0, 1)`.
#[derive(Clone, Copy, Debug)]
pub struct Edit {
    pub kind: EditKind,
    pub at: f64,
    pub delta: i64,
}

/// The edit of step `step`. Kinds rotate from a seeded start, so every
/// four consecutive steps hold one edit of each kind; positions follow a
/// golden-ratio sequence from a seeded offset, so even a short run
/// spreads its edits evenly over the program. Steps are independent:
/// each edits the base program, never a previous step's result.
pub fn edit_for_step(seed: u64, program: &str, step: u64) -> Edit {
    let mut base = Rng::new(seed, &format!("{program}/edits"));
    let kind0 = base.below(4);
    let offset = base.unit();
    let mut rng = Rng::new(seed, &format!("{program}/edit/{step}"));
    let golden = 0.618_033_988_749_894_9;
    Edit {
        kind: EditKind::ALL[((kind0 + step) % 4) as usize],
        at: (offset + step as f64 * golden).fract(),
        delta: rng.range(1, 9),
    }
}

/// Three uncalled helpers spread through `raw`: what the edits of the
/// execution-bound programs touch, so their output never changes.
fn with_helpers(raw: &[&str], rng: &mut Rng) -> Vec<Form> {
    let mut forms: Vec<Form> = raw.iter().map(|s| Form::Raw((*s).to_owned())).collect();
    for (k, at) in [1, raw.len() / 2 + 1, raw.len() + 1]
        .into_iter()
        .enumerate()
    {
        let def = Def {
            name: format!("helper-{k}"),
            body: Body::Lin {
                a: rng.range(2, 9),
                b: rng.range(1, 99),
            },
            called: false,
        };
        forms.insert(at.min(forms.len()), Form::Def(def));
    }
    forms
}

fn quoted_list(items: &[String]) -> String {
    format!("'({})", items.join(" "))
}

// Sizes of the execution-bound programs, chosen so that every optimized
// run takes a similar few tens of milliseconds.
const IFR_NUMBERS: usize = 400;
const IFR_REPS: i64 = 60;
const PARSER_CHARS: usize = 200;
const PARSER_REPS: i64 = 40;
const SHAPES: usize = 150;
const SHAPES_REPS: i64 = 40;
const SEQ_LEN: i64 = 60;
const SEQ_INDICES: usize = 200;
const SEQ_REPS: i64 = 40;
const FIB_NS: [i64; 8] = [15, 16, 17, 17, 18, 18, 19, 20];

/// §2: the `if-r` classifier. Mix 0 is mostly low, mix 1 mostly high.
fn ifr(seed: u64) -> Program {
    let mut rng = Rng::new(seed, "ifr");
    let forms = with_helpers(
        &[
            "(define (classify n) (if-r (< (modulo n 100) 50) 'low 'high))",
            "(define (count-low xs acc) (if (null? xs) acc (count-low (cdr xs) (if (eq? (classify (car xs)) 'low) (+ acc 1) acc))))",
            "(define (bench xs reps) (let loop ([r 0] [acc 0]) (if (= r reps) acc (loop (+ r 1) (+ acc (count-low xs 0))))))",
        ],
        &mut rng,
    );
    let entries = [(0.6, 0.9), (0.1, 0.4)]
        .into_iter()
        .map(|(lo, hi)| {
            let p_low = lo + (hi - lo) * rng.unit();
            let xs: Vec<i64> = (0..IFR_NUMBERS)
                .map(|_| {
                    let low = rng.unit() < p_low;
                    rng.range(0, 9) * 100
                        + if low {
                            rng.range(0, 49)
                        } else {
                            rng.range(50, 99)
                        }
                })
                .collect();
            let lows = xs.iter().filter(|n| *n % 100 < 50).count() as i64;
            let items: Vec<String> = xs.iter().map(i64::to_string).collect();
            Entry {
                text: format!("(bench {} {IFR_REPS})", quoted_list(&items)),
                expect: Expect::Fixed((lows * IFR_REPS).to_string()),
            }
        })
        .collect();
    Program {
        name: "ifr",
        libs: "if-r",
        forms,
        entries,
    }
}

/// §6.1 Figure 5: the character-dispatch parser through profile-guided
/// `case`. It sums a code per token class, so the result checks that
/// every character took the right branch.
fn parser(seed: u64, name: &'static str, libs: &'static str) -> Program {
    let mut rng = Rng::new(seed, name);
    let forms = with_helpers(
        &[
            "(define (make-stream chars) (let ([s (make-eq-hashtable)]) (hashtable-set! s 'data chars) (hashtable-set! s 'pos 0) s))",
            "(define (stream-done? s) (>= (hashtable-ref s 'pos 0) (vector-length (hashtable-ref s 'data #f))))",
            "(define (peek-char-s s) (vector-ref (hashtable-ref s 'data #f) (hashtable-ref s 'pos 0)))",
            "(define (advance! s) (hashtable-set! s 'pos (add1 (hashtable-ref s 'pos 0))))",
            "(define (white-space s) (advance! s) 1)",
            "(define (digit s) (advance! s) 2)",
            "(define (start-paren s) (advance! s) 3)",
            "(define (end-paren s) (advance! s) 4)",
            "(define (other s) (advance! s) 5)",
            "(define (parse stream) (case (peek-char-s stream) [(#\\0 #\\1 #\\2 #\\3 #\\4 #\\5 #\\6 #\\7 #\\8 #\\9) (digit stream)] [(#\\() (start-paren stream)] [(#\\)) (end-paren stream)] [(#\\space #\\tab) (white-space stream)] [else (other stream)]))",
            "(define (run-parser text reps) (let outer ([r 0] [n 0]) (if (= r reps) n (let ([s (make-stream (list->vector (string->list text)))]) (let loop ([acc n]) (if (stream-done? s) (outer (add1 r) acc) (loop (+ acc (parse s)))))))))",
        ],
        &mut rng,
    );
    // Class weights (space, digit, open, close, other): Figure 8's
    // space-heavy mix, and a digit-heavy one.
    let entries = [[55, 10, 23, 23, 5], [10, 60, 10, 10, 10]]
        .into_iter()
        .map(|weights| {
            let total: u64 = weights.iter().sum();
            let mut text = String::new();
            let mut sum = 0i64;
            for _ in 0..PARSER_CHARS {
                let mut r = rng.below(total);
                let class = weights
                    .iter()
                    .position(|w| {
                        if r < *w {
                            true
                        } else {
                            r -= w;
                            false
                        }
                    })
                    .expect("r < total");
                let c = match class {
                    0 => ' ',
                    1 => char::from(b'0' + rng.below(10) as u8),
                    2 => '(',
                    3 => ')',
                    _ => char::from(b'a' + rng.below(6) as u8),
                };
                text.push(c);
                sum += match c {
                    ' ' => 1,
                    '0'..='9' => 2,
                    '(' => 3,
                    ')' => 4,
                    _ => 5,
                };
            }
            Entry {
                text: format!("(run-parser \"{text}\" {PARSER_REPS})"),
                expect: Expect::Fixed((sum * PARSER_REPS).to_string()),
            }
        })
        .collect();
    Program {
        name,
        libs,
        forms,
        entries,
    }
}

/// §6.2: receiver class prediction on the shapes object system. Mix 0
/// is mostly circles (Figure 10), mix 1 mostly squares.
fn shapes(seed: u64) -> Program {
    let mut rng = Rng::new(seed, "shapes");
    let forms = with_helpers(
        &[
            "(class Square ((length 0)) (define-method (area this) (sqr (field this length))))",
            "(class Circle ((radius 0)) (define-method (area this) (* 3 (sqr (field this radius)))))",
            "(class Triangle ((base 0) (height 0)) (define-method (area this) (* (field this base) (field this height))))",
            "(define (make-shape spec) (cond [(eq? (car spec) 'c) (new Circle (cadr spec))] [(eq? (car spec) 's) (new Square (cadr spec))] [else (new Triangle (cadr spec) (caddr spec))]))",
            "(define (total-area shapes reps) (let loop ([r 0] [total 0]) (if (= r reps) total (loop (add1 r) (+ total (fold-left (lambda (acc s) (+ acc (method s area))) 0 shapes))))))",
        ],
        &mut rng,
    );
    let entries = [[7, 2, 1], [2, 7, 1]]
        .into_iter()
        .map(|weights| {
            let mut specs = Vec::new();
            let mut area = 0i64;
            for _ in 0..SHAPES {
                let r = rng.below(10);
                let (spec, a) = if r < weights[0] {
                    let radius = rng.range(1, 5);
                    (format!("(c {radius})"), 3 * radius * radius)
                } else if r < weights[0] + weights[1] {
                    let len = rng.range(1, 4);
                    (format!("(s {len})"), len * len)
                } else {
                    let (b, h) = (rng.range(1, 3), rng.range(1, 3));
                    (format!("(t {b} {h})"), b * h)
                };
                specs.push(spec);
                area += a;
            }
            Entry {
                text: format!(
                    "(total-area (map make-shape {}) {SHAPES_REPS})",
                    quoted_list(&specs)
                ),
                expect: Expect::Fixed((area * SHAPES_REPS).to_string()),
            }
        })
        .collect();
    Program {
        name: "shapes",
        libs: "oo",
        forms,
        entries,
    }
}

/// §6.3 Figure 14: the self-specializing sequence under random access.
/// Mix 0 reads uniformly, mix 1 mostly near the front.
fn sequence(seed: u64) -> Program {
    let mut rng = Rng::new(seed, "sequence");
    let elems: Vec<i64> = (0..SEQ_LEN).map(|_| rng.range(0, 999)).collect();
    let items: Vec<String> = elems.iter().map(i64::to_string).collect();
    let seq = format!("(define s (profiled-sequence {}))", items.join(" "));
    let forms = with_helpers(
        &[
            &seq,
            "(define (sum-at idxs acc) (if (null? idxs) acc (sum-at (cdr idxs) (+ acc (seq-ref s (car idxs))))))",
            "(define (churn idxs reps) (let loop ([r 0] [acc 0]) (if (= r reps) acc (loop (add1 r) (+ acc (sum-at idxs 0))))))",
        ],
        &mut rng,
    );
    let entries = [SEQ_LEN, SEQ_LEN / 6]
        .into_iter()
        .map(|span| {
            let idxs: Vec<i64> = (0..SEQ_INDICES).map(|_| rng.range(0, span - 1)).collect();
            let sum: i64 = idxs.iter().map(|&i| elems[i as usize]).sum();
            let items: Vec<String> = idxs.iter().map(i64::to_string).collect();
            Entry {
                text: format!("(churn {} {SEQ_REPS})", quoted_list(&items)),
                expect: Expect::Fixed((sum * SEQ_REPS).to_string()),
            }
        })
        .collect();
    Program {
        name: "sequence",
        libs: "sequence",
        forms,
        entries,
    }
}

fn fib_value(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Call-heavy `fib`. Each mix sums a seeded order of one fixed multiset
/// plus a seeded constant, so every seed costs the same.
fn fib(seed: u64) -> Program {
    let mut rng = Rng::new(seed, "fib");
    let forms = with_helpers(
        &[
            "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
            "(define (fib-sum ns acc) (if (null? ns) acc (fib-sum (cdr ns) (+ acc (fib (car ns))))))",
        ],
        &mut rng,
    );
    let entries = (0..2)
        .map(|_| {
            let mut ns = FIB_NS.to_vec();
            rng.shuffle(&mut ns);
            let c = rng.range(0, 999);
            let items: Vec<String> = ns.iter().map(i64::to_string).collect();
            Entry {
                text: format!("(fib-sum {} {c})", quoted_list(&items)),
                expect: Expect::Fixed(
                    (c + ns.iter().map(|&n| fib_value(n)).sum::<i64>()).to_string(),
                ),
            }
        })
        .collect();
    Program {
        name: "fib",
        libs: "",
        forms,
        entries,
    }
}

/// The five execution-bound programs of `pgo-exec`.
pub fn pgo_exec_programs(seed: u64) -> Vec<Program> {
    vec![
        ifr(seed),
        parser(seed, "parser", "case"),
        shapes(seed),
        sequence(seed),
        fib(seed),
    ]
}

/// Forms of the compile-bound `edit-loop` program.
pub const EDIT_LOOP_FORMS: usize = 1500;

/// The compile-bound program of `edit-loop`: `EDIT_LOOP_FORMS` one-line
/// definitions, every 5th through `if-r`, `case` or `exclusive-cond`, and
/// a short entry that calls every one of those 5th forms.
pub fn edit_loop_program(seed: u64) -> Program {
    let mut rng = Rng::new(seed, "edit-loop");
    let mut forms = Vec::with_capacity(EDIT_LOOP_FORMS + 3);
    let mut called = Vec::new();
    for k in 0..EDIT_LOOP_FORMS {
        let b = rng.range(1, 99);
        let body = if k % 5 == 0 {
            match (k / 5) % 3 {
                0 => Body::IfR {
                    m: rng.range(2, 9),
                    c: rng.range(1, 8),
                    b,
                },
                1 => Body::Case { b },
                _ => Body::Excl {
                    c: rng.range(0, 24),
                    b,
                },
            }
        } else {
            Body::Lin {
                a: rng.range(1, 9),
                b,
            }
        };
        let name = format!("f{k}");
        if k % 5 == 0 {
            called.push(name.clone());
        }
        forms.push(Form::Def(Def {
            name,
            body,
            called: k % 5 == 0,
        }));
    }
    forms.push(Form::Raw(format!(
        "(define fns (list {}))",
        called.join(" ")
    )));
    forms.push(Form::Raw(
        "(define (apply-all fs x acc) (if (null? fs) acc (apply-all (cdr fs) x (+ acc ((car fs) x)))))"
            .into(),
    ));
    forms.push(Form::Raw(
        "(define (drive i end acc) (if (= i end) acc (drive (+ i 1) end (apply-all fns i acc))))"
            .into(),
    ));
    let entries = (0..2)
        .map(|_| {
            let start = rng.range(0, 8);
            let end = start + 16;
            Entry {
                text: format!("(drive {start} {end} 0)"),
                expect: Expect::DefSum { start, end },
            }
        })
        .collect();
    Program {
        name: "edit-loop",
        libs: "if-r,case",
        forms,
        entries,
    }
}

/// The `online-2t` program: the Figure 5 parser, with every case-study
/// library loaded as an online deployment would.
pub fn online_program(seed: u64) -> Program {
    parser(seed, "online-parser", "all")
}
